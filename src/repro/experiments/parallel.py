"""Process-parallel trial execution for :func:`~repro.experiments.runner.run_methods`.

The experiment grid (methods x epsilons x trials) is embarrassingly
parallel across trials: each trial sanitizes independently and, since the
query phase is one batched engine call, holds no shared mutable state.
This module extracts the per-trial work into a pure, picklable task
(:func:`_run_trial` over a :class:`TrialTask`) and provides two
:class:`Executor` backends to map tasks to rows:

* :class:`SerialExecutor` — an in-process loop sharing one
  ground-truth-cached :class:`~repro.queries.WorkloadEvaluator`;
* :class:`ProcessPoolTrialExecutor` — a
  :class:`concurrent.futures.ProcessPoolExecutor` fan-out whose workers
  each build the evaluator once (pool initializer), so the matrix and
  workloads are pickled once per worker rather than once per trial.

**Equivalence guarantee.**  Each trial's generator is rebuilt from the
run's root entropy and the trial's grid coordinates via
:func:`~repro.dp.rng.spawn_key_rng` — a pure function of
``(entropy, (method_index, epsilon_index, trial))`` — so the noise a
trial sees does not depend on scheduling, worker assignment, or which
trials ran before it.  Both backends return rows in task-submission
order (``ProcessPoolExecutor.map`` preserves order), making
``n_jobs > 1`` output row-for-row identical to serial;
``tests/experiments/test_parallel.py`` enforces this across grid, AG,
quadtree, kd-tree, and DAF sanitizers.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

from ..core.exceptions import ValidationError
from ..core.frequency_matrix import FrequencyMatrix
from ..dp.rng import spawn_key_rng
from ..methods.registry import get_sanitizer
from ..queries.evaluator import WorkloadEvaluator
from ..queries.workload import Workload
from .config import MethodSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .runner import ResultRow


@dataclass(frozen=True)
class TrialTask:
    """One (method, epsilon, trial) cell of the experiment grid.

    ``spawn_key`` is the cell's coordinates ``(method_index,
    epsilon_index, trial)``; together with the run-wide root ``entropy``
    it fully determines the trial's random stream, independent of
    execution order (see :func:`~repro.dp.rng.spawn_key_rng`).
    """

    spec: MethodSpec
    epsilon: float
    trial: int
    entropy: int
    spawn_key: Tuple[int, int, int]


def _run_trial(
    matrix: FrequencyMatrix,
    workloads: Sequence[Workload],
    task: TrialTask,
    extra: Dict[str, object] | None = None,
    evaluator: WorkloadEvaluator | None = None,
) -> List["ResultRow"]:
    """Run one trial: sanitize, answer all workloads, build result rows.

    Pure with respect to process state: everything the trial needs
    arrives through the arguments, and the random stream is rebuilt from
    ``task.entropy`` and ``task.spawn_key`` alone.  ``evaluator`` is an
    optional ground-truth cache; omitting it means a fresh one.
    """
    from .runner import ResultRow

    rng = spawn_key_rng(task.entropy, task.spawn_key)
    sanitizer = get_sanitizer(task.spec.name, **task.spec.as_kwargs())
    start = time.perf_counter()
    private = sanitizer.sanitize(matrix, task.epsilon, rng)
    sanitize_elapsed = time.perf_counter() - start
    if evaluator is None:
        evaluator = WorkloadEvaluator(matrix)
    start = time.perf_counter()
    results = evaluator.evaluate_all(private, list(workloads))
    query_elapsed = time.perf_counter() - start
    return [
        ResultRow(
            method=task.spec.label,
            epsilon=task.epsilon,
            workload=result.workload,
            trial=task.trial,
            report=result.report,
            sanitize_seconds=sanitize_elapsed,
            n_partitions=private.n_partitions,
            extra=dict(extra or {}),
            query_seconds=query_elapsed,
            plan=result.plan,
        )
        for result in results
    ]


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request: ``-1`` means all cores."""
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


class Executor(abc.ABC):
    """Maps :class:`TrialTask`s to their result rows, preserving order."""

    @abc.abstractmethod
    def run_trials(
        self,
        matrix: FrequencyMatrix,
        workloads: Sequence[Workload],
        tasks: Sequence[TrialTask],
        extra: Dict[str, object] | None = None,
    ) -> List[List["ResultRow"]]:
        """One row list per task, in task order."""


class SerialExecutor(Executor):
    """In-process execution; ground truth is computed once and shared."""

    def run_trials(self, matrix, workloads, tasks, extra=None):
        evaluator = WorkloadEvaluator(matrix)
        return [
            _run_trial(matrix, workloads, task, extra, evaluator=evaluator)
            for task in tasks
        ]


# Per-worker-process cache, so the matrix/workloads reach each worker
# once rather than once per task.  Populated either in the parent just
# before forking (workers inherit it copy-on-write, no pickling at all)
# or by the pool initializer on platforms without fork.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    matrix: FrequencyMatrix,
    workloads: Sequence[Workload],
    extra: Dict[str, object] | None,
) -> None:
    evaluator = WorkloadEvaluator(matrix)
    for workload in workloads:
        evaluator.true_answers(workload)  # warm the cache before any trial
    _WORKER_STATE["matrix"] = matrix
    _WORKER_STATE["workloads"] = list(workloads)
    _WORKER_STATE["extra"] = extra
    _WORKER_STATE["evaluator"] = evaluator


def _run_trial_in_worker(task: TrialTask) -> List["ResultRow"]:
    return _run_trial(
        _WORKER_STATE["matrix"],
        _WORKER_STATE["workloads"],
        task,
        _WORKER_STATE["extra"],
        evaluator=_WORKER_STATE["evaluator"],
    )


class ProcessPoolTrialExecutor(Executor):
    """Fan trials out across worker processes.

    ``ProcessPoolExecutor.map`` returns results in submission order
    regardless of completion order, so row ordering matches
    :class:`SerialExecutor`.
    """

    def __init__(self, n_jobs: int):
        self.n_jobs = resolve_n_jobs(n_jobs)

    @staticmethod
    def _fork_context():
        # Fork is only safe where no BLAS/runtime threads predate it:
        # macOS forking after Accelerate/ObjC initialization can deadlock
        # (the reason CPython's default start method there is spawn).
        if sys.platform == "linux":
            try:
                return multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - fork unavailable
                return None
        return None

    def run_trials(self, matrix, workloads, tasks, extra=None):
        tasks = list(tasks)
        if not tasks:
            return []
        workers = min(self.n_jobs, len(tasks))
        if workers <= 1:
            return SerialExecutor().run_trials(matrix, workloads, tasks, extra)
        ctx = self._fork_context()
        if ctx is not None:
            # Fork path: stage the state in the parent so workers inherit
            # the matrix, workloads, and warmed ground-truth cache
            # copy-on-write — nothing heavyweight crosses a pipe.
            _init_worker(matrix, list(workloads), extra)
            try:
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx
                ) as pool:
                    return list(pool.map(_run_trial_in_worker, tasks))
            finally:
                _WORKER_STATE.clear()
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(matrix, list(workloads), extra),
        ) as pool:
            return list(pool.map(_run_trial_in_worker, tasks))


def get_executor(n_jobs: int = 1) -> Executor:
    """Executor for an ``n_jobs`` request (1 = serial, -1 = all cores)."""
    resolved = resolve_n_jobs(n_jobs)
    if resolved == 1:
        return SerialExecutor()
    return ProcessPoolTrialExecutor(resolved)
