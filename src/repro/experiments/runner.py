"""The experiment runner: methods x budgets x workloads -> result rows.

One :class:`ResultRow` per (method, epsilon, workload, trial) carrying the
accuracy report and two per-phase wall-clocks: sanitization (Table 3's
metric) and query answering.  Each sanitized matrix is evaluated against
*all* workloads in a single vectorized pass
(:meth:`~repro.queries.WorkloadEvaluator.evaluate_all`), so the query
phase costs one batched engine invocation per trial instead of one Python
loop per (workload, query, partition).  Rows are plain data;
:mod:`repro.experiments.reporting` renders them.

Trials are independent tasks executed through an
:class:`~repro.experiments.parallel.Executor` (``n_jobs=1`` runs them
in-process; ``n_jobs>1`` fans them out across worker processes).  Each
trial's generator is keyed by its (method, epsilon, trial) grid
coordinates rather than spawned sequentially, so serial and parallel
runs of the same seed produce bit-identical rows in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core.frequency_matrix import FrequencyMatrix
from ..dp.rng import RNGLike, derive_entropy, ensure_rng
from ..queries.metrics import AccuracyReport
from ..queries.workload import Workload
from .config import MethodSpec
from .parallel import Executor, TrialTask, get_executor


@dataclass(frozen=True)
class ResultRow:
    """One measured data point."""

    method: str
    epsilon: float
    workload: str
    trial: int
    report: AccuracyReport
    sanitize_seconds: float
    n_partitions: int
    extra: Dict[str, object]
    #: Wall-clock of the batched query phase for this trial.  Measured
    #: *once per trial* (all workloads are answered in one engine call)
    #: and recorded verbatim on each of the trial's rows — like
    #: ``sanitize_seconds``, it is a per-trial quantity, not a per-row
    #: one, so summing it over rows multi-counts.  Aggregation
    #: (:func:`aggregate_rows`) averages over distinct trials.
    query_seconds: float = 0.0
    #: Query plan the engine chose for the trial's batched query phase
    #: (``dense`` / ``broadcast`` / ``pruned`` / ``sharded``), so
    #: ``query_seconds`` is attributable to a strategy.  Deterministic
    #: for a given matrix and workload set, hence identical between
    #: serial and parallel runs.
    plan: str = ""

    @property
    def mre(self) -> float:
        return self.report.mre

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "method": self.method,
            "epsilon": self.epsilon,
            "workload": self.workload,
            "trial": self.trial,
            "sanitize_seconds": self.sanitize_seconds,
            "query_seconds": self.query_seconds,
            "plan": self.plan,
            "n_partitions": self.n_partitions,
        }
        out.update(self.report.as_dict())
        out.update(self.extra)
        return out


def build_trial_tasks(
    method_specs: Sequence[MethodSpec],
    epsilons: Sequence[float],
    n_trials: int,
    entropy: int,
) -> List[TrialTask]:
    """The experiment grid as an ordered task list.

    Tasks are enumerated method-major, then epsilon, then trial — the
    same nesting the serial loop always used — and each carries its grid
    coordinates as the RNG spawn key, so its random stream is fixed by
    position, not by execution order.
    """
    if n_trials < 0:
        raise ValueError(f"cannot run {n_trials} trials")
    return [
        TrialTask(
            spec=spec,
            epsilon=float(epsilon),
            trial=trial,
            entropy=entropy,
            spawn_key=(spec_index, eps_index, trial),
        )
        for spec_index, spec in enumerate(method_specs)
        for eps_index, epsilon in enumerate(epsilons)
        for trial in range(n_trials)
    ]


def run_methods(
    matrix: FrequencyMatrix,
    method_specs: Sequence[MethodSpec],
    epsilons: Sequence[float],
    workloads: Sequence[Workload],
    n_trials: int = 1,
    rng: RNGLike = None,
    extra: Dict[str, object] | None = None,
    n_jobs: int = 1,
    executor: Executor | None = None,
) -> List[ResultRow]:
    """Evaluate every (method, epsilon) pair on every workload.

    Each trial re-runs sanitization with an independent child generator
    keyed by its (method, epsilon, trial) grid position; the ground truth
    is computed once per evaluator and cached.  Per trial, all workloads
    are answered in one batched
    :meth:`~repro.queries.WorkloadEvaluator.evaluate_all` call, and the
    sanitize and query phases are timed separately.

    ``n_jobs`` selects the execution backend (1 = serial in-process,
    ``k > 1`` = a pool of ``k`` worker processes, -1 = all cores); an
    explicit ``executor`` overrides it.  Every trial's query phase runs
    under the default :class:`~repro.engine.EngineConfig`: the plan
    changes speed, never a count, so the rows need no engine setting.
    For the same ``rng`` seed every backend returns bit-identical rows
    in identical order — only the timing fields vary.
    """
    entropy = derive_entropy(ensure_rng(rng))
    tasks = build_trial_tasks(method_specs, epsilons, n_trials, entropy)
    if executor is None:
        executor = get_executor(n_jobs)
    row_lists = executor.run_trials(
        matrix, list(workloads), tasks, dict(extra or {})
    )
    return [row for rows in row_lists for row in rows]


def mean_mre(rows: Iterable[ResultRow]) -> float:
    """Average MRE across rows (e.g. across trials)."""
    values = [r.mre for r in rows]
    if not values:
        raise ValueError("no rows to average")
    return float(np.mean(values))


def aggregate_rows(
    rows: Sequence[ResultRow], keys: Sequence[str] = ("method", "epsilon", "workload")
) -> List[Dict[str, object]]:
    """Group rows by ``keys`` and average MRE and runtime across trials.

    MRE and partition counts are averaged over the member rows.  The
    timing fields are *per-trial* quantities duplicated onto every row of
    a trial (see :attr:`ResultRow.query_seconds`), so they are averaged
    over the distinct trials in the group — a group spanning several
    workloads, or with uneven rows per trial, does not multi-count or
    re-weight a trial's one measurement.
    """
    groups: Dict[tuple, List[ResultRow]] = {}
    for row in rows:
        d = row.as_dict()
        key = tuple(d[k] for k in keys)
        groups.setdefault(key, []).append(row)
    out: List[Dict[str, object]] = []
    for key, members in groups.items():
        entry: Dict[str, object] = dict(zip(keys, key))
        entry["mre"] = float(np.mean([m.mre for m in members]))
        entry["mre_std"] = float(np.std([m.mre for m in members]))
        # extra is part of the identity: merged row sets (e.g. several
        # cities) reuse trial indices, and their measurements must all
        # survive the dedup.
        trial_times: Dict[tuple, tuple] = {
            (m.method, m.epsilon, m.trial, repr(sorted(m.extra.items()))):
                (m.sanitize_seconds, m.query_seconds)
            for m in members
        }
        entry["sanitize_seconds"] = float(
            np.mean([t[0] for t in trial_times.values()])
        )
        entry["query_seconds"] = float(
            np.mean([t[1] for t in trial_times.values()])
        )
        # Every row carries a concrete plan now — the engine stamps one
        # on each batch — so mixed groups are a plain sorted dedup
        # join.  A blank plan can only come from rows built
        # outside the engine (hand-constructed, pre-engine archives);
        # surface those honestly as "unknown" rather than dropping them
        # or emitting a leading separator.
        entry["plan"] = "+".join(sorted({m.plan or "unknown" for m in members}))
        entry["n_partitions"] = float(
            np.mean([m.n_partitions for m in members])
        )
        entry["n_trials"] = len(members)
        if members and members[0].extra:
            for k, v in members[0].extra.items():
                entry.setdefault(k, v)
        out.append(entry)
    return out
