"""Evaluating private matrices against ground truth over workloads.

Ground-truth answers come from a :class:`~repro.core.PrefixSumTable` built
once per matrix; private answers go through the
:mod:`repro.engine` serving facade.  The result rows feed the
experiment harness and the figure benchmarks directly.

Everything here is batch-first: workloads expose their queries as packed
``(lows, highs)`` arrays (:meth:`~repro.queries.workload.Workload.as_arrays`),
ground truth per workload is computed in one
:meth:`~repro.core.PrefixSumTable.query_arrays` call and cached, and
:meth:`WorkloadEvaluator.evaluate_all` answers *all* workloads for a
private matrix with a single :meth:`~repro.engine.Engine.answer`
invocation — the engine's cost model chooses the plan (geometric
kernel, pruned gather, or dense prefix sums) once for the whole batch.
Every private matrix is answered with the default
:class:`~repro.engine.EngineConfig`: plans differ in speed, never in
the counts they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core.exceptions import QueryError
from ..core.frequency_matrix import FrequencyMatrix
from ..core.prefix_sum import PrefixSumTable
from ..core.private_matrix import PrivateFrequencyMatrix
from ..engine import Engine, QueryRequest
from .metrics import DEFAULT_FLOOR, AccuracyReport, accuracy_report
from .workload import Workload


@dataclass(frozen=True)
class EvaluationResult:
    """Accuracy of one private matrix on one workload."""

    method: str
    workload: str
    epsilon: float
    report: AccuracyReport
    #: Query plan the engine chose for the batch this workload was
    #: answered in (``dense`` / ``broadcast`` / ``pruned``; always
    #: stamped — see :attr:`~repro.engine.QueryAnswer.plan`).
    plan: str = ""

    @property
    def mre(self) -> float:
        return self.report.mre

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "method": self.method,
            "workload": self.workload,
            "epsilon": self.epsilon,
            "plan": self.plan,
        }
        out.update(self.report.as_dict())
        return out


class WorkloadEvaluator:
    """Caches ground-truth answers for a matrix across many evaluations."""

    def __init__(self, matrix: FrequencyMatrix, floor: float = DEFAULT_FLOOR):
        self._matrix = matrix
        self._floor = floor
        self._table = PrefixSumTable(matrix.data)
        self._truth_cache: Dict[str, np.ndarray] = {}

    @property
    def matrix(self) -> FrequencyMatrix:
        return self._matrix

    @staticmethod
    def _cache_key(workload: Workload) -> str:
        return f"{workload.name}:{len(workload)}:{hash(workload.queries)}"

    def true_answers(self, workload: Workload) -> np.ndarray:
        """Exact workload answers (cached per workload name + content)."""
        # Workload arrays are validated against *their own* shape; the
        # cheap guard here keeps a mismatched workload a clean QueryError
        # instead of a raw gather IndexError (or a silent wrong answer).
        if workload.shape != self._matrix.shape:
            raise QueryError(
                f"workload {workload.name!r} is for shape {workload.shape}, "
                f"evaluator matrix has shape {self._matrix.shape}"
            )
        key = self._cache_key(workload)
        if key not in self._truth_cache:
            lows, highs = workload.as_arrays()
            self._truth_cache[key] = self._table.query_arrays(lows, highs)
        return self._truth_cache[key]

    def evaluate(
        self, private: PrivateFrequencyMatrix, workload: Workload
    ) -> EvaluationResult:
        """Accuracy of ``private`` on ``workload``."""
        return self.evaluate_all(private, [workload])[0]

    def evaluate_all(
        self,
        private: PrivateFrequencyMatrix,
        workloads: Sequence[Workload],
    ) -> List[EvaluationResult]:
        """Accuracy of ``private`` on every workload, in one batched pass.

        All workloads' boxes are concatenated into a single
        :meth:`~repro.engine.Engine.answer` call so the plan choice
        (broadcast kernel, index-pruned gather, or dense prefix sums)
        and any dense reconstruction are amortized across the whole
        cross product, then the answer vector is split back per
        workload.  The chosen plan is recorded on every result.
        """
        workloads = list(workloads)
        if not workloads:
            return []
        truths = [self.true_answers(w) for w in workloads]
        arrays = [w.as_arrays() for w in workloads]
        lows = np.concatenate([a[0] for a in arrays], axis=0)
        highs = np.concatenate([a[1] for a in arrays], axis=0)
        answer = Engine(private).answer(
            QueryRequest(
                lows, highs, workload="+".join(w.name for w in workloads)
            )
        )
        results: List[EvaluationResult] = []
        offset = 0
        for workload, truth in zip(workloads, truths):
            chunk = answer.answers[offset : offset + len(workload)]
            offset += len(workload)
            results.append(
                EvaluationResult(
                    method=private.method,
                    workload=workload.name,
                    epsilon=private.epsilon,
                    report=accuracy_report(truth, chunk, self._floor),
                    plan=answer.plan,
                )
            )
        return results

    def evaluate_many(
        self,
        privates: Iterable[PrivateFrequencyMatrix],
        workloads: Sequence[Workload],
    ) -> List[EvaluationResult]:
        """Cross product of private matrices and workloads."""
        results: List[EvaluationResult] = []
        for private in privates:
            results.extend(self.evaluate_all(private, workloads))
        return results
