"""The custodian's method sweep, run by every traced run.

For each of ``PAPER_METHODS`` x ``PAPER_EPSILONS``: a sanitize, a
``to_publishable`` plus JSON encode, and ``WorkloadEvaluator.evaluate_all``
on the paper's four workloads.  Every release is then reloaded with
``from_publishable`` and must answer those workloads as before.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.frequency_matrix import FrequencyMatrix
from repro.core.private_matrix import PrivateFrequencyMatrix
from repro.engine import Engine
from repro.experiments.figures import PAPER_EPSILONS
from repro.methods.registry import PAPER_METHODS
from repro.queries.evaluator import EvaluationResult, WorkloadEvaluator

from . import release
from .trace import Tracer
from .verify import mismatches

#: Processes that reload releases for the check (the box's cores).
RELOAD_WORKERS = 2


@dataclass
class Released:
    method: str
    epsilon: float
    private: PrivateFrequencyMatrix
    text: str


@dataclass
class Sweep:
    matrix: FrequencyMatrix
    releases: List[Released] = field(default_factory=list)
    rows: List[EvaluationResult] = field(default_factory=list)


def release_all(matrix: FrequencyMatrix, seed: int, tracer: Tracer) -> Sweep:
    """Sanitize, encode and score every paper method at every budget."""
    out = Sweep(matrix)
    workloads = release.eval_workloads(matrix.shape)
    with tracer.span("evaluate.truth"):
        evaluator = WorkloadEvaluator(matrix)
        for workload in workloads:
            evaluator.true_answers(workload)
    noise = np.random.default_rng([seed, 1])
    for method in PAPER_METHODS:
        for epsilon in PAPER_EPSILONS:
            with tracer.span(f"sanitize.{method}"):
                private = release.sanitize(matrix, method, epsilon, noise)
            with tracer.span("release.serialize"):
                text = release.encode(private)
            with tracer.span("evaluate.answer"):
                out.rows.extend(evaluator.evaluate_all(private, workloads))
            out.releases.append(Released(method, epsilon, private, text))
    return out


def _reload_mismatches(task: Tuple[str, np.ndarray, np.ndarray, np.ndarray]) -> int:
    text, lows, highs, expected = task
    return mismatches(expected, Engine(release.decode(text)).answer_arrays(lows, highs))


def reload_failures(sweep: Sweep) -> int:
    """Releases whose ``from_publishable`` reload answers the paper
    workloads differently from the release itself.

    Reloading validates each partitioning's exact cover, which takes
    seconds for the larger grids, so the releases are reloaded by a
    pool of :data:`RELOAD_WORKERS` processes, largest partition lists
    first.
    """
    workloads = release.eval_workloads(sweep.matrix.shape)
    lows = np.concatenate([w.as_arrays()[0] for w in workloads])
    highs = np.concatenate([w.as_arrays()[1] for w in workloads])
    items = sorted(
        sweep.releases,
        key=lambda r: (not r.private.is_dense_backed, r.private.n_partitions),
        reverse=True,
    )
    tasks = [
        (r.text, lows, highs, Engine(r.private).answer_arrays(lows, highs))
        for r in items
    ]
    pool = multiprocessing.get_context("spawn").Pool(RELOAD_WORKERS)
    try:
        counts = pool.map(_reload_mismatches, tasks, chunksize=1)
    finally:
        pool.close()
        pool.join()
    return sum(1 for n in counts if n)
