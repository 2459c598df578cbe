"""Seeded query traffic: the only input the serving workloads vary.

Queries come from the paper's own generators in ``repro.queries.workload``
(``random_workload``, ``fixed_coverage_workload``, ``paper_workloads``),
so the served traffic and the evaluator share one definition of each
workload.  All traffic of a run comes from one ``numpy.random.Generator``
seeded with ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.queries.workload import (
    fixed_coverage_workload,
    paper_workloads,
    random_workload,
)

#: Coverage of ``serve_point``'s coverage queries (the paper's 1 %).
POINT_COVERAGE = 0.01

#: Queries per ``serve_point`` request and its open-loop arrival rate.
POINT_QUERIES = 4
POINT_RATE = 200.0

#: Query-count range of a ``serve_batch`` request (inclusive).
BATCH_QUERIES = (128, 256)


@dataclass(frozen=True)
class Request:
    """One HTTP query batch: its bounds and the encoded body sent."""

    lows: np.ndarray
    highs: np.ndarray
    body: bytes

    @property
    def n_queries(self) -> int:
        return int(self.lows.shape[0])


def encode_request(lows: np.ndarray, highs: np.ndarray) -> Request:
    body = json.dumps({"lows": lows.tolist(), "highs": highs.tolist()})
    return Request(lows, highs, body.encode("utf-8"))


def point_requests(
    shape: Sequence[int], n_requests: int, rng: np.random.Generator
) -> List[Request]:
    """``serve_point`` traffic: each query random or 1 %-coverage, 50/50."""
    n = n_requests * POINT_QUERIES
    pick = rng.random(n) < 0.5
    lows = np.empty((n, len(shape)), dtype=np.int64)
    highs = np.empty_like(lows)
    for mask, make in (
        (pick, lambda k: random_workload(shape, k, rng)),
        (~pick, lambda k: fixed_coverage_workload(shape, POINT_COVERAGE, k, rng)),
    ):
        if mask.any():
            lows[mask], highs[mask] = make(int(mask.sum())).as_arrays()
    return [
        encode_request(lows[i : i + POINT_QUERIES], highs[i : i + POINT_QUERIES])
        for i in range(0, n, POINT_QUERIES)
    ]


def batch_requests(
    shape: Sequence[int], n_requests: int, rng: np.random.Generator
) -> List[Request]:
    """``serve_batch`` traffic: 128-256 queries, a quarter from each of the
    paper's four workloads (random, 1 %, 5 %, 10 % coverage)."""
    sizes = rng.integers(BATCH_QUERIES[0], BATCH_QUERIES[1] + 1, size=n_requests)
    per_family = -(-sizes // 4)
    families = [w.as_arrays() for w in paper_workloads(shape, int(per_family.sum()), rng)]
    lows = np.stack([f[0] for f in families])
    highs = np.stack([f[1] for f in families])
    out, start = [], 0
    for q, step in zip(sizes, per_family):
        i = np.arange(q)
        rows = (i % 4, start + i // 4)
        out.append(encode_request(lows[rows], highs[rows]))
        start += step
    return out


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Open-loop send times (seconds from the start) of a Poisson process.

    Depends only on ``(rate, seconds, seed)``, so equal seeds replay the
    same arrivals.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    n = int(rate * seconds * 1.5) + 64
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while times[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, size=n)) + times[-1]
        times = np.concatenate([times, more])
    return times[times < seconds]
