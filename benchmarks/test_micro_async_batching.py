"""Microbenchmark: async micro-batching amortization and exactness.

Two claims about the :class:`~repro.engine.AsyncBatchEngine` serving
endpoint, measured on the query-engine benchmark substrate:

* **Amortization** — many concurrent clients answered through one
  micro-batched tick must beat the same clients hitting the same
  endpoint one-by-one (``EngineConfig(max_batch_size=1)``: every
  request pays its own tick — flush machinery plus a full engine
  invocation) by at least ``SPEEDUP_FLOOR`` in amortized per-query
  latency.  This isolates exactly what batching amortizes, is
  single-threaded (no core-count skip marker needed), and is the
  ``speedup`` series the regression gate tracks.  ``N_PAIRS``
  alternating unbatched/batched runs are timed and ``speedup`` is the
  ratio of their medians, so one run slowed by a neighbour on the
  cores cannot sink it; the per-pair ratios are recorded as the
  spread.  The wall-clock of a plain synchronous ``Engine.answer``
  loop is recorded alongside (``sync_speedup``) as untracked context —
  it mixes endpoint overhead into the baseline, so it is noisier.
* **Exactness** — batched answers must be **bit-identical** to the
  unbatched ones: ``async_max_abs_diff`` is asserted to be exactly 0.0
  (the engine pins the plan, and every kernel's per-query reduction is
  batch-shape-independent), and the gate enforces the recorded value as
  an absolute ceiling.

Results are written to ``bench-out/BENCH_async_batching.json``;
``tools/bench_gate.py`` tracks ``speedup`` (relative) and
``async_max_abs_diff`` (absolute) across commits.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from repro.core import PLAN_DENSE
from repro.datagen import grid_substrate
from repro.engine import (
    AsyncBatchEngine,
    Engine,
    EngineConfig,
    QueryRequest,
    gather_answers,
)

from .conftest import write_bench_artifact

SHAPE = (256, 256)
GRID_M = 64  # 64 x 64 = 4096 partitions
N_CLIENTS = 256
QUERIES_PER_CLIENT = 2
QUERY_EXTENT = 3

#: Enforced floor on the endpoint-vs-endpoint amortization (measured
#: ~3x on the development container; single-threaded, so it holds on
#: narrow machines too).
SPEEDUP_FLOOR = 2.0

#: Alternating unbatched/batched runs; ``speedup`` is the ratio of the
#: two medians.
N_PAIRS = 5

#: The serving plan is pinned: determinism lever (bit-identical batched
#: answers) and the route whose per-invocation fixed cost the tick
#: amortizes best at this scale.
PLAN = PLAN_DENSE


def _client_requests(rng) -> list[QueryRequest]:
    requests = []
    for i in range(N_CLIENTS):
        a = rng.integers(0, SHAPE[0], size=(QUERIES_PER_CLIENT, 2))
        b = a + rng.integers(0, QUERY_EXTENT, size=a.shape)
        requests.append(
            QueryRequest(
                np.minimum(a, b).astype(np.int64),
                np.minimum(np.maximum(a, b), np.array(SHAPE) - 1).astype(
                    np.int64
                ),
                workload=f"client-{i}",
            )
        )
    return requests


def _serve(private, requests, max_batch_size: int):
    """All clients through one endpoint; returns (answers, seconds, ticks)."""
    config = EngineConfig(plan=PLAN, max_batch_size=max_batch_size)
    engine = Engine(private, config)

    async def run():
        batcher = AsyncBatchEngine(engine)
        start = time.perf_counter()
        answers = await gather_answers(batcher, requests)
        elapsed = time.perf_counter() - start
        return answers, elapsed, batcher.stats["ticks"]

    return asyncio.run(run())


def test_async_batching_amortization_and_exactness():
    private = grid_substrate(SHAPE, GRID_M, seed=0)
    engine = Engine(private, EngineConfig(plan=PLAN))
    requests = _client_requests(np.random.default_rng(1))
    n_queries = sum(len(r) for r in requests)

    # Warm every cache the routes share (prefix table, kernels).
    for request in requests[:8]:
        engine.answer(request)

    unbatched_runs, batched_runs = [], []
    for _ in range(N_PAIRS):
        # One-by-one through the endpoint: a tick per request.
        unbatched_runs.append(_serve(private, requests, max_batch_size=1))
        # Micro-batched: every client lands in one tick.
        batched_runs.append(_serve(private, requests, max_batch_size=N_CLIENTS))
    unbatched_times = [seconds for _, seconds, _ in unbatched_runs]
    batched_times = [seconds for _, seconds, _ in batched_runs]
    unbatched_seconds = statistics.median(unbatched_times)
    batched_seconds = statistics.median(batched_times)
    pair_speedups = [u / b for u, b in zip(unbatched_times, batched_times)]
    # A run never has more ticks than requests, nor fewer than one.
    unbatched_ticks = min(ticks for _, _, ticks in unbatched_runs)
    batched_ticks = max(ticks for _, _, ticks in batched_runs)
    batched = batched_runs[0][0]
    # Context series: a synchronous answer loop outside the endpoint.
    start = time.perf_counter()
    sync = [engine.answer(request) for request in requests]
    sync_seconds = time.perf_counter() - start

    # Every run of either kind must equal the first batched run.
    async_max_abs_diff = max(
        float(np.abs(u.answers - b.answers).max())
        for answers, _, _ in unbatched_runs + batched_runs
        for u, b in zip(answers, batched)
    )
    sync_max_abs_diff = max(
        float(np.abs(s.answers - b.answers).max())
        for s, b in zip(sync, batched)
    )
    speedup = unbatched_seconds / batched_seconds
    sync_speedup = sync_seconds / batched_seconds

    payload = {
        "shape": list(SHAPE),
        "n_partitions": private.n_partitions,
        "n_clients": N_CLIENTS,
        "queries_per_client": QUERIES_PER_CLIENT,
        "n_queries": n_queries,
        "plan": PLAN,
        "unbatched_seconds": unbatched_seconds,
        "unbatched_ticks": unbatched_ticks,
        "batched_seconds": batched_seconds,
        "batched_ticks": batched_ticks,
        "sync_seconds": sync_seconds,
        "unbatched_us_per_query": 1e6 * unbatched_seconds / n_queries,
        "batched_us_per_query": 1e6 * batched_seconds / n_queries,
        "speedup": speedup,
        "n_pairs": N_PAIRS,
        "unbatched_seconds_runs": unbatched_times,
        "batched_seconds_runs": batched_times,
        "pair_speedup_min": min(pair_speedups),
        "pair_speedup_max": max(pair_speedups),
        "sync_speedup": sync_speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "async_max_abs_diff": async_max_abs_diff,
        "sync_max_abs_diff": sync_max_abs_diff,
    }
    write_bench_artifact("async_batching", payload)
    print(
        f"\n{N_CLIENTS} clients x {QUERIES_PER_CLIENT} queries, plan={PLAN}: "
        f"unbatched {1e3 * unbatched_seconds:.1f}ms ({unbatched_ticks} "
        f"ticks) vs batched {1e3 * batched_seconds:.1f}ms ({batched_ticks} "
        f"tick(s)), medians of {N_PAIRS} pairs -> {speedup:.2f}x "
        f"(pairs {min(pair_speedups):.2f}-{max(pair_speedups):.2f}x, "
        f"sync loop {sync_speedup:.2f}x); "
        f"drift {async_max_abs_diff:.3g}"
    )

    assert batched_ticks == 1, "all clients must share one tick"
    assert unbatched_ticks == N_CLIENTS
    # The determinism guarantee: exactly zero drift, not 1e-9.
    assert async_max_abs_diff == 0.0
    assert sync_max_abs_diff == 0.0
    assert speedup >= SPEEDUP_FLOOR, (
        f"micro-batching amortized only {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
