"""Microbenchmark: the HTTP serving layer's exactness and responsiveness.

Two claims about :class:`~repro.engine.EngineServer`, each measured on
servers booted in-process on :func:`repro.datagen.grid_substrate`:

* **Exactness** — concurrent :class:`~repro.engine.AsyncServingClient`
  connections query a server that answers through the resident shard
  worker pool (``plan=sharded, shard_executor=resident``).  Every HTTP
  answer is compared with a serial in-process ``plan=sharded`` engine
  on the same matrix: the JSON transport is ``repr``-exact and the pool
  reads the very same shard arrays, so ``serving_max_abs_diff`` must be
  exactly 0.0.
* **Responsiveness** — a ``512 × 512`` substrate with one partition per
  cell (``k = 262144``) takes a few deliberately heavy batches, first
  on an off-loop server, then on an on-loop one, and each server's own
  loop-lag monitor records the longest stretch its event loop could
  not run.  Queries per request double from ``HEAVY_MIN_QUERIES`` until
  one in-process ``Engine.answer`` takes ``HEAVY_TICK_S``, so the
  kernel dwarfs the on-loop work a request costs even off-loop (JSON,
  coercion) however fast the kernel gets.  ``responsiveness_ratio =
  on_loop_max_lag / off_loop_max_lag`` must be at least
  ``RESPONSIVENESS_FLOOR``: dispatching kernels into the tick thread
  must keep the loop that much more responsive.

Results are written to ``bench-out/BENCH_serving.json``;
``tools/bench_gate.py`` holds ``responsiveness_ratio`` to an absolute
floor and ``serving_max_abs_diff`` to the exactness ceiling.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.datagen import grid_substrate
from repro.engine import (
    AsyncServingClient,
    Engine,
    EngineConfig,
    EngineServer,
    QueryRequest,
)

from .conftest import write_bench_artifact

SHAPE = (256, 256)
GRID_M = 64  # 64 x 64 = 4096 partitions
N_CLIENTS = 32
REQUESTS_PER_CLIENT = 4
QUERIES_PER_REQUEST = 4
QUERY_EXTENT = 4

#: Side of the responsiveness phase's square substrate, one partition
#: per cell.
HEAVY_SIDE = 512
#: The heavy phase's plan: one in-process kernel whose per-tick cost
#: grows predictably with queries × partitions.
HEAVY_PLAN = "broadcast"
#: In-process tick the heavy batches are sized to reach: on-loop lag
#: then lands in the hundreds of ms, far above off-loop scheduling noise.
HEAVY_TICK_S = 0.2
#: Smallest heavy batch tried, and the cap on doubling it.
HEAVY_MIN_QUERIES = 16
HEAVY_MAX_QUERIES = 16_384
HEAVY_REQUESTS = 4

#: Required on-loop / off-loop max-lag ratio (the gate's absolute floor).
RESPONSIVENESS_FLOOR = 5.0


def _boxes(rng, side: int, n: int, extent: int):
    """``n`` inclusive square-matrix boxes of half-extent ``<= extent``."""
    centers = rng.integers(0, side, size=(n, 2))
    spans = rng.integers(0, extent + 1, size=centers.shape)
    return np.maximum(centers - spans, 0), np.minimum(centers + spans, side - 1)


async def _served(engine: Engine, batches, off_loop: bool = True):
    """Serve ``batches`` to concurrent clients; ``(answers, max_lag)``.

    Each of ``len(batches)`` clients opens its own connection and sends
    its list of ``(lows, highs)`` requests one after another.
    """
    server = EngineServer(engine, off_loop=off_loop)
    await server.start()
    try:
        async def client(requests):
            async with AsyncServingClient(port=server.port) as c:
                return [(await c.query(*r)).answers for r in requests]

        answers = await asyncio.gather(*(client(b) for b in batches))
    finally:
        await server.shutdown()
    return answers, server.monitor.max_lag


def _serving_max_abs_diff(rng) -> float:
    private = grid_substrate(SHAPE, GRID_M, seed=0)
    batches = [
        [
            _boxes(rng, SHAPE[0], QUERIES_PER_REQUEST, QUERY_EXTENT)
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for _ in range(N_CLIENTS)
    ]
    served, _ = asyncio.run(_served(
        Engine(private, EngineConfig(plan="sharded", shard_executor="resident")),
        batches,
    ))
    serial = Engine(private, EngineConfig(plan="sharded"))
    return max(
        float(np.abs(answers - serial.answer(QueryRequest(*r)).answers).max())
        for client, requests in zip(served, batches)
        for answers, r in zip(client, requests)
    )


def _heavy_batches(engine: Engine, rng):
    """Heavy requests sized by a measured tick; ``(batches, tick_s)``."""
    # The first call builds the engine's lazy state; keep it untimed.
    engine.answer(QueryRequest(*_boxes(rng, HEAVY_SIDE, 1, 0)))
    n_queries = HEAVY_MIN_QUERIES
    while True:
        request = _boxes(rng, HEAVY_SIDE, n_queries, HEAVY_SIDE // 2)
        start = time.perf_counter()
        engine.answer(QueryRequest(*request))
        tick = time.perf_counter() - start
        if tick >= HEAVY_TICK_S or n_queries >= HEAVY_MAX_QUERIES:
            break
        n_queries *= 2
    batches = [[request]] + [
        [_boxes(rng, HEAVY_SIDE, n_queries, HEAVY_SIDE // 2)]
        for _ in range(HEAVY_REQUESTS - 1)
    ]
    return batches, tick


def test_serving_exactness_and_responsiveness():
    rng = np.random.default_rng(17)
    serving_max_abs_diff = _serving_max_abs_diff(rng)

    heavy = Engine(
        grid_substrate((HEAVY_SIDE, HEAVY_SIDE), HEAVY_SIDE, seed=0),
        EngineConfig(plan=HEAVY_PLAN),
    )
    batches, heavy_tick = _heavy_batches(heavy, rng)
    heavy_queries = len(batches[0][0][0])
    _, off_lag = asyncio.run(_served(heavy, batches, off_loop=True))
    _, on_lag = asyncio.run(_served(heavy, batches, off_loop=False))
    # Guard the denominator: a perfectly responsive loop would
    # otherwise make the ratio infinite.
    ratio = on_lag / max(off_lag, 1e-6)

    write_bench_artifact("serving", {
        "shape": list(SHAPE),
        "n_partitions": GRID_M ** 2,
        "n_requests": N_CLIENTS * REQUESTS_PER_CLIENT,
        "queries_per_request": QUERIES_PER_REQUEST,
        "serving_max_abs_diff": serving_max_abs_diff,
        "heavy_shape": [HEAVY_SIDE, HEAVY_SIDE],
        "heavy_n_partitions": HEAVY_SIDE ** 2,
        "heavy_plan": HEAVY_PLAN,
        "heavy_queries_per_request": heavy_queries,
        "heavy_tick_ms": 1e3 * heavy_tick,
        "off_loop_max_lag_ms": 1e3 * off_lag,
        "on_loop_max_lag_ms": 1e3 * on_lag,
        "responsiveness_ratio": ratio,
        "responsiveness_floor": RESPONSIVENESS_FLOOR,
    })
    print(
        f"\nresident pool over HTTP: drift {serving_max_abs_diff:.3g}; "
        f"heavy ticks of {heavy_queries} queries "
        f"({1e3 * heavy_tick:.0f}ms in-process): on-loop max lag "
        f"{1e3 * on_lag:.1f}ms vs off-loop {1e3 * off_lag:.1f}ms -> "
        f"{ratio:.1f}x"
    )

    # Bit-identity, not a tolerance.
    assert serving_max_abs_diff == 0.0
    assert ratio >= RESPONSIVENESS_FLOOR, (
        f"responsiveness ratio {ratio:.2f} below floor {RESPONSIVENESS_FLOOR}"
    )
