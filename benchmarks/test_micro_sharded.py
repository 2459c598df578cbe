"""Microbenchmark: sharded evaluation on the resident worker pool.

Two claims, measured on the same fixed substrate style as the other
micro benchmarks (scale presets size the figure reproductions, not
these):

* **Skip exactness** — on a batch of corner-confined queries most
  shards' candidate bounds are empty; those shards must skip the gather
  (observable skip counter) and the merged answers must still match the
  one-node broadcast kernel within 1e-9.
* **Resident amortized speedup** — the headline.  A
  :class:`~repro.engine.ShardWorkerPool` is spawned **once** (each
  worker receives its shard; the spawn cost is recorded separately)
  and then answers ``R`` rounds of batches; the amortized per-round
  time must beat serial shard evaluation by a hard floor, but only on
  a machine with at least ``N_SHARDS`` usable cores.  On narrower
  machines the artifact carries a ``skipped_low_cores`` marker and *no*
  speedup record (same policy as the parallel-trials bench: four
  workers sharing one core measure the machine, not the code, and a
  sub-1x record would only trip the regression gate).

Pool answers must be **bit-identical** to serial sharded evaluation
(the workers answer on the very same cached shards and the merge order
is fixed), so ``resident_max_abs_diff`` is asserted at exactly
0.0 — not a tolerance — on every machine.

Results are written to ``bench-out/BENCH_sharded.json``;
``tools/bench_gate.py`` tracks ``speedup`` (relative, skip-aware) and
the ``sharded_max_abs_diff`` / ``resident_max_abs_diff`` absolute
ceilings across commits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datagen import grid_substrate
from repro.engine import Engine, EngineConfig, QueryRequest

from .conftest import usable_cores, write_bench_artifact

SHAPE = (512, 512)
GRID_M = 96  # 96 x 96 = 9216 partitions
N_QUERIES = 8_000
N_SHARDS = 4
ROUNDS = 6  # resident rounds the one-time spawn is amortized over
SKIP_SHARDS = 8
SKIP_QUERIES = 1_000

#: The headline target, recorded in the artifact.
SPEEDUP_TARGET = 2.0
#: The hard floor asserted when >= N_SHARDS cores are usable.
#: Deliberately conservative: the per-shard work is NumPy broadcasting,
#: which is partly memory-bandwidth-bound, so SMT "cores" help less
#: than they do for the Python-heavy sanitizers.
SPEEDUP_FLOOR = 1.3


def _round_batches(rng: np.random.Generator):
    """``ROUNDS`` distinct mixed-size query batches (fixed seeds)."""
    batches = []
    for _ in range(ROUNDS):
        a = rng.integers(0, SHAPE[0], size=(N_QUERIES, 2))
        b = rng.integers(0, SHAPE[0], size=(N_QUERIES, 2))
        batches.append(
            (np.minimum(a, b).astype(np.int64),
             np.maximum(a, b).astype(np.int64))
        )
    return batches


def test_sharded_skip_exactness_and_resident_speedup():
    private = grid_substrate(SHAPE, GRID_M, seed=0)
    packed = private.packed
    rng = np.random.default_rng(1)

    # --- Skip claim: corner-confined small queries -------------------
    skip_lows = np.stack(
        [
            rng.integers(0, SHAPE[0] // SKIP_SHARDS, size=SKIP_QUERIES),
            rng.integers(0, SHAPE[1] - 4, size=SKIP_QUERIES),
        ],
        axis=1,
    ).astype(np.int64)
    skip_highs = skip_lows + rng.integers(0, 4, size=skip_lows.shape)
    skip_highs = np.minimum(
        skip_highs, np.array([SHAPE[0] // SKIP_SHARDS - 1, SHAPE[1] - 1])
    )
    skip_result = Engine(
        private, EngineConfig(n_shards=SKIP_SHARDS)
    ).answer(QueryRequest(skip_lows, skip_highs))
    skip_broadcast = packed.answer_many_arrays(skip_lows, skip_highs)
    skip_rate = skip_result.skip_rate
    skip_diff = float(np.abs(skip_result.answers - skip_broadcast).max())

    # --- Headline: resident pool amortized over ROUNDS ---------------
    batches = _round_batches(rng)
    serial_engine = Engine(
        private, EngineConfig(n_shards=N_SHARDS, shard_executor="serial")
    )
    resident_engine = Engine(
        private, EngineConfig(n_shards=N_SHARDS, shard_executor="resident")
    )
    # Warm the serial path's per-shard index caches; the resident pool
    # shares them (its workers receive the same cached split), so
    # neither side's measurement pays the index build.
    serial_engine.answer(QueryRequest(*batches[0]))

    start = time.perf_counter()
    serial_rounds = [
        serial_engine.answer(QueryRequest(lows, highs))
        for lows, highs in batches
    ]
    serial_seconds = time.perf_counter() - start

    # Spawn once — workers receive their shards and stay resident.
    # The spawn is *outside* the round timing (that is the amortized
    # claim) but recorded in the artifact so its cost stays visible.
    start = time.perf_counter()
    resident_engine.warm()
    spawn_seconds = time.perf_counter() - start
    try:
        start = time.perf_counter()
        resident_rounds = [
            resident_engine.answer(QueryRequest(lows, highs))
            for lows, highs in batches
        ]
        resident_seconds = time.perf_counter() - start
        pool_stats = resident_engine.pool_stats()
    finally:
        resident_engine.close()

    broadcast = packed.answer_many_arrays(*batches[0])
    merged_diff = float(
        np.abs(serial_rounds[0].answers - broadcast).max()
    )
    sharded_max_abs_diff = max(skip_diff, merged_diff)
    # Pool vs serial is bit-identity, not a tolerance: same cached
    # shards, same per-shard kernels, same fixed merge order.
    resident_max_abs_diff = max(
        float(np.abs(r.answers - s.answers).max()) if r.answers.size else 0.0
        for r, s in zip(resident_rounds, serial_rounds)
    )

    speedup = serial_seconds / resident_seconds
    cores = usable_cores()
    threshold_enforced = cores >= N_SHARDS

    payload = {
        "shape": list(SHAPE),
        "n_partitions": packed.n_partitions,
        "n_queries": N_QUERIES,
        "n_shards": N_SHARDS,
        "rounds": ROUNDS,
        "usable_cores": cores,
        "skip_n_shards": SKIP_SHARDS,
        "skip_n_queries": SKIP_QUERIES,
        "skipped_shards": skip_result.skipped_shards,
        "skip_rate": skip_rate,
        "sharded_max_abs_diff": sharded_max_abs_diff,
        "resident_max_abs_diff": resident_max_abs_diff,
        "serial_seconds": serial_seconds,
        "resident_seconds": resident_seconds,
        "spawn_seconds": spawn_seconds,
        "worker_restarts": pool_stats["restarts"],
        "speedup_target": SPEEDUP_TARGET,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": threshold_enforced,
        "skipped_low_cores": not threshold_enforced,
    }
    if threshold_enforced:
        # Only a machine with enough cores measures a meaningful
        # speedup; see the module docstring.
        payload["speedup"] = speedup
        payload["meets_target"] = speedup >= SPEEDUP_TARGET
    write_bench_artifact("sharded", payload)
    print(
        f"\nskip rate {skip_rate:.2f} ({skip_result.skipped_shards}/"
        f"{SKIP_SHARDS} shards), max |sharded - broadcast| "
        f"{sharded_max_abs_diff:.3g}, max |resident - serial| "
        f"{resident_max_abs_diff:.3g}; serial {serial_seconds:.2f}s, "
        f"resident({N_SHARDS} workers, spawn {spawn_seconds:.2f}s) "
        f"{resident_seconds:.2f}s over {ROUNDS} rounds -> "
        f"{speedup:.2f}x on {cores} core(s)"
        + ("" if threshold_enforced else " [skipped_low_cores]")
    )

    # The exactness and skip claims hold on any machine.
    assert skip_result.skipped_shards > 0, "corner queries skipped no shard"
    assert skip_rate >= 0.5, f"expected most shards to skip, got {skip_rate}"
    assert sharded_max_abs_diff <= 1e-9
    assert resident_max_abs_diff == 0.0, (
        f"resident pool diverged from serial by {resident_max_abs_diff:.3g}"
    )
    assert pool_stats["restarts"] == 0, "workers crashed during the bench"
    for r, s in zip(resident_rounds, serial_rounds):
        assert r.shard_plans == s.shard_plans
        assert r.shard_bounds == s.shard_bounds
    if threshold_enforced:
        assert speedup >= SPEEDUP_FLOOR, (
            f"resident fan-out only {speedup:.2f}x over {ROUNDS} rounds "
            f"with {N_SHARDS} workers on {cores} cores"
        )
