"""Microbenchmark: scalar vs. vectorized partition query answering.

The tentpole claim of the packed query engine: answering a 10k-query
workload against a partitioned 256x256 matrix must be at least 10x faster
than the scalar reference loop, with identical answers (within 1e-9).
The scalar loop costs one Python call per (query, partition) pair, so it
is timed on a query subsample and compared per-query; the vectorized
engines are timed on the full workload.

The planner claim rides on the same substrate: for a 10k batch of
*small* queries (a few cells per axis) the interval-index pruned gather
must beat the full tiled broadcast kernel by at least 3x with answers
matching within 1e-9, and the planner must pick it unprompted.

Results are written to ``bench-out/BENCH_query_engine.json`` so the
speedup trajectory is visible across commits;
``tools/bench_gate.py`` fails CI when the recorded speedups regress.
"""

import json
import time

import numpy as np
import pytest

from repro.core import PLAN_PRUNED
from repro.core.interval_index import PRUNE_OVERHEAD_PAIRS, plan_with_slices
from repro.datagen import grid_substrate
from repro.engine import Engine, QueryRequest
from repro.queries import random_workload

from .conftest import bench_artifact, write_bench_artifact

SHAPE = (256, 256)
GRID_M = 64  # 64 x 64 = 4096 partitions
N_QUERIES = 10_000
SCALAR_SAMPLE = 200  # scalar reference is timed on this subsample
SMALL_QUERY_EXTENT = 3  # small queries span at most this many extra cells
PRUNED_SPEEDUP_FLOOR = 3.0


def merge_artifact(update):
    """Merge ``update`` into the artifact, keeping other tests' keys."""
    artifact = bench_artifact("query_engine")
    payload = {}
    if artifact.exists():
        try:
            payload = json.loads(artifact.read_text())
        except ValueError:
            payload = {}
    payload.update(update)
    write_bench_artifact("query_engine", payload)


@pytest.fixture(scope="module")
def private_256():
    return grid_substrate(SHAPE, GRID_M, seed=0)


@pytest.fixture(scope="module")
def workload_10k():
    return random_workload(SHAPE, N_QUERIES, rng=1)


def test_vectorized_speedup_and_exactness(private_256, workload_10k):
    lows, highs = workload_10k.as_arrays()
    sample = list(workload_10k)[:SCALAR_SAMPLE]

    # Scalar reference: Python loop over partitions, per query.
    start = time.perf_counter()
    scalar = np.array([private_256.answer(q) for q in sample])
    scalar_seconds = time.perf_counter() - start
    scalar_per_query = scalar_seconds / SCALAR_SAMPLE

    # Vectorized geometric kernel on the full workload (forced broadcast:
    # this series tracks the tiled kernel itself, not the planner).
    start = time.perf_counter()
    kernel = private_256.packed.answer_many_arrays(lows, highs)
    kernel_seconds = time.perf_counter() - start

    # The engine facade with the automatic planner (dense prefix sums
    # win at this q x k, so this also exercises the cost model).
    start = time.perf_counter()
    result = Engine(private_256).answer(QueryRequest(lows, highs))
    auto, auto_plan = result.answers, result.plan
    auto_seconds = time.perf_counter() - start

    kernel_speedup = scalar_per_query / (kernel_seconds / N_QUERIES)
    auto_speedup = scalar_per_query / (auto_seconds / N_QUERIES)

    payload = {
        "shape": list(SHAPE),
        "n_partitions": private_256.n_partitions,
        "n_queries": N_QUERIES,
        "scalar_sample": SCALAR_SAMPLE,
        "scalar_seconds_sample": scalar_seconds,
        "scalar_seconds_per_query": scalar_per_query,
        "kernel_seconds": kernel_seconds,
        "auto_seconds": auto_seconds,
        "kernel_speedup": kernel_speedup,
        "auto_speedup": auto_speedup,
        "auto_plan": auto_plan,
        "kernel_max_abs_diff": float(
            np.abs(kernel[:SCALAR_SAMPLE] - scalar).max()
        ),
        "auto_max_abs_diff": float(np.abs(auto[:SCALAR_SAMPLE] - scalar).max()),
    }
    merge_artifact(payload)
    print(
        f"\nscalar {scalar_per_query * 1e6:.1f} us/query, "
        f"kernel {kernel_seconds / N_QUERIES * 1e6:.1f} us/query "
        f"({kernel_speedup:.0f}x), "
        f"auto {auto_seconds / N_QUERIES * 1e6:.1f} us/query "
        f"({auto_speedup:.0f}x)"
    )

    np.testing.assert_allclose(kernel[:SCALAR_SAMPLE], scalar, rtol=0, atol=1e-9)
    np.testing.assert_allclose(auto[:SCALAR_SAMPLE], scalar, rtol=0, atol=1e-9)
    assert kernel_speedup >= 10, f"kernel only {kernel_speedup:.1f}x faster"
    assert auto_speedup >= 10, f"auto engine only {auto_speedup:.1f}x faster"


def test_pruned_plan_speedup_on_small_queries(private_256):
    """The planner claim: small queries against a large partition list.

    The interval-index pruned gather must beat the full tiled broadcast
    kernel by at least 3x on a 10k batch of few-cell queries, with
    answers matching within 1e-9 — and the planner must choose it
    without being forced.
    """
    rng = np.random.default_rng(7)
    lows = np.stack(
        [
            rng.integers(0, s - SMALL_QUERY_EXTENT, size=N_QUERIES)
            for s in SHAPE
        ],
        axis=1,
    )
    highs = lows + rng.integers(0, SMALL_QUERY_EXTENT + 1, size=lows.shape)
    packed = private_256.packed

    assert plan_with_slices(packed, lows, highs)[0] == PLAN_PRUNED

    # Warm both paths (index build, weight cache) before timing.
    index = packed.interval_index()
    packed.answer_many_arrays(lows, highs)
    index.answer_pruned(lows, highs)

    start = time.perf_counter()
    broadcast = packed.answer_many_arrays(lows, highs)
    broadcast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pruned = index.answer_pruned(lows, highs)
    pruned_seconds = time.perf_counter() - start

    pruned_speedup = broadcast_seconds / pruned_seconds
    pruned_max_abs_diff = float(np.abs(pruned - broadcast).max())
    index = packed.interval_index()
    mean_fraction = float(index.candidate_fraction(lows, highs).mean())

    merge_artifact(
        {
            "small_query_extent": SMALL_QUERY_EXTENT,
            "small_query_candidate_fraction": mean_fraction,
            "prune_overhead_pairs": float(PRUNE_OVERHEAD_PAIRS),
            "broadcast_seconds_small": broadcast_seconds,
            "pruned_seconds_small": pruned_seconds,
            "pruned_speedup": pruned_speedup,
            "pruned_speedup_floor": PRUNED_SPEEDUP_FLOOR,
            "pruned_max_abs_diff": pruned_max_abs_diff,
        }
    )
    print(
        f"\nbroadcast {broadcast_seconds / N_QUERIES * 1e6:.1f} us/query, "
        f"pruned {pruned_seconds / N_QUERIES * 1e6:.1f} us/query "
        f"({pruned_speedup:.1f}x, candidate fraction {mean_fraction:.4f})"
    )

    assert pruned_max_abs_diff <= 1e-9
    assert pruned_speedup >= PRUNED_SPEEDUP_FLOOR, (
        f"pruned plan only {pruned_speedup:.2f}x faster than broadcast"
    )


def test_engines_agree_on_full_workload(private_256, workload_10k):
    """All vectorized engines agree everywhere, not just the sample."""
    lows, highs = workload_10k.as_arrays()
    kernel = private_256.packed.answer_many_arrays(lows, highs)
    pruned = private_256.packed.interval_index().answer_pruned(lows, highs)
    dense = private_256._prefix_table().query_arrays(lows, highs)
    np.testing.assert_allclose(kernel, dense, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(pruned, kernel, rtol=0, atol=1e-9)
