"""Interval index and query planner tests.

The central property, as a hypothesis test: the index-pruned gather must
equal the unpruned tiled broadcast kernel within 1e-9 on the packed
partitionings real sanitizers emit — uniform grid, AG, quadtree,
kd-tree, and DAF — including degenerate queries (empty batch,
full-domain, single-cell).  Everything the planner does is a choice of
*route*; the answers must never depend on it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    FrequencyMatrix,
    PrivateFrequencyMatrix,
    QueryError,
    boxes_to_arrays,
    full_box,
    packed_from_intervals,
)
from repro.core.interval_index import PRUNE_MIN_PARTITIONS, plan_with_slices
from repro.engine import Engine, EngineConfig, QueryRequest
from repro.methods import get_sanitizer
from repro.methods._grid import axis_intervals

#: Partition-emitting sanitizer families the equivalence must hold for.
METHODS = ["uniform", "ag", "quadtree", "kdtree", "daf_entropy"]


def sanitized_packed(method, shape, data_seed, noise_seed, epsilon):
    """A real sanitizer's packed partitioning over a random matrix."""
    rng = np.random.default_rng(data_seed)
    matrix = FrequencyMatrix(rng.poisson(3.0, shape).astype(float))
    private = get_sanitizer(method).sanitize(matrix, epsilon, noise_seed)
    return private.packed


def degenerate_and_random_queries(shape, rng, n_random=30):
    """Random boxes plus the degenerate cases the issue calls out."""
    boxes = [full_box(shape)]  # full domain
    boxes.append(tuple((0, 0) for _ in shape))  # single cell at the origin
    boxes.append(tuple((s - 1, s - 1) for s in shape))  # single cell at the end
    for _ in range(n_random):
        box = []
        for s in shape:
            a = int(rng.integers(0, s))
            b = int(rng.integers(0, s))
            box.append((min(a, b), max(a, b)))
        boxes.append(tuple(box))
    return boxes


class TestPrunedMatchesBroadcast:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        method=st.sampled_from(METHODS),
        shape=st.tuples(
            st.integers(8, 40), st.integers(8, 40)
        ),
        data_seed=st.integers(0, 2**16),
        noise_seed=st.integers(0, 2**16),
        epsilon=st.sampled_from([0.1, 0.5, 2.0]),
    )
    def test_pruned_equals_broadcast_on_sanitizer_output(
        self, method, shape, data_seed, noise_seed, epsilon
    ):
        packed = sanitized_packed(method, shape, data_seed, noise_seed, epsilon)
        rng = np.random.default_rng(data_seed ^ noise_seed)
        boxes = degenerate_and_random_queries(shape, rng)
        lows, highs = boxes_to_arrays(boxes)
        broadcast = packed.answer_many_arrays(lows, highs)
        pruned = packed.interval_index().answer_pruned(lows, highs)
        np.testing.assert_allclose(pruned, broadcast, rtol=0, atol=1e-9)

    def test_empty_batch(self):
        packed = sanitized_packed("uniform", (16, 16), 0, 0, 1.0)
        empty = np.empty((0, 2), dtype=np.int64)
        index = packed.interval_index()
        assert index.answer_pruned(empty, empty).size == 0
        assert index.candidate_counts(empty, empty).size == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_candidates_match_brute_force(self, method):
        # Every truly overlapping partition lies in every axis's candidate
        # slice; a miss would drop it from the pruned gather, unnoticed
        # by the answers whenever its noisy count is zero.
        packed = sanitized_packed(method, (24, 18), 5, 7, 0.5)
        index = packed.interval_index()
        rng = np.random.default_rng(9)
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries((24, 18), rng, n_random=15)
        )
        start, stop = index.candidate_slices(lows, highs)
        lo, hi = packed.lo, packed.hi
        for i, (qlo, qhi) in enumerate(zip(lows, highs)):
            overlapping = np.flatnonzero(
                np.logical_and(lo <= qhi, hi >= qlo).all(axis=1)
            )
            assert overlapping.size > 0  # every box here overlaps something
            for a in range(lows.shape[1]):
                slice_ids = index._order[a][start[i, a] : stop[i, a]]
                assert np.isin(overlapping, slice_ids).all(), (i, a)

    def test_candidate_counts_upper_bound_true_counts(self):
        packed = sanitized_packed("kdtree", (32, 32), 3, 4, 0.5)
        index = packed.interval_index()
        rng = np.random.default_rng(2)
        boxes = degenerate_and_random_queries((32, 32), rng)
        lows, highs = boxes_to_arrays(boxes)
        bounds = index.candidate_counts(lows, highs)
        lo, hi = packed.lo, packed.hi
        for i, (b, qlo, qhi) in enumerate(zip(bounds, lows, highs)):
            true = int(
                np.logical_and(lo <= qhi, hi >= qlo).all(axis=1).sum()
            )
            assert true <= b <= packed.n_partitions


def bench_like_packed(shape=(256, 256), m=64):
    """The microbenchmark substrate: an m x m grid partitioning."""
    rng = np.random.default_rng(0)
    intervals = [axis_intervals(s, m) for s in shape]
    noisy = rng.poisson(40.0, size=m * m).astype(float)
    return packed_from_intervals(intervals, noisy, shape)


def small_queries(shape, n, rng, max_extent=3):
    lows = np.stack(
        [rng.integers(0, s - max_extent, size=n) for s in shape], axis=1
    )
    highs = lows + rng.integers(0, max_extent + 1, size=lows.shape)
    return lows, highs


class TestPlanner:
    def test_small_queries_on_many_partitions_prune(self):
        packed = bench_like_packed()
        lows, highs = small_queries((256, 256), 500, np.random.default_rng(1))
        assert plan_with_slices(packed, lows, highs)[0] == PLAN_PRUNED

    def test_wide_queries_broadcast(self):
        packed = bench_like_packed()
        q = 500
        lows = np.zeros((q, 2), dtype=np.int64)
        highs = np.full((q, 2), 255, dtype=np.int64)
        assert plan_with_slices(packed, lows, highs)[0] == PLAN_BROADCAST

    def test_few_partitions_never_prune(self):
        packed = bench_like_packed((16, 16), 4)  # 16 partitions
        assert packed.n_partitions < PRUNE_MIN_PARTITIONS
        lows, highs = small_queries((16, 16), 200, np.random.default_rng(1), 1)
        assert plan_with_slices(packed, lows, highs)[0] == PLAN_BROADCAST

    def test_private_matrix_plan_routes(self):
        packed = bench_like_packed()
        priv = PrivateFrequencyMatrix.from_packed(packed)
        rng = np.random.default_rng(3)
        lows, highs = small_queries((256, 256), 50, rng)
        # Small batch of small queries: q*k below the dense switch.
        assert Engine(priv).plan_queries(lows, highs) == PLAN_PRUNED
        # Huge batch: the dense prefix-sum switch takes precedence.
        big_l = np.repeat(lows, 50, axis=0)
        big_h = np.repeat(highs, 50, axis=0)
        assert Engine(priv).plan_queries(big_l, big_h) == PLAN_DENSE
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        one = np.zeros((1, 2), dtype=np.int64)
        assert Engine(dense).plan_queries(one, one) == PLAN_DENSE

    def test_all_plans_agree_and_are_reported(self):
        packed = bench_like_packed()
        priv = PrivateFrequencyMatrix.from_packed(packed)
        lows, highs = small_queries((256, 256), 50, np.random.default_rng(4))
        outs = {}
        for plan in (PLAN_DENSE, PLAN_BROADCAST, PLAN_PRUNED):
            result = Engine(priv, EngineConfig(plan=plan)).answer(
                QueryRequest(lows, highs)
            )
            assert result.plan == plan
            outs[plan] = result.answers
        np.testing.assert_allclose(
            outs[PLAN_PRUNED], outs[PLAN_BROADCAST], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            outs[PLAN_DENSE], outs[PLAN_BROADCAST], rtol=1e-9, atol=1e-6
        )

    def test_unknown_plan_rejected(self):
        # The name check happens at config construction, before any
        # matrix is involved.
        with pytest.raises(QueryError, match="unknown packed query plan"):
            EngineConfig(plan="sideways")

    def test_partition_plans_rejected_on_dense_backed(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        one = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(QueryError, match="dense-backed"):
            Engine(dense, EngineConfig(plan=PLAN_PRUNED)).answer(
                QueryRequest(one, one)
            )
