"""Exactness of the narrow overlap kernels.

The broadcast kernel (:meth:`PackedPartitioning.answer_many_arrays`) and
the pruned gather (:meth:`IntervalIndex.answer_pruned`) compute the
per-axis overlap lengths in the narrowest signed int that holds
``max(shape)`` and their product in int32 (float64 when a partition has
more than ``2**31 - 1`` cells).  Integer ops are exact and every partial
product is an integer below ``2**53``, so the answers must equal the
all-int64/float64 arithmetic *bit for bit*, not within a tolerance.
The references below are verbatim copies of that arithmetic.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    PackedPartitioning,
    boxes_to_arrays,
    full_box,
)
from repro.core.interval_index import GATHER_TILE_PAIRS, plan_with_slices
from repro.core.packed import DEFAULT_TILE_ELEMENTS
from repro.core.sharding import split_shards


def reference_broadcast(packed, lows, highs):
    """The broadcast kernel's int64/float64 arithmetic, one tile."""
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    if lows.shape[0] == 0:
        return np.zeros(0)
    plo, phi = packed.lo, packed.hi
    overlap = np.minimum(highs[:, None, 0], phi[None, :, 0])
    overlap = overlap - np.maximum(lows[:, None, 0], plo[None, :, 0])
    overlap += 1
    np.clip(overlap, 0, None, out=overlap)
    overlap = overlap.astype(np.float64)
    for axis in range(1, packed.ndim):
        ov = np.minimum(highs[:, None, axis], phi[None, :, axis])
        ov = ov - np.maximum(lows[:, None, axis], plo[None, :, axis])
        ov += 1
        np.clip(ov, 0, None, out=ov)
        overlap *= ov
    return np.einsum("qk,k->q", overlap, packed.weights)


def reference_pruned(index, lows, highs):
    """The pruned gather's int64/float64 arithmetic, one chunk."""
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    q = lows.shape[0]
    out = np.zeros(q)
    if q == 0:
        return out
    start, stop = index.candidate_slices(lows, highs)
    per_dim = np.clip(stop - start, 0, None)
    best = per_dim.argmin(axis=1)
    lengths = per_dim[np.arange(q), best]
    ids_chunks = [
        index._order[best[i]][start[i, best[i]]:stop[i, best[i]]]
        for i in range(q)
        if lengths[i] > 0
    ]
    if not ids_chunks:
        return out
    ids = np.concatenate(ids_chunks)
    qidx = np.repeat(np.arange(q), lengths)
    lo, hi = index.packed.lo, index.packed.hi
    ov = np.minimum(highs[qidx], hi[ids])
    ov -= np.maximum(lows[qidx], lo[ids])
    ov += 1
    np.clip(ov, 0, None, out=ov)
    vals = ov.prod(axis=1, dtype=np.float64)
    vals *= index.packed.weights[ids]
    return np.bincount(qidx, weights=vals, minlength=q)


def random_tiling(shape, rng, n_splits, keep=None):
    """An irregular exact tiling built by repeated random box splits.

    ``keep`` is an optional box split off first along axis 0 and then
    left whole.
    """
    boxes = [full_box(shape)]
    if keep is not None:
        rest = ((keep[0][1] + 1, shape[0] - 1),) + full_box(shape)[1:]
        boxes = [rest]
    for _ in range(n_splits):
        i = int(rng.integers(len(boxes)))
        box = boxes[i]
        splittable = [a for a, (lo, hi) in enumerate(box) if hi > lo]
        if not splittable:
            continue
        axis = int(rng.choice(splittable))
        lo, hi = box[axis]
        cut = int(rng.integers(lo + 1, hi + 1))
        left = tuple((lo, cut - 1) if a == axis else r for a, r in enumerate(box))
        right = tuple((cut, hi) if a == axis else r for a, r in enumerate(box))
        boxes[i] = left
        boxes.append(right)
    return boxes if keep is None else [keep] + boxes


def random_packed(shape, rng, n_splits=200, keep=None):
    lows, highs = boxes_to_arrays(random_tiling(shape, rng, n_splits, keep))
    noisy = rng.normal(0.0, 50.0, size=len(lows))
    return PackedPartitioning(lows, highs, noisy, shape)


def random_queries(shape, rng, n):
    """Random boxes, a third of them pinned to the matrix edges."""
    sizes = np.asarray(shape)
    a = rng.integers(0, sizes, size=(n, len(shape)))
    b = rng.integers(0, sizes, size=(n, len(shape)))
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    lows[::3] = 0
    highs[1::3] = sizes - 1
    return lows, highs


# (shape, narrow dtype): axis sizes on both sides of the int8 and int16
# edges, plus the served 11**6 release's shape.
EDGE_SHAPES = [
    ((127, 9), np.int8),
    ((128, 9), np.int16),
    ((32767, 5), np.int16),
    ((32768, 5), np.int32),
    ((11,) * 6, np.int8),
]


@pytest.fixture(params=EDGE_SHAPES, ids=lambda p: "x".join(map(str, p[0])))
def edge_case(request):
    shape, dtype = request.param
    rng = np.random.default_rng(len(shape) * 1000 + max(shape))
    packed = random_packed(shape, rng)
    lows, highs = random_queries(shape, rng, 300)
    return packed, lows, highs, dtype


class TestLayout:
    def test_narrowest_dtype_and_int32_product(self, edge_case):
        packed, _, _, dtype = edge_case
        layout = packed.overlap_layout()
        assert layout.dtype == dtype
        assert layout.acc_dtype == np.int32
        assert layout.lo.shape == (packed.ndim, packed.n_partitions)
        assert layout.lo.flags.c_contiguous and layout.hi.flags.c_contiguous
        np.testing.assert_array_equal(layout.lo, packed.lo.T)
        np.testing.assert_array_equal(layout.hi, packed.hi.T + 1)
        assert packed.overlap_layout() is layout  # cached


class TestBroadcastKernel:
    @pytest.mark.parametrize(
        "tile_elements", [1, 64, DEFAULT_TILE_ELEMENTS], ids=["1q", "64", "default"]
    )
    def test_bit_identical_to_int64_reference(self, edge_case, tile_elements):
        packed, lows, highs, _ = edge_case
        got = packed.answer_many_arrays(lows, highs, tile_elements=tile_elements)
        np.testing.assert_array_equal(got, reference_broadcast(packed, lows, highs))

    def test_empty_batch(self, edge_case):
        packed, lows, highs, _ = edge_case
        got = packed.answer_many_arrays(lows[:0], highs[:0])
        assert got.shape == (0,) and got.dtype == np.float64

    def test_unvalidated_bounds_match_reference(self):
        # Clipping query bounds into [0, max(shape)] before narrowing
        # changes no overlap length, even for bounds far outside, up to
        # the int64 extremes the reference itself computes without
        # overflow.
        rng = np.random.default_rng(11)
        shape = (20, 30)
        packed = random_packed(shape, rng, n_splits=40)
        lows = rng.integers(-(2**40), 40, size=(200, 2))
        highs = lows + rng.integers(-5, 2**41, size=(200, 2))
        big = np.iinfo(np.int64)
        lows = np.concatenate([lows, [[big.min, 0], [0, big.min], [3, 4]]])
        highs = np.concatenate([highs, [[big.max, 5], [7, big.max], [big.max] * 2]])
        np.testing.assert_array_equal(
            packed.answer_many_arrays(lows, highs),
            reference_broadcast(packed, lows, highs),
        )


class TestPrunedGather:
    @pytest.mark.parametrize("planner_slices", [False, True], ids=["own", "planner"])
    @pytest.mark.parametrize(
        "tile_pairs", [1, GATHER_TILE_PAIRS, 2_000_000], ids=["1", "default", "2M"]
    )
    def test_bit_identical_to_int64_reference(
        self, edge_case, planner_slices, tile_pairs
    ):
        packed, lows, highs, _ = edge_case
        index = packed.interval_index()
        slices = None
        if planner_slices:
            _, slices = plan_with_slices(packed, lows, highs, force="pruned")
        got = index.answer_pruned(
            lows, highs, tile_pairs=tile_pairs, slices=slices
        )
        np.testing.assert_array_equal(got, reference_pruned(index, lows, highs))

    def test_empty_batch(self, edge_case):
        packed, lows, highs, _ = edge_case
        got = packed.interval_index().answer_pruned(lows[:0], highs[:0])
        assert got.shape == (0,)

    def test_queries_with_no_candidates(self):
        # A partition list covering only the top half: queries on the
        # bottom half gather nothing and answer exactly zero.
        lo = np.array([[5, 0], [5, 5]])
        hi = np.array([[9, 4], [9, 9]])
        packed = PackedPartitioning(lo, hi, [3.0, 4.0], (10, 10), validate=False)
        lows = np.array([[0, 0], [5, 0], [1, 1]])
        highs = np.array([[4, 9], [9, 9], [3, 3]])
        index = packed.interval_index()
        got = index.answer_pruned(lows, highs)
        np.testing.assert_array_equal(got, [0.0, 7.0, 0.0])
        np.testing.assert_array_equal(got, reference_pruned(index, lows, highs))


class TestFloat64ProductFallback:
    """A partition of more than 2**31 - 1 cells overflows int32."""

    @pytest.fixture(scope="class")
    def huge(self):
        shape = (65536, 65536)
        rng = np.random.default_rng(5)
        keep = ((0, 49_999), (0, 65_535))  # 3.3e9 cells
        packed = random_packed(shape, rng, n_splits=30, keep=keep)
        assert packed.n_cells.max() > np.iinfo(np.int32).max
        lows, highs = random_queries(shape, rng, 200)
        lows[:20], highs[:20] = 0, 65535  # whole-matrix queries
        return packed, lows, highs

    def test_layout_falls_back_to_float64(self, huge):
        packed, _, _ = huge
        layout = packed.overlap_layout()
        assert layout.dtype == np.int32
        assert layout.acc_dtype == np.float64

    @pytest.mark.parametrize("tile_elements", [1, 64, DEFAULT_TILE_ELEMENTS])
    def test_broadcast_bit_identical(self, huge, tile_elements):
        packed, lows, highs = huge
        got = packed.answer_many_arrays(lows, highs, tile_elements=tile_elements)
        np.testing.assert_array_equal(got, reference_broadcast(packed, lows, highs))

    def test_pruned_bit_identical(self, huge):
        packed, lows, highs = huge
        index = packed.interval_index()
        np.testing.assert_array_equal(
            index.answer_pruned(lows, highs), reference_pruned(index, lows, highs)
        )


class TestShippedShards:
    """The layout is derived data: never pickled, rebuilt lazily."""

    @pytest.fixture(scope="class")
    def served_like(self):
        shape = (11,) * 6
        rng = np.random.default_rng(2022)
        packed = random_packed(shape, rng, n_splits=600)
        lows, highs = random_queries(shape, rng, 250)
        return packed, lows, highs

    def test_pickled_shard_rebuilds_layout_lazily(self, served_like):
        packed, lows, highs = served_like
        for shard in split_shards(packed, 3):
            expected, plan = shard.partial(lows, highs)
            assert shard.packed._layout is not None  # built by the kernel
            restored = pickle.loads(pickle.dumps(shard))
            assert restored.packed._layout is None
            # The interval index travels: a spawned worker never re-sorts.
            assert restored.packed._index is not None
            got, got_plan = restored.partial(lows, highs)
            assert got_plan == plan
            np.testing.assert_array_equal(got, expected)
