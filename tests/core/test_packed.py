"""Tests for repro.core.packed: the array-backed partitioning engine.

The central property: the vectorized kernel must match the scalar
reference (`Partition.uniform_answer` summed in a loop) within 1e-9 on
arbitrary partitionings — random recursive tilings in 1 to 4 dimensions,
including empty and negative-count partitions and single-cell queries.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import packed as packed_module
from repro.core import (
    PackedPartitioning,
    Partition,
    Partitioning,
    PartitioningError,
    PrivateFrequencyMatrix,
    QueryError,
    boxes_to_arrays,
    full_box,
    grid_boxes,
    packed_from_intervals,
    validate_box_arrays,
)


def random_tiling(shape, rng, n_splits=12):
    """An irregular exact tiling built by repeated random box splits."""
    boxes = [full_box(shape)]
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
    return boxes


def random_packed(shape, rng, n_splits=12):
    """A random tiling with signed noisy counts (some zero, some negative)."""
    boxes = random_tiling(shape, rng, n_splits)
    noisy = rng.normal(0.0, 50.0, size=len(boxes))
    noisy[rng.random(len(boxes)) < 0.2] = 0.0  # some "empty" partitions
    true = np.abs(rng.normal(0.0, 50.0, size=len(boxes)))
    lows, highs = boxes_to_arrays(boxes)
    packed = PackedPartitioning(lows, highs, noisy, shape, true)
    return packed, boxes, noisy


def random_boxes(shape, rng, n):
    """Random inclusive query boxes, a fifth of them single-cell."""
    out = []
    for i in range(n):
        box = []
        for s in shape:
            a = int(rng.integers(0, s))
            if i % 5 == 0:
                b = a  # single-cell on every axis
            else:
                b = int(rng.integers(0, s))
            box.append((min(a, b), max(a, b)))
        out.append(tuple(box))
    return out


SHAPES = [(64,), (13, 17), (7, 6, 5), (5, 4, 3, 4)]


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}d")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_matches_scalar_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        packed, boxes, noisy = random_packed(shape, rng)
        parts = [Partition(b, c) for b, c in zip(boxes, noisy)]
        queries = random_boxes(shape, rng, 60)
        vec = packed.answer_many_arrays(*boxes_to_arrays(queries))
        ref = np.array(
            [sum(p.uniform_answer(q) for p in parts) for q in queries]
        )
        np.testing.assert_allclose(vec, ref, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}d")
    def test_both_private_matrix_engines_match_scalar(self, shape):
        rng = np.random.default_rng(7)
        packed, _, _ = random_packed(shape, rng)
        priv = PrivateFrequencyMatrix.from_packed(packed)
        queries = random_boxes(shape, rng, 40)
        scalar = np.array([priv.answer(q) for q in queries])
        # Geometric kernel (few queries -> no dense switch).
        np.testing.assert_allclose(
            priv.answer_many(queries), scalar, rtol=0, atol=1e-9
        )
        # Dense prefix-sum engine.
        lows, highs = boxes_to_arrays(queries)
        np.testing.assert_allclose(
            priv._prefix_table().query_arrays(lows, highs),
            scalar,
            rtol=0,
            atol=1e-9,
        )

    def test_tiling_does_not_change_answers(self):
        rng = np.random.default_rng(3)
        packed, _, _ = random_packed((20, 20), rng, n_splits=30)
        queries = random_boxes((20, 20), rng, 50)
        lows, highs = boxes_to_arrays(queries)
        full = packed.answer_many_arrays(lows, highs)
        tiled = packed.answer_many_arrays(lows, highs, tile_elements=64)
        # Tiling changes BLAS summation shapes, so only bit-level float
        # reassociation noise is tolerated.
        np.testing.assert_allclose(full, tiled, rtol=0, atol=1e-9)

    def test_empty_query_batch(self):
        rng = np.random.default_rng(0)
        packed, _, _ = random_packed((8, 8), rng)
        empty = np.zeros((0, 2), dtype=np.int64)
        assert packed.answer_many_arrays(empty, empty).size == 0


class TestValidation:
    def test_exact_cover_accepted(self):
        lows, highs = boxes_to_arrays(grid_boxes((6, 6), (3, 2)))
        PackedPartitioning(lows, highs, np.zeros(6), (6, 6))

    def test_overlap_rejected(self):
        # Cell counts sum to the matrix size, so only the coverage
        # paint can catch the overlap.
        boxes = [((0, 3),), ((2, 5),)]
        lows, highs = boxes_to_arrays(boxes)
        with pytest.raises(PartitioningError, match="overlap"):
            PackedPartitioning(lows, highs, np.zeros(2), (8,))

    def test_coverage_gap_rejected(self):
        boxes = [((0, 2),), ((4, 7),)]
        lows, highs = boxes_to_arrays(boxes)
        with pytest.raises(PartitioningError, match="cover"):
            PackedPartitioning(lows, highs, np.zeros(2), (8,))

    def test_out_of_bounds_rejected(self):
        lows, highs = boxes_to_arrays([((0, 8),)])
        with pytest.raises(PartitioningError, match="outside"):
            PackedPartitioning(lows, highs, np.zeros(1), (8,))

    def test_cell_count_wraparound_rejected(self):
        # 2**64 cells: an int64 total and n_cells would both wrap to 0.
        with pytest.raises(PartitioningError, match="cover"):
            PackedPartitioning(
                [[0, 0]], [[2**32 - 1, 2**32 - 1]], [1.0], (2**32, 2**32)
            )

    def test_validation_memory_is_bounded(self):
        # The coverage paint holds one uint8 slab of the compressed grid
        # (at most COVER_SLAB_BYTES) and O(k) corner indices per pass.
        shape = (11,) * 6
        lows, highs = boxes_to_arrays(grid_boxes(shape, (4,) * 6))
        assert len(lows) == 4096
        noisy = np.zeros(len(lows))
        tracemalloc.start()
        try:
            PackedPartitioning(lows, highs, noisy, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_large_tiling_validates_and_shifted_box_rejected(self):
        # 65 536 partitions of a 512 x 512 grid: a pairwise check would
        # compare 2**32 pairs; the coverage paint is linear.
        shape = (512, 512)
        lows, highs = boxes_to_arrays(grid_boxes(shape, (256, 256)))
        assert len(lows) == 65_536
        noisy = np.zeros(len(lows))
        PackedPartitioning(lows, highs, noisy, shape)
        # Shifting one 2 x 2 box by a cell keeps the total cell count
        # but covers two cells twice and leaves two empty.
        lows[1000, 1] += 1
        highs[1000, 1] += 1
        with pytest.raises(PartitioningError, match="overlap"):
            PackedPartitioning(lows, highs, noisy, shape)

    def test_long_axis_is_compressed(self):
        # An axis of 2**21 cells with four cuts paints a 3 x 2 grid.
        n = 2**21
        row_1 = ((0, n - 1), (1, 1))
        exact = [((0, n // 2), (0, 0)), ((n // 2 + 1, n - 1), (0, 0)), row_1]
        lows, highs = boxes_to_arrays(exact)
        PackedPartitioning(lows, highs, np.zeros(3), (n, 2))
        # Same cell count: cell (n/2, 0) covered twice, (n-1, 0) not at all.
        shifted = [exact[0], ((n // 2, n - 2), (0, 0)), row_1]
        lows, highs = boxes_to_arrays(shifted)
        with pytest.raises(PartitioningError, match="0 and 1 overlap"):
            PackedPartitioning(lows, highs, np.zeros(3), (n, 2))

    def test_wide_row_checked_pairwise(self, monkeypatch):
        # Shape (1, M, M): one box covers every column but the last, and
        # M single cells sit on the diagonal, so the counts sum to M**2.
        # The compressed grid (M**2 cells) is under k**2 * d, but one
        # axis-0 row of it is larger than COVER_SLAB_BYTES, so the
        # boxes are checked pairwise, within the tracemalloc bound.
        m = 2100
        assert m * m > 4 * 2**20 > packed_module.COVER_SLAB_BYTES
        boxes = [((0, 0), (0, m - 1), (0, m - 2))]
        boxes += [((0, 0), (i, i), (i, i)) for i in range(m)]
        lows, highs = boxes_to_arrays(boxes)
        noisy = np.zeros(len(boxes))
        calls = []
        pairwise = PackedPartitioning._check_pairwise_disjoint

        def recording(self):
            calls.append(len(self))
            pairwise(self)

        monkeypatch.setattr(
            PackedPartitioning, "_check_pairwise_disjoint", recording
        )
        tracemalloc.start()
        try:
            with pytest.raises(PartitioningError, match="0 and 1 overlap"):
                PackedPartitioning(lows, highs, noisy, (1, m, m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [m + 1]
        assert peak < 4 * 2**20

    def test_few_boxes_with_many_cuts_checked_pairwise(self, monkeypatch):
        # Box 0 lies inside box 1 and the counts sum to 16.  The
        # compressed grid (3 x 3 cells) is larger than k**2 * d = 8, so
        # the pairwise check runs, not the paint.
        boxes = [((0, 1), (1, 2)), ((0, 2), (0, 3))]
        lows, highs = boxes_to_arrays(boxes)

        def refuse(self, cuts):
            raise AssertionError("painted")

        monkeypatch.setattr(PackedPartitioning, "_paint_coverage", refuse)
        with pytest.raises(PartitioningError, match="partitions 0 and 1 overlap"):
            PackedPartitioning(lows, highs, np.zeros(2), (4, 4))

    def test_empty_rejected(self):
        with pytest.raises(PartitioningError, match="at least one"):
            PackedPartitioning(
                np.empty((0, 1), np.int64),
                np.empty((0, 1), np.int64),
                np.zeros(0),
                (4,),
            )

    def test_count_shape_mismatch_rejected(self):
        lows, highs = boxes_to_arrays([full_box((4,))])
        with pytest.raises(PartitioningError, match="noisy_counts"):
            PackedPartitioning(lows, highs, np.zeros(3), (4,))

    def test_validate_box_arrays_rejects_bad_batches(self):
        good_lo = np.array([[0, 0]])
        good_hi = np.array([[3, 3]])
        validate_box_arrays(good_lo, good_hi, (4, 4))
        with pytest.raises(QueryError, match="lo > hi"):
            validate_box_arrays(good_hi, good_lo, (4, 4))
        with pytest.raises(QueryError, match="outside"):
            validate_box_arrays(good_lo, good_hi, (3, 3))
        with pytest.raises(QueryError, match="dimensions"):
            validate_box_arrays(good_lo, good_hi, (4, 4, 4))
        # Non-integer bounds are rejected, not truncated.
        for lo, hi in (
            ([[0.9, 0.9]], [[3.99, 3.99]]),
            (good_lo, [[True, False]]),
        ):
            with pytest.raises(QueryError, match="integers"):
                validate_box_arrays(lo, hi, (4, 4))


def paint(boxes, shape):
    """How many boxes cover each cell."""
    cover = np.zeros(shape, dtype=np.int64)
    for box in boxes:
        cover[tuple(slice(lo, hi + 1) for lo, hi in box)] += 1
    return cover


def perturb(boxes, shape, kind, rng):
    """Widen one box by a cell (overlap), shrink one (gap), or shift one
    by a cell (double cover with an equal total cell count).

    Returns the boxes unchanged when no box admits the change.
    """
    moves = []
    for i, box in enumerate(boxes):
        for axis, (lo, hi) in enumerate(box):
            if kind == "widen" and hi + 1 < shape[axis]:
                moves.append((i, axis, (lo, hi + 1)))
            elif kind == "widen" and lo > 0:
                moves.append((i, axis, (lo - 1, hi)))
            elif kind == "shrink" and hi > lo:
                moves.append((i, axis, (lo, hi - 1)))
            elif kind == "shift" and hi + 1 < shape[axis]:
                moves.append((i, axis, (lo + 1, hi + 1)))
    if not moves:
        return boxes
    i, axis, interval = moves[int(rng.integers(len(moves)))]
    out = list(boxes)
    out[i] = tuple(interval if a == axis else r for a, r in enumerate(boxes[i]))
    return out


@st.composite
def tilings(draw):
    """Grid or kd-style tilings, some perturbed off an exact cover."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        boxes = grid_boxes(shape, [int(rng.integers(1, s + 1)) for s in shape])
    else:
        boxes = random_tiling(shape, rng, n_splits=draw(st.integers(0, 20)))
    kind = draw(st.sampled_from(["none", "widen", "shrink", "shift"]))
    if kind != "none":
        boxes = perturb(boxes, shape, kind, rng)
    return shape, boxes


class TestExactCoverOracle:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tilings())
    def test_accepts_exactly_the_exact_covers(self, case):
        shape, boxes = case
        exact = bool((paint(boxes, shape) == 1).all())
        lows, highs = boxes_to_arrays(boxes)
        noisy = np.zeros(len(boxes))
        if exact:
            PackedPartitioning(lows, highs, noisy, shape)
            Partitioning([Partition(b, 0.0) for b in boxes], shape)
        else:
            with pytest.raises(PartitioningError):
                PackedPartitioning(lows, highs, noisy, shape)
            with pytest.raises(PartitioningError):
                Partitioning([Partition(b, 0.0) for b in boxes], shape)


class TestCoverChecksAgree:
    """The slab-by-slab paint and the pairwise fallback each accept
    exactly the exact covers (once the cell counts match)."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tilings())
    def test_one_row_slabs(self, case):
        shape, boxes = case
        exact = bool((paint(boxes, shape) == 1).all())
        lows, highs = boxes_to_arrays(boxes)
        noisy = np.zeros(len(boxes))
        # One compressed axis-0 row per slab.
        row_bytes = math.prod(
            len(np.unique(np.clip(np.r_[0, n, lows[:, a], highs[:, a] + 1],
                                  0, n))) - 1
            for a, n in enumerate(shape)
            if a
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(packed_module, "COVER_SLAB_BYTES", row_bytes)
            if exact:
                PackedPartitioning(lows, highs, noisy, shape)
            else:
                with pytest.raises(PartitioningError):
                    PackedPartitioning(lows, highs, noisy, shape)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tilings())
    def test_pairwise_check(self, case):
        shape, boxes = case
        lows, highs = boxes_to_arrays(boxes)
        packed = PackedPartitioning(
            lows, highs, np.zeros(len(boxes)), shape, validate=False
        )
        if int(packed.n_cells.sum()) != int(np.prod(shape)):
            return
        if (paint(boxes, shape) == 1).all():
            packed._check_pairwise_disjoint()
        else:
            with pytest.raises(PartitioningError, match="overlap"):
                packed._check_pairwise_disjoint()


class TestConversions:
    def test_roundtrip_through_partitioning(self):
        rng = np.random.default_rng(11)
        packed, _, _ = random_packed((10, 10), rng)
        back = PackedPartitioning.from_partitioning(
            packed.to_partitioning(validate=True)
        )
        np.testing.assert_array_equal(back.lo, packed.lo)
        np.testing.assert_array_equal(back.hi, packed.hi)
        np.testing.assert_array_equal(back.noisy_counts, packed.noisy_counts)
        np.testing.assert_array_equal(back.true_counts, packed.true_counts)

    def test_packed_from_intervals_matches_grid_boxes(self):
        shape = (6, 8)
        boxes = grid_boxes(shape, (3, 4))
        intervals_per_dim = [
            sorted({b[0] for b in boxes}),
            sorted({b[1] for b in boxes}),
        ]
        counts = np.arange(len(boxes), dtype=np.float64)
        packed = packed_from_intervals(intervals_per_dim, counts, shape)
        assert packed.boxes() == boxes

    def test_dense_array_matches_object_path(self):
        rng = np.random.default_rng(4)
        packed, boxes, noisy = random_packed((9, 9), rng)
        parts = [Partition(b, c) for b, c in zip(boxes, noisy)]
        expected = np.zeros((9, 9))
        for p in parts:
            (r0, r1), (c0, c1) = p.box
            expected[r0 : r1 + 1, c0 : c1 + 1] = p.noisy_count / p.n_cells
        np.testing.assert_allclose(packed.dense_array(), expected)


class TestPrivateMatrixIntegration:
    def test_lazy_partition_materialization(self):
        rng = np.random.default_rng(5)
        packed, boxes, _ = random_packed((12, 12), rng)
        priv = PrivateFrequencyMatrix.from_packed(packed, method="m", epsilon=1.0)
        assert not priv.is_dense_backed
        assert priv.n_partitions == len(boxes)
        assert priv._partitioning is None  # not built yet
        assert len(priv.partitions) == len(boxes)  # materializes on demand
        assert priv._partitioning is not None

    def test_packed_view_of_object_backed_matrix(self):
        parts = [
            Partition(((0, 1), (0, 3)), 8.0, 7.0),
            Partition(((2, 3), (0, 3)), 4.0, 5.0),
        ]
        priv = PrivateFrequencyMatrix(Partitioning(parts, (4, 4)))
        assert priv.packed.n_partitions == 2
        assert priv.packed.total_noisy_count == pytest.approx(12.0)

    def test_publishable_roundtrip_from_packed(self):
        rng = np.random.default_rng(6)
        packed, _, _ = random_packed((8, 8), rng)
        priv = PrivateFrequencyMatrix.from_packed(packed, epsilon=0.5, method="x")
        payload = priv.to_publishable()
        assert all("true" not in k for p in payload["partitions"] for k in p)
        back = PrivateFrequencyMatrix.from_publishable(payload)
        assert back.n_partitions == packed.n_partitions
        assert back.answer(full_box((8, 8))) == pytest.approx(
            packed.total_noisy_count
        )
