"""Tests for repro.core.prefix_sum."""

import numpy as np
import pytest

from repro.core import PrefixSumTable, QueryError, full_box


class TestPrefixSum1D:
    def test_single_cell(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((1, 1),)) == 2.0

    def test_full_range(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((0, 2),)) == 6.0

    def test_prefix(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((0, 1),)) == 3.0

    def test_suffix(self):
        t = PrefixSumTable(np.array([1.0, 2.0, 3.0]))
        assert t.query(((1, 2),)) == 5.0


class TestPrefixSumND:
    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5), (2, 3, 2, 3)])
    def test_matches_direct_sum(self, shape, rng):
        data = rng.poisson(2.0, size=shape).astype(float)
        t = PrefixSumTable(data)
        for _ in range(30):
            box = []
            for s in shape:
                a, b = sorted(rng.integers(0, s, size=2))
                box.append((int(a), int(b)))
            box = tuple(box)
            sl = tuple(slice(lo, hi + 1) for lo, hi in box)
            assert t.query(box) == pytest.approx(data[sl].sum())

    def test_full_box_equals_total(self, rng):
        data = rng.random((4, 6, 3))
        t = PrefixSumTable(data)
        assert t.query(full_box(data.shape)) == pytest.approx(data.sum())

    def test_query_many_matches_query(self, rng):
        data = rng.poisson(1.0, size=(8, 8)).astype(float)
        t = PrefixSumTable(data)
        boxes = []
        for _ in range(25):
            a, b = sorted(rng.integers(0, 8, size=2))
            c, d = sorted(rng.integers(0, 8, size=2))
            boxes.append(((int(a), int(b)), (int(c), int(d))))
        many = t.query_many(boxes)
        single = [t.query(b) for b in boxes]
        # One code path: a box alone gets the bits it gets in a batch.
        assert np.array_equal(many, single)

    def test_query_many_empty(self):
        t = PrefixSumTable(np.zeros((2, 2)))
        assert t.query_many([]).size == 0

    def test_rejects_scalar(self):
        with pytest.raises(QueryError):
            PrefixSumTable(np.float64(3.0))

    def test_rejects_bad_box(self):
        t = PrefixSumTable(np.zeros((4, 4)))
        with pytest.raises(QueryError):
            t.query(((0, 4), (0, 0)))

    def test_negative_values_supported(self):
        # Private reconstructions contain signed values.
        data = np.array([[-1.0, 2.0], [3.0, -4.0]])
        t = PrefixSumTable(data)
        assert t.query(((0, 1), (0, 1))) == pytest.approx(0.0)
        assert t.query(((1, 1), (1, 1))) == pytest.approx(-4.0)
