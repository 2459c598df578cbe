"""One rule for box bounds, at every entry point that takes a box.

A bound is an integer: a Python or NumPy int, not a bool, within int64.
Anything else raises :class:`QueryError` instead of being read as some
other integer (``2.7`` as 2, ``True`` as 1, ``"3"`` as 3), which would
answer a different box while looking like the one that was asked.
"""

import numpy as np
import pytest

from repro.core import (
    FrequencyMatrix,
    Partition,
    Partitioning,
    PrefixSumTable,
    PrivateFrequencyMatrix,
    QueryError,
    grid_boxes,
    validate_box,
    validate_box_arrays,
)
from repro.engine import QueryRequest

SHAPE = (4, 4)
DATA = np.arange(16, dtype=np.float64).reshape(SHAPE)


def packed_private():
    parts = [
        Partition(b, c)
        for b, c in zip(grid_boxes(SHAPE, (2, 2)), [5.0, -1.0, 3.0, 7.0])
    ]
    return PrivateFrequencyMatrix(Partitioning(parts, SHAPE))


def dense_private():
    return PrivateFrequencyMatrix.from_dense_noisy(DATA - 3.0)


def request_bounds(box):
    request = QueryRequest.from_boxes([box])
    return request.lows.tolist(), request.highs.tolist()


def two_partitions(box, split):
    """``box`` (rows ``split..3``) and the partition of rows above it."""
    rest = Partition(((0, split - 1), (0, 3)), 1.0)
    return tuple(p.box for p in Partitioning([rest, Partition(box, 2.0)], SHAPE))


# Each entry point takes the box ((lo, 3), (0, 3)) and the row ``split``
# at which a truncating reader would have read ``lo``.
ENTRY_POINTS = {
    "validate_box": lambda box, split: validate_box(box, SHAPE),
    "range_count": lambda box, split: FrequencyMatrix(DATA).range_count(box),
    "prefix_query": lambda box, split: PrefixSumTable(DATA).query(box),
    "prefix_query_many": lambda box, split: PrefixSumTable(DATA).query_many([box]),
    "answer_packed": lambda box, split: packed_private().answer(box),
    "answer_many_packed": lambda box, split: packed_private().answer_many([box]),
    "answer_dense": lambda box, split: dense_private().answer(box),
    "answer_many_dense": lambda box, split: dense_private().answer_many([box]),
    "from_boxes": lambda box, split: request_bounds(box),
    "Partition": lambda box, split: Partition(box, 1.0).box,
    "Partitioning": two_partitions,
}

# (bound, the row a truncating reader takes it for)
NON_INTEGER_BOUNDS = [
    pytest.param(2.7, 2, id="float"),
    pytest.param(True, 1, id="bool"),
    pytest.param(np.True_, 1, id="np_bool"),
    pytest.param("3", 3, id="str"),
    pytest.param(None, 1, id="none"),
    pytest.param(2**70, 1, id="beyond_int64"),
]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bound, split", NON_INTEGER_BOUNDS)
def test_non_integer_bound_raises_query_error(entry, bound, split):
    with pytest.raises(QueryError):
        ENTRY_POINTS[entry](((bound, 3), (0, 3)), split)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint8])
def test_numpy_int_bounds_answer_as_python_ints(entry, int_type):
    box = ((1, 3), (0, 3))
    typed = tuple((int_type(lo), int_type(hi)) for lo, hi in box)
    expected = ENTRY_POINTS[entry](box, 1)
    got = ENTRY_POINTS[entry](typed, 1)
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    else:
        assert got == expected
    if entry in ("validate_box", "Partition"):
        assert all(type(b) is int for pair in got for b in pair)


# uint64 (lo, hi) pairs at or above 2**63, which an int64 cast would wrap
# negative: the error must name the bound, not "lo > hi" or "negative lo".
WIDE_UINT64_BOXES = [
    pytest.param(0, 2**64 - 1, id="hi_uint64_max"),
    pytest.param(2**63, 2**63, id="lo_hi_2_63"),
]


@pytest.mark.parametrize("lo, hi", WIDE_UINT64_BOXES)
def test_uint64_bound_beyond_int64_is_named(lo, hi):
    lows = np.array([[0, 0], [lo, 0]], dtype=np.uint64)
    highs = np.array([[1, 1], [hi, 3]], dtype=np.uint64)
    with pytest.raises(QueryError, match=r"box 1: bound \d+ is beyond int64"):
        validate_box_arrays(lows, highs, SHAPE)
