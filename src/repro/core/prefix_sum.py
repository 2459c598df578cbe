"""N-dimensional prefix sums (summed-area tables) for fast range counting.

Evaluating 1000-query workloads against 10^6-cell matrices by slicing and
summing is too slow; a prefix-sum table answers any inclusive box query in
O(2^d) lookups after an O(n) build.  Used both for ground-truth answers and
for querying densely-reconstructed private matrices.

:class:`LevelPrefixTable` holds the same weights as the full table of a
partition-backed matrix in per-group tables over its trailing axes,
for matrices whose full table is too large to keep.
"""

from __future__ import annotations

import math
import time
from itertools import product
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

import numpy as np

from .exceptions import QueryError
from .frequency_matrix import Box
from .packed import (
    DEFAULT_TILE_ELEMENTS,
    OverlapLayout,
    boxes_to_arrays,
    narrow_int,
    validate_box_arrays,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .packed import PackedPartitioning


class PrefixSumTable:
    """Summed-area table over an arbitrary-dimensional count array."""

    __slots__ = ("_table", "_shape")

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            raise QueryError("prefix sums need at least one dimension")
        self._build(arr.shape, lambda interior: np.copyto(interior, arr))

    @classmethod
    def from_fill(
        cls, shape: Sequence[int], fill: Callable[[np.ndarray], object]
    ) -> "PrefixSumTable":
        """Table over the array ``fill`` writes into the zeroed
        ``shape``-sized view it is handed, so no separate dense copy of
        the data is ever allocated."""
        table = cls.__new__(cls)
        table._build(tuple(int(s) for s in shape), fill)
        return table

    def _build(
        self, shape: Tuple[int, ...], fill: Callable[[np.ndarray], object]
    ) -> None:
        self._shape: Tuple[int, ...] = shape
        # Pad with a leading zero hyperplane per axis so queries need no
        # boundary special-casing: table[i] = sum of data[:i] (exclusive).
        table = np.zeros(tuple(s + 1 for s in shape), dtype=np.float64)
        fill(table[tuple(slice(1, None) for _ in shape)])
        for axis in range(len(shape)):
            np.cumsum(table, axis=axis, out=table)
        self._table = table

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    def query(self, box: Box) -> float:
        """Sum of the cells in an inclusive box: a one-box
        :meth:`query_many`, so it is checked by the same rule and gets
        the bits it gets in any batch."""
        return float(self.query_many([box])[0])

    def query_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """:meth:`query_arrays` over a list of boxes, checked first by
        :func:`~repro.core.packed.validate_box_arrays` (nothing is cast)."""
        boxes = list(boxes)
        if not boxes:
            return np.zeros(0, dtype=np.float64)
        lows, highs = validate_box_arrays(*boxes_to_arrays(boxes), self._shape)
        return self.query_arrays(lows, highs)

    def query_arrays(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """:meth:`query_many` for pre-validated ``(n, d)`` bound arrays.

        Skips per-box Python validation/conversion entirely, so repeated
        workload evaluations against cached arrays pay only the ``2^d``
        gather passes.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        ndim = len(self._shape)
        n = lows.shape[0]
        out = np.zeros(n, dtype=np.float64)
        for choice in product((0, 1), repeat=ndim):
            pick = np.array(choice, dtype=bool)
            idx = np.where(pick, highs + 1, lows)
            sign = 1.0 if (ndim - int(pick.sum())) % 2 == 0 else -1.0
            out += sign * self._table[tuple(idx[:, a] for a in range(ndim))]
        return out


#: Largest :class:`LevelPrefixTable`, in bytes.  A partition-backed
#: matrix whose full prefix table is larger gets the shallowest level
#: table that fits; one whose full table fits gets none.  On the served
#: ``11**6`` DAF release (1 522 partitions, a 22.8 MiB full table) that
#: is level 3: 42 groups, 0.55 MiB (1.5 KB of it prefix rows).
LEVEL_TABLE_BYTES = 1 << 20


def _stacked_bytes(shape: Sequence[int], level: int, n_groups: int) -> int:
    """Bytes of ``n_groups`` padded float64 prefix tables over the axes
    ``level..d-1`` of ``shape`` and their prefix rows (level 0: none)."""
    lead = shape[:level]
    item = np.dtype(narrow_int(max(lead, default=0))).itemsize
    return n_groups * (8 * math.prod(s + 1 for s in shape[level:])
                       + item * (sum(lead) + level))


class LevelPrefixTable:
    """Prefix tables per group of partitions that share leading bounds.

    At level ``j`` the partitions are grouped by their ``(lo, hi)`` on
    axes ``0..j-1``.  Inside a group every partition spans the group's
    leading box, so a query's answer from the group is the product of
    its overlaps with that box on the leading axes times the sum of the
    group's cell weights over the query's box on the trailing axes
    ``j..d-1``.  The overlap of ``[l, h]`` on axis ``a`` is ``P_a[h + 1]
    - P_a[l]`` of the prefix row ``P_a[x] = clip(x, glo, ghi + 1)``, in
    the narrow ints of :class:`~repro.core.packed.OverlapLayout` on the
    group bounds; the product is exact in its ``acc_dtype``.  The sum
    is an inclusion-exclusion over ``2**(d-j)`` corners of the group's
    padded prefix table.  The partitions of a DAF release, split one
    axis per tree level, share few leading prefixes, so the groups'
    tables together are far smaller than the full table.

    The group tables are stacked in one float64 array with the group
    axis last, and a query's corners are gathered corner-major, as
    contiguous rows of all the groups' values, so each halving
    subtracts two contiguous blocks.  A query's answer is
    ``einsum("qn,qn->q")`` of its leading overlaps and its corner sums
    over that group axis: the order of the reduction depends only on
    the number of groups, so an answer has the same bits in any batch
    and any tile.
    """

    __slots__ = ("level", "n_groups", "build_ms", "_rows", "_acc", "_index",
                 "_offset", "_table")

    def __init__(self, packed: "PackedPartitioning", level: int):
        start = time.perf_counter()
        lo, hi = packed.lo, packed.hi
        shape = packed.shape
        if not 1 <= level < len(shape):
            raise QueryError(
                f"level must be in 1..{len(shape) - 1}, got {level}"
            )
        order, change = _prefix_changes(lo, hi)
        new = np.concatenate(([True], change[:, 2 * level - 1]))
        group = np.empty(len(lo), dtype=np.int64)
        group[order] = np.cumsum(new) - 1
        first = order[new]  # one partition of each group
        self.level = level
        self.n_groups = len(first)
        glo, ghi = lo[first, :level], hi[first, :level]
        layout = OverlapLayout(
            glo, ghi, shape[:level], np.prod(ghi - glo + 1, axis=1)
        )
        # _rows[starts[a] + x] = P_a[x], each axis's row in place.
        starts = np.cumsum([0] + [s + 1 for s in shape[:level - 1]])
        self._rows = np.empty((sum(shape[:level]) + level, self.n_groups),
                              layout.dtype)
        for a, (x, lo_a, hi_a) in enumerate(zip(starts, layout.lo, layout.hi)):
            np.clip(np.arange(shape[a] + 1, dtype=layout.dtype)[:, None],
                    lo_a, hi_a, out=self._rows[x:x + shape[a] + 1])
        self._acc = layout.acc_dtype
        trailing = tuple(s + 1 for s in shape[level:])
        strides = [math.prod(trailing[a + 1:]) for a in range(len(trailing))]
        bits = np.indices((2,) * len(trailing)).reshape(len(trailing), -1).T
        # A query's gather rows are one affine map of its bounds (h, l):
        # its prefix rows, h + 1 then l on each leading axis, then the
        # flat rows of its corners (bit a set: h + 1 on trailing axis a).
        hi_w = np.pad(bits * strides, ((0, 0), (level, 0)))
        pick = np.eye(level, len(shape), dtype=np.int64)
        self._index = np.block([[pick, 0 * pick], [0 * pick, pick],
                                [hi_w, np.pad(strides, (level, 0)) - hi_w]])
        self._offset = np.concatenate((starts + 1, starts, hi_w.sum(1)))
        # table[i..., g] = sum of group g's weights over cells [:i] of
        # the trailing axes: each box's weight written into its cells
        # (shifted by the zero padding), then one cumsum per axis.
        table = np.zeros(trailing + (self.n_groups,), dtype=np.float64)
        for g, wlo, whi, w in zip(
            group.tolist(), lo[:, level:].tolist(),
            hi[:, level:].tolist(), packed.weights.tolist(),
        ):
            table[tuple(map(slice, [a + 1 for a in wlo],
                            [b + 2 for b in whi])) + (g,)] = w
        for axis in range(len(trailing)):
            np.cumsum(table, axis=axis, out=table)
        self._table = table.reshape(-1, self.n_groups)
        self.build_ms = 1e3 * (time.perf_counter() - start)

    @classmethod
    def for_packed(
        cls, packed: "PackedPartitioning"
    ) -> "LevelPrefixTable | None":
        """The shallowest level table of ``packed`` within
        :data:`LEVEL_TABLE_BYTES`, or ``None`` when the full table fits
        that budget or no level does."""
        shape, budget = packed.shape, LEVEL_TABLE_BYTES
        if _stacked_bytes(shape, 0, 1) <= budget:
            return None
        _, change = _prefix_changes(packed.lo, packed.hi)
        for level in range(1, len(shape)):
            groups = 1 + int(np.count_nonzero(change[:, 2 * level - 1]))
            if _stacked_bytes(shape, level, groups) <= budget:
                return cls(packed, level)
        return None

    @property
    def nbytes(self) -> int:
        return int(self._table.nbytes + self._rows.nbytes)

    @property
    def n_corners(self) -> int:
        return len(self._index) - 2 * self.level

    def price(self) -> int:
        """Elements a query touches: per group, its corners and its
        leading-axis overlaps."""
        return self.n_groups * (self.n_corners + self.level)

    def stats(self) -> dict:
        """``{"level", "groups", "bytes", "build_ms"}``, for ``/statz``."""
        return {
            "level": self.level,
            "groups": self.n_groups,
            "bytes": self.nbytes,
            "build_ms": self.build_ms,
        }

    def query_arrays(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        tile_elements: int = DEFAULT_TILE_ELEMENTS,
    ) -> np.ndarray:
        """Answers for validated ``(q, d)`` inclusive bound arrays.

        The query axis is tiled so each tile's ``(corners, tile,
        groups)`` gather stays under ``tile_elements`` elements.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        q = len(lows)
        out = np.empty(q, dtype=np.float64)
        if q == 0:
            return out
        j, n = self.level, self.n_groups
        rows = self._index @ np.concatenate((highs, lows), axis=1).T
        ends, rows = np.split(rows + self._offset[:, None], [2 * j])
        tile = min(q, max(1, int(tile_elements) // (n * self.n_corners)))
        for start in range(0, q, tile):
            stop = min(start + tile, q)
            spans = np.take(self._rows, ends[:, start:stop], axis=0)
            lead = np.prod(spans[:j] - spans[j:], axis=0,
                           dtype=self._acc).astype(np.float64)
            # Each halving signs one trailing axis: its hi corners
            # minus its lo corners.
            corners = np.take(self._table, rows[:, start:stop], axis=0)
            half = self.n_corners
            while half > 1:
                half //= 2
                np.subtract(corners[half:2 * half], corners[:half],
                            out=corners[:half])
            np.einsum("qn,qn->q", lead, corners[0], out=out[start:stop])
        return out


def _prefix_changes(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, change)``: the order that sorts the rows' bounds
    ``(lo_0, hi_0, lo_1, hi_1, ...)`` lexicographically, and
    ``change[i, c]``, true when sorted row ``i + 1`` differs from row
    ``i`` in some column up to ``c``.  Rows sharing their bounds on
    axes ``0..j-1`` are neighbours, so the groups at level ``j`` start
    where ``change[:, 2j - 1]`` is set.

    A lexsort and a neighbour diff, because ``np.unique`` over rows
    imports ``numpy.ma`` on its first call."""
    bounds = np.stack((lo, hi), axis=2).reshape(len(lo), -1)
    order = np.lexsort(bounds.T[::-1])
    bounds = bounds[order]
    return order, np.logical_or.accumulate(bounds[1:] != bounds[:-1], axis=1)
