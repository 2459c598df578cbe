"""N-dimensional prefix sums (summed-area tables) for fast range counting.

Evaluating 1000-query workloads against 10^6-cell matrices by slicing and
summing is too slow; a prefix-sum table answers any inclusive box query in
O(2^d) lookups after an O(n) build.  Used both for ground-truth answers and
for querying densely-reconstructed private matrices.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence, Tuple

import numpy as np

from .exceptions import QueryError
from .frequency_matrix import Box, validate_box


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
        """Sum of the cells in an inclusive box via inclusion-exclusion."""
        box = validate_box(box, self._shape)
        ndim = len(self._shape)
        total = 0.0
        # For every corner choice, pick hi+1 (add) or lo (subtract) per axis;
        # sign is (-1)^(number of lo choices).
        for choice in product((0, 1), repeat=ndim):
            idx = tuple(
                (hi + 1) if pick else lo
                for pick, (lo, hi) in zip(choice, box)
            )
            sign = 1.0 if (ndim - sum(choice)) % 2 == 0 else -1.0
            total += sign * self._table[idx]
        return float(total)

    def query_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Vectorized :meth:`query` over a list of boxes."""
        boxes = [validate_box(b, self._shape) for b in boxes]
        if not boxes:
            return np.zeros(0, dtype=np.float64)
        lows = np.array([[lo for lo, _ in b] for b in boxes], dtype=np.int64)
        highs = np.array([[hi for _, hi in b] for b in boxes], dtype=np.int64)
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
