"""Partitions of a frequency matrix and complete partitionings.

A sanitization method outputs a set of non-overlapping axis-aligned boxes
covering the whole matrix, each carrying a noisy count (Section 2.2 of the
paper).  :class:`Partition` is one such box; :class:`Partitioning` is the
complete set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .exceptions import PartitioningError, QueryError
from .frequency_matrix import Box, box_n_cells, full_box
from .packed import PackedPartitioning, boxes_to_arrays, validate_box_arrays


def _bound(value: object) -> int:
    """``value`` as a Python int if it is an int64 integer (not a bool):
    the scalar form of :func:`~repro.core.packed.boxes_to_arrays`' rule."""
    if type(value) is int or isinstance(value, np.integer):
        if -(2**63) <= value < 2**63:
            return int(value)
    raise QueryError(f"partition bounds must be int64 integers, got {value!r}")


@dataclass(frozen=True)
class Partition:
    """One axis-aligned box of matrix cells with true and noisy counts.

    Attributes
    ----------
    box:
        Inclusive ``(lo, hi)`` index range per dimension, as Python ints.
        A bound that is not an int64 integer (a float, bool, string,
        ``None``) raises :class:`QueryError` instead of being truncated.
    noisy_count:
        The sanitized (published) count.  May be negative: Laplace noise is
        unbounded and the paper does not post-process.
    true_count:
        The exact count.  Kept for evaluation only — it is **never**
        published; serialization of private outputs drops it.
    """

    box: Box
    noisy_count: float
    true_count: float | None = None

    def __post_init__(self) -> None:
        norm = tuple((_bound(lo), _bound(hi)) for lo, hi in self.box)
        for axis, (lo, hi) in enumerate(norm):
            if lo > hi:
                raise PartitioningError(f"partition axis {axis}: lo {lo} > hi {hi}")
            if lo < 0:
                raise PartitioningError(f"partition axis {axis}: negative lo {lo}")
        object.__setattr__(self, "box", norm)
        object.__setattr__(self, "noisy_count", float(self.noisy_count))
        if self.true_count is not None:
            object.__setattr__(self, "true_count", float(self.true_count))

    @property
    def n_cells(self) -> int:
        """Number of matrix entries (cells) inside the box."""
        return box_n_cells(self.box)

    @property
    def ndim(self) -> int:
        return len(self.box)

    def contains_cell(self, index: Sequence[int]) -> bool:
        """Whether the cell multi-index lies inside this partition."""
        idx = tuple(index)
        if len(idx) != self.ndim:
            raise PartitioningError(
                f"index has {len(idx)} coordinates, partition has {self.ndim}"
            )
        return all(lo <= i <= hi for i, (lo, hi) in zip(idx, self.box))

    def overlap_cells(self, query: Box) -> int:
        """Number of cells shared with ``query`` (0 when disjoint)."""
        if len(query) != self.ndim:
            raise PartitioningError("query dimensionality mismatch")
        n = 1
        for (plo, phi), (qlo, qhi) in zip(self.box, query):
            lo = max(plo, qlo)
            hi = min(phi, qhi)
            if lo > hi:
                return 0
            n *= hi - lo + 1
        return n

    def uniform_answer(self, query: Box) -> float:
        """Contribution to a range query under the uniformity assumption.

        The partition contributes ``noisy_count * overlap / n_cells``
        (Section 2.2: within-partition uniformity).
        """
        overlap = self.overlap_cells(query)
        if overlap == 0:
            return 0.0
        return self.noisy_count * overlap / self.n_cells


class Partitioning:
    """A complete, non-overlapping set of partitions, as Python objects.

    Completeness (every cell covered exactly once) is what keeps the Laplace
    sensitivity at 1: one individual's record falls in exactly one partition.
    With ``validate=True`` the exact-cover check is delegated to
    :class:`~repro.core.packed.PackedPartitioning`, which holds the
    library's only implementation of it.  Private matrices store their
    partitions packed; this object form is a view for per-partition
    iteration and the scalar reference answer.
    """

    __slots__ = ("_partitions", "_shape")

    def __init__(
        self,
        partitions: Iterable[Partition],
        shape: Sequence[int],
        *,
        validate: bool = True,
    ):
        self._partitions: Tuple[Partition, ...] = tuple(partitions)
        self._shape = tuple(int(s) for s in shape)
        if not self._partitions:
            raise PartitioningError("a partitioning needs at least one partition")
        lows, highs = validate_box_arrays(
            *boxes_to_arrays([p.box for p in self._partitions]), self._shape
        )
        if validate:
            PackedPartitioning(lows, highs, np.zeros(len(lows)), self._shape)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    def __len__(self) -> int:
        return len(self._partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._partitions)

    def __getitem__(self, i: int) -> Partition:
        return self._partitions[i]

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return self._partitions

    @property
    def total_noisy_count(self) -> float:
        return float(sum(p.noisy_count for p in self._partitions))

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, shape: Sequence[int], noisy_count: float, true_count: float | None = None) -> "Partitioning":
        """The trivial one-partition tiling (the UNIFORM baseline's output)."""
        box = full_box(shape)
        return cls([Partition(box, noisy_count, true_count)], shape, validate=False)

    def find(self, index: Sequence[int]) -> Partition:
        """The partition containing a cell multi-index (linear scan)."""
        for p in self._partitions:
            if p.contains_cell(index):
                return p
        raise PartitioningError(f"no partition contains cell {tuple(index)}")


def grid_boxes(shape: Sequence[int], splits_per_dim: Sequence[int]) -> List[Box]:
    """Uniform grid tiling: dimension ``i`` is cut into ``splits_per_dim[i]``
    near-equal inclusive ranges (numpy ``array_split`` semantics).

    Used by EUG / EBP / MKM, which divide every dimension into ``m``
    intervals.
    """
    shape = tuple(int(s) for s in shape)
    edges_per_dim: List[List[Tuple[int, int]]] = []
    for size, m in zip(shape, splits_per_dim):
        m = max(1, min(int(m), size))
        cuts = np.linspace(0, size, m + 1).astype(np.int64)
        ranges = [
            (int(cuts[i]), int(cuts[i + 1]) - 1)
            for i in range(m)
            if cuts[i + 1] > cuts[i]
        ]
        edges_per_dim.append(ranges)
    boxes: List[Box] = []
    _accumulate_boxes(edges_per_dim, 0, [], boxes)
    return boxes


def _accumulate_boxes(
    edges_per_dim: List[List[Tuple[int, int]]],
    axis: int,
    prefix: List[Tuple[int, int]],
    out: List[Box],
) -> None:
    if axis == len(edges_per_dim):
        out.append(tuple(prefix))
        return
    for rng in edges_per_dim[axis]:
        prefix.append(rng)
        _accumulate_boxes(edges_per_dim, axis + 1, prefix, out)
        prefix.pop()


def split_interval(lo: int, hi: int, cut_points: Sequence[int]) -> List[Tuple[int, int]]:
    """Split inclusive ``[lo, hi]`` at interior cut points.

    Each ``c`` in ``cut_points`` starts a new interval at ``c`` (i.e. the
    previous interval ends at ``c - 1``).  Cut points must be strictly
    increasing and lie in ``(lo, hi]``.
    """
    intervals: List[Tuple[int, int]] = []
    prev = int(lo)
    last = None
    for c in cut_points:
        c = int(c)
        if last is not None and c <= last:
            raise PartitioningError("cut points must be strictly increasing")
        if not lo < c <= hi:
            raise PartitioningError(
                f"cut point {c} outside ({lo}, {hi}]"
            )
        intervals.append((prev, c - 1))
        prev = c
        last = c
    intervals.append((prev, int(hi)))
    return intervals
