"""Array-backed partitionings and the vectorized range-query kernel.

:class:`~repro.core.partition.Partitioning` stores one Python object per
partition, the wrong representation for answering thousands of range
queries: the scalar path (`Partition.uniform_answer` in a loop) costs one
Python call per (query, partition) pair.

:class:`PackedPartitioning` stores the same information as contiguous
NumPy arrays — ``lo``/``hi`` index bounds of shape ``(k, d)`` plus
``noisy_counts``/``true_counts`` of shape ``(k,)`` — and answers a whole
batch of box queries at once:

* per dimension, the overlap length between every query and every
  partition is ``clip(min(q_hi, p_hi) - max(q_lo, p_lo) + 1, 0)``,
  computed by broadcasting a ``(q, 1)`` query column against a ``(1, k)``
  partition row;
* the per-dimension lengths multiply into a ``(q, k)`` overlap-cell
  matrix;
* under the paper's within-partition uniformity assumption each
  partition contributes ``noisy_count * overlap / n_cells``, so the
  answer vector is a single matrix-vector product against the
  precomputed ``noisy_counts / n_cells`` weights.

The arithmetic runs on a narrow :class:`OverlapLayout`, built once per
matrix: bounds transposed to contiguous ``(d, k)`` rows in the
narrowest signed int holding ``max(shape)`` (int8 for the ``11**6`` OD
matrices), the product across axes accumulated in int32 (float64 when
a partition has more than ``2**31 - 1`` cells).  Integer ops are exact
and every partial product is an integer below ``2**53``, so the single
cast to float64 yields exactly the values an all-float64 kernel
computes; the ``einsum`` contraction then reduces each row in an order
that depends only on ``k``.  Answers are therefore bit-identical to the
int64/float64 arithmetic, whatever the tile size or batch composition.

Query batches are processed in cache-sized tiles
(:data:`DEFAULT_TILE_ELEMENTS` elements per intermediate, buffers
allocated once per call), so peak memory stays bounded no matter how
large ``q × k`` grows.  The scalar loop in
:meth:`~repro.core.private_matrix.PrivateFrequencyMatrix.answer` remains
the reference implementation; the test suite asserts agreement within
1e-9 between the two.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .exceptions import PartitioningError, QueryError
from .interval_index import IntervalIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .frequency_matrix import Box
    from .partition import Partitioning
    from .prefix_sum import LevelPrefixTable
    from .sharding import PartitionShard

#: Target number of elements per broadcast tile.  Query batches are
#: tiled so no single ``(q_tile, k)`` intermediate exceeds this; at 64k
#: elements the four tile buffers (two narrow ints, the int32 product,
#: its float64 copy) take under 1 MB and stay cache-resident.
DEFAULT_TILE_ELEMENTS = 65_536

#: Largest ``uint8`` coverage slab the exact-cover check paints at once.
COVER_SLAB_BYTES = 1 << 20


#: Candidate bound dtypes of :class:`OverlapLayout`, narrowest first.
_NARROW_INTS = (np.int8, np.int16, np.int32, np.int64)


def narrow_int(bound: int) -> type:
    """The narrowest signed int of :data:`_NARROW_INTS` holding ``bound``."""
    return next(t for t in _NARROW_INTS if np.iinfo(t).max >= bound)


class OverlapLayout:
    """The overlap kernels' view of a partitioning's bounds.

    ``lo`` and ``hi`` are the partition bounds transposed to contiguous
    ``(d, k)`` rows, ``hi`` exclusive (``hi + 1``), stored in
    :attr:`dtype`: the narrowest signed int holding ``max(shape)``.
    With query bounds clipped into ``[0, max(shape)]`` (which changes
    no overlap length), every per-axis step
    ``max(0, min(q_hi, p_hi) - max(q_lo, p_lo))`` stays inside
    ``[-max(shape), max(shape)]``, so it is exact in that dtype.

    A clipped overlap never exceeds the partition's own extent on that
    axis, so the product across axes never exceeds the partition's
    ``n_cells``.  :attr:`acc_dtype` is int32 when the largest ``n_cells``
    fits it, else float64.  Either way the product is exact: integer
    ops are exact, and every partial product is an integer below
    ``2**53``, which float64 represents exactly.  Cast to float64, it
    equals the all-float64 product bit for bit.  :meth:`cells` is the
    only place this arithmetic is written; the pruned gather calls it,
    and the broadcast kernel calls it through :meth:`tiles`, the one
    place its float64 copy is made.
    """

    __slots__ = ("lo", "hi", "dtype", "acc_dtype", "_bound")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, shape: Sequence[int],
                 n_cells: np.ndarray):
        self._bound = max(shape)
        self.dtype = narrow_int(self._bound)
        self.lo = np.ascontiguousarray(lo.T, dtype=self.dtype)
        self.hi = np.ascontiguousarray((hi + 1).T, dtype=self.dtype)
        fits = int(n_cells.max()) <= np.iinfo(np.int32).max
        self.acc_dtype = np.int32 if fits else np.float64

    def queries(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d, q)`` query bounds in :attr:`dtype`, ``highs`` exclusive."""
        qlo = np.clip(np.asarray(lows, dtype=np.int64).T, 0, self._bound)
        # Clip before the +1, so no int64 high bound can wrap.
        qhi = np.clip(
            np.asarray(highs, dtype=np.int64).T, -1, self._bound - 1
        ) + 1
        return (np.ascontiguousarray(qlo, dtype=self.dtype),
                np.ascontiguousarray(qhi, dtype=self.dtype))

    def cells(
        self,
        qlo: np.ndarray,
        qhi: np.ndarray,
        plo: np.ndarray,
        phi: np.ndarray,
        *,
        out: np.ndarray | None = None,
        scratch: Tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Overlap cell counts of (query, partition) pairs, in :attr:`acc_dtype`.

        Each argument is indexed by axis first: ``qlo[a]``/``qhi[a]``
        come from :meth:`queries`, ``plo[a]``/``phi[a]`` from :attr:`lo`/
        :attr:`hi` (broadcast or gathered), and the four must broadcast
        together.  ``out`` (:attr:`acc_dtype`) and ``scratch`` (two
        :attr:`dtype` arrays) of the broadcast shape are written in
        place when given.
        """
        ov, low = scratch if scratch is not None else (None, None)
        for axis in range(len(qlo)):
            # max(0, min(hi) - max(lo)) against the exclusive upper
            # bounds; the clamp at zero is max(min(hi), max(lo)) -
            # max(lo): NumPy's array-array maximum is several times
            # faster than its array-scalar one.
            ov = np.minimum(qhi[axis], phi[axis], out=ov)
            low = np.maximum(qlo[axis], plo[axis], out=low)
            np.maximum(ov, low, out=ov)
            np.subtract(ov, low, out=ov)
            if axis == 0:
                if out is None:
                    out = ov.astype(self.acc_dtype)
                else:
                    out[...] = ov
            else:
                np.multiply(out, ov, out=out)
        return out

    def tiles(
        self, lows: np.ndarray, highs: np.ndarray, tile: int
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(start, stop, cells)`` for each run of ``tile`` queries:
        the float64 ``(stop - start, k)`` overlap cells of queries
        ``start:stop`` against every row of this layout.

        The four tile buffers (two in :attr:`dtype`, the product in
        :attr:`acc_dtype`, its float64 copy) are allocated once and
        reused, so ``cells`` is overwritten by the next tile.
        """
        qlo, qhi = self.queries(lows, highs)
        q, k = qlo.shape[1], self.lo.shape[1]
        ov = np.empty((tile, k), dtype=self.dtype)
        low = np.empty((tile, k), dtype=self.dtype)
        acc = np.empty((tile, k), dtype=self.acc_dtype)
        cells = acc if acc.dtype == np.float64 else np.empty((tile, k))
        plo, phi = self.lo[:, None, :], self.hi[:, None, :]
        for start in range(0, q, tile):
            stop = min(start + tile, q)
            n = stop - start
            self.cells(
                qlo[:, start:stop, None], qhi[:, start:stop, None], plo, phi,
                out=acc[:n], scratch=(ov[:n], low[:n]),
            )
            if cells is not acc:
                cells[:n] = acc[:n]
            yield start, stop, cells[:n]


def _axis_cuts(values: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``values`` (ints in ``[0, size]``), sorted,
    with ``0`` and ``size`` added."""
    values = np.sort(np.concatenate(([0, size], values)))
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def holds_bool(nested: object, depth: int) -> bool:
    """Whether a regular nested sequence ``depth`` levels deep holds a
    bool.  ``np.asarray`` turns a bool among numbers into 0/1 without a
    trace in the dtype, so the Python values are checked."""
    flat: object = [nested]
    for _ in range(depth):
        flat = itertools.chain.from_iterable(flat)  # type: ignore[arg-type]
    return not {bool, np.bool_}.isdisjoint(map(type, flat))  # type: ignore[arg-type]


def boxes_to_arrays(boxes: Iterable[Box]) -> Tuple[np.ndarray, np.ndarray]:
    """Convert inclusive boxes to ``(lows, highs)`` arrays of shape
    ``(n_boxes, ndim)``, in the dtype NumPy infers: nothing is cast.

    A float, string, ``None``, bool or beyond-int64 bound raises
    :class:`QueryError` instead of being truncated, as does a ragged or
    empty list or a box not made of ``(lo, hi)`` pairs.  Checking the
    boxes against a shape is :func:`validate_box_arrays`.
    """
    try:
        boxes = list(boxes)
        bounds = np.asarray(boxes)
    except (TypeError, ValueError) as exc:  # not iterable, or ragged
        raise QueryError(f"boxes must be equal-length boxes: {exc}") from None
    if (bounds.ndim != 3 or bounds.shape[2] != 2
            or bounds.dtype.kind not in "iu" or holds_bool(boxes, 3)):
        # NumPy infers float64 or object for Python ints beyond int64:
        # name the bound rather than its inferred dtype.
        wide = (bounds.ndim == 3 and bounds.dtype.kind in "fO"
                and _beyond_int64(boxes))
        raise QueryError(wide or (
            "boxes must be a non-empty list of equal-length boxes of integer "
            f"(lo, hi) pairs, not bools; got {bounds.dtype} of shape {bounds.shape}"
        ))
    return bounds[..., 0], bounds[..., 1]


def _beyond_int64(boxes: List[Box]) -> str | None:
    """When every bound of the regular ``boxes`` is a Python int, the
    error naming the first one beyond int64; else ``None``."""
    rows = [[b for pair in box for b in pair] for box in boxes]
    if any(type(b) is not int for row in rows for b in row):
        return None
    info = np.iinfo(np.int64)
    for i, row in enumerate(rows):
        for b in row:
            if not info.min <= b <= info.max:
                return f"box {i}: bound {b} is beyond int64"
    return None


def _range_error(
    lows: np.ndarray, highs: np.ndarray, shape: Tuple[int, ...]
) -> str | None:
    """The first row of int64 ``(n, d)`` bounds that is not a box inside
    ``shape``, with what is wrong with it, or ``None`` when all are."""
    for bad, what in (
        (lows > highs, "lo > hi on some axis"),
        (lows < 0, "negative lo on some axis"),
        (highs >= np.asarray(shape, dtype=np.int64),
         f"hi outside matrix shape {shape}"),
    ):
        if bad.any():
            return f"{int(np.argmax(bad.any(axis=1)))}: {what}"
    return None


def validate_box_arrays(
    lows: np.ndarray, highs: np.ndarray, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The library's one rule for box bounds, over a whole batch.

    Validates the boxes in O(n·d) NumPy ops and returns them normalized
    to int64.  Bounds must be integer arrays: float, bool or object
    bounds are rejected rather than truncated (an empty batch may have
    any dtype).  Box lists reach it through :func:`boxes_to_arrays`.
    """
    shape = tuple(int(s) for s in shape)
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    for bounds in (lows, highs):
        if bounds.size and bounds.dtype.kind not in "iu":
            raise QueryError(
                f"box bounds must be integers, got dtype {bounds.dtype}"
            )
    if lows.ndim != 2 or lows.shape != highs.shape:
        raise QueryError(
            f"box arrays must both have shape (n, ndim), got "
            f"{lows.shape} and {highs.shape}"
        )
    if lows.shape[1] != len(shape):
        raise QueryError(
            f"boxes have {lows.shape[1]} dimensions, matrix has {len(shape)}"
        )
    for bounds in (lows, highs):
        # A uint64 bound above the int64 maximum would wrap negative in
        # the cast below and be reported as some other fault.
        if bounds.dtype == np.uint64:
            wide = bounds > np.iinfo(np.int64).max
            if wide.any():
                row = int(np.argmax(wide.any(axis=1)))
                raise QueryError(
                    f"box {row}: bound {int(bounds[wide][0])} is beyond int64"
                )
    lows = lows.astype(np.int64, copy=False)
    highs = highs.astype(np.int64, copy=False)
    error = _range_error(lows, highs, shape)
    if error is not None:
        raise QueryError(f"box {error}")
    return lows, highs


class PackedPartitioning:
    """A complete partitioning stored as contiguous arrays.

    Parameters
    ----------
    lo, hi:
        ``(k, d)`` inclusive index bounds, one row per partition.
    noisy_counts:
        ``(k,)`` sanitized counts (may be negative — Laplace noise is
        unbounded and the paper does not post-process).
    shape:
        Shape of the underlying frequency matrix.
    true_counts:
        Optional ``(k,)`` exact counts, kept for evaluation only.
    validate:
        When True (the default for externally-supplied arrays), check
        bounds and that the partitions tile the matrix exactly once.
        Methods that construct tilings by recursive splitting may skip
        it, exactly as with :class:`~repro.core.partition.Partitioning`.
    """

    __slots__ = ("_lo", "_hi", "_noisy", "_true", "_shape", "_n_cells",
                 "_weights", "_index", "_shards", "_layout", "_level")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        noisy_counts: np.ndarray,
        shape: Sequence[int],
        true_counts: np.ndarray | None = None,
        *,
        validate: bool = True,
    ):
        self._shape = tuple(int(s) for s in shape)
        lo = np.ascontiguousarray(lo, dtype=np.int64)
        hi = np.ascontiguousarray(hi, dtype=np.int64)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise PartitioningError(
                f"lo/hi must both have shape (k, d), got {lo.shape} and {hi.shape}"
            )
        if lo.shape[0] == 0:
            raise PartitioningError("a partitioning needs at least one partition")
        if lo.shape[1] != len(self._shape):
            raise PartitioningError(
                f"partitions have {lo.shape[1]} dimensions, "
                f"matrix has {len(self._shape)}"
            )
        noisy = np.ascontiguousarray(noisy_counts, dtype=np.float64)
        if noisy.shape != (lo.shape[0],):
            raise PartitioningError(
                f"noisy_counts must have shape ({lo.shape[0]},), got {noisy.shape}"
            )
        if true_counts is not None:
            true_counts = np.ascontiguousarray(true_counts, dtype=np.float64)
            if true_counts.shape != (lo.shape[0],):
                raise PartitioningError(
                    f"true_counts must have shape ({lo.shape[0]},), "
                    f"got {true_counts.shape}"
                )
        self._lo = lo
        self._hi = hi
        self._noisy = noisy
        self._true = true_counts
        self._n_cells = np.prod(hi - lo + 1, axis=1, dtype=np.int64)
        self._weights: np.ndarray | None = None
        self._index: IntervalIndex | None = None
        self._shards: dict | None = None
        self._layout: OverlapLayout | None = None
        # None until level_table() runs; False when it found no table.
        self._level: "LevelPrefixTable | bool | None" = None
        if validate:
            self._validate_bounds()
            self._validate_exact_cover()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_bounds(self) -> None:
        """The range checks of :func:`validate_box_arrays`, raising
        :class:`PartitioningError`."""
        error = _range_error(self._lo, self._hi, self._shape)
        if error is not None:
            raise PartitioningError(f"partition {error}")

    def _validate_exact_cover(self) -> None:
        """Check the partitions tile the matrix exactly once.

        This is the library's only exact-cover check;
        :class:`~repro.core.partition.Partitioning` delegates to it.
        First the partitions' cell counts must sum to the matrix size,
        as exact Python ints.  The matrix size is an exact Python int
        too, and a shape of ``2**63`` or more cells, where the int64
        ``n_cells`` could wrap, is always rejected.

        Then, in linear time, the partitions are painted onto the
        matrix in compressed coordinates (:meth:`_paint_coverage`), and
        every cell must be covered exactly once.  The boxes are checked
        pairwise instead (:meth:`_check_pairwise_disjoint`; equal total
        cell count and no pairwise overlap together imply an exact
        cover) when the compressed grid exceeds ``k**2 * d`` cells (few
        boxes with distinct cuts in many dimensions), or when one of its
        axis-0 rows exceeds :data:`COVER_SLAB_BYTES`, so that no slab
        of the paint does.
        """
        total = math.prod(self._shape)
        k, d = self._lo.shape
        covered = sum(self._n_cells.tolist())  # an int64 sum could wrap
        if total > np.iinfo(np.int64).max or covered != total:
            raise PartitioningError(
                f"partitions cover {covered} cells, matrix has {total}"
            )
        # Each axis's distinct cuts: the matrix ends and every box's
        # lo and exclusive hi.  Between two cuts no box starts or ends,
        # so coverage is constant on each compressed cell.
        cuts = [
            _axis_cuts(
                np.concatenate((self._lo[:, a], self._hi[:, a] + 1)), size
            )
            for a, size in enumerate(self._shape)
        ]
        dims = [len(c) - 1 for c in cuts]
        if (
            math.prod(dims) > k * k * d
            or math.prod(dims[1:]) > COVER_SLAB_BYTES
        ):
            self._check_pairwise_disjoint()
        else:
            self._paint_coverage(cuts)

    def _paint_coverage(self, cuts: Sequence[np.ndarray]) -> None:
        """Raise unless every compressed cell is covered exactly once.

        Each box adds ``+1``/``-1`` at its ``2**d`` signed corners (its
        ``lo`` and exclusive ``hi`` on every axis) of a ``uint8`` grid,
        and ``d`` in-place ``cumsum`` passes turn the corners into each
        cell's coverage count, modulo 256.  That is exact here: the
        cell counts already sum to the matrix size, i.e.
        ``sum(coverage * volume) == sum(volume)`` over the compressed
        cells, so if every coverage is ``1 (mod 256)``, hence at least
        1, every coverage is exactly 1.  Corners on an exclusive hi at
        the matrix end would only touch padding, so they are dropped
        and the grid has one byte per compressed cell.

        The grid is painted in axis-0 slabs of at most
        :data:`COVER_SLAB_BYTES` (the caller ensures one row fits); each
        slab's axis-0 prefix starts from the last row of the slab
        before it.
        """
        d = self._lo.shape[1]
        dims = [len(c) - 1 for c in cuts]
        clo = [np.searchsorted(cuts[a], self._lo[:, a]) for a in range(d)]
        chi = [np.searchsorted(cuts[a], self._hi[:, a] + 1) for a in range(d)]
        # Corners on the matrix end are dropped (axis 0 by the slab range).
        inside = [None] + [chi[a] < dims[a] for a in range(1, d)]
        row_bytes = math.prod(dims[1:])
        rows = COVER_SLAB_BYTES // row_bytes
        carry = None
        for r0 in range(0, dims[0], rows):
            r1 = min(r0 + rows, dims[0])
            slab = np.zeros((r1 - r0, *dims[1:]), dtype=np.uint8)
            in_slab = [(r0 <= c0) & (c0 < r1) for c0 in (clo[0], chi[0])]
            for corner in range(2 ** d):
                on_hi = [corner >> a & 1 for a in range(d)]
                keep = in_slab[on_hi[0]]
                for a in range(1, d):
                    if on_hi[a]:
                        keep = keep & inside[a]
                coords = [(chi if on_hi[a] else clo)[a][keep] for a in range(d)]
                coords[0] = coords[0] - r0
                flat = np.ravel_multi_index(coords, slab.shape)
                # -1 is 255 in uint8 arithmetic.
                sign = 255 if sum(on_hi) % 2 else 1
                np.add.at(slab.reshape(-1), flat, np.uint8(sign))
            for axis in range(1, d):
                np.cumsum(slab, axis=axis, dtype=np.uint8, out=slab)
            if carry is not None:
                slab[:1] += carry
            np.cumsum(slab, axis=0, dtype=np.uint8, out=slab)
            if slab.min() != 1 or slab.max() != 1:
                self._raise_cover_error(slab, r0, cuts)
            carry = slab[-1:].copy()

    def _raise_cover_error(
        self, slab: np.ndarray, r0: int, cuts: Sequence[np.ndarray]
    ) -> None:
        """Name a cell of ``slab`` that is not covered exactly once,
        preferring one covered more than once, and the boxes over it."""
        flat = slab.reshape(-1)
        bad = np.flatnonzero(flat > 1)
        if not bad.size:
            bad = np.flatnonzero(flat != 1)
        index = np.unravel_index(int(bad[0]), slab.shape)
        cell = tuple(
            int(cuts[a][i + (r0 if a == 0 else 0)]) for a, i in enumerate(index)
        )
        over = np.flatnonzero(
            np.all((self._lo <= cell) & (self._hi >= cell), axis=1)
        )
        if len(over) >= 2:
            raise PartitioningError(
                f"partitions {int(over[0])} and {int(over[1])} overlap "
                f"at cell {cell}"
            )
        # The cell counts sum to the matrix size, so a cell covered
        # fewer than once means another is covered more than once.
        raise PartitioningError(
            f"partitions overlap: their cell counts sum to the matrix "
            f"size, but cell {cell} is covered {len(over)} times"
        )

    def _check_pairwise_disjoint(self) -> None:
        """Raise on the first pair of intersecting boxes, O(k**2 * d).

        Each block of rows is compared against all ``k`` partitions,
        with the block sized so its ``(rows, k, d)`` intermediates stay
        under :data:`DEFAULT_TILE_ELEMENTS` elements, as in the query
        kernel.
        """
        k, d = self._lo.shape
        rows = max(1, DEFAULT_TILE_ELEMENTS // (k * d))
        for start in range(0, k, rows):
            stop = min(start + rows, k)
            # overlap[i, j] true when rows start+i and j intersect on every axis
            inter = np.logical_and(
                self._lo[start:stop, None, :] <= self._hi[None, :, :],
                self._hi[start:stop, None, :] >= self._lo[None, :, :],
            ).all(axis=2)
            # A row always overlaps itself; anything else is an error.
            inter[np.arange(start, stop) - start, np.arange(start, stop)] = False
            if inter.any():
                i, j = np.argwhere(inter)[0]
                raise PartitioningError(
                    f"partitions {start + int(i)} and {int(j)} overlap"
                )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def n_partitions(self) -> int:
        return int(self._lo.shape[0])

    def __len__(self) -> int:
        return self.n_partitions

    @property
    def lo(self) -> np.ndarray:
        """``(k, d)`` inclusive lower bounds (do not mutate)."""
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """``(k, d)`` inclusive upper bounds (do not mutate)."""
        return self._hi

    @property
    def noisy_counts(self) -> np.ndarray:
        return self._noisy

    @property
    def true_counts(self) -> np.ndarray | None:
        return self._true

    @property
    def n_cells(self) -> np.ndarray:
        """``(k,)`` number of cells in each partition."""
        return self._n_cells

    @property
    def total_noisy_count(self) -> float:
        return float(self._noisy.sum())

    @property
    def weights(self) -> np.ndarray:
        """``(k,)`` per-cell contribution ``noisy_count / n_cells`` (cached)."""
        if self._weights is None:
            self._weights = self._noisy / self._n_cells
        return self._weights

    def interval_index(self) -> "IntervalIndex":
        """The per-dimension sorted interval index (built once, cached)."""
        if self._index is None:
            self._index = IntervalIndex(self)
        return self._index

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        # Derived data, rebuilt lazily.
        state["_layout"] = None
        state["_level"] = None
        return None, state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedPartitioning(shape={self._shape}, "
            f"partitions={self.n_partitions})"
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_partitioning(cls, partitioning: "Partitioning") -> "PackedPartitioning":
        """Pack an object-based partitioning into arrays (no re-validation)."""
        parts = partitioning.partitions
        lows, highs = boxes_to_arrays([p.box for p in parts])
        noisy = np.array([p.noisy_count for p in parts], dtype=np.float64)
        have_true = all(p.true_count is not None for p in parts)
        true = (
            np.array([p.true_count for p in parts], dtype=np.float64)
            if have_true
            else None
        )
        return cls(lows, highs, noisy, partitioning.shape, true, validate=False)

    def to_partitioning(self, *, validate: bool = False) -> "Partitioning":
        """Materialize :class:`~repro.core.partition.Partition` objects.

        Only object-level consumers (per-partition iteration, the scalar
        reference ``answer``) need this; loading, validation and the hot
        query path never do.
        """
        from .partition import Partition, Partitioning

        true = self._true
        true = [None] * len(self) if true is None else true.tolist()
        parts = [
            Partition(box, noisy, t)
            for box, noisy, t in zip(self.boxes(), self._noisy.tolist(), true)
        ]
        return Partitioning(parts, self._shape, validate=validate)

    def boxes(self) -> List[Box]:
        """The partitions as inclusive box tuples (materializes tuples)."""
        return [
            tuple(zip(lo, hi))
            for lo, hi in zip(self._lo.tolist(), self._hi.tolist())
        ]

    # ------------------------------------------------------------------
    # The vectorized query kernel
    # ------------------------------------------------------------------
    def split_shards(self, n_shards: int | None = None) -> List["PartitionShard"]:
        """Contiguous partition-axis shards (see :mod:`repro.core.sharding`).

        Cached per effective shard count (requested count clipped to the
        partition count), mirroring :meth:`interval_index`: repeated
        batches against the same matrix reuse the shards and the
        per-shard interval indexes they have lazily built, instead of
        re-slicing and re-sorting on every call.
        """
        from .sharding import DEFAULT_N_SHARDS, split_shards

        if self._shards is None:
            self._shards = {}
        requested = DEFAULT_N_SHARDS if n_shards is None else int(n_shards)
        key = min(requested, self.n_partitions)
        if key not in self._shards:
            # split_shards validates the request (>= 1) before anything
            # is cached.
            self._shards[key] = split_shards(self, requested)
        return self._shards[key]

    def overlap_layout(self) -> "OverlapLayout":
        """The narrow ``(d, k)`` kernel layout (built once, cached).

        Derived data only: it is dropped on pickling and rebuilt lazily
        on first use, so a shard pickled to a spawned worker does not
        carry it.
        """
        if self._layout is None:
            self._layout = OverlapLayout(self._lo, self._hi, self._shape,
                                         self._n_cells)
        return self._layout

    def level_table(self) -> "LevelPrefixTable | None":
        """The shallowest :class:`~repro.core.prefix_sum.LevelPrefixTable`
        within :data:`~repro.core.prefix_sum.LEVEL_TABLE_BYTES` (built
        once, cached), or ``None`` when the full prefix table fits that
        budget or no level does.

        Derived data, like :meth:`overlap_layout`: dropped on pickling.
        """
        if self._level is None:
            from .prefix_sum import LevelPrefixTable

            self._level = LevelPrefixTable.for_packed(self) or False
        return self._level or None

    def answer_many_arrays(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        tile_elements: int = DEFAULT_TILE_ELEMENTS,
    ) -> np.ndarray:
        """Uniformity-assumption answers for a batch of boxes.

        The tiled broadcast kernel.  ``lows``/``highs`` are ``(q, d)``
        int arrays of inclusive bounds (already validated — see
        :func:`validate_box_arrays`).  Returns a ``(q,)`` float64
        vector.  The query axis is tiled so each ``(q_tile, k)``
        intermediate stays under ``tile_elements`` elements; the tile
        buffers are allocated once per call and every step writes into
        them.  The index-pruned gather is
        :meth:`IntervalIndex.answer_pruned`; choosing between the two
        per batch is :class:`~repro.engine.Engine`'s job.
        """
        q = len(lows)
        if q == 0:
            return np.zeros(0, dtype=np.float64)
        weights = self.weights
        out = np.empty(q, dtype=np.float64)
        tile = min(q, max(1, int(tile_elements) // self.n_partitions))
        for start, stop, cells in self.overlap_layout().tiles(lows, highs, tile):
            # Contract against the weights with einsum rather than a
            # BLAS matvec: BLAS picks its reduction tree from the
            # *matrix* shape, so one query's sum could change with the
            # batch it rides in, while einsum's per-row reduction order
            # depends only on k — every query's answer is bit-identical
            # across batch compositions and tile sizes, which the async
            # micro-batching endpoint's determinism guarantee rests on.
            np.einsum("qk,k->q", cells, weights, out=out[start:stop])
        return out

    # ------------------------------------------------------------------
    # Dense reconstruction
    # ------------------------------------------------------------------
    def dense_array(self, out: np.ndarray | None = None) -> np.ndarray:
        """Signed dense reconstruction: each cell gets its partition's
        noisy count divided by the partition's cell count.

        Written into ``out`` (a float64 array of the matrix shape, which
        may be a view) when given; the partitions cover every cell, so
        its prior contents do not matter."""
        if out is None:
            out = np.empty(self._shape, dtype=np.float64)
        values = self.weights
        lo, hi = self._lo, self._hi
        for i in range(self.n_partitions):
            idx = tuple(
                slice(int(lo[i, a]), int(hi[i, a]) + 1) for a in range(self.ndim)
            )
            out[idx] = values[i]
        return out


def packed_from_intervals(
    intervals_per_dim: Sequence[Sequence[Tuple[int, int]]],
    noisy_counts: np.ndarray,
    shape: Sequence[int],
    true_counts: np.ndarray | None = None,
) -> PackedPartitioning:
    """Build a packed grid partitioning from per-dimension interval lists.

    The boxes are the cartesian product of the per-dimension inclusive
    intervals, enumerated in C order (last dimension fastest) — the same
    order as :func:`~repro.core.partition.grid_boxes` and a raveled
    aggregate array.  Used by the uniform-grid and quadtree sanitizers to
    emit arrays directly, skipping per-leaf object construction.
    """
    los = [np.array([lo for lo, _ in iv], dtype=np.int64) for iv in intervals_per_dim]
    his = [np.array([hi for _, hi in iv], dtype=np.int64) for iv in intervals_per_dim]
    mesh_lo = np.meshgrid(*los, indexing="ij") if len(los) > 1 else [los[0]]
    mesh_hi = np.meshgrid(*his, indexing="ij") if len(his) > 1 else [his[0]]
    lo = np.stack([m.ravel() for m in mesh_lo], axis=1)
    hi = np.stack([m.ravel() for m in mesh_hi], axis=1)
    return PackedPartitioning(
        lo, hi, noisy_counts, shape, true_counts, validate=False
    )
