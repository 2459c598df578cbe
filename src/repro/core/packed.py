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

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .exceptions import PartitioningError, QueryError
from .frequency_matrix import Box
from .interval_index import IntervalIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .partition import Partitioning
    from .sharding import PartitionShard

#: Target number of elements per broadcast tile.  Query batches are
#: tiled so no single ``(q_tile, k)`` intermediate exceeds this; at 64k
#: elements the four tile buffers (two narrow ints, the int32 product,
#: its float64 copy) take under 1 MB and stay cache-resident.
DEFAULT_TILE_ELEMENTS = 65_536


#: Candidate bound dtypes of :class:`OverlapLayout`, narrowest first.
_NARROW_INTS = (np.int8, np.int16, np.int32, np.int64)


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
    only place this arithmetic is written; the broadcast kernel and the
    pruned gather both call it.
    """

    __slots__ = ("lo", "hi", "dtype", "acc_dtype", "_bound")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, shape: Sequence[int],
                 n_cells: np.ndarray):
        self._bound = max(shape)
        self.dtype = next(
            t for t in _NARROW_INTS if np.iinfo(t).max >= self._bound
        )
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


def boxes_to_arrays(boxes: Sequence[Box]) -> Tuple[np.ndarray, np.ndarray]:
    """Convert a list of inclusive boxes to ``(lows, highs)`` int64 arrays.

    Both returned arrays have shape ``(n_boxes, ndim)``.
    """
    lows = np.array([[lo for lo, _ in b] for b in boxes], dtype=np.int64)
    highs = np.array([[hi for _, hi in b] for b in boxes], dtype=np.int64)
    return lows, highs


def validate_box_arrays(
    lows: np.ndarray, highs: np.ndarray, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`~repro.core.frequency_matrix.validate_box`.

    Validates a whole batch of boxes in O(n·d) NumPy ops instead of one
    Python-level check per box, and returns them normalized to int64.
    Bounds must be integer arrays: float, bool or object bounds are
    rejected rather than truncated (an empty batch may have any dtype).
    """
    shape = tuple(int(s) for s in shape)
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    for bounds in (lows, highs):
        if bounds.size and bounds.dtype.kind not in "iu":
            raise QueryError(
                f"box bounds must be integers, got dtype {bounds.dtype}"
            )
    lows = lows.astype(np.int64, copy=False)
    highs = highs.astype(np.int64, copy=False)
    if lows.ndim != 2 or lows.shape != highs.shape:
        raise QueryError(
            f"box arrays must both have shape (n, ndim), got "
            f"{lows.shape} and {highs.shape}"
        )
    if lows.shape[1] != len(shape):
        raise QueryError(
            f"boxes have {lows.shape[1]} dimensions, matrix has {len(shape)}"
        )
    if np.any(lows > highs):
        bad = int(np.argmax(np.any(lows > highs, axis=1)))
        raise QueryError(f"box {bad}: lo > hi on some axis")
    if np.any(lows < 0):
        bad = int(np.argmax(np.any(lows < 0, axis=1)))
        raise QueryError(f"box {bad}: negative lo on some axis")
    sizes = np.asarray(shape, dtype=np.int64)
    if np.any(highs >= sizes):
        bad = int(np.argmax(np.any(highs >= sizes, axis=1)))
        raise QueryError(f"box {bad}: hi outside matrix shape {shape}")
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
                 "_weights", "_index", "_shards", "_layout")

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
        if validate:
            self._validate_bounds()
            self._validate_exact_cover()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_bounds(self) -> None:
        if np.any(self._lo > self._hi):
            bad = int(np.argmax(np.any(self._lo > self._hi, axis=1)))
            raise PartitioningError(f"partition {bad}: lo > hi on some axis")
        if np.any(self._lo < 0):
            bad = int(np.argmax(np.any(self._lo < 0, axis=1)))
            raise PartitioningError(f"partition {bad}: negative lo")
        sizes = np.asarray(self._shape, dtype=np.int64)
        if np.any(self._hi >= sizes):
            bad = int(np.argmax(np.any(self._hi >= sizes, axis=1)))
            raise PartitioningError(
                f"partition {bad}: hi outside matrix shape {self._shape}"
            )

    def _validate_exact_cover(self) -> None:
        """Check the partitions tile the matrix exactly once.

        Equal total cell count and no pairwise overlap together imply an
        exact cover.  Pairwise overlap is tested block-broadcast: each
        block of rows is compared against all ``k`` partitions, with the
        block sized so its ``(rows, k, d)`` intermediates stay under
        :data:`DEFAULT_TILE_ELEMENTS` elements, as in the query kernel.
        This is the library's only exact-cover check;
        :class:`~repro.core.partition.Partitioning` delegates to it.

        The matrix size is an exact Python int: a shape of ``2**63`` or
        more cells, where the int64 ``n_cells`` could wrap, never matches
        the (int64) covered count.
        """
        total = math.prod(self._shape)
        covered = int(self._n_cells.sum())
        if covered != total:
            raise PartitioningError(
                f"partitions cover {covered} cells, matrix has {total}"
            )
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
        state["_layout"] = None  # derived and cheap: rebuilt lazily
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
        parts = [
            Partition(
                tuple(
                    (int(l), int(h))
                    for l, h in zip(self._lo[i], self._hi[i])
                ),
                float(self._noisy[i]),
                None if true is None else float(true[i]),
            )
            for i in range(self.n_partitions)
        ]
        return Partitioning(parts, self._shape, validate=validate)

    def boxes(self) -> List[Box]:
        """The partitions as inclusive box tuples (materializes tuples)."""
        return [
            tuple((int(l), int(h)) for l, h in zip(self._lo[i], self._hi[i]))
            for i in range(self.n_partitions)
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
        layout = self.overlap_layout()
        qlo, qhi = layout.queries(lows, highs)
        plo, phi = layout.lo, layout.hi
        k = self.n_partitions
        weights = self.weights
        out = np.empty(q, dtype=np.float64)
        tile = min(q, max(1, int(tile_elements) // k))
        ov = np.empty((tile, k), dtype=layout.dtype)
        low = np.empty((tile, k), dtype=layout.dtype)
        acc = np.empty((tile, k), dtype=layout.acc_dtype)
        cells = acc if acc.dtype == np.float64 else np.empty((tile, k))
        for start in range(0, q, tile):
            stop = min(start + tile, q)
            n = stop - start
            acc_t, cells_t = acc[:n], cells[:n]
            layout.cells(
                qlo[:, start:stop, None], qhi[:, start:stop, None],
                plo[:, None, :], phi[:, None, :],
                out=acc_t, scratch=(ov[:n], low[:n]),
            )
            if cells_t is not acc_t:
                cells_t[...] = acc_t
            # Contract against the weights with einsum rather than a
            # BLAS matvec: BLAS picks its reduction tree from the
            # *matrix* shape, so one query's sum could change with the
            # batch it rides in, while einsum's per-row reduction order
            # depends only on k — every query's answer is bit-identical
            # across batch compositions and tile sizes, which the async
            # micro-batching endpoint's determinism guarantee rests on.
            np.einsum("qk,k->q", cells_t, weights, out=out[start:stop])
        return out

    def answer_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Convenience wrapper over :meth:`answer_many_arrays`."""
        if not boxes:
            return np.zeros(0, dtype=np.float64)
        lows, highs = boxes_to_arrays(boxes)
        lows, highs = validate_box_arrays(lows, highs, self._shape)
        return self.answer_many_arrays(lows, highs)

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
        values = self._noisy / self._n_cells
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
