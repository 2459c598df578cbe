"""Dense multi-dimensional frequency matrices (the paper's ``F``).

A :class:`FrequencyMatrix` is a ``d``-dimensional array of non-negative
counts plus a :class:`~repro.core.domain.Domain` describing what each axis
means.  It is the single input type every sanitization method consumes and
the ground truth against which query accuracy is evaluated.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .domain import Domain
from .exceptions import ValidationError
from .packed import boxes_to_arrays, validate_box_arrays
from .validation import require_count_array, require_shape

#: An axis-aligned box over cell indices: one inclusive ``(lo, hi)`` pair per
#: dimension.  ``((0, 3), (2, 2))`` selects rows 0..3 of column 2.
Box = Tuple[Tuple[int, int], ...]


def validate_box(box: Box, shape: Sequence[int]) -> Box:
    """Validate ``box`` against ``shape`` and return it as Python ints:
    a one-box :func:`~repro.core.packed.validate_box_arrays`, so a bound
    that is not an integer raises :class:`QueryError`, untruncated."""
    lows, highs = validate_box_arrays(*boxes_to_arrays([box]), shape)
    return tuple(zip(lows[0].tolist(), highs[0].tolist()))


def box_slices(box: Box) -> Tuple[slice, ...]:
    """Convert an inclusive box to a tuple of numpy slices."""
    return tuple(slice(lo, hi + 1) for lo, hi in box)


def box_n_cells(box: Box) -> int:
    """Number of cells contained in an inclusive box."""
    return int(np.prod([hi - lo + 1 for lo, hi in box], dtype=np.int64))


def full_box(shape: Sequence[int]) -> Box:
    """The box covering an entire matrix of the given shape."""
    return tuple((0, int(s) - 1) for s in shape)


class FrequencyMatrix:
    """A dense ``d``-dimensional matrix of counts with domain metadata.

    Parameters
    ----------
    data:
        Array-like of non-negative finite counts.  Stored as float64
        (sanitized counts are real-valued, and the paper never rounds).
    domain:
        Optional :class:`Domain`.  Defaults to a regular grid whose
        continuous extent equals the cell grid.

    Examples
    --------
    >>> fm = FrequencyMatrix([[1, 2], [3, 4]])
    >>> fm.total
    10.0
    >>> fm.range_count(((0, 0), (0, 1)))
    3.0
    """

    __slots__ = ("_data", "_domain")

    def __init__(self, data, domain: Domain | None = None):
        arr = require_count_array(data)
        if domain is None:
            domain = Domain.regular(arr.shape)
        if domain.shape != arr.shape:
            raise ValidationError(
                f"domain shape {domain.shape} does not match data shape {arr.shape}"
            )
        self._data = arr
        self._domain = domain

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape: Sequence[int], domain: Domain | None = None) -> "FrequencyMatrix":
        """An all-zero matrix of the given shape."""
        shape = require_shape(shape)
        return cls(np.zeros(shape, dtype=np.float64), domain)

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        domain: Domain,
        weights: np.ndarray | None = None,
    ) -> "FrequencyMatrix":
        """Histogram continuous points into a frequency matrix.

        Parameters
        ----------
        points:
            ``(n, d)`` array of continuous coordinates.
        domain:
            The target :class:`Domain`; points outside its extent are
            clipped to the boundary cells.
        weights:
            Optional per-point weights (default 1 per point).
        """
        cells = domain.points_to_cells(points)
        return cls.from_cells(cells, domain, weights)

    @classmethod
    def from_cells(
        cls,
        cells: np.ndarray,
        domain: Domain,
        weights: np.ndarray | None = None,
    ) -> "FrequencyMatrix":
        """Histogram integer cell multi-indices into a frequency matrix."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != domain.ndim:
            raise ValidationError(
                f"cells must have shape (n, {domain.ndim}), got {cells.shape}"
            )
        shape = domain.shape
        for axis in range(domain.ndim):
            col = cells[:, axis]
            if col.size and (col.min() < 0 or col.max() >= shape[axis]):
                raise ValidationError(
                    f"cell indices on axis {axis} outside [0, {shape[axis]})"
                )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (cells.shape[0],):
                raise ValidationError("weights must be one scalar per point")
            if np.any(weights < 0) or not np.all(np.isfinite(weights)):
                raise ValidationError("weights must be non-negative and finite")
        flat = np.ravel_multi_index(cells.T, shape) if cells.size else np.empty(0, np.int64)
        counts = np.bincount(flat, weights=weights, minlength=int(np.prod(shape)))
        return cls(counts.reshape(shape), domain)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying count array (do not mutate)."""
        return self._data

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def n_cells(self) -> int:
        return int(self._data.size)

    @property
    def total(self) -> float:
        """Total count ``N`` of the matrix."""
        return float(self._data.sum())

    def copy(self) -> "FrequencyMatrix":
        return FrequencyMatrix(self._data.copy(), self._domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrequencyMatrix(shape={self.shape}, total={self.total:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    __hash__ = None  # mutable content; not hashable

    # ------------------------------------------------------------------
    # Queries and views
    # ------------------------------------------------------------------
    def range_count(self, box: Box) -> float:
        """Exact count inside an inclusive cell box (ground truth answer)."""
        box = validate_box(box, self.shape)
        return float(self._data[box_slices(box)].sum())

    def box_view(self, box: Box) -> np.ndarray:
        """A numpy view of the cells inside an inclusive box."""
        box = validate_box(box, self.shape)
        return self._data[box_slices(box)]

    def box_total(self, box: Box) -> float:
        """Alias of :meth:`range_count` used by partitioning code."""
        return self.range_count(box)

    def marginal(self, axes: Sequence[int]) -> "FrequencyMatrix":
        """Sum out all axes *not* in ``axes``, preserving their order.

        Useful for collapsing an OD matrix with stops back to a classical
        2-endpoint OD matrix.
        """
        axes = tuple(int(a) for a in axes)
        if len(set(axes)) != len(axes):
            raise ValidationError("marginal axes must be unique")
        for a in axes:
            if not 0 <= a < self.ndim:
                raise ValidationError(f"axis {a} out of range for ndim {self.ndim}")
        if not axes:
            raise ValidationError("marginal needs at least one axis")
        drop = tuple(a for a in range(self.ndim) if a not in axes)
        summed = self._data.sum(axis=drop) if drop else self._data
        order = tuple(np.argsort(np.argsort(axes)))
        # numpy's sum preserves remaining axes in increasing order; permute to
        # the caller's requested order.
        current = tuple(sorted(axes))
        perm = tuple(current.index(a) for a in axes)
        summed = np.transpose(summed, perm)
        del order  # order computed via perm above
        new_dims = tuple(self._domain.dimensions[a] for a in axes)
        return FrequencyMatrix(summed.copy(), Domain(new_dims))

    def nonzero_fraction(self) -> float:
        """Fraction of cells with a non-zero count (a sparsity measure)."""
        return float(np.count_nonzero(self._data)) / float(self._data.size)

    def probabilities(self) -> np.ndarray:
        """Cell counts normalized to a probability distribution.

        Returns an all-zero array when the matrix is empty.
        """
        total = self._data.sum()
        if total <= 0:
            return np.zeros_like(self._data)
        return self._data / total

    def iter_cells(self) -> Iterable[Tuple[Tuple[int, ...], float]]:
        """Iterate ``(multi_index, count)`` over non-zero cells."""
        for idx in zip(*np.nonzero(self._data)):
            yield tuple(int(i) for i in idx), float(self._data[idx])
