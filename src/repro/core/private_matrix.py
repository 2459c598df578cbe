"""The sanitized output consumed by analysts.

A :class:`PrivateFrequencyMatrix` is exactly what Section 2.2 publishes: the
boundaries of all partitions plus their noisy counts.  Range queries are
answered under the per-partition uniformity assumption.

Two storage backends are supported:

* **packed** — a :class:`~repro.core.packed.PackedPartitioning` of
  contiguous ``lo``/``hi``/count arrays.  The grid, tree and DAF
  sanitizers emit one, :meth:`PrivateFrequencyMatrix.from_publishable`
  parses a published payload straight into one (and runs the exact-cover
  check on it), and an explicit
  :class:`~repro.core.partition.Partitioning` is packed on construction.
  :class:`~repro.core.partition.Partition` objects are a view,
  materialized lazily only for per-partition iteration and the scalar
  reference :meth:`~PrivateFrequencyMatrix.answer`.
* **dense-backed** — a noisy per-cell array (the IDENTITY baseline and the
  Privlet wavelet method publish one value per cell; materializing one
  :class:`Partition` object per cell would be wasteful).  Conceptually this
  is the partitioning into singleton cells.

Batch answering (:meth:`PrivateFrequencyMatrix.answer_many`) routes
through a cached default-config :class:`~repro.engine.Engine`, which
plans each batch across the dense, broadcast, pruned and sharded
strategies; the planner and its thresholds are documented there.  The
plan chosen for a batch is observable via
:meth:`~repro.engine.Engine.plan_queries` or the engine's
:class:`~repro.engine.QueryAnswer`.  The scalar
:meth:`~PrivateFrequencyMatrix.answer` loop is kept as the reference
implementation; every engine is asserted against it by the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple

import numpy as np

from .domain import Domain
from .exceptions import QueryError, ValidationError
from .frequency_matrix import Box, FrequencyMatrix, box_slices, validate_box
from .packed import PackedPartitioning, boxes_to_arrays
from .partition import Partition, Partitioning
from .prefix_sum import PrefixSumTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Engine


class PrivateFrequencyMatrix:
    """Partition boundaries + noisy counts, with uniform query answering.

    Construct with a ``partitioning``, via :meth:`from_packed`, or via
    :meth:`from_dense_noisy`.

    Parameters
    ----------
    partitioning:
        The complete partitioning with noisy counts attached.
    domain:
        Domain of the original matrix (for continuous-coordinate queries).
    epsilon:
        Total privacy budget consumed producing this output.
    method:
        Name of the producing sanitizer (``"daf_entropy"``, ...).
    metadata:
        Free-form extras a method wants to expose (chosen ``m``, tree depth,
        budget split, ...).  Must not contain raw data.
    """

    __slots__ = ("_partitioning", "_packed", "_domain", "_epsilon", "_method",
                 "_metadata", "_dense_cache", "_prefix_cache", "_shape",
                 "_engine_cache")

    def __init__(
        self,
        partitioning: Partitioning,
        domain: Domain | None = None,
        *,
        epsilon: float = 0.0,
        method: str = "",
        metadata: Mapping[str, object] | None = None,
    ):
        if not isinstance(partitioning, Partitioning):
            raise ValidationError("partitioning must be a Partitioning")
        self._init_common(partitioning.shape, domain, epsilon, method, metadata,
                          packed=PackedPartitioning.from_partitioning(partitioning))
        self._partitioning = partitioning

    @classmethod
    def from_packed(
        cls,
        packed: PackedPartitioning,
        domain: Domain | None = None,
        *,
        epsilon: float = 0.0,
        method: str = "",
        metadata: Mapping[str, object] | None = None,
    ) -> "PrivateFrequencyMatrix":
        """Build a packed-backed private matrix (the sanitizers' fast path).

        Partition objects are materialized lazily, only when
        :attr:`partitioning` is accessed.
        """
        if not isinstance(packed, PackedPartitioning):
            raise ValidationError("packed must be a PackedPartitioning")
        self = cls.__new__(cls)
        self._init_common(packed.shape, domain, epsilon, method, metadata,
                          packed=packed)
        return self

    @classmethod
    def from_dense_noisy(
        cls,
        noisy: np.ndarray,
        domain: Domain | None = None,
        *,
        epsilon: float = 0.0,
        method: str = "",
        metadata: Mapping[str, object] | None = None,
    ) -> "PrivateFrequencyMatrix":
        """Build a dense-backed private matrix from per-cell noisy counts."""
        noisy = np.asarray(noisy, dtype=np.float64)
        if noisy.ndim == 0:
            raise ValidationError("noisy array needs at least one dimension")
        if not np.all(np.isfinite(noisy)):
            raise ValidationError("noisy array must be finite")
        self = cls.__new__(cls)
        self._init_common(noisy.shape, domain, epsilon, method, metadata,
                          dense=noisy.copy())
        return self

    def _init_common(
        self,
        shape: Tuple[int, ...],
        domain: Domain | None,
        epsilon: float,
        method: str,
        metadata: Mapping[str, object] | None,
        *,
        packed: PackedPartitioning | None = None,
        dense: np.ndarray | None = None,
    ) -> None:
        if domain is None:
            domain = Domain.regular(shape)
        if domain.shape != tuple(shape):
            raise ValidationError(
                f"domain shape {domain.shape} != matrix shape {tuple(shape)}"
            )
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        self._shape = tuple(shape)
        self._domain = domain
        self._epsilon = float(epsilon)
        self._method = str(method)
        self._metadata: Dict[str, object] = dict(metadata or {})
        self._packed = packed
        self._partitioning: Partitioning | None = None
        self._dense_cache = dense
        self._prefix_cache: PrefixSumTable | None = None
        self._engine_cache: "Engine | None" = None

    # ------------------------------------------------------------------
    @property
    def is_dense_backed(self) -> bool:
        """True when the output is per-cell noisy counts (no partition list)."""
        return self._packed is None

    @property
    def partitioning(self) -> Partitioning:
        """The partition list as objects (raises for dense-backed outputs).

        A view of :attr:`packed`, built on first access without
        re-validating the tiling; querying never needs it.
        """
        if self._partitioning is None:
            self._partitioning = self.packed.to_partitioning()
        return self._partitioning

    @property
    def packed(self) -> PackedPartitioning:
        """The partition list as arrays (raises for dense-backed outputs)."""
        if self._packed is None:
            raise QueryError(
                "this private matrix is dense-backed (per-cell counts); "
                "it has no explicit partition list"
            )
        return self._packed

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return self.partitioning.partitions

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def method(self) -> str:
        return self._method

    @property
    def metadata(self) -> Dict[str, object]:
        return dict(self._metadata)

    @property
    def n_partitions(self) -> int:
        """Number of published regions (cells, for dense-backed outputs)."""
        if self._packed is not None:
            return self._packed.n_partitions
        return int(np.prod(self._shape, dtype=np.int64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrivateFrequencyMatrix(method={self._method!r}, shape={self.shape}, "
            f"partitions={self.n_partitions}, epsilon={self._epsilon:g})"
        )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer(self, box: Box) -> float:
        """Answer an inclusive cell-index range query (uniformity assumption).

        This is the scalar *reference* implementation: a Python loop over
        partitions.  Batches should go through :meth:`answer_many`, which
        computes identical values vectorized.
        """
        box = validate_box(box, self.shape)
        if self.is_dense_backed:
            return float(self.dense_array()[box_slices(box)].sum())
        return float(sum(p.uniform_answer(box) for p in self.partitioning))

    def answer_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Answer a workload of box queries, vectorized.

        Boxes are validated once up front (not per partition per query),
        then routed by a default-config :class:`~repro.engine.Engine`,
        whose cost model picks the packed broadcast kernel, the
        interval-index pruned gather, or a dense prefix-sum
        reconstruction when ``n_queries × n_partitions`` would dwarf the
        cell count.
        """
        boxes = list(boxes)
        if not boxes:
            return np.zeros(0, dtype=np.float64)
        lows, highs = boxes_to_arrays(boxes)
        return self._default_engine().answer_arrays(lows, highs)

    def _default_engine(self) -> "Engine":
        """A cached default-config engine for the internal query paths."""
        if self._engine_cache is None:
            from ..engine import Engine

            self._engine_cache = Engine(self)
        return self._engine_cache

    def answer_continuous(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        """Answer a continuous-coordinate range query via the domain."""
        return self.answer(self._domain.box_to_cells(lows, highs))

    # ------------------------------------------------------------------
    # Dense reconstruction
    # ------------------------------------------------------------------
    def to_dense(self) -> FrequencyMatrix:
        """Reconstruct the noisy matrix as counts, clipping negatives to 0.

        Laplace noise is signed, but :class:`FrequencyMatrix` stores counts;
        use :meth:`dense_array` for the raw signed reconstruction.
        """
        return FrequencyMatrix(np.maximum(self.dense_array(), 0.0), self._domain)

    def dense_array(self) -> np.ndarray:
        """The signed dense reconstruction: each cell holds its partition's
        noisy count divided by the partition's cell count."""
        if self._dense_cache is None:
            self._dense_cache = self.packed.dense_array()
        return self._dense_cache

    def _prefix_table(self) -> PrefixSumTable:
        if self._prefix_cache is None:
            if self._dense_cache is None:
                # Partition weights go straight into the table: no dense
                # copy stays behind next to it.
                self._prefix_cache = PrefixSumTable.from_fill(
                    self._shape, self._packed.dense_array
                )
            else:
                self._prefix_cache = PrefixSumTable(self._dense_cache)
        return self._prefix_cache

    # ------------------------------------------------------------------
    # Serialization (what actually gets published)
    # ------------------------------------------------------------------
    def to_publishable(self) -> Dict[str, object]:
        """The DP-safe payload: boxes, noisy counts, method, epsilon.

        True counts are intentionally omitted.  Dense-backed outputs publish
        the flattened per-cell noisy counts; the others serialize straight
        from the packed arrays.
        """
        payload: Dict[str, object] = {
            "method": self._method,
            "epsilon": self._epsilon,
            "shape": list(self.shape),
            "metadata": dict(self._metadata),
        }
        if self.is_dense_backed:
            payload["cells"] = self.dense_array().ravel().tolist()
        else:
            packed = self.packed
            lo, hi = packed.lo, packed.hi
            noisy = packed.noisy_counts
            payload["partitions"] = [
                {
                    "box": [[int(l), int(h)] for l, h in zip(lo[i], hi[i])],
                    "noisy_count": float(noisy[i]),
                }
                for i in range(packed.n_partitions)
            ]
        return payload

    @classmethod
    def from_publishable(cls, payload: Mapping[str, object]) -> "PrivateFrequencyMatrix":
        """Rebuild from :meth:`to_publishable` output.

        Partition payloads are parsed straight into packed arrays and
        checked for an exact cover.  Malformed structure raises
        :class:`QueryError`; boxes that do not tile the matrix exactly
        once raise :class:`PartitioningError`.
        """
        try:
            shape = tuple(int(s) for s in payload["shape"])  # type: ignore[index]
            common = {
                "epsilon": float(payload.get("epsilon", 0.0)),  # type: ignore[arg-type]
                "method": str(payload.get("method", "")),
                "metadata": payload.get("metadata"),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed publishable payload: {exc}") from exc
        if "cells" in payload:
            cells = np.asarray(payload["cells"], dtype=np.float64)
            if cells.size != int(np.prod(shape, dtype=np.int64)):
                raise QueryError("cell payload size does not match shape")
            return cls.from_dense_noisy(cells.reshape(shape), **common)  # type: ignore[arg-type]
        try:
            raw = payload["partitions"]  # type: ignore[index]
            bounds = np.asarray([e["box"] for e in raw])  # type: ignore[union-attr]
            noisy = np.asarray([e["noisy_count"] for e in raw])  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed publishable payload: {exc}") from exc
        # NumPy infers the dtype, so a float, string or beyond-int64
        # bound fails the kind check instead of being truncated or cast.
        if (bounds.dtype.kind not in "iu" or bounds.ndim != 3
                or bounds.shape[2] != 2
                or noisy.dtype.kind not in "iuf" or noisy.ndim != 1):
            raise QueryError(
                "malformed publishable payload: partitions must be a "
                "non-empty list of equal-length boxes of integer [lo, hi] "
                "pairs, each with a numeric noisy_count"
            )
        if not np.all(np.isfinite(noisy)):
            raise QueryError("malformed publishable payload: non-finite noisy_count")
        packed = PackedPartitioning(bounds[..., 0], bounds[..., 1], noisy, shape)
        return cls.from_packed(packed, **common)  # type: ignore[arg-type]
