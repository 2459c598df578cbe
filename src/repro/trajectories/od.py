"""Building OD matrices (with intermediate stops) from trajectories.

Section 6.1: "for every trajectory with the origin coordinates (x_o, y_o)
and destination coordinates (x_d, y_d), the element F[x_o, y_o, x_d, y_d]
is incremented by one.  A similar process is conducted for intermediate
points, with the distinction that the matrix dimension count increases."

A trajectory recording ``k`` points therefore becomes one entry of a
``2k``-dimensional frequency matrix.  Because ``g^(2k)`` dense cells
explode quickly, the per-endpoint resolution is chosen (or validated)
against a dense-cell budget — the same coarsening the paper's own
``d = 4, 6`` experiments imply (Section 6.2 sets per-dimension width to
``N^(1/d)``).  Within that budget :meth:`ODMatrixBuilder.build` counts
with one ``bincount``; :meth:`ODMatrixBuilder.build_sparse` keeps a dict
for domains too large to densify.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.domain import DimensionSpec, Domain
from ..core.exceptions import ValidationError
from ..core.frequency_matrix import FrequencyMatrix
from ..core.sparse import SparseFrequencyMatrix
from .grid import SpatialGrid
from .trajectory import TrajectoryDataset

#: Default ceiling on dense cells when auto-selecting a resolution.
DEFAULT_CELL_BUDGET = 2_000_000

#: Conventional frame names used for domain labelling.
_FRAME_NAMES = {0: "origin", -1: "dest"}


def frame_names(n_frames: int) -> List[str]:
    """Human-readable frame labels: origin, stop1..stopK, dest."""
    if n_frames < 2:
        raise ValidationError(f"need at least 2 frames, got {n_frames}")
    names = ["origin"]
    names += [f"stop{i}" for i in range(1, n_frames - 1)]
    names.append("dest")
    return names


def auto_resolution(
    n_frames: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> int:
    """Largest per-endpoint grid resolution ``g`` with ``g^(2k)`` dense
    cells within budget."""
    if n_frames < 2:
        raise ValidationError(f"need at least 2 frames, got {n_frames}")
    if cell_budget < 2 ** (2 * n_frames):
        raise ValidationError(
            f"cell budget {cell_budget} cannot fit even a 2-cell grid "
            f"for {n_frames} frames"
        )
    exponent = 2 * n_frames
    g = int(cell_budget ** (1.0 / exponent))
    # The float root can land one off at exact powers (11**6 ** (1/6) is
    # 10.999...); settle it in integers.
    while g**exponent > cell_budget:
        g -= 1
    while (g + 1) ** exponent <= cell_budget:
        g += 1
    return g


class ODMatrixBuilder:
    """Accumulates trajectories into a multi-dimensional OD matrix.

    Parameters
    ----------
    grid:
        The continuous city grid trajectories live on.
    resolution:
        Per-endpoint grid resolution ``g`` (each recorded point occupies
        two dimensions of size ``g``).  ``None`` picks the largest
        resolution whose dense matrix fits ``cell_budget``.
    frames:
        Which recorded points to include, as indices into the trajectory's
        point list (default: all).  E.g. ``[0, -1]`` builds the classical
        4-D OD matrix from a dataset that also recorded stops.  A frame
        outside ``[-k, k)`` for ``k`` recorded points is an error.
    cell_budget:
        Dense-cell ceiling used both for ``resolution=None`` and to
        validate explicit resolutions.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        resolution: int | None = None,
        frames: Sequence[int] | None = None,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ):
        self.grid = grid
        self.frames = None if frames is None else [int(f) for f in frames]
        self.cell_budget = int(cell_budget)
        self._resolution = resolution
        if resolution is not None and resolution < 1:
            raise ValidationError(f"resolution must be >= 1, got {resolution}")

    # ------------------------------------------------------------------
    def _resolve(self, dataset: TrajectoryDataset) -> Tuple[List[int], int]:
        k = dataset.n_points_each
        frames = self.frames if self.frames is not None else list(range(k))
        bad = [f for f in frames if not -k <= f < k]
        if bad:
            raise ValidationError(
                f"frames {bad} outside [-{k}, {k}) for trajectories "
                f"recording {k} points"
            )
        frames = [f % k for f in frames]
        if len(frames) < 2:
            raise ValidationError("an OD matrix needs at least 2 frames")
        if self._resolution is None:
            g = auto_resolution(len(frames), self.cell_budget)
        else:
            g = int(self._resolution)
            if g ** (2 * len(frames)) > self.cell_budget:
                raise ValidationError(
                    f"resolution {g} with {len(frames)} frames needs "
                    f"{g ** (2 * len(frames))} dense cells "
                    f"(budget {self.cell_budget}); lower the resolution or "
                    "raise cell_budget"
                )
        return frames, g

    def domain(self, dataset: TrajectoryDataset) -> Domain:
        """The OD matrix domain: (x, y) per selected frame."""
        frames, g = self._resolve(dataset)
        return self._domain(dataset, frames, g)

    def _domain(
        self, dataset: TrajectoryDataset, frames: List[int], g: int
    ) -> Domain:
        names = frame_names(dataset.n_points_each)
        coarse = self.grid.coarsen(g, g)
        dims: List[DimensionSpec] = []
        for f in frames:
            dims.append(coarse.x_spec(f"{names[f]}_x"))
            dims.append(coarse.y_spec(f"{names[f]}_y"))
        return Domain(tuple(dims))

    def _cells(self, dataset: TrajectoryDataset) -> Tuple[np.ndarray, Domain]:
        """Each trajectory's selected points as one row of
        ``2 * len(frames)`` cell indices, and the domain they index."""
        frames, g = self._resolve(dataset)
        pts = dataset.recorded_points(frames)  # (n, len(frames), 2)
        n, nf, _ = pts.shape
        coarse = self.grid.coarsen(g, g)
        cells = coarse.to_cells(pts.reshape(n * nf, 2)).reshape(n, 2 * nf)
        return cells, self._domain(dataset, frames, g)

    # ------------------------------------------------------------------
    def build_sparse(self, dataset: TrajectoryDataset) -> SparseFrequencyMatrix:
        """Accumulate into a sparse dict (for domains too large to densify)."""
        cells, domain = self._cells(dataset)
        out = SparseFrequencyMatrix(domain.shape, domain)
        out.increment_many(cells)
        return out

    def build(self, dataset: TrajectoryDataset) -> FrequencyMatrix:
        """Accumulate into a dense matrix with one ``bincount``.  The
        resolution is held to ``cell_budget`` dense cells (see
        :meth:`_resolve`), so this fits."""
        cells, domain = self._cells(dataset)
        return FrequencyMatrix.from_cells(cells, domain)


def classical_od_matrix(
    dataset: TrajectoryDataset,
    grid: SpatialGrid,
    resolution: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> FrequencyMatrix:
    """The conventional 4-D OD matrix (origin + destination only)."""
    builder = ODMatrixBuilder(
        grid, resolution=resolution, frames=[0, -1], cell_budget=cell_budget
    )
    return builder.build(dataset)


def od_matrix_with_stops(
    dataset: TrajectoryDataset,
    grid: SpatialGrid,
    resolution: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> FrequencyMatrix:
    """The paper's OD matrix with all intermediate stops included."""
    builder = ODMatrixBuilder(
        grid, resolution=resolution, frames=None, cell_budget=cell_budget
    )
    return builder.build(dataset)
