"""Synthetic city population models — the Veraset substitute.

The paper evaluates on proprietary Veraset cell-phone pings for New York,
Denver and Detroit, "chosen to represent cities with high, moderate and low
densities" (Section 6.1), each modelled as 10^6 points on a 1000x1000 grid
over a 70x70 km^2 region.  The sanitization algorithms consume nothing but
that frequency matrix, so any density field with the same skew regime
exercises identical code paths (see DESIGN.md, Substitutions).

:class:`CityModel` is a mixture of Gaussian activity centres over a uniform
background.  The three built-in profiles are calibrated qualitatively:

* ``new_york``  — one dominant core plus dense secondary centres, tight
  spreads, little background (high density concentration / high skew);
* ``denver``    — a moderate downtown plus sprawling suburbs (moderate);
* ``detroit``   — weak, spread-out centres and a heavy uniform background
  (low density concentration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.exceptions import ValidationError
from ..core.frequency_matrix import FrequencyMatrix
from ..dp.rng import RNGLike, ensure_rng
from ..trajectories.grid import SpatialGrid

#: The paper's city extent and resolution.
CITY_SIDE_KM = 70.0
CITY_RESOLUTION = 1000
DEFAULT_CITY_POINTS = 1_000_000


@dataclass(frozen=True)
class ActivityCenter:
    """One Gaussian activity cluster: centre (km), spread (km), weight."""

    x: float
    y: float
    std_km: float
    weight: float

    def __post_init__(self) -> None:
        if self.std_km <= 0:
            raise ValidationError(f"std_km must be positive, got {self.std_km}")
        if self.weight <= 0:
            raise ValidationError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class CityModel:
    """A mixture-of-Gaussians population density over a square city."""

    name: str
    centers: Tuple[ActivityCenter, ...]
    background_fraction: float = 0.05
    side_km: float = CITY_SIDE_KM

    def __post_init__(self) -> None:
        if not self.centers:
            raise ValidationError("a city needs at least one activity centre")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValidationError(
                f"background_fraction must be in [0, 1), got "
                f"{self.background_fraction}"
            )
        if self.side_km <= 0:
            raise ValidationError(f"side_km must be positive, got {self.side_km}")

    # ------------------------------------------------------------------
    @property
    def grid(self) -> SpatialGrid:
        return SpatialGrid.city(CITY_RESOLUTION, self.side_km)

    def center_weights(self) -> np.ndarray:
        w = np.array([c.weight for c in self.centers], dtype=np.float64)
        return w / w.sum()

    # ------------------------------------------------------------------
    def sample_points(
        self, n_points: int, rng: RNGLike = None
    ) -> np.ndarray:
        """``(n, 2)`` continuous (x, y) points in km, clipped to the city.

        Draws, in this order: each clustered point's centre (``choice``),
        its standard-normal offset (``normal``), the background points
        (``uniform``) and the row order (``permutation``).  The result
        equals a row-by-row ``gen.shuffle`` of the clustered rows
        followed by the background rows, bit for bit and with the same
        generator state afterwards (the tests pin this).  Every row
        gather is an ``np.take``: NumPy's fancy indexing of 2-D rows
        costs several times more for the same bytes.
        """
        if n_points < 1:
            raise ValidationError(f"n_points must be >= 1, got {n_points}")
        gen = ensure_rng(rng)
        n_background = int(round(n_points * self.background_fraction))
        n_clustered = n_points - n_background

        weights = self.center_weights()
        assignment = gen.choice(len(self.centers), size=n_clustered, p=weights)
        means = np.array([[c.x, c.y] for c in self.centers])
        stds = np.array([c.std_km for c in self.centers])
        all_pts = np.empty((n_points, 2), dtype=np.float64)
        pts = all_pts[:n_clustered]
        # offset * std + mean: float addition commutes, so these are the
        # bits of mean + offset * std.
        np.multiply(
            gen.normal(0.0, 1.0, size=(n_clustered, 2)),
            np.take(stds, assignment)[:, None],
            out=pts,
        )
        pts += np.take(means, assignment, axis=0)

        all_pts[n_clustered:] = gen.uniform(
            0.0, self.side_km, size=(n_background, 2)
        )
        np.clip(all_pts, 0.0, np.nextafter(self.side_km, 0.0), out=all_pts)
        return np.take(all_pts, gen.permutation(n_points), axis=0)

    def population_matrix(
        self,
        n_points: int = DEFAULT_CITY_POINTS,
        resolution: int = CITY_RESOLUTION,
        rng: RNGLike = None,
    ) -> FrequencyMatrix:
        """The 2-D population histogram (the paper's Figure 6/7 input)."""
        gen = ensure_rng(rng)
        grid = SpatialGrid.city(resolution, self.side_km)
        pts = self.sample_points(n_points, gen)
        cells = grid.to_cells(pts)
        return FrequencyMatrix.from_cells(cells, grid.domain())


def _ring(cx: float, cy: float, radius: float, n: int, std: float,
          weight: float) -> List[ActivityCenter]:
    """Evenly spaced activity centres on a circle (suburban rings)."""
    out = []
    for i in range(n):
        theta = 2.0 * np.pi * i / n
        out.append(
            ActivityCenter(
                cx + radius * np.cos(theta),
                cy + radius * np.sin(theta),
                std, weight,
            )
        )
    return out


def _new_york() -> CityModel:
    centers = [
        ActivityCenter(35.0, 35.0, 1.2, 30.0),   # dominant core (Manhattan-like)
        ActivityCenter(38.5, 31.0, 1.6, 14.0),   # second dense borough
        ActivityCenter(31.5, 38.0, 1.8, 10.0),
        ActivityCenter(41.0, 38.5, 2.2, 7.0),
    ] + _ring(35.0, 35.0, 12.0, 6, 2.0, 3.0)
    return CityModel("new_york", tuple(centers), background_fraction=0.02)


def _denver() -> CityModel:
    centers = [
        ActivityCenter(35.0, 35.0, 3.0, 18.0),   # downtown
        ActivityCenter(28.0, 30.0, 4.0, 8.0),
        ActivityCenter(42.0, 40.0, 4.5, 8.0),
    ] + _ring(35.0, 35.0, 16.0, 5, 4.0, 4.0)
    return CityModel("denver", tuple(centers), background_fraction=0.08)


def _detroit() -> CityModel:
    centers = [
        ActivityCenter(35.0, 35.0, 6.0, 10.0),   # weak downtown
        ActivityCenter(25.0, 40.0, 7.0, 6.0),
        ActivityCenter(45.0, 28.0, 7.0, 6.0),
        ActivityCenter(40.0, 45.0, 8.0, 5.0),
    ] + _ring(35.0, 35.0, 20.0, 4, 8.0, 4.0)
    return CityModel("detroit", tuple(centers), background_fraction=0.18)


_CITY_FACTORIES = {
    "new_york": _new_york,
    "denver": _denver,
    "detroit": _detroit,
}

#: The paper's evaluation cities in its ordering.
CITY_NAMES: List[str] = ["new_york", "denver", "detroit"]


def get_city(name: str) -> CityModel:
    """Built-in city profile by name (``new_york``, ``denver``, ``detroit``)."""
    key = str(name).lower()
    if key not in _CITY_FACTORIES:
        raise ValidationError(
            f"unknown city {name!r}; available: {sorted(_CITY_FACTORIES)}"
        )
    return _CITY_FACTORIES[key]()


def los_angeles_like() -> CityModel:
    """A polycentric sprawl profile used for the Figure 3 visualization
    (the paper renders 500 k Veraset points over Los Angeles)."""
    centers = [
        ActivityCenter(30.0, 38.0, 2.5, 14.0),   # downtown
        ActivityCenter(20.0, 30.0, 2.5, 10.0),   # coastal strip
        ActivityCenter(25.0, 34.0, 2.0, 8.0),
        ActivityCenter(40.0, 42.0, 3.5, 8.0),    # valley
        ActivityCenter(46.0, 30.0, 3.0, 6.0),
        ActivityCenter(34.0, 25.0, 3.0, 6.0),
    ] + _ring(32.0, 35.0, 15.0, 5, 3.5, 3.0)
    return CityModel("los_angeles", tuple(centers), background_fraction=0.10)
