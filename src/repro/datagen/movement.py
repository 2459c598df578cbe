"""Trajectory simulation over a city density — the mobility substitute.

The paper samples 300 k real trajectories per city from Veraset pings and
records origin, intermediate stops and destination (Section 6.1).  This
module produces the synthetic equivalent with a gravity-style model:

* **origins** are drawn from the city's population density;
* **destinations** are drawn from the density with an exponential
  distance-decay re-weighting relative to the origin (trips are far more
  often short than cross-metro — the standard gravity assumption);
* **intermediate stops** lie near the origin-destination corridor with
  lateral Gaussian jitter, drawn towards activity centres by sampling the
  along-corridor position uniformly per stop and ordering stops by it.

The output exercises exactly the code path the paper's OD experiments
need: a :class:`~repro.trajectories.TrajectoryDataset` whose recorded
points become a 2k-dimensional frequency matrix.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import ValidationError
from ..dp.rng import RNGLike, ensure_rng
from ..trajectories.trajectory import TrajectoryDataset
from .cities import CityModel

#: The paper's per-city trajectory count.
DEFAULT_N_TRAJECTORIES = 300_000


class MovementSimulator:
    """Gravity-style trajectory sampler over a :class:`CityModel`.

    Parameters
    ----------
    city:
        The population-density model trips are drawn from.
    trip_scale_km:
        Mean of the exponential distance-decay kernel: larger values allow
        longer trips.
    stop_jitter_km:
        Lateral standard deviation of intermediate stops around the
        origin-destination corridor.
    candidate_factor:
        Oversampling factor for the destination re-weighting step (the
        sampler draws ``candidate_factor`` density-distributed candidates
        per trip and picks one by distance-decay weight).
    """

    def __init__(
        self,
        city: CityModel,
        trip_scale_km: float = 8.0,
        stop_jitter_km: float = 1.5,
        candidate_factor: int = 8,
    ):
        if trip_scale_km <= 0:
            raise ValidationError(f"trip_scale_km must be positive, got {trip_scale_km}")
        if stop_jitter_km < 0:
            raise ValidationError(
                f"stop_jitter_km must be non-negative, got {stop_jitter_km}"
            )
        if candidate_factor < 1:
            raise ValidationError(
                f"candidate_factor must be >= 1, got {candidate_factor}"
            )
        self.city = city
        self.trip_scale_km = float(trip_scale_km)
        self.stop_jitter_km = float(stop_jitter_km)
        self.candidate_factor = int(candidate_factor)

    # ------------------------------------------------------------------
    def sample(
        self,
        n_trajectories: int = DEFAULT_N_TRAJECTORIES,
        n_stops: int = 0,
        rng: RNGLike = None,
    ) -> TrajectoryDataset:
        """Sample a dataset of trips, each recording ``n_stops`` stops.

        Every trajectory has ``n_stops + 2`` recorded points.
        """
        if n_trajectories < 1:
            raise ValidationError(
                f"n_trajectories must be >= 1, got {n_trajectories}"
            )
        if n_stops < 0:
            raise ValidationError(f"n_stops must be >= 0, got {n_stops}")
        gen = ensure_rng(rng)
        origins = self.city.sample_points(n_trajectories, gen)
        destinations = self._sample_destinations(origins, gen)
        points = np.empty((n_trajectories, n_stops + 2, 2), dtype=np.float64)
        points[:, 0, :] = origins
        points[:, -1, :] = destinations
        if n_stops > 0:
            points[:, 1:-1, :] = self._sample_stops(
                origins, destinations, n_stops, gen
            )
        side = self.city.side_km
        np.clip(points, 0.0, np.nextafter(side, 0.0), out=points)
        return TrajectoryDataset(points)

    # ------------------------------------------------------------------
    def _sample_destinations(
        self, origins: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """Gravity destinations: density-distributed candidates re-weighted
        by exp(-distance / trip_scale).

        Each ``(n, k)`` step writes in place, and the arithmetic is
        written so every value has the bits of the textbook form
        ``sqrt(((c - o) ** 2).sum(axis=2))``, ``exp(-dist / scale)``,
        ``where(sum > 0, w / max(sum, 1e-300), 1 / k)`` (the tests pin
        this against that form).
        """
        n = origins.shape[0]
        k = self.candidate_factor
        candidates = self.city.sample_points(n * k, gen).reshape(n, k, 2)
        # dx*dx + dy*dy is the two-term sum of squares, bit for bit.
        dists = candidates[:, :, 0] - origins[:, 0, None]
        dy = candidates[:, :, 1] - origins[:, 1, None]
        dists *= dists
        dy *= dy
        dists += dy
        np.sqrt(dists, out=dists)
        # (-d) / s == d / (-s): IEEE division is sign-symmetric.
        weights = np.divide(dists, -self.trip_scale_km, out=dists)
        np.exp(weights, out=weights)
        weights_sum = weights.sum(axis=1, keepdims=True)
        probs = np.divide(
            weights, np.maximum(weights_sum, 1e-300), out=weights
        )
        # Degenerate rows (all candidates astronomically far) fall back to
        # uniform choice among candidates.
        degenerate = ~(weights_sum[:, 0] > 0)
        if degenerate.any():
            probs[degenerate] = 1.0 / k
        cumulative = np.cumsum(probs, axis=1, out=probs)
        u = gen.random((n, 1))
        choice = (u > cumulative).sum(axis=1)
        np.minimum(choice, k - 1, out=choice)
        choice += np.arange(0, n * k, k)
        return np.take(candidates.reshape(n * k, 2), choice, axis=0)

    def _sample_stops(
        self,
        origins: np.ndarray,
        destinations: np.ndarray,
        n_stops: int,
        gen: np.random.Generator,
    ) -> np.ndarray:
        """Stops along the O-D corridor: along-position Beta(2, 2) (biased
        to mid-trip), sorted per trajectory, with lateral Gaussian jitter."""
        n = origins.shape[0]
        t = np.sort(gen.beta(2.0, 2.0, size=(n, n_stops)), axis=1)
        base = origins[:, None, :] + t[:, :, None] * (
            destinations - origins
        )[:, None, :]
        jitter = gen.normal(0.0, self.stop_jitter_km, size=(n, n_stops, 2))
        return base + jitter


def simulate_od_dataset(
    city: CityModel,
    n_trajectories: int = DEFAULT_N_TRAJECTORIES,
    n_stops: int = 0,
    rng: RNGLike = None,
    **simulator_kwargs,
) -> TrajectoryDataset:
    """Convenience wrapper: default simulator over ``city``."""
    sim = MovementSimulator(city, **simulator_kwargs)
    return sim.sample(n_trajectories, n_stops, rng)
