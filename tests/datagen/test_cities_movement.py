"""Tests for the Veraset-substitute city and mobility models."""

import numpy as np
import pytest

from repro.core import ValidationError
from repro.datagen import (
    CITY_NAMES,
    ActivityCenter,
    CityModel,
    MovementSimulator,
    get_city,
    los_angeles_like,
    simulate_od_dataset,
)


class TestCityProfiles:
    def test_builtin_cities(self):
        for name in CITY_NAMES:
            city = get_city(name)
            assert city.name == name
            assert len(city.centers) >= 3

    def test_unknown_city(self):
        with pytest.raises(ValidationError):
            get_city("gotham")

    def test_la_profile(self):
        assert los_angeles_like().name == "los_angeles"

    def test_density_ordering(self):
        """NY must be more concentrated than Denver, Denver than Detroit —
        the 'high / moderate / low density' calibration of Section 6.1."""
        from repro.core import matrix_entropy
        entropies = {}
        for name in CITY_NAMES:
            fm = get_city(name).population_matrix(
                n_points=60_000, resolution=128, rng=0
            )
            entropies[name] = matrix_entropy(fm)
        # Higher entropy = more spread out = less density concentration.
        assert entropies["new_york"] < entropies["denver"] < entropies["detroit"]

    def test_population_matrix_count(self):
        fm = get_city("denver").population_matrix(
            n_points=10_000, resolution=64, rng=0
        )
        assert fm.total == 10_000.0
        assert fm.shape == (64, 64)

    def test_sample_points_within_city(self):
        city = get_city("new_york")
        pts = city.sample_points(5000, rng=0)
        assert pts.min() >= 0.0
        assert pts.max() < city.side_km

    def test_background_fraction_validated(self):
        with pytest.raises(ValidationError):
            CityModel("x", (ActivityCenter(1, 1, 1, 1),), background_fraction=1.0)

    def test_needs_centers(self):
        with pytest.raises(ValidationError):
            CityModel("x", ())

    def test_activity_center_validation(self):
        with pytest.raises(ValidationError):
            ActivityCenter(0, 0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            ActivityCenter(0, 0, 1.0, 0.0)

    def test_reproducible(self):
        city = get_city("detroit")
        a = city.sample_points(100, rng=5)
        b = city.sample_points(100, rng=5)
        assert np.array_equal(a, b)


def _reference_sample_points(city, n_points, gen):
    """``CityModel.sample_points`` as first written: ``gen.shuffle`` on the
    2-D rows, which swaps them one at a time."""
    n_background = int(round(n_points * city.background_fraction))
    n_clustered = n_points - n_background
    assignment = gen.choice(
        len(city.centers), size=n_clustered, p=city.center_weights()
    )
    means = np.array([[c.x, c.y] for c in city.centers])
    stds = np.array([c.std_km for c in city.centers])
    pts = means[assignment] + gen.normal(
        0.0, 1.0, size=(n_clustered, 2)
    ) * stds[assignment][:, None]
    background = gen.uniform(0.0, city.side_km, size=(n_background, 2))
    all_pts = np.concatenate([pts, background], axis=0)
    np.clip(all_pts, 0.0, np.nextafter(city.side_km, 0.0), out=all_pts)
    gen.shuffle(all_pts)
    return all_pts


# 0.9 of 3 points rounds to 3 background points and no clustered ones.
_BACKGROUND_ONLY = CityModel(
    "background_only", (ActivityCenter(5.0, 5.0, 1.0, 1.0),),
    background_fraction=0.9, side_km=10.0,
)


class TestSamplePointsMatchesRowShuffle:
    """The permutation-indexed shuffle is the row shuffle, bit for bit."""

    @pytest.mark.parametrize(
        "name, n_points",
        [(name, n) for name in CITY_NAMES for n in (1, 1_001, 50_000)]
        + [(_BACKGROUND_ONLY.name, 3)],
    )
    def test_same_points_and_generator_state(self, name, n_points):
        city = _BACKGROUND_ONLY if name == _BACKGROUND_ONLY.name else get_city(name)
        gen, ref_gen = np.random.default_rng(99), np.random.default_rng(99)
        pts = city.sample_points(n_points, gen)
        expected = _reference_sample_points(city, n_points, ref_gen)
        assert pts.shape == (n_points, 2)
        assert np.array_equal(pts, expected)
        assert gen.random() == ref_gen.random()


def _reference_sample_destinations(sim, origins, gen):
    """``MovementSimulator._sample_destinations`` as first written, over
    the row-shuffle reference candidates."""
    n = origins.shape[0]
    k = sim.candidate_factor
    candidates = _reference_sample_points(sim.city, n * k, gen).reshape(n, k, 2)
    dists = np.sqrt(((candidates - origins[:, None, :]) ** 2).sum(axis=2))
    weights = np.exp(-dists / sim.trip_scale_km)
    weights_sum = weights.sum(axis=1, keepdims=True)
    uniform = np.full_like(weights, 1.0 / k)
    probs = np.where(
        weights_sum > 0, weights / np.maximum(weights_sum, 1e-300), uniform
    )
    cumulative = np.cumsum(probs, axis=1)
    u = gen.random((n, 1))
    choice = (u > cumulative).sum(axis=1)
    np.clip(choice, 0, k - 1, out=choice)
    return candidates[np.arange(n), choice]


def _reference_sample(sim, n, n_stops, gen):
    """``MovementSimulator.sample`` over the reference samplers."""
    origins = _reference_sample_points(sim.city, n, gen)
    destinations = _reference_sample_destinations(sim, origins, gen)
    points = np.empty((n, n_stops + 2, 2))
    points[:, 0], points[:, -1] = origins, destinations
    if n_stops:
        points[:, 1:-1] = sim._sample_stops(origins, destinations, n_stops, gen)
    np.clip(points, 0.0, np.nextafter(sim.city.side_km, 0.0), out=points)
    return points


class TestSampleMatchesReference:
    """The simulator's in-place destination math is the textbook form,
    bit for bit, with the same generator state afterwards."""

    @pytest.mark.parametrize("n_stops", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 1_001, 50_000])
    @pytest.mark.parametrize("name", CITY_NAMES)
    def test_same_points_and_generator_state(self, name, n, n_stops):
        sim = MovementSimulator(get_city(name))
        gen, ref_gen = np.random.default_rng(7), np.random.default_rng(7)
        points = sim.sample(n, n_stops, gen).points
        assert np.array_equal(points, _reference_sample(sim, n, n_stops, ref_gen))
        assert gen.random() == ref_gen.random()

    @pytest.mark.parametrize(
        "kwargs",
        [
            # exp(-d / 1e-3) underflows to 0 for every candidate past
            # ~0.75 km: the uniform fallback rows.
            {"trip_scale_km": 1e-3},
            {"candidate_factor": 3, "trip_scale_km": 2.0},
        ],
    )
    def test_degenerate_rows_and_other_factors(self, kwargs):
        sim = MovementSimulator(get_city("detroit"), **kwargs)
        gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
        points = sim.sample(2_000, 1, gen).points
        assert np.array_equal(points, _reference_sample(sim, 2_000, 1, ref_gen))
        assert gen.random() == ref_gen.random()


class TestMovementSimulator:
    def test_dataset_shape(self):
        ds = simulate_od_dataset(get_city("denver"), 500, n_stops=2, rng=0)
        assert ds.n_trajectories == 500
        assert ds.n_points_each == 4

    def test_no_stops(self):
        ds = simulate_od_dataset(get_city("denver"), 200, n_stops=0, rng=0)
        assert ds.n_points_each == 2

    def test_points_within_city(self):
        city = get_city("new_york")
        ds = simulate_od_dataset(city, 1000, n_stops=1, rng=0)
        assert ds.points.min() >= 0.0
        assert ds.points.max() < city.side_km

    def test_distance_decay_shortens_trips(self):
        city = get_city("denver")
        short = MovementSimulator(city, trip_scale_km=2.0).sample(2000, 0, rng=0)
        longr = MovementSimulator(city, trip_scale_km=50.0).sample(2000, 0, rng=0)
        d_short = np.linalg.norm(short.destinations - short.origins, axis=1)
        d_long = np.linalg.norm(longr.destinations - longr.origins, axis=1)
        assert d_short.mean() < d_long.mean()

    def test_stops_near_corridor(self):
        city = get_city("denver")
        sim = MovementSimulator(city, stop_jitter_km=0.5)
        ds = sim.sample(1000, n_stops=1, rng=0)
        o, s, d = ds.points[:, 0], ds.points[:, 1], ds.points[:, 2]
        # Distance from stop to the O-D segment must be small on average.
        seg = d - o
        seg_len = np.linalg.norm(seg, axis=1).clip(1e-9)
        t = ((s - o) * seg).sum(axis=1) / seg_len**2
        t = np.clip(t, 0.0, 1.0)
        proj = o + t[:, None] * seg
        lateral = np.linalg.norm(s - proj, axis=1)
        assert np.median(lateral) < 2.0

    def test_parameter_validation(self):
        city = get_city("denver")
        with pytest.raises(ValidationError):
            MovementSimulator(city, trip_scale_km=0.0)
        with pytest.raises(ValidationError):
            MovementSimulator(city, stop_jitter_km=-1.0)
        with pytest.raises(ValidationError):
            MovementSimulator(city, candidate_factor=0)
        with pytest.raises(ValidationError):
            MovementSimulator(city).sample(0)
        with pytest.raises(ValidationError):
            MovementSimulator(city).sample(10, n_stops=-1)

    def test_reproducible(self):
        city = get_city("denver")
        a = simulate_od_dataset(city, 100, 1, rng=9)
        b = simulate_od_dataset(city, 100, 1, rng=9)
        assert np.array_equal(a.points, b.points)
