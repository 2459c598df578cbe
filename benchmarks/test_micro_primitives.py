"""Microbenchmarks for the substrate primitives.

Not a paper artifact — these watch the building blocks (noise sampling,
prefix sums, grid aggregation, trajectory sampling, OD construction,
release validation) so substrate regressions are visible independently
of the figure-level numbers.
"""

import numpy as np
import pytest

from repro.core import (
    FrequencyMatrix,
    PackedPartitioning,
    PrefixSumTable,
    boxes_to_arrays,
    grid_boxes,
)
from repro.datagen import MovementSimulator, get_city, simulate_od_dataset
from repro.dp import laplace_noise
from repro.methods._grid import aggregate_uniform_grid
from repro.queries import random_workload
from repro.trajectories import ODMatrixBuilder


@pytest.fixture(scope="module")
def matrix_256(rng_seed=0):
    rng = np.random.default_rng(0)
    return FrequencyMatrix(rng.poisson(1.0, size=(256, 256)).astype(float))


def test_laplace_noise_1m(benchmark):
    rng = np.random.default_rng(0)
    benchmark(lambda: laplace_noise(1.0, 0.1, rng, size=1_000_000))


def test_prefix_sum_build(benchmark, matrix_256):
    benchmark(lambda: PrefixSumTable(matrix_256.data))


def test_prefix_sum_query_many(benchmark, matrix_256):
    table = PrefixSumTable(matrix_256.data)
    workload = list(random_workload(matrix_256.shape, 1000, rng=1))
    benchmark(lambda: table.query_many(workload))


def test_grid_aggregation(benchmark, matrix_256):
    benchmark(lambda: aggregate_uniform_grid(matrix_256.data, (50, 50)))


def test_city_sampling(benchmark):
    city = get_city("new_york")
    benchmark.pedantic(
        lambda: city.sample_points(100_000, rng=0), rounds=3, iterations=1
    )


def test_movement_sampling(benchmark):
    """Origins, gravity destinations and one stop for 100k trips: the
    simulator behind the served OD release (300k trips there)."""
    simulator = MovementSimulator(get_city("new_york"))
    benchmark.pedantic(
        lambda: simulator.sample(100_000, 1, rng=0), rounds=3, iterations=1
    )


def test_exact_cover_validation(benchmark):
    """The load-time exact-cover check on a 65 536-partition 512 x 512
    tiling (a pairwise check would compare 2**32 pairs)."""
    shape = (512, 512)
    lows, highs = boxes_to_arrays(grid_boxes(shape, (256, 256)))
    noisy = np.zeros(len(lows))
    benchmark.pedantic(
        lambda: PackedPartitioning(lows, highs, noisy, shape),
        rounds=3, iterations=1,
    )


def test_od_build(benchmark):
    city = get_city("denver")
    dataset = simulate_od_dataset(city, 30_000, n_stops=0, rng=0)
    builder = ODMatrixBuilder(city.grid, cell_budget=300_000)
    benchmark.pedantic(lambda: builder.build(dataset), rounds=3, iterations=1)


def test_daf_sanitize_1m_cells(benchmark):
    matrix = get_city("new_york").population_matrix(
        n_points=200_000, resolution=512, rng=0
    )
    from repro.methods import DAFEntropy
    rng = np.random.default_rng(1)
    benchmark.pedantic(
        lambda: DAFEntropy().sanitize(matrix, 0.1, rng), rounds=3, iterations=1
    )
