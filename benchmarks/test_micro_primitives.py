"""Microbenchmarks for the substrate primitives.

Not a paper artifact — these watch the building blocks (noise sampling,
prefix sums, grid aggregation, trajectory sampling, OD construction,
release validation) so substrate regressions are visible independently
of the figure-level numbers.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core import (
    FrequencyMatrix,
    LevelPrefixTable,
    PackedPartitioning,
    PrefixSumTable,
    boxes_to_arrays,
    full_box,
    grid_boxes,
)
from repro.datagen import MovementSimulator, get_city, simulate_od_dataset
from repro.dp import laplace_noise
from repro.methods._grid import aggregate_uniform_grid
from repro.queries import random_workload
from repro.trajectories import ODMatrixBuilder

from .conftest import write_bench_artifact


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


def level_split_tiling(shape, rng):
    """A DAF-shaped tiling: at depth ``a`` every box is cut along axis
    ``a`` into 2-5 pieces, so boxes share their bounds on the leading
    axes as the served release's partitions do."""
    boxes = [full_box(shape)]
    for axis, size in enumerate(shape):
        split = []
        for box in boxes:
            cuts = rng.choice(np.arange(1, size), rng.integers(1, 5), False)
            edges = [0, *sorted(cuts.tolist()), size]
            split.extend(
                box[:axis] + ((lo, hi - 1),) + box[axis + 1:]
                for lo, hi in zip(edges, edges[1:])
            )
        boxes = split
    return boxes


def spread_us(fn, repeats=15):
    """``(median, min, max)`` microseconds over ``repeats`` runs of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return tuple(1e6 * f(times) for f in (statistics.median, min, max))


def median_us(fn, repeats=15):
    return spread_us(fn, repeats)[0]


def test_level_table(benchmark):
    """Level prefix tables on an ``11**6`` DAF-shaped tiling of about
    1.5k boxes, per level: bytes, build ms and the median us of a
    256-query batch over 15 runs, with their min and max, against the
    broadcast kernel.  Recorded in
    ``bench-out/BENCH_level_table.json``, not gated."""
    shape = (11,) * 6
    rng = np.random.default_rng(1)  # 1 431 boxes
    lows, highs = boxes_to_arrays(level_split_tiling(shape, rng))
    packed = PackedPartitioning(
        lows, highs, rng.normal(20.0, 10.0, len(lows)), shape
    )
    workload = random_workload(shape, 256, rng=2)
    qlo, qhi = workload.as_arrays()
    broadcast = packed.answer_many_arrays(qlo, qhi)
    levels = {}
    for level in range(1, len(shape)):
        build_ms = 1e-3 * median_us(
            lambda: LevelPrefixTable(packed, level), repeats=3
        )
        table = LevelPrefixTable(packed, level)
        got = table.query_arrays(qlo, qhi)
        scale = np.maximum(1.0, np.abs(broadcast))
        assert np.all(np.abs(got - broadcast) <= 1e-9 * scale)
        batch_us, batch_min, batch_max = spread_us(
            lambda: table.query_arrays(qlo, qhi)
        )
        levels[str(level)] = {
            "groups": table.n_groups,
            "bytes": table.nbytes,
            "build_ms": build_ms,
            "batch_us": batch_us,
            "batch_us_min": batch_min,
            "batch_us_max": batch_max,
        }
    chosen = packed.level_table()
    benchmark.pedantic(
        lambda: chosen.query_arrays(qlo, qhi), rounds=5, iterations=1
    )
    write_bench_artifact("level_table", {
        "shape": list(shape),
        "n_partitions": packed.n_partitions,
        "batch_queries": len(qlo),
        "chosen_level": chosen.level,
        "broadcast_batch_us": median_us(
            lambda: packed.answer_many_arrays(qlo, qhi)
        ),
        "levels": levels,
    })


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
