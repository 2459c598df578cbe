"""Property test for the ``DENSE_SWITCH_FACTOR`` engine boundary.

The default-config :class:`repro.engine.Engine` routes a batch either to the
tiled geometric kernel or to a dense prefix-sum reconstruction once
``n_queries * n_partitions`` exceeds ``DENSE_SWITCH_FACTOR * n_cells``.
The engines must be interchangeable: whichever side of the boundary a
workload lands on — including exactly at it — both paths must agree to
1e-9, so the cost model is a pure performance decision that can never
change an answer.  This pins the invariant PR 1's engine switch relies
on, for every workload size straddling the switch.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    PrefixSumTable,
    PrivateFrequencyMatrix,
    packed_from_intervals,
)
from repro.engine import Engine, EngineConfig, QueryRequest
from repro.engine.engine import DENSE_SWITCH_FACTOR
from repro.methods._grid import axis_intervals
from repro.queries import random_workload

SHAPE = (16, 16)
N_CELLS = 16 * 16


def grid_private(m: int, seed: int = 0) -> PrivateFrequencyMatrix:
    rng = np.random.default_rng(seed)
    intervals = [axis_intervals(s, m) for s in SHAPE]
    noisy = rng.poisson(25.0, size=m * m).astype(float)
    noisy += rng.laplace(0.0, 1.5, size=m * m)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return PrivateFrequencyMatrix.from_packed(packed, method="test", epsilon=1.0)


def boundary_queries(n_partitions: int, delta: int) -> int:
    """Smallest n_queries past the switch, shifted by ``delta``."""
    boundary = (DENSE_SWITCH_FACTOR * N_CELLS) // n_partitions
    return max(1, boundary + delta)


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("delta", [-8, -1, 0, 1, 8])
def test_engines_agree_across_the_switch(m, delta):
    """Dense and tiled paths agree to 1e-9 on both sides of the boundary."""
    private = grid_private(m, seed=m)
    n_queries = boundary_queries(private.n_partitions, delta)
    lows, highs = random_workload(SHAPE, n_queries, rng=delta + 100).as_arrays()

    kernel = private.packed.answer_many_arrays(lows, highs)
    dense = private._prefix_table().query_arrays(lows, highs)
    auto = Engine(private).answer_arrays(lows, highs)

    np.testing.assert_allclose(dense, kernel, rtol=0, atol=1e-9)
    # The auto route picked one of the two, so it inherits the agreement.
    np.testing.assert_allclose(auto, kernel, rtol=0, atol=1e-9)


def test_parametrization_straddles_the_boundary():
    """The deltas above actually land on both sides of the cost model."""
    sides = set()
    for m in (2, 4, 8):
        k = m * m
        for delta in (-8, -1, 0, 1, 8):
            n_queries = boundary_queries(k, delta)
            sides.add(n_queries * k > DENSE_SWITCH_FACTOR * N_CELLS)
    assert sides == {False, True}


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_switch_agrees_with_scalar_reference(delta):
    """Either engine matches the scalar reference loop at the boundary."""
    private = grid_private(4, seed=7)
    n_queries = boundary_queries(private.n_partitions, delta)
    workload = random_workload(SHAPE, n_queries, rng=delta + 50)
    lows, highs = workload.as_arrays()
    auto = Engine(private).answer_arrays(lows, highs)
    scalar = np.array([private.answer(q) for q in workload])
    np.testing.assert_allclose(auto, scalar, rtol=0, atol=1e-9)


def test_dense_table_keeps_no_dense_copy():
    """The dense route builds its prefix table straight from the
    partitions: no dense reconstruction is allocated beside the table
    or cached after it, and the answers are those of a table built from
    that reconstruction, bit for bit."""
    shape = (11,) * 6  # the served OD release's grid
    intervals = [axis_intervals(s, 4) for s in shape]
    noisy = np.random.default_rng(3).laplace(20.0, 5.0, size=4 ** 6)
    packed = packed_from_intervals(intervals, noisy, shape)
    private = PrivateFrequencyMatrix.from_packed(packed, method="test")
    lows, highs = random_workload(shape, 200, rng=4).as_arrays()

    tracemalloc.start()
    try:
        table = private._prefix_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table._table.nbytes + 2 ** 20

    answer = Engine(private, EngineConfig(plan="dense")).answer(
        QueryRequest(lows, highs)
    )
    assert answer.plan == "dense"
    assert private._dense_cache is None
    reference = PrefixSumTable(packed.dense_array()).query_arrays(lows, highs)
    np.testing.assert_array_equal(answer.answers, reference)
