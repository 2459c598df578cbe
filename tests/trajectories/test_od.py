"""Tests for repro.trajectories.od — OD matrices with intermediate stops."""

import numpy as np
import pytest

from repro.core import ValidationError
from repro.trajectories import (
    ODMatrixBuilder,
    SpatialGrid,
    TrajectoryDataset,
    auto_resolution,
    classical_od_matrix,
    frame_names,
    od_matrix_with_stops,
)


@pytest.fixture
def grid():
    return SpatialGrid(100, 100, 0.0, 10.0, 0.0, 10.0)


@pytest.fixture
def dataset(rng):
    # 500 trajectories with 1 intermediate stop in [0, 10)^2.
    return TrajectoryDataset(rng.uniform(0.0, 10.0, size=(500, 3, 2)))


class TestFrameNames:
    def test_no_stops(self):
        assert frame_names(2) == ["origin", "dest"]

    def test_with_stops(self):
        assert frame_names(4) == ["origin", "stop1", "stop2", "dest"]

    def test_rejects_single_frame(self):
        with pytest.raises(ValidationError):
            frame_names(1)


class TestAutoResolution:
    def test_od_only(self):
        g = auto_resolution(2, cell_budget=2_000_000)
        assert g**4 <= 2_000_000
        assert (g + 1) ** 4 > 2_000_000

    def test_more_frames_coarser(self):
        assert auto_resolution(3, 2_000_000) < auto_resolution(2, 2_000_000)

    def test_budget_too_small(self):
        with pytest.raises(ValidationError):
            auto_resolution(4, cell_budget=100)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("n_frames", [2, 3, 4])
    def test_exact_powers_and_neighbours(self, n_frames, offset):
        exponent = 2 * n_frames
        for g in range(2, 60):
            budget = g**exponent + offset
            if budget < 2**exponent:
                continue
            expected = g if offset >= 0 else g - 1
            assert auto_resolution(n_frames, budget) == expected, (g, budget)

    def test_served_budget(self):
        # The served 6-D release: 11**6 = 1 771 561 <= 2M < 12**6.
        assert auto_resolution(3, 2_000_000) == 11
        assert auto_resolution(3, 11**6) == 11


class TestODMatrixBuilder:
    def test_classical_od_4d(self, grid, dataset):
        fm = classical_od_matrix(dataset, grid, resolution=8)
        assert fm.ndim == 4
        assert fm.shape == (8, 8, 8, 8)
        assert fm.total == 500.0

    def test_with_stops_6d(self, grid, dataset):
        fm = od_matrix_with_stops(dataset, grid, resolution=5)
        assert fm.ndim == 6
        assert fm.total == 500.0

    def test_domain_names(self, grid, dataset):
        builder = ODMatrixBuilder(grid, resolution=5)
        dom = builder.domain(dataset)
        assert dom.names == (
            "origin_x", "origin_y", "stop1_x", "stop1_y", "dest_x", "dest_y"
        )

    def test_entry_location_correct(self, grid):
        # A single known trajectory must increment exactly one known cell.
        pts = np.array([[[1.0, 2.0], [9.0, 9.0]]])  # origin (1,2) dest (9,9)
        ds = TrajectoryDataset(pts)
        fm = classical_od_matrix(ds, grid, resolution=10)
        # Cell width = 1.0 at resolution 10 over [0, 10).
        assert fm.data[1, 2, 9, 9] == 1.0
        assert fm.total == 1.0

    def test_sparse_matches_dense(self, grid, rng):
        # 0/1/2 stops x all frames or origin-dest x explicit or auto
        # resolution (auto on a small budget keeps the 8-D case small).
        for n_stops in (0, 1, 2):
            ds = TrajectoryDataset(
                rng.uniform(0.0, 10.0, size=(500, n_stops + 2, 2))
            )
            for frames in (None, [0, -1]):
                for resolution, cell_budget in ((5, 2_000_000), (None, 100_000)):
                    case = (n_stops, frames, resolution)
                    builder = ODMatrixBuilder(
                        grid, resolution=resolution, frames=frames,
                        cell_budget=cell_budget,
                    )
                    dense = builder.build(ds)
                    from_sparse = builder.build_sparse(ds).to_dense()
                    assert dense.data.dtype == np.float64, case
                    assert from_sparse.data.dtype == np.float64, case
                    assert np.array_equal(dense.data, from_sparse.data), case
                    assert dense.domain == from_sparse.domain, case
                    assert dense.total == 500.0, case

    def test_frames_subset(self, grid, dataset):
        builder = ODMatrixBuilder(grid, resolution=8, frames=[0, -1])
        fm = builder.build(dataset)
        assert fm.ndim == 4

    def test_resolution_budget_enforced(self, grid, dataset):
        builder = ODMatrixBuilder(grid, resolution=100, cell_budget=10_000)
        with pytest.raises(ValidationError):
            builder.build(dataset)

    def test_auto_resolution_respects_budget(self, grid, dataset):
        builder = ODMatrixBuilder(grid, cell_budget=50_000)
        fm = builder.build(dataset)
        assert fm.n_cells <= 50_000

    def test_rejects_single_frame(self, grid, dataset):
        builder = ODMatrixBuilder(grid, resolution=8, frames=[0])
        with pytest.raises(ValidationError):
            builder.build(dataset)

    @pytest.mark.parametrize("frames", [[0, 7], [0, -4], [3, 0]])
    def test_rejects_out_of_range_frames(self, grid, dataset, frames):
        # The dataset records 3 points, so the valid frames are [-3, 3);
        # wrapping would turn [0, 7] into origin x stop1.
        builder = ODMatrixBuilder(grid, resolution=8, frames=frames)
        with pytest.raises(ValidationError, match="outside"):
            builder.build(dataset)
        with pytest.raises(ValidationError, match="outside"):
            builder.build_sparse(dataset)
        with pytest.raises(ValidationError, match="outside"):
            builder.domain(dataset)

    def test_negative_frames_in_range(self, grid, dataset):
        ends = ODMatrixBuilder(grid, resolution=8, frames=[-3, -1]).build(dataset)
        od = ODMatrixBuilder(grid, resolution=8, frames=[0, 2]).build(dataset)
        assert np.array_equal(ends.data, od.data)
        assert ends.domain.names == ("origin_x", "origin_y", "dest_x", "dest_y")

    def test_rejects_bad_resolution(self, grid):
        with pytest.raises(ValidationError):
            ODMatrixBuilder(grid, resolution=0)

    def test_marginal_recovers_population(self, grid, dataset):
        """Summing the OD matrix over destination axes gives the origin
        histogram — the consistency the paper's Section 2.3 relies on."""
        fm = classical_od_matrix(dataset, grid, resolution=8)
        origin_hist = fm.marginal([0, 1])
        coarse = grid.coarsen(8, 8)
        direct = np.zeros((8, 8))
        cells = coarse.to_cells(dataset.origins)
        for cx, cy in cells:
            direct[cx, cy] += 1
        assert np.allclose(origin_hist.data, direct)
