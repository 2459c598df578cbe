"""Tests for repro.core.consistency post-processing."""

import warnings

import numpy as np
import pytest

from repro.core import (
    Partition,
    Partitioning,
    PrivateFrequencyMatrix,
    ValidationError,
    clip_nonnegative,
    full_box,
    project_nonnegative_total,
    rescale_to_total,
)


def private_with_counts(counts):
    """1-D partition-backed private matrix with one cell per partition."""
    parts = [
        Partition(((i, i),), float(c)) for i, c in enumerate(counts)
    ]
    return PrivateFrequencyMatrix(
        Partitioning(parts, (len(counts),)), epsilon=1.0, method="test"
    )


class TestClipNonnegative:
    def test_negatives_zeroed(self):
        private = private_with_counts([3.0, -2.0, 5.0])
        clipped = clip_nonnegative(private)
        values = [p.noisy_count for p in clipped.partitions]
        assert values == [3.0, 0.0, 5.0]

    def test_input_unchanged(self):
        private = private_with_counts([-1.0])
        clip_nonnegative(private)
        assert private.partitions[0].noisy_count == -1.0

    def test_dense_backed(self):
        private = PrivateFrequencyMatrix.from_dense_noisy(
            np.array([[-1.0, 2.0]]), epsilon=0.5, method="identity"
        )
        clipped = clip_nonnegative(private)
        assert clipped.is_dense_backed
        assert np.array_equal(clipped.dense_array(), [[0.0, 2.0]])

    def test_metadata_records_step(self):
        private = private_with_counts([1.0])
        out = clip_nonnegative(private)
        assert out.metadata["postprocessing"] == ["clip_nonnegative"]

    def test_chaining_records_all_steps(self):
        private = private_with_counts([1.0, -1.0])
        out = rescale_to_total(clip_nonnegative(private), 4.0)
        assert len(out.metadata["postprocessing"]) == 2


class TestRescaleToTotal:
    def test_scaling(self):
        private = private_with_counts([1.0, 3.0])
        out = rescale_to_total(private, 8.0)
        values = [p.noisy_count for p in out.partitions]
        assert values == [2.0, 6.0]

    def test_rejects_nonpositive_current(self):
        private = private_with_counts([-1.0, -2.0])
        with pytest.raises(ValidationError):
            rescale_to_total(private, 5.0)

    @pytest.mark.parametrize("counts", [
        [1e-310],  # a denormal sum overflows the factor
        [1e4, -1e4, 1e-300],  # a finite factor overflows a count
        [0.0, 1e-310],  # an infinite factor times zero is NaN
    ])
    def test_tiny_sum_rejected_without_warning(self, counts):
        private = private_with_counts(counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="too small"):
                rescale_to_total(private, 1e5)

    def test_rejects_nonfinite_target(self):
        private = private_with_counts([1.0])
        with pytest.raises(ValidationError):
            rescale_to_total(private, float("nan"))

    def test_epsilon_preserved(self):
        private = private_with_counts([1.0, 1.0])
        assert rescale_to_total(private, 5.0).epsilon == private.epsilon


class TestProjectNonnegativeTotal:
    def test_preserves_total_and_nonneg(self):
        private = private_with_counts([5.0, -2.0, 3.0])
        out = project_nonnegative_total(private)
        values = np.array([p.noisy_count for p in out.partitions])
        assert (values >= 0).all()
        assert values.sum() == pytest.approx(6.0)  # original total

    def test_explicit_target(self):
        private = private_with_counts([5.0, -2.0, 3.0])
        out = project_nonnegative_total(private, target_total=10.0)
        values = np.array([p.noisy_count for p in out.partitions])
        assert values.sum() == pytest.approx(10.0)
        assert (values >= 0).all()

    def test_all_negative_spreads_uniformly(self):
        private = private_with_counts([-3.0, -1.0])
        out = project_nonnegative_total(private, target_total=4.0)
        values = [p.noisy_count for p in out.partitions]
        assert values == pytest.approx([2.0, 2.0])

    def test_already_consistent_unchanged(self):
        private = private_with_counts([2.0, 3.0])
        out = project_nonnegative_total(private)
        values = [p.noisy_count for p in out.partitions]
        assert values == pytest.approx([2.0, 3.0])

    def test_improves_accuracy_on_sparse_data(self, rng):
        """On mostly-empty matrices, projection should reduce the error of
        the full-matrix query for identity outputs."""
        from repro.core import FrequencyMatrix
        from repro.methods import Identity
        data = np.zeros((32, 32))
        data[0, 0] = 500.0
        fm = FrequencyMatrix(data)
        fb = full_box(fm.shape)
        raw_err, proj_err = [], []
        for s in range(10):
            private = Identity().sanitize(fm, 0.5, np.random.default_rng(s))
            projected = project_nonnegative_total(private, target_total=500.0)
            raw_err.append(abs(private.answer(fb) - 500.0))
            proj_err.append(abs(projected.answer(fb) - 500.0))
        assert np.mean(proj_err) <= np.mean(raw_err) + 1e-6
