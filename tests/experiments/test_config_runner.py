"""Tests for repro.experiments.config and repro.experiments.runner."""

import pytest

from repro.core import ValidationError
from repro.experiments import (
    ExperimentScale,
    MethodSpec,
    PAPER_SCALE,
    TINY_SCALE,
    aggregate_rows,
    default_method_specs,
    get_scale,
    mean_mre,
    run_methods,
)
from repro.queries import random_workload


class TestScale:
    def test_presets(self):
        assert get_scale("paper") is PAPER_SCALE
        assert get_scale("tiny") is TINY_SCALE
        assert get_scale("TINY") is TINY_SCALE

    def test_unknown(self):
        with pytest.raises(ValidationError):
            get_scale("galactic")

    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.n_points == 1_000_000
        assert PAPER_SCALE.n_trajectories == 300_000
        assert PAPER_SCALE.city_resolution == 1000
        assert PAPER_SCALE.n_queries == 1000

    def test_overrides(self):
        s = TINY_SCALE.with_overrides(n_queries=7)
        assert s.n_queries == 7
        assert s.n_points == TINY_SCALE.n_points

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentScale("x", 0, 1, 1, 1, 1)


class TestMethodSpec:
    def test_plain_label(self):
        assert MethodSpec.of("ebp").label == "ebp"

    def test_kwargs_label(self):
        spec = MethodSpec.of("daf_entropy", allocation="uniform")
        assert spec.label == "daf_entropy(allocation=uniform)"
        assert spec.as_kwargs() == {"allocation": "uniform"}

    def test_default_specs(self):
        specs = default_method_specs(["a", "b"])
        assert [s.name for s in specs] == ["a", "b"]


class TestRunner:
    def test_rows_cross_product(self, small_2d, rng):
        wls = [
            random_workload(small_2d.shape, 10, rng, name="w1"),
            random_workload(small_2d.shape, 10, rng, name="w2"),
        ]
        rows = run_methods(
            small_2d,
            default_method_specs(["identity", "uniform"]),
            [0.5, 1.0],
            wls,
            n_trials=2,
            rng=rng,
        )
        # 2 methods x 2 eps x 2 workloads x 2 trials
        assert len(rows) == 16
        assert all(r.sanitize_seconds >= 0 for r in rows)
        assert all(r.n_partitions >= 1 for r in rows)

    def test_extra_propagated(self, small_2d, rng):
        rows = run_methods(
            small_2d, default_method_specs(["uniform"]), [1.0],
            [random_workload(small_2d.shape, 5, rng)],
            rng=rng, extra={"city": "x"},
        )
        assert rows[0].as_dict()["city"] == "x"

    def test_mean_mre(self, small_2d, rng):
        rows = run_methods(
            small_2d, default_method_specs(["identity"]), [1.0],
            [random_workload(small_2d.shape, 5, rng)], n_trials=3, rng=rng,
        )
        assert mean_mre(rows) == pytest.approx(
            sum(r.mre for r in rows) / 3
        )

    def test_mean_mre_empty(self):
        with pytest.raises(ValueError):
            mean_mre([])

    def test_aggregate_rows_averages_trials(self, small_2d, rng):
        rows = run_methods(
            small_2d, default_method_specs(["identity"]), [1.0],
            [random_workload(small_2d.shape, 5, rng)], n_trials=4, rng=rng,
        )
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["n_trials"] == 4
        assert agg[0]["mre"] == pytest.approx(mean_mre(rows))

    def test_method_kwargs_in_label(self, small_2d, rng):
        rows = run_methods(
            small_2d,
            [MethodSpec.of("daf_entropy", allocation="uniform")],
            [1.0],
            [random_workload(small_2d.shape, 5, rng)],
            rng=rng,
        )
        assert rows[0].method == "daf_entropy(allocation=uniform)"


class TestTrialTimingAggregation:
    """Timing is measured once per trial and duplicated onto each of the
    trial's rows; aggregation must average over trials, not rows."""

    @staticmethod
    def _row(workload, trial, sanitize_s, query_s, plan=""):
        from repro.queries.metrics import AccuracyReport

        report = AccuracyReport(
            mre=1.0, median_re=1.0, mae=1.0, rmse=1.0, n_queries=5
        )
        from repro.experiments import ResultRow

        return ResultRow(
            method="m", epsilon=1.0, workload=workload, trial=trial,
            report=report, sanitize_seconds=sanitize_s, n_partitions=4,
            extra={}, query_seconds=query_s, plan=plan,
        )

    def test_query_seconds_shared_across_trial_rows(self, small_2d, rng):
        wls = [
            random_workload(small_2d.shape, 5, rng, name="w1"),
            random_workload(small_2d.shape, 5, rng, name="w2"),
        ]
        rows = run_methods(
            small_2d, default_method_specs(["uniform"]), [1.0], wls,
            n_trials=2, rng=rng,
        )
        for trial in (0, 1):
            times = {r.query_seconds for r in rows if r.trial == trial}
            assert len(times) == 1

    def test_aggregation_averages_over_trials_not_rows(self):
        # Trial 0 contributes two workload rows, trial 1 only one: a
        # row-wise mean would weight trial 0's measurement double.
        rows = [
            self._row("w1", 0, 10.0, 1.0),
            self._row("w2", 0, 10.0, 1.0),
            self._row("w1", 1, 20.0, 3.0),
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert len(agg) == 1
        assert agg[0]["query_seconds"] == pytest.approx(2.0)  # (1 + 3) / 2
        assert agg[0]["sanitize_seconds"] == pytest.approx(15.0)

    def test_aggregation_does_not_multi_count_workloads(self):
        # Balanced workloads: the per-trial value must pass through
        # unchanged, never summed over the trial's rows.
        rows = [
            self._row(w, t, 4.0, 0.5) for w in ("w1", "w2", "w3")
            for t in (0, 1)
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert agg[0]["query_seconds"] == pytest.approx(0.5)
        assert agg[0]["sanitize_seconds"] == pytest.approx(4.0)


class TestMixedPlanAggregation:
    """A (method, epsilon) group whose trials took different query plans.

    The planner decides per batch, so trials of one group can
    legitimately split between plans (a borderline q x k near the dense
    switch, or an n_shards run mixed with archived serial rows).  The
    aggregate must list every plan that ran, deterministically.
    """

    _row = staticmethod(TestTrialTimingAggregation._row)

    def test_mixed_plans_join_sorted_and_deduplicated(self):
        rows = [
            self._row("w1", 0, 1.0, 0.1, plan="pruned"),
            self._row("w1", 1, 1.0, 0.1, plan="broadcast"),
            self._row("w1", 2, 1.0, 0.1, plan="sharded"),
            self._row("w1", 3, 1.0, 0.1, plan="pruned"),
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert len(agg) == 1
        assert agg[0]["plan"] == "broadcast+pruned+sharded"

    def test_every_member_plan_survives_the_join(self):
        # The engine stamps a concrete plan on every batch, so the join
        # is a plain sorted dedup — no blank-plan special-casing.
        rows = [
            self._row("w1", 0, 1.0, 0.1, plan="dense"),
            self._row("w1", 1, 1.0, 0.1, plan="sharded"),
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert agg[0]["plan"] == "dense+sharded"

    def test_legacy_blank_plan_surfaces_as_unknown(self):
        # Rows built outside the engine (pre-engine archives) may still
        # carry the dataclass default "" — they surface honestly rather
        # than vanishing or producing a "+dense"-style join.
        rows = [
            self._row("w1", 0, 1.0, 0.1, plan="dense"),
            self._row("w1", 1, 1.0, 0.1),  # legacy row, no plan
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert agg[0]["plan"] == "dense+unknown"

    def test_homogeneous_plan_unchanged(self):
        rows = [
            self._row(w, t, 1.0, 0.1, plan="sharded")
            for w in ("w1", "w2") for t in (0, 1)
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert agg[0]["plan"] == "sharded"
        assert agg[0]["n_trials"] == 4

    def test_mixed_plans_do_not_perturb_timing_aggregation(self):
        # Plan differences must not affect the per-trial dedup of the
        # timing fields.
        rows = [
            self._row("w1", 0, 2.0, 0.4, plan="broadcast"),
            self._row("w2", 0, 2.0, 0.4, plan="broadcast"),
            self._row("w1", 1, 4.0, 0.8, plan="sharded"),
            self._row("w2", 1, 4.0, 0.8, plan="sharded"),
        ]
        agg = aggregate_rows(rows, keys=("method", "epsilon"))
        assert agg[0]["plan"] == "broadcast+sharded"
        assert agg[0]["query_seconds"] == pytest.approx(0.6)
        assert agg[0]["sanitize_seconds"] == pytest.approx(3.0)
