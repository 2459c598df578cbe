"""Cross-plan equivalence: dense ≡ broadcast ≡ pruned ≡ sharded ≡ resident.

Every strategy the engine can route a batch through must compute the
same answers — the plan is a choice of *route*, never of *result*.  The
hypothesis suite pins this across the partitioning families real
sanitizers emit (uniform grid, AG, quadtree, kd-tree, DAF), shard counts
``K ∈ {1, 2, 3, 7}`` (plus any count forced through the
``REPRO_TEST_N_SHARDS`` env var — the CI leg sets 3), and the degenerate
inputs that historically break query engines: empty batches, full-domain
queries, single cells, and shard counts exceeding the partition count.

The sixth column is the resident shard-worker pool
(``shard_executor="resident"``, :class:`~repro.engine.ShardWorkerPool`):
worker processes answering on their own shards must be
**bit-identical** to serial sharded evaluation — asserted with
``assert_array_equal``, not a tolerance — because the workers receive
the very same cached shards the serial path reads, do no RNG work of
their own, and the parent merges partials in fixed shard order.  The CI
resident leg re-runs this module with
``REPRO_TEST_SHARD_EXECUTOR=resident``, which makes the pool the
default executor of every sharded case here (:func:`forced_config`,
pinned by ``TestForcedExecutor``).

All routing goes through the :mod:`repro.engine` facade (an
:class:`~repro.engine.Engine` per forced
:class:`~repro.engine.EngineConfig`).

The suite also carries the skip-counter acceptance criterion (a shard
whose candidate bound is empty must provably skip the gather, observable
via :attr:`~repro.core.sharding.ShardedAnswer.skipped_shards`) and the
regression test for the forced-``pruned`` graceful fallback on matrices
below :data:`~repro.core.interval_index.PRUNE_MIN_PARTITIONS`.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    SHARD_SKIPPED,
    FrequencyMatrix,
    PrivateFrequencyMatrix,
    QueryError,
    answer_sharded,
    boxes_to_arrays,
    full_box,
    packed_from_intervals,
    shard_bounds,
    split_shards,
)
from repro.core.interval_index import PRUNE_MIN_PARTITIONS, plan_with_slices
from repro.engine import Engine, EngineConfig, QueryRequest
from repro.methods import get_sanitizer
from repro.methods._grid import axis_intervals
from repro.queries import WorkloadEvaluator, random_workload

#: Partition-emitting sanitizer families the equivalence must hold for.
METHODS = ["uniform", "ag", "quadtree", "kdtree", "daf_entropy"]

#: Shard counts of the equivalence matrix.  7 is deliberately coprime to
#: the usual power-of-two partition counts, so shard boundaries fall
#: mid-row; counts larger than the partition list are exercised
#: separately (they clip).
SHARD_COUNTS = [1, 2, 3, 7]

#: The CI leg forces an extra shard count through the environment so the
#: sharded path runs on every push even if the default list changes.
_env = os.environ.get("REPRO_TEST_N_SHARDS")
ENV_N_SHARDS = int(_env) if _env else None
if ENV_N_SHARDS is not None and ENV_N_SHARDS not in SHARD_COUNTS:
    SHARD_COUNTS.append(ENV_N_SHARDS)

#: The CI resident leg forces the shard executor the same way: every
#: sharded case that names no executor runs on this one.
ENV_SHARD_EXECUTOR = os.environ.get("REPRO_TEST_SHARD_EXECUTOR") or None


def forced_config(**config):
    """``EngineConfig(**config)``; a sharded config that names no
    executor gets ``ENV_SHARD_EXECUTOR``."""
    config = EngineConfig(**config)
    sharded = config.plan == PLAN_SHARDED or config.wants_sharding
    if sharded and config.shard_executor is None and ENV_SHARD_EXECUTOR:
        config = config.with_overrides(shard_executor=ENV_SHARD_EXECUTOR)
    return config


def forced_answer(private, lows, highs, **config):
    """A :class:`~repro.engine.QueryAnswer` from an :class:`Engine`
    forced to ``config`` (its resident pool, if any, shut down after)."""
    with Engine(private, forced_config(**config)) as engine:
        return engine.answer(QueryRequest(lows, highs))


def engine_answers(private, lows, highs, **config):
    """Answers through an :class:`Engine` forced to ``config``."""
    return forced_answer(private, lows, highs, **config).answers


def sharded_evidence(private, lows, highs, *, n_shards=None, executor=None):
    """A sharded :class:`~repro.engine.QueryAnswer` via the facade."""
    answer = forced_answer(
        private, lows, highs,
        plan=PLAN_SHARDED, n_shards=n_shards, shard_executor=executor,
    )
    assert answer.plan == PLAN_SHARDED
    return answer


def sanitized_private(method, shape, data_seed, noise_seed, epsilon):
    """A real sanitizer's private matrix over a random Poisson matrix."""
    rng = np.random.default_rng(data_seed)
    matrix = FrequencyMatrix(rng.poisson(3.0, shape).astype(float))
    return get_sanitizer(method).sanitize(matrix, epsilon, noise_seed)


def degenerate_and_random_queries(shape, rng, n_random=25):
    """Random boxes plus the degenerate cases the issue calls out."""
    boxes = [full_box(shape)]  # full domain
    boxes.append(tuple((0, 0) for _ in shape))  # single cell at the origin
    boxes.append(tuple((s - 1, s - 1) for s in shape))  # single cell at the end
    for _ in range(n_random):
        box = []
        for s in shape:
            a = int(rng.integers(0, s))
            b = int(rng.integers(0, s))
            box.append((min(a, b), max(a, b)))
        boxes.append(tuple(box))
    return boxes


def grid_private(shape=(256, 256), m=64):
    """The microbenchmark substrate: an m x m grid partitioning."""
    rng = np.random.default_rng(0)
    intervals = [axis_intervals(s, m) for s in shape]
    noisy = rng.poisson(40.0, size=m * m).astype(float)
    packed = packed_from_intervals(intervals, noisy, shape)
    return PrivateFrequencyMatrix.from_packed(packed, method="grid")


class TestEquivalenceMatrix:
    """dense ≡ broadcast ≡ pruned ≡ sharded on sanitizer output."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        method=st.sampled_from(METHODS),
        shape=st.tuples(st.integers(8, 40), st.integers(8, 40)),
        data_seed=st.integers(0, 2**16),
        noise_seed=st.integers(0, 2**16),
        epsilon=st.sampled_from([0.1, 0.5, 2.0]),
    )
    def test_all_plans_agree(
        self, method, shape, data_seed, noise_seed, epsilon
    ):
        private = sanitized_private(
            method, shape, data_seed, noise_seed, epsilon
        )
        rng = np.random.default_rng(data_seed ^ noise_seed)
        boxes = degenerate_and_random_queries(shape, rng)
        lows, highs = boxes_to_arrays(boxes)
        broadcast = engine_answers(private, lows, highs, plan=PLAN_BROADCAST)
        # Forced pruned may fall back to broadcast below the pruning
        # threshold — either way the values must match.
        pruned = engine_answers(private, lows, highs, plan=PLAN_PRUNED)
        dense = engine_answers(private, lows, highs, plan=PLAN_DENSE)
        np.testing.assert_allclose(pruned, broadcast, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dense, broadcast, rtol=1e-9, atol=1e-6)
        for n_shards in SHARD_COUNTS:
            sharded = engine_answers(
                private, lows, highs, plan=PLAN_SHARDED, n_shards=n_shards
            )
            np.testing.assert_allclose(
                sharded, broadcast, rtol=0, atol=1e-9,
                err_msg=f"sharded(K={n_shards}) diverged from broadcast",
            )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_reports_its_plan(self, method, n_shards):
        private = sanitized_private(method, (20, 24), 3, 5, 0.5)
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (20, 24), np.random.default_rng(1), n_random=10
            )
        )
        result = forced_answer(private, lows, highs, n_shards=n_shards)
        assert result.plan == PLAN_SHARDED
        assert result.n_shards == min(n_shards, private.n_partitions)
        np.testing.assert_allclose(
            result.answers,
            engine_answers(private, lows, highs, plan=PLAN_BROADCAST),
            rtol=0,
            atol=1e-9,
        )


class TestOverBudgetRelease:
    """A served-like release whose full prefix table exceeds the level
    budget: auto reads the level table, and every other plan (forced
    dense on the full table, broadcast, pruned, sharded on the
    executor the CI leg forces) agrees with it."""

    @pytest.fixture(scope="class")
    def release(self):
        # DAF over a 6-D matrix (the served release is DAF over 11**6):
        # 2 782 partitions, a 4.3 MB full table, a 0.45 MiB level-2 one.
        shape = (8,) * 6
        rng = np.random.default_rng(0)
        matrix = FrequencyMatrix(rng.poisson(0.2, shape).astype(float))
        private = get_sanitizer("daf_entropy").sanitize(matrix, 0.5, 1)
        boxes = degenerate_and_random_queries(shape, rng, n_random=60)
        return private, boxes_to_arrays(boxes)

    def test_auto_level_route_agrees_with_every_plan(self, release):
        private, (lows, highs) = release
        auto = forced_answer(private, lows, highs)
        assert auto.plan == PLAN_DENSE
        assert Engine(private).level_table() is not None
        broadcast = engine_answers(private, lows, highs, plan=PLAN_BROADCAST)
        scale = np.maximum(1.0, np.abs(broadcast))
        for plan in (PLAN_DENSE, PLAN_PRUNED):
            got = engine_answers(private, lows, highs, plan=plan)
            assert np.all(np.abs(got - broadcast) <= 1e-9 * scale), plan
        assert np.all(np.abs(auto.answers - broadcast) <= 1e-9 * scale)
        for n_shards in SHARD_COUNTS:
            sharded = engine_answers(
                private, lows, highs, plan=PLAN_SHARDED, n_shards=n_shards
            )
            np.testing.assert_allclose(
                sharded, broadcast, rtol=0, atol=1e-9,
                err_msg=f"sharded(K={n_shards}) diverged from broadcast",
            )

    def test_auto_batched_is_alone(self, release):
        private, (lows, highs) = release
        engine = Engine(private)
        batched = engine.answer(QueryRequest(lows, highs))
        assert batched.plan == PLAN_DENSE
        for i in range(len(lows)):
            alone = engine.answer(QueryRequest(lows[i:i + 1], highs[i:i + 1]))
            assert alone.plan == PLAN_DENSE
            assert alone.answers[0] == batched.answers[i]


class TestShardEdgeCases:
    def test_empty_batch(self):
        private = grid_private(shape=(16, 16), m=4)  # 16 partitions
        empty = np.empty((0, 2), dtype=np.int64)
        result = sharded_evidence(private, empty, empty, n_shards=3)
        assert result.answers.size == 0
        assert result.skipped_shards == result.n_shards == 3
        answer = forced_answer(private, empty, empty, n_shards=3)
        assert answer.answers.size == 0 and answer.plan == PLAN_SHARDED
        assert answer.skipped_shards == 3  # evidence survives the facade

    def test_shard_count_exceeding_partition_count(self):
        private = sanitized_private("kdtree", (16, 16), 2, 3, 0.5)
        k = private.n_partitions
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (16, 16), np.random.default_rng(4), n_random=10
            )
        )
        result = sharded_evidence(private, lows, highs, n_shards=10 * k)
        assert result.n_shards == k  # clipped: one partition per shard
        np.testing.assert_allclose(
            result.answers,
            engine_answers(private, lows, highs, plan=PLAN_BROADCAST),
            rtol=0,
            atol=1e-9,
        )

    def test_shard_bounds_partition_the_axis(self):
        for k, n in [(1, 1), (5, 2), (7, 7), (12, 5), (100, 7), (3, 9)]:
            bounds = shard_bounds(k, n)
            assert bounds[0][0] == 0 and bounds[-1][1] == k
            assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))
            sizes = [stop - start for start, stop in bounds]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert len(bounds) == min(k, n)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(QueryError, match="n_shards"):
            EngineConfig(n_shards=0)
        with pytest.raises(QueryError, match="n_shards"):
            shard_bounds(10, -2)

    def test_n_shards_conflicts_with_other_plans(self):
        with pytest.raises(QueryError, match="sharded"):
            EngineConfig(plan=PLAN_PRUNED, n_shards=2)

    def test_sharded_rejected_on_dense_backed(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        one = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(QueryError, match="dense-backed"):
            Engine(dense, EngineConfig(plan=PLAN_SHARDED)).answer(
                QueryRequest(one, one)
            )


class TestShardSkipping:
    """The acceptance criterion: empty shards provably skip the gather."""

    def test_corner_queries_skip_far_shards(self):
        private = grid_private()
        packed = private.packed
        rng = np.random.default_rng(7)
        # Queries confined to the top-left 1/8 of the rows: partitions
        # are enumerated row-major, so later shards cannot overlap.
        lows = np.stack(
            [rng.integers(0, 32, size=200), rng.integers(0, 256, size=200)],
            axis=1,
        ).astype(np.int64)
        highs = lows + rng.integers(0, 3, size=lows.shape)
        highs = np.minimum(highs, [[31, 255]])
        result = sharded_evidence(private, lows, highs, n_shards=8)
        assert result.skipped_shards > 0
        assert (
            result.shard_plans.count(SHARD_SKIPPED) == result.skipped_shards
        )
        # Every skip is provable: brute-force overlap over the shard's
        # partition range finds nothing.
        lo, hi = packed.lo, packed.hi
        for (start, stop), plan in zip(
            result.shard_bounds, result.shard_plans
        ):
            overlaps = np.logical_and(
                lo[None, start:stop, :] <= highs[:, None, :],
                hi[None, start:stop, :] >= lows[:, None, :],
            ).all(axis=2)
            if plan == SHARD_SKIPPED:
                assert not overlaps.any()
            else:
                assert overlaps.any()
        np.testing.assert_allclose(
            result.answers,
            engine_answers(private, lows, highs, plan=PLAN_BROADCAST),
            rtol=0,
            atol=1e-9,
        )

    def test_full_domain_queries_skip_nothing(self):
        private = grid_private()
        lows, highs = boxes_to_arrays([full_box((256, 256))])
        result = sharded_evidence(private, lows, highs, n_shards=4)
        assert result.skipped_shards == 0

    def test_query_answer_carries_shard_evidence(self):
        """The facade's QueryAnswer exposes the serial per-shard plans."""
        private = grid_private()
        rng = np.random.default_rng(17)
        lows = np.stack(
            [rng.integers(0, 16, size=50), rng.integers(0, 256, size=50)],
            axis=1,
        ).astype(np.int64)
        highs = np.minimum(lows + 2, [[255, 255]])
        answer = forced_answer(private, lows, highs, n_shards=8)
        evidence = answer_sharded(private.packed, lows, highs, n_shards=8)
        assert answer.shard_plans == evidence.plans
        assert answer.shard_bounds == evidence.bounds
        assert answer.skipped_shards == evidence.skipped_shards > 0
        assert answer.skip_rate == evidence.skip_rate


class TestShardExecutors:
    """Serial sharded execution reuses its cached shards."""

    def test_shards_are_cached_per_effective_count(self):
        packed = grid_private(shape=(64, 64), m=16).packed
        first = packed.split_shards(4)
        assert packed.split_shards(4) is first  # same objects, same indexes
        # A request clipping to the same effective count shares the entry.
        small = grid_private(shape=(16, 16), m=2).packed  # 4 partitions
        assert small.split_shards(9) is small.split_shards(100)
        # Repeated batches must not rebuild shards (the cached objects
        # carry their lazily built interval indexes with them).
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (64, 64), np.random.default_rng(12), n_random=5
            )
        )
        answer_sharded(packed, lows, highs, n_shards=4)
        assert packed.split_shards(4) is first


class TestResidentPool:
    """Sixth column: the resident worker pool ≡ serial, bit for bit.

    Workers answer on the *same* shards (arrays and interval index) the
    serial path reads and never touch RNG state, so the comparison
    is exact equality (``assert_array_equal``) — any nonzero diff means
    a worker re-derived something it should have shared.
    """

    @pytest.mark.parametrize("method", METHODS)
    def test_resident_matches_serial_across_shard_counts(self, method):
        private = sanitized_private(method, (28, 26), 11, 13, 0.5)
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (28, 26), np.random.default_rng(2), n_random=15
            )
        )
        for n_shards in SHARD_COUNTS:
            serial = sharded_evidence(
                private, lows, highs, n_shards=n_shards, executor="serial"
            )
            engine = Engine(
                private,
                EngineConfig(n_shards=n_shards, shard_executor="resident"),
            )
            try:
                resident = engine.answer(QueryRequest(lows, highs))
                # A second batch reuses the same (already-warm) pool.
                again = engine.answer(QueryRequest(lows, highs))
            finally:
                engine.close()
            np.testing.assert_array_equal(
                resident.answers, serial.answers,
                err_msg=f"resident(K={n_shards}, {method}) != serial",
            )
            assert resident.plan == PLAN_SHARDED
            assert resident.shard_plans == serial.shard_plans
            assert resident.shard_bounds == serial.shard_bounds
            np.testing.assert_array_equal(again.answers, serial.answers)
            assert again.shard_plans == serial.shard_plans

    def test_resident_empty_batch_reports_skips_without_dispatch(self):
        private = grid_private(shape=(16, 16), m=4)
        empty = np.empty((0, 2), dtype=np.int64)
        engine = Engine(
            private, EngineConfig(n_shards=3, shard_executor="resident")
        )
        try:
            result = engine.answer(QueryRequest(empty, empty))
            assert result.answers.size == 0
            assert result.skipped_shards == result.n_shards == 3
            stats = engine.pool_stats()
            assert stats["worker_batches"] == [0, 0, 0]  # never dispatched
        finally:
            engine.close()


class TestForcedExecutor:
    """``REPRO_TEST_SHARD_EXECUTOR`` decides which executor runs."""

    def test_resident_runs_every_unpinned_sharded_case(self, monkeypatch):
        monkeypatch.setattr(
            sys.modules[__name__], "ENV_SHARD_EXECUTOR", "resident"
        )
        for config in ({"plan": PLAN_SHARDED}, {"n_shards": 3},
                       {"plan": PLAN_SHARDED, "n_shards": 2}):
            assert forced_config(**config).shard_executor == "resident"
        # An explicit executor and the single-node plans stay as asked.
        assert forced_config(n_shards=3, shard_executor="serial") == (
            EngineConfig(n_shards=3, shard_executor="serial")
        )
        assert forced_config(plan=PLAN_BROADCAST) == EngineConfig(
            plan=PLAN_BROADCAST
        )
        private = grid_private(shape=(16, 16), m=4)
        lows, highs = boxes_to_arrays([full_box((16, 16))])
        with Engine(private, forced_config(n_shards=3)) as engine:
            engine.answer(QueryRequest(lows, highs))
            stats = engine.pool_stats()
        assert stats is not None and stats["worker_batches"] == [1, 1, 1]

    def test_unset_keeps_sharded_cases_serial(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "ENV_SHARD_EXECUTOR", None)
        assert forced_config(n_shards=3) == EngineConfig(n_shards=3)


class TestForcedPrunedFallback:
    """Regression: forcing ``pruned`` below the threshold must not error."""

    def test_plan_with_slices_falls_back(self):
        private = grid_private(shape=(16, 16), m=4)  # 16 partitions
        assert private.n_partitions < PRUNE_MIN_PARTITIONS
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (16, 16), np.random.default_rng(0), n_random=5
            )
        )
        plan, slices = plan_with_slices(
            private.packed, lows, highs, force=PLAN_PRUNED
        )
        assert plan == PLAN_BROADCAST and slices is None

    def test_engine_reports_the_fallback(self):
        private = grid_private(shape=(16, 16), m=4)
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (16, 16), np.random.default_rng(1), n_random=5
            )
        )
        answer = Engine(private, EngineConfig(plan=PLAN_PRUNED)).answer(
            QueryRequest(lows, highs)
        )
        assert answer.plan == PLAN_BROADCAST  # fell back, and says so
        np.testing.assert_allclose(
            answer.answers,
            engine_answers(private, lows, highs, plan=PLAN_BROADCAST),
            rtol=0,
            atol=1e-9,
        )

    def test_force_honored_above_threshold(self):
        private = grid_private()  # 4096 partitions
        lows, highs = boxes_to_arrays(
            degenerate_and_random_queries(
                (256, 256), np.random.default_rng(2), n_random=5
            )
        )
        plan, _ = plan_with_slices(
            private.packed, lows, highs, force=PLAN_PRUNED
        )
        assert plan == PLAN_PRUNED
        answer = Engine(private, EngineConfig(plan=PLAN_PRUNED)).answer(
            QueryRequest(lows, highs)
        )
        assert answer.plan == PLAN_PRUNED

    def test_unknown_force_rejected(self):
        private = grid_private(shape=(16, 16), m=4)
        one = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(QueryError, match="unknown packed query plan"):
            plan_with_slices(private.packed, one, one, force="sideways")
        with pytest.raises(QueryError, match="unknown packed query plan"):
            EngineConfig(plan="sideways")


class TestEvaluatorAndRunnerPlumbing:
    """The engine reached through the evaluation stack."""

    def test_evaluator_keeps_dense_route_for_dense_backed(self):
        rng = np.random.default_rng(6)
        matrix = FrequencyMatrix(rng.poisson(3.0, (16, 16)).astype(float))
        private = get_sanitizer("identity").sanitize(matrix, 0.5, 7)
        workload = random_workload(matrix.shape, 20, rng=3)
        result = WorkloadEvaluator(matrix).evaluate(private, workload)
        assert result.plan == PLAN_DENSE

    @pytest.mark.skipif(
        ENV_N_SHARDS is None, reason="REPRO_TEST_N_SHARDS not set"
    )
    def test_env_forced_shard_count_is_exercised(self):
        """The CI leg's env-forced K flows through the evaluator stack."""
        rng = np.random.default_rng(9)
        matrix = FrequencyMatrix(rng.poisson(3.0, (24, 24)).astype(float))
        private = get_sanitizer("quadtree").sanitize(matrix, 0.5, 7)
        lows, highs = random_workload(matrix.shape, 30, rng=5).as_arrays()
        result = sharded_evidence(private, lows, highs, n_shards=ENV_N_SHARDS)
        assert result.n_shards == min(ENV_N_SHARDS, private.n_partitions)
        np.testing.assert_allclose(
            result.answers,
            engine_answers(private, lows, highs, plan=PLAN_BROADCAST),
            rtol=0,
            atol=1e-9,
        )


def test_answer_sharded_function_matches_method():
    """The module-level entry point and ``Engine.answer`` agree."""
    private = grid_private(shape=(64, 64), m=16)
    lows, highs = boxes_to_arrays(
        degenerate_and_random_queries(
            (64, 64), np.random.default_rng(10), n_random=10
        )
    )
    via_fn = answer_sharded(private.packed, lows, highs, n_shards=5)
    via_method = sharded_evidence(private, lows, highs, n_shards=5)
    np.testing.assert_array_equal(via_fn.answers, via_method.answers)
    assert via_fn.plans == via_method.shard_plans
    assert len(split_shards(private.packed, 5)) == 5
