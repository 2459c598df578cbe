"""The synchronous Engine facade: routing, evidence, planner thresholds."""

import numpy as np
import pytest

from repro.core import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    FrequencyMatrix,
    PrivateFrequencyMatrix,
    QueryError,
    packed_from_intervals,
)
from repro.core import interval_index
from repro.core.interval_index import IntervalIndex, PlanCost
from repro.engine import Engine, EngineConfig, QueryRequest
from repro.engine import engine as engine_module
from repro.methods import get_sanitizer
from repro.methods._grid import axis_intervals


def grid_private(shape=(64, 64), m=16):
    rng = np.random.default_rng(0)
    intervals = [axis_intervals(s, m) for s in shape]
    noisy = rng.poisson(40.0, size=m * m).astype(float)
    packed = packed_from_intervals(intervals, noisy, shape)
    return PrivateFrequencyMatrix.from_packed(packed, method="grid")


def random_bounds(shape, q, rng, extent=None):
    a = rng.integers(0, shape[0], size=(q, len(shape)))
    if extent is None:
        b = rng.integers(0, shape[0], size=(q, len(shape)))
    else:
        b = a + rng.integers(0, extent, size=(q, len(shape)))
    lows = np.minimum(a, b).astype(np.int64)
    highs = np.minimum(np.maximum(a, b), np.array(shape) - 1).astype(np.int64)
    return lows, highs


@pytest.fixture(scope="module")
def private():
    return grid_private()


class TestRouting:
    def test_answer_reports_the_plan_and_times(self, private):
        lows, highs = random_bounds(
            (64, 64), 20, np.random.default_rng(1)
        )
        answer = Engine(private).answer(QueryRequest(lows, highs, workload="w"))
        assert answer.plan in (PLAN_DENSE, PLAN_BROADCAST, PLAN_PRUNED)
        assert answer.workload == "w"
        assert answer.n_queries == 20
        assert answer.elapsed_seconds >= 0
        assert answer.shard_plans == () and answer.skip_rate == 0.0

    def test_forced_plans_agree(self, private):
        lows, highs = random_bounds((64, 64), 30, np.random.default_rng(2))
        request = QueryRequest(lows, highs)
        outs = {}
        for plan in (PLAN_DENSE, PLAN_BROADCAST, PLAN_PRUNED, PLAN_SHARDED):
            answer = Engine(private, EngineConfig(plan=plan)).answer(request)
            outs[plan] = answer.answers
        np.testing.assert_allclose(
            outs[PLAN_PRUNED], outs[PLAN_BROADCAST], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            outs[PLAN_SHARDED], outs[PLAN_BROADCAST], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            outs[PLAN_DENSE], outs[PLAN_BROADCAST], rtol=1e-9, atol=1e-6
        )

    def test_plan_queries_reflects_config(self, private):
        lows, highs = random_bounds(
            (64, 64), 10, np.random.default_rng(3), extent=2
        )
        assert Engine(private, EngineConfig(plan=PLAN_DENSE)).plan_queries(
            lows, highs
        ) == PLAN_DENSE
        assert Engine(private, EngineConfig(n_shards=2)).plan_queries(
            lows, highs
        ) == PLAN_SHARDED
        auto = Engine(private).plan_queries(lows, highs)
        answer = Engine(private).answer(QueryRequest(lows, highs))
        assert answer.plan == auto

    def test_matches_scalar_reference(self, private):
        rng = np.random.default_rng(4)
        lows, highs = random_bounds((64, 64), 10, rng)
        expected = np.array([
            private.answer(tuple(zip(lo, hi)))
            for lo, hi in zip(lows, highs)
        ])
        for config in (
            EngineConfig(),
            EngineConfig(plan=PLAN_BROADCAST),
            EngineConfig(plan=PLAN_DENSE),
            EngineConfig(n_shards=3),
        ):
            got = Engine(private, config).answer_arrays(lows, highs)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-6)

    def test_empty_batch(self, private):
        empty = np.empty((0, 2), dtype=np.int64)
        answer = Engine(private).answer(QueryRequest(empty, empty))
        assert answer.answers.size == 0
        assert answer.plan == PLAN_BROADCAST
        forced = Engine(private, EngineConfig(plan=PLAN_DENSE)).answer(
            QueryRequest(empty, empty)
        )
        assert forced.plan == PLAN_DENSE

    def test_invalid_bounds_raise(self, private):
        one = np.array([[70, 0]], dtype=np.int64)
        with pytest.raises(QueryError, match="outside matrix shape"):
            Engine(private).answer(QueryRequest(one, one))


#: Routing-agreement configs: auto, every forced plan, and both ways of
#: selecting the sharded layout implicitly.
ROUTING_CONFIGS = {
    "auto": EngineConfig(),
    "dense": EngineConfig(plan=PLAN_DENSE),
    "broadcast": EngineConfig(plan=PLAN_BROADCAST),
    "pruned": EngineConfig(plan=PLAN_PRUNED),
    "sharded": EngineConfig(plan=PLAN_SHARDED),
    "n_shards=3": EngineConfig(n_shards=3),
    "serial": EngineConfig(shard_executor="serial"),
}

ROUTING_SHAPE = (256, 256)


def routing_batch(name):
    rng = np.random.default_rng(11)
    if name == "empty":
        empty = np.empty((0, 2), dtype=np.int64)
        return empty, empty
    if name == "one":
        return random_bounds(ROUTING_SHAPE, 1, rng)
    if name == "small_boxes":  # the cost model prunes these
        return random_bounds(ROUTING_SHAPE, 40, rng, extent=2)
    # q * k > DENSE_SWITCH_FACTOR * cells on the 4096-partition grid
    return random_bounds(ROUTING_SHAPE, 100, rng)


@pytest.fixture(scope="module")
def routing_matrices():
    return {
        "partitions": grid_private(shape=ROUTING_SHAPE, m=64),
        "dense": PrivateFrequencyMatrix.from_dense_noisy(
            np.ones(ROUTING_SHAPE)
        ),
    }


class TestRoutingAgreement:
    """``plan_queries`` and ``answer`` share one routing function."""

    def test_batches_hit_the_routes_they_are_named_for(self, routing_matrices):
        plan = Engine(routing_matrices["partitions"]).plan_queries
        assert plan(*routing_batch("small_boxes")) == PLAN_PRUNED
        assert plan(*routing_batch("dense_switch")) == PLAN_DENSE

    def test_pruned_batch_pays_one_candidate_pass(
        self, routing_matrices, monkeypatch
    ):
        # The cost model's candidate slices are reused by the gather.
        calls = []
        slices = IntervalIndex.candidate_slices
        monkeypatch.setattr(
            IntervalIndex,
            "candidate_slices",
            lambda index, *bounds: calls.append(1) or slices(index, *bounds),
        )
        answer = Engine(routing_matrices["partitions"]).answer(
            QueryRequest(*routing_batch("small_boxes"))
        )
        assert answer.plan == PLAN_PRUNED
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "batch", ["empty", "one", "small_boxes", "dense_switch"]
    )
    @pytest.mark.parametrize("matrix", ["partitions", "dense"])
    @pytest.mark.parametrize("config", sorted(ROUTING_CONFIGS))
    def test_plan_queries_matches_answer(
        self, routing_matrices, config, matrix, batch
    ):
        engine = Engine(routing_matrices[matrix], ROUTING_CONFIGS[config])
        lows, highs = routing_batch(batch)
        try:
            planned = engine.plan_queries(lows, highs)
        except QueryError as exc:
            with pytest.raises(QueryError) as answered:
                engine.answer(QueryRequest(lows, highs))
            assert str(answered.value) == str(exc)
        else:
            assert engine.answer(QueryRequest(lows, highs)).plan == planned

    def test_shard_executor_is_a_closed_enum(self):
        with pytest.raises(QueryError, match="unknown shard_executor"):
            EngineConfig(shard_executor=object())


class TestDenseBacked:
    def test_dense_backed_routes_dense(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        one = np.zeros((1, 2), dtype=np.int64)
        answer = Engine(dense).answer(QueryRequest(one, one))
        assert answer.plan == PLAN_DENSE and answer.answers[0] == 1.0

    @pytest.mark.parametrize("q", [0, 1])
    def test_every_batch_size_routes_dense_or_is_refused(self, q):
        # One config can serve a mixed method set: dense-backed outputs
        # have no partition list, so a sharding config runs dense for
        # them instead of erroring, and a forced partition plan is
        # refused.  plan_queries agrees with answer(), and an empty
        # batch names the plan a non-empty one runs.
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        bounds = np.zeros((q, 2), dtype=np.int64)
        request = QueryRequest(bounds, bounds)
        for config in (EngineConfig(), EngineConfig(n_shards=4)):
            engine = Engine(dense, config)
            assert engine.plan_queries(bounds, bounds) == PLAN_DENSE
            assert engine.answer(request).plan == PLAN_DENSE
        for plan in (PLAN_SHARDED, PLAN_BROADCAST, PLAN_PRUNED):
            engine = Engine(dense, EngineConfig(plan=plan))
            with pytest.raises(QueryError, match="dense-backed"):
                engine.plan_queries(bounds, bounds)
            with pytest.raises(QueryError, match="dense-backed"):
                engine.answer(request)

    def test_plan_refusal_comes_before_bound_validation(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        outside = np.array([[70, 0]], dtype=np.int64)
        with pytest.raises(QueryError, match="dense-backed"):
            Engine(dense, EngineConfig(plan=PLAN_BROADCAST)).answer(
                QueryRequest(outside, outside)
            )


def level_private():
    """512 x 512 in 32 x 32 blocks: the full prefix table exceeds the
    level budget, and a level table fits it."""
    shape = (512, 512)
    intervals = [axis_intervals(s, 32) for s in shape]
    noisy = np.random.default_rng(3).poisson(40.0, 32 * 32).astype(float)
    return PrivateFrequencyMatrix.from_packed(
        packed_from_intervals(intervals, noisy, shape), method="grid"
    )


class TestWarm:
    """``Engine.warm`` builds every cache the engine's routes read."""

    def test_builds_the_level_table_auto_reads(self):
        private = level_private()
        engine = Engine(private)
        assert private.packed._level is None
        engine.warm()
        table = private.packed._level
        assert table
        assert engine.level_table() is table

    def test_spawns_the_resident_pool(self, private):
        config = EngineConfig(n_shards=2, shard_executor="resident")
        with Engine(private, config) as engine:
            assert engine.pool_stats() is None
            engine.warm()
            assert engine.pool_stats() is not None

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(plan=PLAN_BROADCAST),
            EngineConfig(plan=PLAN_DENSE),
            EngineConfig(plan=PLAN_SHARDED),
        ],
        ids=["broadcast", "dense", "sharded"],
    )
    def test_forced_plan_builds_nothing(self, config):
        private = level_private()
        engine = Engine(private, config)
        engine.warm()
        assert private.packed._level is None
        assert private._prefix_cache is None
        assert engine.pool_stats() is None

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(n_shards=2, shard_executor="resident"),
        ],
        ids=["auto", "resident"],
    )
    def test_dense_backed_builds_nothing(self, config):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8, 8)))
        engine = Engine(dense, config)
        engine.warm()
        assert dense._prefix_cache is None
        assert engine.pool_stats() is None


class TestConfigThresholds:
    """The planner's module-constant thresholds actually steer it."""

    def test_dense_switch_factor(self, private, monkeypatch):
        lows, highs = random_bounds((64, 64), 50, np.random.default_rng(5))
        engine = Engine(private)
        # An enormous factor forbids densifying; a zero-ish one forces it.
        monkeypatch.setattr(engine_module, "DENSE_SWITCH_FACTOR", 1e12)
        assert engine.plan_queries(lows, highs) != PLAN_DENSE
        monkeypatch.setattr(engine_module, "DENSE_SWITCH_FACTOR", 1e-12)
        assert engine.plan_queries(lows, highs) == PLAN_DENSE

    def test_dense_switch_max_cells(self, private, monkeypatch):
        lows, highs = random_bounds((64, 64), 5000, np.random.default_rng(6))
        monkeypatch.setattr(engine_module, "DENSE_SWITCH_FACTOR", 1e-12)
        monkeypatch.setattr(engine_module, "DENSE_SWITCH_MAX_CELLS", 1)
        assert Engine(private).plan_queries(lows, highs) != PLAN_DENSE

    def test_prune_thresholds(self, monkeypatch):
        # Tiny queries against 4096 partitions: the default rule prunes.
        private = grid_private(shape=(256, 256), m=64)
        lows, highs = random_bounds(
            (256, 256), 40, np.random.default_rng(7), extent=2
        )
        assert Engine(private).plan_queries(lows, highs) == PLAN_PRUNED
        # Raising min_partitions above k disables pruning...
        monkeypatch.setattr(
            interval_index, "DEFAULT_PLAN_COST", PlanCost(min_partitions=10_000)
        )
        assert Engine(private).plan_queries(lows, highs) == PLAN_BROADCAST
        # ...and the forced-pruned fallback obeys the same rule.
        answer = Engine(private, EngineConfig(plan=PLAN_PRUNED)).answer(
            QueryRequest(lows, highs)
        )
        assert answer.plan == PLAN_BROADCAST

    @pytest.mark.parametrize("q", [0, 1])
    def test_forced_pruned_below_min_partitions_names_broadcast(self, q):
        # 16 partitions, under the rule's threshold: a forced pruned
        # runs broadcast, and an empty batch names that plan too.
        private = grid_private(m=4)
        assert private.n_partitions < (
            interval_index.DEFAULT_PLAN_COST.min_partitions
        )
        engine = Engine(private, EngineConfig(plan=PLAN_PRUNED))
        lows = np.zeros((q, 2), dtype=np.int64)
        highs = lows + 5
        assert engine.plan_queries(lows, highs) == PLAN_BROADCAST
        answer = engine.answer(QueryRequest(lows, highs))
        assert answer.plan == PLAN_BROADCAST
        np.testing.assert_array_equal(
            answer.answers, Engine(private).answer_arrays(lows, highs)
        )

    def test_prune_thresholds_reach_shards(self, monkeypatch):
        private = grid_private(shape=(256, 256), m=64)
        lows, highs = random_bounds(
            (256, 256), 40, np.random.default_rng(8), extent=2
        )
        request = QueryRequest(lows, highs)
        engine = Engine(private, EngineConfig(n_shards=2))
        sharded = engine.answer(request)
        assert PLAN_PRUNED in sharded.shard_plans  # default rule prunes shards
        monkeypatch.setattr(
            interval_index, "DEFAULT_PLAN_COST", PlanCost(min_partitions=10_000)
        )
        blunt = engine.answer(request)
        assert all(p != PLAN_PRUNED for p in blunt.shard_plans)
        np.testing.assert_allclose(
            sharded.answers, blunt.answers, rtol=0, atol=1e-9
        )


class TestRequestObjects:
    def test_from_boxes_round_trip(self, private):
        boxes = [((0, 5), (0, 5)), ((2, 60), (3, 61))]
        request = QueryRequest.from_boxes(boxes, workload="boxed")
        assert request.n_queries == len(request) == 2
        answer = Engine(private).answer(request)
        np.testing.assert_array_equal(
            answer.answers, private.answer_many(boxes)
        )

    def test_from_boxes_empty(self):
        request = QueryRequest.from_boxes([])
        assert request.n_queries == 0

    def test_scalar_bounds_are_query_errors(self, private):
        # A 0-d bound has no query count: a QueryError, not IndexError.
        with pytest.raises(QueryError, match="scalar"):
            Engine(private).answer(QueryRequest(5, 5))
        with pytest.raises(QueryError, match="scalar"):
            QueryRequest(5, [[1, 1]])
        for config in (EngineConfig(), EngineConfig(n_shards=2)):
            engine = Engine(private, config)
            with pytest.raises(QueryError, match="shape"):
                engine.answer_arrays(5, 5)
            with pytest.raises(QueryError, match="shape"):
                engine.plan_queries(np.int64(5), np.int64(5))

    def test_engine_used_by_sanitizer_output(self):
        # End to end: a real sanitizer's matrix through the facade.
        rng = np.random.default_rng(9)
        matrix = FrequencyMatrix(rng.poisson(3.0, (24, 24)).astype(float))
        private = get_sanitizer("ag").sanitize(matrix, 0.5, 7)
        lows, highs = random_bounds((24, 24), 15, rng)
        answer = Engine(private).answer(QueryRequest(lows, highs))
        expected = np.array([
            private.answer(tuple(zip(lo, hi)))
            for lo, hi in zip(lows, highs)
        ])
        np.testing.assert_allclose(
            answer.answers, expected, rtol=1e-9, atol=1e-6
        )
