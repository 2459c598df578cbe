"""The level prefix table: per-group prefix tables under shared bounds.

:class:`~repro.core.prefix_sum.LevelPrefixTable` answers a batch from
one prefix table per group of partitions that share their bounds on the
leading axes.  Its answers must agree with the broadcast kernel's
int64/float64 arithmetic within the served answers' rule (1e-9 relative
to the answer, with a floor of 1), and one query's answer must have the
same bits in any batch and any tile.  Auto routing reads it on a
partition-backed matrix whose full table exceeds
:data:`~repro.core.prefix_sum.LEVEL_TABLE_BYTES`; a forced ``dense``
plan still reads the full table.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_overlap_kernels import (
    random_packed,
    random_queries,
    reference_broadcast,
)

from repro.core import (
    FrequencyMatrix,
    LevelPrefixTable,
    PrivateFrequencyMatrix,
    QueryError,
    packed_from_intervals,
)
from repro.core import prefix_sum
from repro.core.interval_index import IntervalIndex
from repro.core.packed import DEFAULT_TILE_ELEMENTS
from repro.engine import Engine, EngineConfig
from repro.engine import engine as engine_module
from repro.methods import get_sanitizer
from repro.methods._grid import axis_intervals

#: The served answers' tolerance (``perfbench/verify.py``).
TOLERANCE = 1e-9


def assert_close(got, expected):
    scale = np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(got - expected) <= TOLERANCE * scale)


def daf_private():
    """A served-like release: DAF over a 6-D matrix, 2 782 partitions.
    Its full table (4.3 MB) is over the budget; level 2 (9 groups)
    fits."""
    rng = np.random.default_rng(0)
    matrix = FrequencyMatrix(rng.poisson(0.2, (8,) * 6).astype(float))
    return get_sanitizer("daf_entropy").sanitize(matrix, 0.5, 1)


@pytest.fixture(scope="module")
def daf():
    return daf_private()


@pytest.fixture
def fresh_daf():
    """A private matrix with no table built yet."""
    return daf_private()


def grid_private(shape, m):
    intervals = [axis_intervals(s, m) for s in shape]
    noisy = np.random.default_rng(3).poisson(40.0, m ** len(shape))
    packed = packed_from_intervals(intervals, noisy.astype(float), shape)
    return PrivateFrequencyMatrix.from_packed(packed, method="grid")


def stacked_bytes(shape, level, groups):
    return 8 * groups * int(np.prod([s + 1 for s in shape[level:]]))


class TestAnswers:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.lists(st.integers(1, 7), min_size=2, max_size=4),
        n_splits=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_every_level_matches_the_broadcast_reference(
        self, shape, n_splits, seed
    ):
        rng = np.random.default_rng(seed)
        packed = random_packed(tuple(shape), rng, n_splits)
        lows, highs = random_queries(tuple(shape), rng, 40)
        expected = reference_broadcast(packed, lows, highs)
        for level in range(1, len(shape)):
            table = LevelPrefixTable(packed, level)
            assert_close(table.query_arrays(lows, highs), expected)

    def test_served_like_release_matches_broadcast(self, daf):
        rng = np.random.default_rng(1)
        lows, highs = random_queries(daf.shape, rng, 300)
        expected = reference_broadcast(daf.packed, lows, highs)
        for level in range(1, daf.ndim):
            table = LevelPrefixTable(daf.packed, level)
            assert_close(table.query_arrays(lows, highs), expected)

    @pytest.mark.parametrize("level", [1, 2, 3, 5])
    def test_batched_is_alone_bit_for_bit(self, daf, level):
        table = LevelPrefixTable(daf.packed, level)
        rng = np.random.default_rng(level)
        lows, highs = random_queries(daf.shape, rng, 150)
        batched = table.query_arrays(lows, highs)
        alone = np.concatenate([
            table.query_arrays(lows[i:i + 1], highs[i:i + 1])
            for i in range(len(lows))
        ])
        np.testing.assert_array_equal(alone, batched)
        per_query = table.n_groups * table.n_corners
        for tile_elements in (1, 64 * per_query, DEFAULT_TILE_ELEMENTS):
            np.testing.assert_array_equal(
                table.query_arrays(lows, highs, tile_elements=tile_elements),
                batched,
            )
        cuts = np.sort(rng.choice(np.arange(1, len(lows)), 6, replace=False))
        split = np.concatenate([
            table.query_arrays(lo, hi)
            for lo, hi in zip(np.split(lows, cuts), np.split(highs, cuts))
        ])
        np.testing.assert_array_equal(split, batched)

    def test_empty_batch(self, daf):
        table = LevelPrefixTable(daf.packed, 2)
        empty = np.empty((0, daf.ndim), dtype=np.int64)
        assert table.query_arrays(empty, empty).shape == (0,)

    @pytest.mark.parametrize("level", [0, 6])
    def test_level_outside_one_to_d_minus_one_is_refused(self, daf, level):
        with pytest.raises(QueryError, match="level"):
            LevelPrefixTable(daf.packed, level)


class TestLevelChoice:
    def test_groups_share_their_leading_bounds(self, daf):
        packed = daf.packed
        for level in range(1, daf.ndim):
            table = LevelPrefixTable(packed, level)
            prefixes = {
                (tuple(lo[:level]), tuple(hi[:level]))
                for lo, hi in zip(packed.lo.tolist(), packed.hi.tolist())
            }
            assert table.n_groups == len(prefixes)
            assert table.nbytes == stacked_bytes(
                daf.shape, level, table.n_groups
            )

    def test_shallowest_level_that_fits_is_chosen(self, daf, monkeypatch):
        groups = {
            level: LevelPrefixTable(daf.packed, level).n_groups
            for level in range(1, daf.ndim)
        }
        sizes = {
            level: stacked_bytes(daf.shape, level, n)
            for level, n in groups.items()
        }
        for budget_level in range(1, daf.ndim):
            budget = sizes[budget_level]
            monkeypatch.setattr(prefix_sum, "LEVEL_TABLE_BYTES", budget)
            table = LevelPrefixTable.for_packed(daf.packed)
            fitting = [lv for lv, size in sizes.items() if size <= budget]
            assert table.level == min(fitting)
            assert table.n_groups == groups[table.level]

    def test_no_table_when_no_level_fits(self, daf, monkeypatch):
        smallest = min(
            stacked_bytes(
                daf.shape, lv, LevelPrefixTable(daf.packed, lv).n_groups
            )
            for lv in range(1, daf.ndim)
        )
        monkeypatch.setattr(prefix_sum, "LEVEL_TABLE_BYTES", smallest - 1)
        assert LevelPrefixTable.for_packed(daf.packed) is None

    def test_no_table_when_the_full_table_fits(self, daf, monkeypatch):
        full = stacked_bytes(daf.shape, 0, 1)
        monkeypatch.setattr(prefix_sum, "LEVEL_TABLE_BYTES", full)
        assert LevelPrefixTable.for_packed(daf.packed) is None

    def test_one_dimensional_matrix_has_none(self):
        rng = np.random.default_rng(0)
        packed = random_packed((200_000,), rng, 30)
        assert LevelPrefixTable.for_packed(packed) is None


class TestRouting:
    def count_candidate_passes(self, monkeypatch):
        calls = []
        original = IntervalIndex.candidate_slices

        def counted(index, lows, highs):
            calls.append(len(lows))
            return original(index, lows, highs)

        monkeypatch.setattr(IntervalIndex, "candidate_slices", counted)
        return calls

    def test_auto_reads_the_level_table_without_a_candidate_pass(
        self, fresh_daf, monkeypatch
    ):
        calls = self.count_candidate_passes(monkeypatch)
        rng = np.random.default_rng(2)
        for q in (1, 4, 200):
            lows, highs = random_queries(fresh_daf.shape, rng, q)
            answer = Engine(fresh_daf).answer_arrays(lows, highs)
            assert Engine(fresh_daf).plan_queries(lows, highs) == "dense"
            assert_close(
                answer,
                reference_broadcast(fresh_daf.packed, lows, highs),
            )
        assert calls == []
        # Auto never built the over-budget full table.
        assert fresh_daf._prefix_cache is None
        assert Engine(fresh_daf).level_table().level == 2

    def test_forced_dense_reads_the_full_table(self, fresh_daf):
        rng = np.random.default_rng(3)
        lows, highs = random_queries(fresh_daf.shape, rng, 50)
        forced = Engine(fresh_daf, EngineConfig(plan="dense"))
        assert forced.level_table() is None
        answers = forced.answer_arrays(lows, highs)
        assert fresh_daf._prefix_cache is not None
        np.testing.assert_array_equal(
            answers, fresh_daf._prefix_table().query_arrays(lows, highs)
        )
        assert_close(answers, Engine(fresh_daf).answer_arrays(lows, highs))

    def test_candidate_pass_runs_when_pruned_could_win(self, monkeypatch):
        # 512 x 512 in 32 x 32 blocks: a level-1 table of 32 row groups.
        # A level price between pruned's floor (512 pairs) and
        # broadcast's k: single cells prune, full boxes read the table.
        private = grid_private((512, 512), 32)
        table = Engine(private).level_table()
        assert (table.level, table.n_groups) == (1, 32)
        pairs = 0.9 * private.n_partitions
        monkeypatch.setattr(
            engine_module, "LEVEL_ELEMENT_COST",
            pairs * private.ndim / table.price(),
        )
        calls = self.count_candidate_passes(monkeypatch)
        cells = np.random.default_rng(5).integers(0, 512, size=(20, 2))
        assert Engine(private).plan_queries(cells, cells) == "pruned"
        full = np.full((20, 2), 511)
        assert Engine(private).plan_queries(0 * full, full) == "dense"
        assert calls == [20, 20]
        lows, highs = random_queries(private.shape, np.random.default_rng(6), 30)
        assert_close(
            Engine(private).answer_arrays(lows, highs),
            reference_broadcast(private.packed, lows, highs),
        )

    def test_level_losing_to_broadcast_keeps_todays_plans(
        self, daf, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "LEVEL_ELEMENT_COST", 1e6)
        full = np.full((20, daf.ndim), 7, dtype=np.int64)
        assert Engine(daf).plan_queries(0 * full, full) == "broadcast"


class TestDerivedData:
    def test_pickled_matrix_does_not_carry_the_table(self, daf):
        assert daf.packed.level_table() is not None
        clone = pickle.loads(pickle.dumps(daf))
        assert clone.packed._level is None
        lows, highs = random_queries(daf.shape, np.random.default_rng(4), 20)
        np.testing.assert_array_equal(
            Engine(clone).answer_arrays(lows, highs),
            Engine(daf).answer_arrays(lows, highs),
        )

    def test_pickled_shard_does_not_carry_the_table(self, daf):
        shard = daf.packed.split_shards(2)[0]
        built = shard.packed.level_table()
        assert built is not None
        clone = pickle.loads(pickle.dumps(shard))
        assert clone.packed._level is None
        assert shard.packed.level_table() is built

    def test_dense_backed_matrix_has_no_level_table(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones((8,) * 6))
        assert Engine(dense).level_table() is None
