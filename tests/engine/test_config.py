"""EngineConfig: validation, string/env overrides, cost-rule threading."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import PlanCost, QueryError, ValidationError
from repro.core.interval_index import (
    PRUNE_MIN_PARTITIONS,
    PRUNE_OVERHEAD_PAIRS,
    PRUNE_SAFETY_FACTOR,
)
from repro.core.private_matrix import (
    DENSE_SWITCH_FACTOR,
    DENSE_SWITCH_MAX_CELLS,
)
from repro.engine import ENGINE_PLANS, SHARD_EXECUTORS, EngineConfig


class TestDefaultsAndValidation:
    def test_defaults_mirror_module_constants(self):
        config = EngineConfig()
        assert config.dense_switch_factor == DENSE_SWITCH_FACTOR
        assert config.dense_switch_max_cells == DENSE_SWITCH_MAX_CELLS
        assert config.prune_min_partitions == PRUNE_MIN_PARTITIONS
        assert config.prune_overhead_pairs == PRUNE_OVERHEAD_PAIRS
        assert config.prune_safety_factor == PRUNE_SAFETY_FACTOR
        assert config.plan is None and not config.wants_sharding

    @pytest.mark.parametrize("plan", ENGINE_PLANS)
    def test_known_plans_accepted(self, plan):
        assert EngineConfig(plan=plan).plan == plan

    def test_unknown_plan_rejected(self):
        with pytest.raises(QueryError, match="unknown packed query plan"):
            EngineConfig(plan="sideways")

    def test_sharding_knobs_imply_sharded_only(self):
        assert EngineConfig(n_shards=3).wants_sharding
        assert EngineConfig(shard_executor="serial").wants_sharding
        assert EngineConfig(shard_executor="resident").wants_sharding
        assert EngineConfig(plan="sharded", n_shards=3).n_shards == 3
        with pytest.raises(QueryError, match="sharded"):
            EngineConfig(plan="broadcast", n_shards=3)
        with pytest.raises(QueryError, match="n_shards"):
            EngineConfig(n_shards=0)

    @pytest.mark.parametrize("field,value", [
        ("dense_switch_factor", 0),
        ("prune_safety_factor", -1.0),
        ("prune_overhead_pairs", 0),
        ("dense_switch_max_cells", -1),
        ("prune_min_partitions", -5),
        ("max_batch_size", 0),
    ])
    def test_numeric_fields_validated(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EngineConfig(**{field: value})

    def test_plan_cost_carries_prune_fields(self):
        config = EngineConfig(
            prune_min_partitions=9,
            prune_overhead_pairs=1.5,
            prune_safety_factor=2.0,
        )
        assert config.plan_cost() == PlanCost(
            min_partitions=9, overhead_pairs=1.5, safety_factor=2.0
        )

    def test_with_overrides_revalidates(self):
        config = EngineConfig()
        assert config.with_overrides(n_shards=4).n_shards == 4
        with pytest.raises(QueryError):
            config.with_overrides(plan="pruned", n_shards=4)


class TestStringOverrides:
    def test_parse_types(self):
        overrides = EngineConfig.parse_overrides(
            "plan=sharded, n_shards=4, prune_safety_factor=2.5,"
            "max_batch_size=32"
        )
        assert overrides == {
            "plan": "sharded",
            "n_shards": 4,
            "prune_safety_factor": 2.5,
            "max_batch_size": 32,
        }

    def test_from_string_layers_on_base(self):
        base = EngineConfig(max_batch_size=16)
        config = EngineConfig.from_string("plan=dense", base=base)
        assert config.plan == "dense" and config.max_batch_size == 16

    def test_none_clears_optional_field(self):
        base = EngineConfig(n_shards=4)
        assert EngineConfig.from_string("n_shards=none", base=base).n_shards is None

    def test_none_rejected_for_required_fields(self):
        # Clearing a threshold has no meaning; it must be a clean
        # ValidationError, not a TypeError out of __post_init__.
        with pytest.raises(ValidationError, match="cannot be cleared"):
            EngineConfig.from_string("max_batch_size=none")
        with pytest.raises(ValidationError, match="cannot be cleared"):
            EngineConfig.from_env(
                environ={"REPRO_ENGINE_DENSE_SWITCH_FACTOR": "none"}
            )

    def test_empty_string_is_noop(self):
        assert EngineConfig.from_string("") == EngineConfig()

    @pytest.mark.parametrize("text,match", [
        ("plan", "key=value"),
        ("bogus=1", "unknown engine-config field"),
        ("n_shards=lots", "bad value"),
    ])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValidationError, match=match):
            EngineConfig.parse_overrides(text)

    @pytest.mark.parametrize("mode", SHARD_EXECUTORS)
    def test_shard_executor_named_modes_parse(self, mode):
        config = EngineConfig.from_string(f"shard_executor={mode}")
        assert config.shard_executor == mode
        assert config.wants_sharding  # executor alone selects sharding

    def test_shard_executor_unknown_name_rejected(self):
        # Parses (it's a known string field) but fails config
        # validation, like an unknown plan name.
        with pytest.raises(QueryError, match="unknown shard_executor"):
            EngineConfig.from_string("shard_executor=turbo")
        with pytest.raises(QueryError, match="unknown shard_executor"):
            EngineConfig(shard_executor="turbo")

    def test_shard_executor_cleared_with_none(self):
        base = EngineConfig(shard_executor="resident")
        cleared = EngineConfig.from_string("shard_executor=none", base=base)
        assert cleared.shard_executor is None
        assert not cleared.wants_sharding


class TestEnvOverrides:
    def test_env_vars_override(self):
        environ = {
            "REPRO_ENGINE_PLAN": "sharded",
            "REPRO_ENGINE_N_SHARDS": "5",
            "REPRO_ENGINE_MAX_BATCH_SIZE": "64",
        }
        config = EngineConfig.from_env(environ=environ)
        assert config.plan == "sharded"
        assert config.n_shards == 5
        assert config.max_batch_size == 64

    @pytest.mark.parametrize("name", [
        "REPRO_ENGINE_MAX_BATCH_LATECNY",  # a typo
        "REPRO_ENGINE_MAX_BATCH_LATENCY",  # a deleted knob
        "REPRO_ENGINE_plan",  # names are upper case
    ])
    def test_unknown_env_var_rejected(self, name):
        with pytest.raises(ValidationError, match="settable fields") as exc:
            EngineConfig.from_env(environ={name: "5"})
        assert name in str(exc.value)

    def test_empty_unknown_env_var_is_unset(self):
        environ = {"REPRO_ENGINE_MAX_BATCH_LATECNY": "", "HOME": "/"}
        assert EngineConfig.from_env(environ=environ) == EngineConfig()

    def test_empty_and_absent_vars_keep_base(self):
        base = EngineConfig(n_shards=2)
        config = EngineConfig.from_env(
            base=base, environ={"REPRO_ENGINE_PLAN": ""}
        )
        assert config == base

    def test_real_environ_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_PRUNE_SAFETY_FACTOR", "3.5")
        assert EngineConfig.from_env().prune_safety_factor == 3.5


class TestDocumentedFields:
    def test_serving_doc_table_lists_exactly_the_fields(self):
        # docs/SERVING.md's EngineConfig table must name every field
        # with its env var, and nothing else, so a deleted knob cannot
        # linger in the docs.
        doc = Path(__file__).resolve().parents[2] / "docs" / "SERVING.md"
        section = doc.read_text().split("### Engine knobs")[1]
        section = section.split("\n#")[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, re.M)
        assert sorted(rows) == sorted(
            (f.name, "REPRO_ENGINE_" + f.name.upper())
            for f in fields(EngineConfig)
        )
