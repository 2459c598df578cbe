"""EngineConfig: validation, string overrides, cost-rule threading, and
the CLI's refusal of engine settings in the environment."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import _refuse_engine_env
from repro.core import QueryError, ValidationError
from repro.core.interval_index import DEFAULT_PLAN_COST
from repro.engine import ENGINE_PLANS, SHARD_EXECUTORS, EngineConfig

#: Variables of planner thresholds that were fields once and are module
#: constants now; like every engine variable, they must not be silently
#: ignored.
DELETED_THRESHOLD_VARS = [
    "REPRO_ENGINE_DENSE_SWITCH_FACTOR",
    "REPRO_ENGINE_DENSE_SWITCH_MAX_CELLS",
    "REPRO_ENGINE_PRUNE_MIN_PARTITIONS",
    "REPRO_ENGINE_PRUNE_OVERHEAD_PAIRS",
    "REPRO_ENGINE_PRUNE_SAFETY_FACTOR",
]


class TestDefaultsAndValidation:
    def test_defaults_mirror_module_constants(self):
        config = EngineConfig()
        assert [f.name for f in fields(config)] == [
            "plan", "n_shards", "shard_executor", "max_batch_size",
        ]
        assert config.plan_cost() is DEFAULT_PLAN_COST
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
        ("max_batch_size", 0),
    ])
    def test_numeric_fields_validated(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EngineConfig(**{field: value})

    def test_with_overrides_revalidates(self):
        config = EngineConfig()
        assert config.with_overrides(n_shards=4).n_shards == 4
        with pytest.raises(QueryError):
            config.with_overrides(plan="pruned", n_shards=4)


class TestStringOverrides:
    def test_parse_types(self):
        overrides = EngineConfig.parse_overrides(
            "plan=sharded, n_shards=4, shard_executor=serial,"
            "max_batch_size=32"
        )
        assert overrides == {
            "plan": "sharded",
            "n_shards": 4,
            "shard_executor": "serial",
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
    """Engine settings are not read from the environment: the CLI exits
    on any non-empty ``REPRO_ENGINE_*`` variable, naming the flag that
    replaces it, instead of silently ignoring it."""

    @pytest.mark.parametrize("name", [
        "REPRO_ENGINE_MAX_BATCH_LATECNY",  # a typo
        "REPRO_ENGINE_MAX_BATCH_LATENCY",  # a deleted knob
        "REPRO_ENGINE_plan",  # not even a spelling of a field
    ] + DELETED_THRESHOLD_VARS)
    def test_unknown_env_var_rejected(self, name):
        with pytest.raises(SystemExit, match="--engine-config") as exc:
            _refuse_engine_env({name: "5"})
        assert name in str(exc.value)

    def test_empty_unknown_env_var_is_unset(self):
        _refuse_engine_env({"REPRO_ENGINE_MAX_BATCH_LATECNY": "", "HOME": "/"})

    def test_empty_and_absent_vars_keep_base(self):
        # An empty variable is unset: the CLI runs, and its config comes
        # from --engine-config alone.
        _refuse_engine_env({"REPRO_ENGINE_PLAN": ""})
        _refuse_engine_env({})

    def test_real_environ_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MAX_BATCH_SIZE", "35")
        with pytest.raises(SystemExit, match="REPRO_ENGINE_MAX_BATCH_SIZE"):
            _refuse_engine_env()


class TestDocumentedFields:
    def test_serving_doc_table_lists_exactly_the_fields(self):
        # docs/SERVING.md's EngineConfig table must name every field,
        # and nothing else, so a deleted knob cannot linger in the docs.
        doc = Path(__file__).resolve().parents[2] / "docs" / "SERVING.md"
        section = doc.read_text().split("### Engine knobs")[1]
        section = section.split("\n#")[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, re.M)
        assert sorted(rows) == sorted(f.name for f in fields(EngineConfig))

    def test_docs_name_only_current_env_vars(self):
        # No engine setting is read from the environment, so neither
        # README.md nor docs/*.md may tell a reader to set one there.
        root = Path(__file__).resolve().parents[2]
        for doc in [root / "README.md", *sorted(root.glob("docs/*.md"))]:
            named = sorted(set(re.findall(r"REPRO_ENGINE_\w*", doc.read_text())))
            assert not named, f"{doc.name}: {named}"
