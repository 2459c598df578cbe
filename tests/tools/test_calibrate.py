"""Tests for tools/calibrate.py — threshold suggestions, never applied."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CALIBRATE = ROOT / "tools" / "calibrate.py"

_spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)

#: A synthetic artifact with easy round numbers: q=1000, k=1000,
#: cells=10_000; broadcast pair cost 1e-6 s; dense total 0.1 s ->
#: break-even at q*k = 1e5 pairs = 10x the cell count.
FULL_ARTIFACT = {
    "shape": [100, 100],
    "n_partitions": 1000,
    "n_queries": 1000,
    "kernel_seconds": 1.0,
    "auto_seconds": 0.1,
    "auto_plan": "dense",
    "broadcast_seconds_small": 1.0,
    "pruned_seconds_small": 0.1,
    "small_query_candidate_fraction": 0.01,
}

#: A synthetic level-table artifact: q=100, k=1000, d=3; a broadcast
#: element op costs 300 us / (100 * 1000 * 3) = 1 ns.  Level 1 (10
#: groups, 2**2 + 1 elements each) costs 30 us / 5000 = 6 ns per
#: element, level 2 (40 groups, 2 + 2 each) 32 us / 16000 = 2 ns.
LEVEL_ARTIFACT = {
    "shape": [10, 10, 10],
    "n_partitions": 1000,
    "batch_queries": 100,
    "chosen_level": 1,
    "broadcast_batch_us": 300.0,
    "levels": {
        "1": {"groups": 10, "batch_us": 30.0},
        "2": {"groups": 40, "batch_us": 32.0, "batch_us_min": 16.0,
              "batch_us_max": 48.0},
    },
}


class TestSuggest:
    def test_dense_factor_from_breakeven(self):
        out = calibrate.suggest(FULL_ARTIFACT)
        assert out["evidence"]["dense_breakeven_factor"] == pytest.approx(10.0)
        assert out["DENSE_SWITCH_FACTOR"] == pytest.approx(
            10.0 / calibrate.DENSE_HEADROOM
        )

    def test_prune_factor_from_pair_ratio(self):
        out = calibrate.suggest(FULL_ARTIFACT)
        # est pairs = 0.01 * 1e6 + 1000 * 64 = 74_000; gathered pair
        # cost = 0.1 / 74e3; contiguous = 1.0 / 1e6.
        expected_ratio = (0.1 / 74_000.0) / (1.0 / 1_000_000.0)
        assert out["evidence"][
            "gathered_vs_contiguous_pair_ratio"
        ] == pytest.approx(expected_ratio, abs=0.01)
        assert out["PRUNE_SAFETY_FACTOR"] == pytest.approx(
            expected_ratio * calibrate.PRUNE_HEADROOM, abs=0.02
        )

    def test_suggestions_floor_at_one(self):
        artifact = dict(FULL_ARTIFACT, auto_seconds=1e-9,
                        pruned_seconds_small=1e-9)
        out = calibrate.suggest(artifact)
        assert out["DENSE_SWITCH_FACTOR"] >= 1.0
        assert out["PRUNE_SAFETY_FACTOR"] >= 1.0

    def test_missing_series_skipped(self):
        partial = {
            k: v for k, v in FULL_ARTIFACT.items()
            if not k.startswith(("broadcast_", "pruned_", "small_"))
        }
        out = calibrate.suggest(partial)
        assert "DENSE_SWITCH_FACTOR" in out
        assert "PRUNE_SAFETY_FACTOR" not in out
        assert "no suggestions" not in calibrate.render(out)

    def test_non_dense_auto_plan_skips_dense_series(self):
        out = calibrate.suggest(dict(FULL_ARTIFACT, auto_plan="broadcast"))
        assert "DENSE_SWITCH_FACTOR" not in out

    def test_level_element_cost_at_the_chosen_level(self):
        out = calibrate.suggest(FULL_ARTIFACT, LEVEL_ARTIFACT)
        assert out["evidence"]["level_1_element_cost"] == pytest.approx(6.0)
        assert out["evidence"]["level_2_element_cost"] == pytest.approx(2.0)
        assert out["LEVEL_ELEMENT_COST"] == pytest.approx(6.0)
        # The spread over repeated runs, where the artifact records it.
        assert out["evidence"]["level_2_element_cost_min"] == pytest.approx(1.0)
        assert out["evidence"]["level_2_element_cost_max"] == pytest.approx(3.0)
        assert "level_1_element_cost_min" not in out["evidence"]
        chosen_2 = dict(LEVEL_ARTIFACT, chosen_level=2)
        assert calibrate.suggest({}, chosen_2)["LEVEL_ELEMENT_COST"] == (
            pytest.approx(2.0)
        )
        # Without the level artifact, or with one lacking a series,
        # nothing is suggested for it.
        assert "LEVEL_ELEMENT_COST" not in calibrate.suggest(FULL_ARTIFACT)
        partial = {k: v for k, v in LEVEL_ARTIFACT.items() if k != "levels"}
        assert "LEVEL_ELEMENT_COST" not in calibrate.suggest({}, partial)

    def test_empty_artifact_renders_no_suggestions(self):
        out = calibrate.suggest({})
        assert "no suggestions" in calibrate.render(out)

    def test_suggested_overrides_are_valid_engine_config(self):
        # Each suggestion names a real constant of the file it points
        # the reader to edit.
        out = calibrate.suggest(FULL_ARTIFACT, LEVEL_ARTIFACT)
        names = sorted(k for k in out if k != "evidence")
        assert names == sorted(calibrate.CONSTANT_FILES)
        for name in names:
            path = Path(calibrate.CONSTANT_FILES[name])
            assert (ROOT / path).is_file()
            module = importlib.import_module(
                ".".join(path.relative_to("src").with_suffix("").parts)
            )
            assert isinstance(getattr(module, name), (int, float))


class TestCommandLine:
    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(CALIBRATE), *args],
            capture_output=True, text=True,
        )

    def test_prints_suggestions_for_artifact(self, tmp_path):
        artifact = tmp_path / "BENCH_query_engine.json"
        artifact.write_text(json.dumps(FULL_ARTIFACT))
        proc = self.run_tool("--artifact", str(artifact))
        assert proc.returncode == 0
        assert (
            "suggested DENSE_SWITCH_FACTOR = 2.5 (src/repro/engine/engine.py)"
            in proc.stdout
        )
        assert "suggested PRUNE_SAFETY_FACTOR = " in proc.stdout
        assert "REPRO_ENGINE_" not in proc.stdout
        assert "nothing was applied" in proc.stdout

    def test_reads_the_level_artifact_beside_the_artifact(self, tmp_path):
        artifact = tmp_path / "BENCH_query_engine.json"
        artifact.write_text(json.dumps(FULL_ARTIFACT))
        proc = self.run_tool("--artifact", str(artifact))
        assert "LEVEL_ELEMENT_COST" not in proc.stdout
        level = tmp_path / calibrate.LEVEL_ARTIFACT
        level.write_text(json.dumps(LEVEL_ARTIFACT))
        proc = self.run_tool("--artifact", str(artifact))
        assert proc.returncode == 0
        assert "measured  level_2_element_cost = 2\n" in proc.stdout
        assert (
            "measured  level_2_element_cost = 2\n"
            "measured  level_2_element_cost_max = 3\n"
            "measured  level_2_element_cost_min = 1\n"
        ) in proc.stdout
        assert (
            "suggested LEVEL_ELEMENT_COST = 6 (src/repro/engine/engine.py)"
            in proc.stdout
        )
        level.write_text("[1, 2]")
        proc = self.run_tool("--artifact", str(artifact))
        assert proc.returncode == 1
        assert "unreadable" in proc.stderr

    def test_artifact_without_suggestions_fails(self, tmp_path):
        artifact = tmp_path / "BENCH_query_engine.json"
        artifact.write_text(json.dumps({"shape": [100, 100]}))
        proc = self.run_tool("--artifact", str(artifact))
        assert proc.returncode == 1
        assert "no suggestions" in proc.stdout

    def test_missing_artifact_fails_cleanly(self, tmp_path):
        proc = self.run_tool("--artifact", str(tmp_path / "nope.json"))
        assert proc.returncode == 1
        assert "no artifact" in proc.stderr

    def test_corrupt_artifact_fails_cleanly(self, tmp_path):
        bad = tmp_path / "BENCH_query_engine.json"
        bad.write_text("{not json")
        proc = self.run_tool("--artifact", str(bad))
        assert proc.returncode == 1
        assert "unreadable" in proc.stderr
