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

    def test_empty_artifact_renders_no_suggestions(self):
        out = calibrate.suggest({})
        assert "no suggestions" in calibrate.render(out)

    def test_suggested_overrides_are_valid_engine_config(self):
        # Each suggestion names a real constant of the file it points
        # the reader to edit.
        out = calibrate.suggest(FULL_ARTIFACT)
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
