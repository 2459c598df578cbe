"""The benchmark's own tests: metric contract, answer checks, determinism.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.  The
workload runs use a tiny matrix and sub-second windows.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import (  # noqa: E402
    release,
    run,
    serve,
    sweep,
    traffic,
    workloads,
)
from perfbench.trace import Tracer  # noqa: E402
from perfbench.loadgen import Sample  # noqa: E402
from perfbench.verify import mismatches  # noqa: E402
from repro.core.prefix_sum import PrefixSumTable  # noqa: E402
from repro.engine import Engine, EngineConfig  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink data, traffic and windows so a workload runs in seconds."""
    monkeypatch.setattr(release, "N_TRAJECTORIES", 3000)
    monkeypatch.setattr(release, "CELL_BUDGET", 4096)
    monkeypatch.setattr(release, "SETUP_REPEATS", 1)
    monkeypatch.setattr(release, "EVAL_QUERIES_PER_WORKLOAD", 20)
    monkeypatch.setattr(traffic, "POINT_RATE", 100.0)
    monkeypatch.setattr(traffic, "BATCH_QUERIES", (8, 16))
    monkeypatch.setattr(serve, "BATCH_POOL", 16)
    monkeypatch.setattr(serve, "ACCURACY_QUERIES", 400)
    monkeypatch.setattr(serve, "WARMUP_SECONDS", 0.1)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    stamp = json.loads(lines[0])["perfbench"]
    assert stamp["seed"] == 3 and stamp["machine"]["cores"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "serve_point", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_resource_tracker_does_not_outlive_the_run():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    run.stop_resource_tracker()  # a second call finds nothing to stop


def test_check_rejects_a_perturbed_answer(tiny):
    inputs = release.simulate(np.random.default_rng(0))
    matrix = inputs.builder.build(inputs.dataset)
    private = release.sanitize(matrix, "daf_entropy", 0.5, np.random.default_rng(0))
    requests = traffic.batch_requests(matrix.shape, 3, np.random.default_rng(1))
    reference = serve.expected(
        requests, Engine(private, EngineConfig(plan="dense")), PrefixSumTable(matrix.data)
    )
    samples = [
        Sample(i, 0.0, 0.0, 0.0, 200, Engine(private).answer_arrays(r.lows, r.highs).tolist())
        for i, r in enumerate(requests)
    ]
    clean = serve.check(samples, reference)
    assert clean.failed == 0 and clean.mismatched == 0

    perturbed = list(samples[1].answers)
    perturbed[0] += 1e-6 * max(1.0, abs(perturbed[0]))
    samples[1] = Sample(1, 0.0, 0.0, 0.0, 200, perturbed)
    samples.append(Sample(2, 0.0, 0.0, 0.0, 503))
    bad = serve.check(samples, reference)
    assert bad.mismatched == 1
    assert bad.statuses == Counter({200: 3, 503: 1})
    assert bad.failed == 2


def test_mismatches_counts_wrong_shape_and_nan_as_wrong():
    expected = np.array([1.0, 2.0, 3.0])
    assert mismatches(expected, [1.0, 2.0, 3.0 + 1e-12]) == 0
    assert mismatches(expected, [1.0, 2.0]) == 3
    assert mismatches(expected, [1.0, float("nan"), 3.0]) == 3
    assert mismatches(expected, [1.0, 2.0, 3.1]) == 1


def test_reload_check_rejects_a_tampered_release(tiny):
    inputs = release.simulate(np.random.default_rng(0))
    matrix = inputs.builder.build(inputs.dataset)
    released = sweep.release_all(matrix, seed=0, tracer=Tracer())
    assert sweep.reload_failures(released) == 0
    item = next(r for r in released.releases if r.method == "daf_entropy")
    payload = json.loads(item.text)
    payload["partitions"][0]["noisy_count"] += 1.0
    item.text = json.dumps(payload)
    assert sweep.reload_failures(released) == 1


def test_open_loop_schedule_is_identical_for_equal_seeds():
    a = traffic.poisson_schedule(250.0, 4.0, seed=11)
    b = traffic.poisson_schedule(250.0, 4.0, seed=11)
    c = traffic.poisson_schedule(250.0, 4.0, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[: len(c)], c[: len(a)])
    assert np.all(np.diff(a) > 0) and a[-1] < 4.0
    # Poisson arrivals at 250/s over 4 s: 1000 expected, sd ~32.
    assert 850 < len(a) < 1150


def test_traffic_is_identical_for_equal_seeds():
    shape = (11,) * 6
    for make in (traffic.point_requests, traffic.batch_requests):
        a = make(shape, 8, np.random.default_rng(5))
        b = make(shape, 8, np.random.default_rng(5))
        assert [r.body for r in a] == [r.body for r in b]
        for r in a:
            assert np.all(r.lows <= r.highs)
            assert np.all(r.lows >= 0) and np.all(r.highs < 11)
