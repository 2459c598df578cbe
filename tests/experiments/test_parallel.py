"""Golden serial-equivalence suite for the parallel trial executor.

The contract licensed here is what every future scaling PR leans on:
``run_methods(..., n_jobs=k)`` must reproduce ``n_jobs=1`` *row for row*
— same reports (bit-identical floats), same partition counts, same row
order — for the same seed, across the grid, AG, quadtree, kd-tree and
DAF sanitizer families.  Only the wall-clock fields may differ.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core import FrequencyMatrix, ValidationError
from repro.experiments import (
    MethodSpec,
    ProcessPoolTrialExecutor,
    SerialExecutor,
    build_trial_tasks,
    default_method_specs,
    get_executor,
    merge_rows,
    resolve_n_jobs,
    run_methods,
)
from repro.experiments.parallel import _run_trial
from repro.queries import random_workload

#: One representative per sanitizer family named in the issue:
#: uniform grid, adaptive grid, quadtree, kd-tree, DAF.
GOLDEN_METHODS = ["eug", "ag", "quadtree", "kdtree", "daf_entropy"]

EPSILONS = [0.5, 1.0]
N_TRIALS = 2

#: The CI matrix exports this so the GitHub runner exercises exactly the
#: worker count it can schedule (see .github/workflows/ci.yml).
ENV_N_JOBS = int(os.environ.get("REPRO_TEST_N_JOBS", "2"))


@pytest.fixture(scope="module")
def matrix() -> FrequencyMatrix:
    rng = np.random.default_rng(20220707)
    return FrequencyMatrix(rng.poisson(3.0, size=(16, 16)).astype(float))


@pytest.fixture(scope="module")
def workloads(matrix):
    return [
        random_workload(matrix.shape, 12, np.random.default_rng(1), name="w1"),
        random_workload(matrix.shape, 12, np.random.default_rng(2), name="w2"),
    ]


def comparable(row):
    """Everything a row asserts except the wall-clock fields."""
    d = row.as_dict()
    d.pop("sanitize_seconds")
    d.pop("query_seconds")
    return d


def assert_rows_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert comparable(a) == comparable(b)
        assert a.report == b.report  # bit-identical floats, not approx
        assert a.n_partitions == b.n_partitions


class TestGoldenEquivalence:
    @pytest.fixture(scope="class")
    def serial_rows(self, matrix, workloads):
        return run_methods(
            matrix, default_method_specs(GOLDEN_METHODS), EPSILONS,
            workloads, n_trials=N_TRIALS, rng=2022, n_jobs=1,
        )

    def test_serial_is_rerunnable(self, matrix, workloads, serial_rows):
        again = run_methods(
            matrix, default_method_specs(GOLDEN_METHODS), EPSILONS,
            workloads, n_trials=N_TRIALS, rng=2022, n_jobs=1,
        )
        assert_rows_identical(serial_rows, again)

    @pytest.mark.parametrize("n_jobs", sorted({2, 4, ENV_N_JOBS}))
    def test_parallel_matches_serial(self, matrix, workloads, serial_rows, n_jobs):
        parallel_rows = run_methods(
            matrix, default_method_specs(GOLDEN_METHODS), EPSILONS,
            workloads, n_trials=N_TRIALS, rng=2022, n_jobs=n_jobs,
        )
        assert_rows_identical(serial_rows, parallel_rows)

    def test_row_order_is_grid_order(self, serial_rows, workloads):
        expected = [
            (method, eps, wl.name, trial)
            for method in GOLDEN_METHODS
            for eps in EPSILONS
            for trial in range(N_TRIALS)
            for wl in workloads
        ]
        observed = [
            (r.method, r.epsilon, r.workload, r.trial) for r in serial_rows
        ]
        assert observed == expected


class ScrambledExecutor(SerialExecutor):
    """Runs the tasks back to front, then restores submission order.

    A worst-case scheduler: if any trial's randomness leaked from
    execution order, this would diverge from the serial run.
    """

    def run_trials(self, matrix, workloads, tasks, extra=None):
        reversed_rows = super().run_trials(
            matrix, workloads, list(reversed(tasks)), extra
        )
        return list(reversed(reversed_rows))


class TestOrderIndependence:
    def test_scrambled_schedule_matches_serial(self, matrix, workloads):
        kwargs = dict(
            method_specs=default_method_specs(["eug", "daf_entropy"]),
            epsilons=EPSILONS, workloads=workloads,
            n_trials=N_TRIALS, rng=99,
        )
        serial = run_methods(matrix, n_jobs=1, **kwargs)
        scrambled = run_methods(matrix, executor=ScrambledExecutor(), **kwargs)
        assert_rows_identical(serial, scrambled)

    def test_run_trial_is_pure(self, matrix, workloads):
        tasks = build_trial_tasks(
            default_method_specs(["eug"]), [0.5], 2, entropy=1234
        )
        once = _run_trial(matrix, workloads, tasks[1])
        again = _run_trial(matrix, workloads, tasks[1])
        assert_rows_identical(once, again)


class TestTaskGrid:
    def test_spawn_keys_are_grid_coordinates(self):
        specs = default_method_specs(["eug", "ebp"])
        tasks = build_trial_tasks(specs, [0.1, 0.5], 3, entropy=7)
        assert len(tasks) == 2 * 2 * 3
        assert tasks[0].spawn_key == (0, 0, 0)
        assert tasks[-1].spawn_key == (1, 1, 2)
        assert len({t.spawn_key for t in tasks}) == len(tasks)
        assert all(t.entropy == 7 for t in tasks)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            build_trial_tasks(default_method_specs(["eug"]), [0.5], -3, 0)

    def test_zero_trials_empty_grid(self):
        assert build_trial_tasks(default_method_specs(["eug"]), [0.5], 0, 0) == []

    def test_tasks_are_picklable(self):
        import pickle

        task = build_trial_tasks(
            [MethodSpec.of("daf_entropy", allocation="uniform")], [0.5], 1, 3
        )[0]
        assert pickle.loads(pickle.dumps(task)) == task


class TestExecutorSelection:
    def test_serial_for_one_job(self):
        assert isinstance(get_executor(1), SerialExecutor)

    def test_pool_for_many_jobs(self):
        ex = get_executor(3)
        assert isinstance(ex, ProcessPoolTrialExecutor)
        assert ex.n_jobs == 3

    def test_all_cores(self):
        assert resolve_n_jobs(-1) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_invalid_n_jobs(self, bad):
        with pytest.raises(ValidationError):
            resolve_n_jobs(bad)

    def test_pool_empty_tasks(self, matrix, workloads):
        assert ProcessPoolTrialExecutor(2).run_trials(matrix, workloads, []) == []

    def test_pool_single_task_runs_inline(self, matrix, workloads):
        tasks = build_trial_tasks(default_method_specs(["eug"]), [0.5], 1, 11)
        pool_rows = ProcessPoolTrialExecutor(4).run_trials(
            matrix, workloads, tasks
        )
        serial_rows = SerialExecutor().run_trials(matrix, workloads, tasks)
        assert len(pool_rows) == 1
        assert_rows_identical(pool_rows[0], serial_rows[0])


class TestMergeRows:
    def test_shard_order_does_not_matter(self, matrix, workloads):
        rows = run_methods(
            matrix, default_method_specs(["eug", "daf_entropy"]), EPSILONS,
            workloads, n_trials=N_TRIALS, rng=5,
        )
        dicts = [comparable(r) for r in rows]
        shards_a = [dicts[:10], dicts[10:]]
        shuffled = list(dicts)
        random.Random(0).shuffle(shuffled)
        shards_b = [shuffled[5:], shuffled[:5]]
        assert merge_rows(shards_a) == merge_rows(shards_b)
