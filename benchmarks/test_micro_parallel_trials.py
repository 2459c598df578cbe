"""Microbenchmark: serial vs. process-parallel trial execution.

A 4-trial grid (one method, one epsilon, four trials) is run twice
through :func:`~repro.experiments.run_methods` — ``n_jobs=1`` and
``n_jobs=4`` — with the same seed.  The parallel run must reproduce the
serial rows bit-for-bit (the equivalence the test harness licenses) and,
on a machine with at least 4 usable cores, beat serial by a hard floor
(the 2x target is recorded in the artifact; the floor tolerates
SMT-sharing runners).  On narrower machines the artifact carries a
``skipped_low_cores`` marker and *no* speedup record — four workers
sharing one core cannot beat one worker, and that is a fact about the
machine, not the executor, so recording a sub-1x "speedup" there would
only trip downstream regression gates (``tools/bench_gate.py`` ignores
skipped entries).

Results are written to ``bench-out/BENCH_parallel_trials.json`` so the
speedup trajectory (and the core count it was measured on) is visible
across commits.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datagen import gaussian_matrix
from repro.experiments import default_method_specs, run_methods
from repro.queries import random_workload

from .conftest import usable_cores, write_bench_artifact

#: The 4-trial grid of the acceptance criterion.
N_TRIALS = 4
N_JOBS = 4
#: The headline target, recorded in the artifact.
SPEEDUP_TARGET = 2.0
#: The hard floor asserted when >= 4 cores are usable.  Deliberately
#: below the target: 4 "cores" on CI runners are often 2 physical cores
#: with SMT, where 4 CPU-bound workers cannot reach a true 2x.
SPEEDUP_FLOOR = 1.5

#: The slowest single sanitizer in the suite, so each trial carries
#: enough work for process startup to amortize.  Like the query-engine
#: microbenchmark, the substrate is fixed (scale presets size the figure
#: reproductions, not the micro measurements).
METHOD = "daf_homogeneity"
EPSILON = 0.2
RESOLUTION = 2048
N_POINTS = 1_000_000
N_QUERIES = 500


def _comparable(row):
    d = row.as_dict()
    d.pop("sanitize_seconds")
    d.pop("query_seconds")
    return d


def test_parallel_trials_speedup():
    matrix = gaussian_matrix(
        2, (RESOLUTION / 8.0) ** 2, N_POINTS, rng=0,
        shape=(RESOLUTION, RESOLUTION),
    )
    workload = random_workload(matrix.shape, N_QUERIES, rng=1)
    specs = default_method_specs([METHOD])

    start = time.perf_counter()
    serial_rows = run_methods(
        matrix, specs, [EPSILON], [workload],
        n_trials=N_TRIALS, rng=2022, n_jobs=1,
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_rows = run_methods(
        matrix, specs, [EPSILON], [workload],
        n_trials=N_TRIALS, rng=2022, n_jobs=N_JOBS,
    )
    parallel_seconds = time.perf_counter() - start

    rows_identical = [_comparable(r) for r in serial_rows] == [
        _comparable(r) for r in parallel_rows
    ]
    speedup = serial_seconds / parallel_seconds
    cores = usable_cores()
    threshold_enforced = cores >= N_JOBS

    payload = {
        "method": METHOD,
        "shape": [RESOLUTION, RESOLUTION],
        "n_points": N_POINTS,
        "n_queries": N_QUERIES,
        "n_trials": N_TRIALS,
        "n_jobs": N_JOBS,
        "usable_cores": cores,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": threshold_enforced,
        "skipped_low_cores": not threshold_enforced,
        "rows_identical": rows_identical,
    }
    if threshold_enforced:
        # Only a machine with enough cores measures a meaningful speedup;
        # on narrower machines the record would just say the machine is
        # narrow, and downstream gates would read it as a regression.
        payload["speedup"] = speedup
        payload["meets_target"] = speedup >= SPEEDUP_TARGET
    write_bench_artifact("parallel_trials", payload)
    print(
        f"\nserial {serial_seconds:.2f}s, parallel({N_JOBS}) "
        f"{parallel_seconds:.2f}s -> {speedup:.2f}x on {cores} core(s)"
        + ("" if threshold_enforced else " [skipped_low_cores]")
    )

    assert rows_identical, "parallel rows diverged from serial"
    if threshold_enforced:
        assert speedup >= SPEEDUP_FLOOR, (
            f"only {speedup:.2f}x at n_jobs={N_JOBS} on {cores} cores"
        )
