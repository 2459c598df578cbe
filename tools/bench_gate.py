#!/usr/bin/env python
"""Benchmark regression gate over the repo's BENCH_*.json artifacts.

Compares freshly measured benchmark artifacts against a committed
baseline and fails (exit code 1) when a tracked speedup regresses by
more than the allowed fraction.  Speedups are same-machine ratios
(scalar vs. vectorized, broadcast vs. pruned, serial vs. parallel), so
they transfer across machines far better than absolute seconds — the
gate deliberately never compares wall-clock fields.

Usage (what the CI ``bench-gate`` job runs; also works locally)::

    # The micro benchmarks write fresh artifacts to the
    # gitignored bench-out/; start from an empty one, so stale values
    # cannot pose as fresh ones, then compare against the committed
    # baselines at the repository root.
    rm -rf bench-out
    REPRO_BENCH_SCALE=tiny PYTHONPATH=src python -m pytest \
        benchmarks/test_micro_query_engine.py \
        benchmarks/test_micro_parallel_trials.py \
        benchmarks/test_micro_sharded.py \
        benchmarks/test_micro_async_batching.py \
        benchmarks/test_micro_serving.py -q
    python tools/bench_gate.py --baseline . --fresh bench-out

Test runs never rewrite the committed baselines.  Refreshing one is an
explicit copy of a fresh artifact, committed on purpose::

    cp bench-out/BENCH_<name>.json .

Rules
-----
* ``BENCH_query_engine.json`` — ``kernel_speedup``, ``auto_speedup``
  and ``pruned_speedup`` must each stay within ``--max-regression``
  (default 30%) of the baseline value; ``*_max_abs_diff`` fields must
  stay at or below ``--max-abs-diff`` (default 1e-9).
* ``BENCH_parallel_trials.json`` / ``BENCH_sharded.json`` — ``speedup``
  is compared the same way, but an entry marked ``skipped_low_cores``
  (on either side) is ignored: a narrow machine measures the machine,
  not the code.  ``BENCH_sharded.json``'s exactness ceilings are
  enforced regardless of the marker: ``sharded_max_abs_diff`` (merged
  shards vs the broadcast kernel, float-reassociation bound) and
  ``resident_max_abs_diff`` (resident worker pool vs serial shard
  evaluation — bit-identity, so the benchmark records exactly 0).
* ``BENCH_async_batching.json`` — ``speedup`` (micro-batched vs
  one-by-one through the async serving endpoint; single-threaded, so
  never core-skipped) and the ``async_max_abs_diff`` exactness ceiling
  (the benchmark itself asserts it is exactly 0).
* ``BENCH_serving.json`` — written by ``benchmarks/test_micro_serving.py``
  against in-process HTTP servers.  ``responsiveness_ratio`` (on-loop
  vs off-loop max event-loop lag under heavy ticks) is held to an
  *absolute* floor of 5.0 rather than a baseline-relative window: the
  off-loop guarantee is a product property, not a machine-relative
  one, and it holds even on one core because NumPy releases the GIL
  inside the kernel.
  ``serving_max_abs_diff`` (HTTP answers vs in-process
  ``Engine.answer``) is an exactness ceiling like the others — the
  JSON transport is ``repr``-exact, so the benchmark records exactly 0.
* A key present in the baseline but missing from a fresh artifact (or a
  missing fresh artifact) fails the gate — silently dropping a tracked
  series is itself a regression.  This applies to exactness series as
  much as speedups, and skip markers do not excuse it.  Keys only the
  fresh side has are reported and pass (a new series starts its own
  baseline); exactness ceilings are enforced on a fresh artifact even
  when no baseline exists, being absolute rather than
  baseline-relative.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Ratio fields tracked per artifact file.
SPEEDUP_KEYS = {
    "BENCH_query_engine.json": [
        "kernel_speedup",
        "auto_speedup",
        "pruned_speedup",
    ],
    "BENCH_parallel_trials.json": ["speedup"],
    "BENCH_sharded.json": ["speedup"],
    "BENCH_async_batching.json": ["speedup"],
    # Gated by FLOOR_KEYS / ABS_DIFF_KEYS only; listed here so a
    # missing fresh artifact still fails the gate.
    "BENCH_serving.json": [],
}

#: Exactness fields (absolute ceilings, not baseline-relative).
ABS_DIFF_KEYS = {
    "BENCH_query_engine.json": [
        "kernel_max_abs_diff",
        "auto_max_abs_diff",
        "pruned_max_abs_diff",
    ],
    "BENCH_sharded.json": [
        "sharded_max_abs_diff",
        "resident_max_abs_diff",
    ],
    "BENCH_async_batching.json": ["async_max_abs_diff"],
    "BENCH_serving.json": ["serving_max_abs_diff"],
}

#: Absolute minimums (baseline-independent, like the exactness
#: ceilings but pointing the other way): a fresh artifact must meet
#: these floors regardless of history.  Used for ratios that encode a
#: hard product guarantee rather than a machine-relative measurement.
FLOOR_KEYS = {
    "BENCH_serving.json": {"responsiveness_ratio": 5.0},
}

#: An artifact with this key set to true is excluded from speedup
#: comparison (e.g. parallel trials measured on too few cores).
SKIP_MARKER = "skipped_low_cores"


#: Sentinel for an artifact that exists but cannot be parsed — always a
#: gate failure, unlike a missing baseline (which merely skips).
CORRUPT = object()


def load(path: Path):
    """The artifact dict, ``None`` if absent, or :data:`CORRUPT`."""
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        print(f"FAIL  {path}: unreadable JSON ({exc})")
        return CORRUPT
    if not isinstance(payload, dict):
        print(f"FAIL  {path}: expected a JSON object")
        return CORRUPT
    return payload


def gate(
    baseline_dir: Path,
    fresh_dir: Path,
    max_regression: float,
    max_abs_diff: float,
) -> int:
    """Print a comparison table; return the number of failures."""
    failures = 0
    compared = 0
    for name, keys in SPEEDUP_KEYS.items():
        base = load(baseline_dir / name)
        fresh = load(fresh_dir / name)
        if base is CORRUPT or fresh is CORRUPT:
            failures += 1  # load() already printed which side
            continue
        if base is None:
            # No baseline: nothing to compare speedups against, but the
            # fresh artifact's absolute exactness ceilings (below) still
            # apply — they are baseline-independent.
            print(f"skip  {name}: no baseline artifact")
        elif fresh is None:
            print(f"FAIL  {name}: fresh artifact missing")
            failures += 1
            continue
        elif base.get(SKIP_MARKER) or fresh.get(SKIP_MARKER):
            side = "baseline" if base.get(SKIP_MARKER) else "fresh"
            print(f"skip  {name}: {SKIP_MARKER} marker ({side})")
        else:
            for key in keys:
                if key not in base:
                    continue  # series not tracked yet at the baseline
                if key not in fresh:
                    print(f"FAIL  {name}:{key}: tracked series disappeared")
                    failures += 1
                    continue
                base_val = float(base[key])
                fresh_val = float(fresh[key])
                floor = (1.0 - max_regression) * base_val
                ok = fresh_val >= floor
                compared += 1
                print(
                    f"{'ok  ' if ok else 'FAIL'}  {name}:{key}: "
                    f"{fresh_val:.2f} vs baseline {base_val:.2f} "
                    f"(floor {floor:.2f})"
                )
                failures += 0 if ok else 1
            for key in set(fresh) & set(keys) - set(base):
                print(f"new   {name}:{key}: {float(fresh[key]):.2f}")
        if fresh is None:
            continue
        for key in ABS_DIFF_KEYS.get(name, []):
            if key not in fresh:
                # The disappearance rule applies to exactness series
                # too: a ceiling the baseline tracked must not vanish
                # silently (skip markers do not excuse it — exactness
                # holds on any machine).
                if base is not None and key in base:
                    print(f"FAIL  {name}:{key}: tracked series disappeared")
                    failures += 1
                continue
            diff = float(fresh[key])
            ok = diff <= max_abs_diff
            compared += 1
            print(
                f"{'ok  ' if ok else 'FAIL'}  {name}:{key}: "
                f"{diff:.3g} (ceiling {max_abs_diff:g})"
            )
            failures += 0 if ok else 1
        for key, floor_val in FLOOR_KEYS.get(name, {}).items():
            if key not in fresh:
                # Same disappearance rule as the other tracked series.
                if base not in (None, CORRUPT) and key in base:
                    print(f"FAIL  {name}:{key}: tracked series disappeared")
                    failures += 1
                continue
            value = float(fresh[key])
            ok = value >= floor_val
            compared += 1
            print(
                f"{'ok  ' if ok else 'FAIL'}  {name}:{key}: "
                f"{value:.2f} (absolute floor {floor_val:g})"
            )
            failures += 0 if ok else 1
    if compared == 0 and failures == 0:
        print("FAIL  nothing compared: no baseline/fresh artifact pair found")
        failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="directory holding the freshly measured BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="allowed fractional speedup regression (default 0.30)",
    )
    parser.add_argument(
        "--max-abs-diff", type=float, default=1e-9,
        help="ceiling for recorded *_max_abs_diff exactness fields",
    )
    args = parser.parse_args(argv)
    failures = gate(
        args.baseline, args.fresh, args.max_regression, args.max_abs_diff
    )
    if failures:
        print(f"bench gate: {failures} failure(s)")
        return 1
    print("bench gate: all tracked speedups within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
