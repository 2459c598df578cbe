#!/usr/bin/env python3
"""Release-and-serve benchmark for DP OD matrices with intermediate stops.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload traced and reports the per-layer metrics and the tracing
overhead instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
stamp the run with its seed and the machine, and list each metric.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "queries_per_s": "1/s",
    "mre_pct": "%",
    "peak_rss_mb": "MB",
}

_PLANS = ("dense", "broadcast", "pruned", "sharded")
_METHODS = ("identity", "eug", "ebp", "mkm", "daf_entropy", "daf_homogeneity")

#: Per-layer metrics (``--trace 1``) and their units.  ``latency_p99_ms``
#: is here, not above, because on a shared 2-core host its spread between
#: runs (0.2 to 0.4 of its median) exceeds any bound an end-to-end metric
#: may have; untraced runs still print it.
PER_LAYER = {
    "latency_p99_ms": "ms",
    "http.round_trip_us": "us",
    "http.server_us": "us",
    "http.transport_us": "us",
    "batch_queue.wait_us": "us",
    "batch.ticks": "count",
    "batch.queries_per_tick": "count",
    "loop.max_lag_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "json_decode.us": "us",
    "coerce.us": "us",
    "admit_validate.us": "us",
    "engine.route_us": "us",
    "engine.answer_us": "us",
    "json_encode.us": "us",
    **{f"engine.plan_share.{p}": "ratio" for p in _PLANS},
    **{f"kernel.{p}_us": "us" for p in _PLANS},
    "planner.regret": "ratio",
    "pool.answer_us": "us",
    "pool.compute_us": "us",
    "pool.ipc_us": "us",
    "pool.ipc_share": "ratio",
    "sharding.skip_rate": "ratio",
    "od_build.s": "s",
    "release.publish_s": "s",
    **{f"sanitize.s.{m}": "s" for m in _METHODS},
    "release.serialize_s": "s",
    "release.bytes": "B",
    **{f"release.partitions.{m}": "count" for m in _METHODS},
    "evaluate.truth_s": "s",
    "evaluate.answer_s": "s",
    "evaluate.mre_pct": "%",
    **{f"evaluate.plan_share.{p}": "ratio" for p in _PLANS},
    **{f"fail.status_{c}": "count" for c in (400, 413, 500, 503, 504, "other")},
    "fail.transport": "count",
    "fail.mismatch": "count",
    "fail.reload": "count",
    "overhead.latency_p50_ms": "ms",
    "overhead.latency_p99_ms": "ms",
    "overhead.queries_per_s": "1/s",
}


#: How long the resource tracker may take to exit once told to.
TRACKER_EXIT_SECONDS = 10.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this run started one,
    and wait until it has ended.

    Shared memory (the replay's resident pool) and spawn-context locks
    (the reload check) start a tracker process that by itself exits only
    after this one has, so it would outlive the run.  Closing its pipe
    tells it to exit; it is killed if it has not within
    :data:`TRACKER_EXIT_SECONDS`.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_fd", None) is None:
        return
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
        os.close(fd)
        deadline = time.monotonic() + TRACKER_EXIT_SECONDS
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import release, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": release.fingerprint(),
    }
    print(json.dumps({"perfbench": stamp}), flush=True)

    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    values = {name: float(outcome.metrics[name]) for name in units}
    finite = all(math.isfinite(v) for v in values.values())
    # A failed request is slower than any limit; keep the line valid JSON.
    metrics = {
        name: {"value": v if math.isfinite(v) else sys.float_info.max, "unit": units[name]}
        for name, v in values.items()
    }
    for name, value in outcome.metrics.items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and finite,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
