"""The workloads, each run untraced (end-to-end metrics) or traced
(per-layer metrics plus the tracing overhead)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from . import layers, serve, sweep
from .trace import Tracer

WORKLOADS = ("serve_point", "serve_batch")


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    # A traced run splits its time between an untraced and a traced
    # window of the same traffic; their difference is the overhead.
    windows = 2 if trace else 1
    setup = serve.set_up_repeatedly()
    try:
        plan = serve.make_traffic(workload, setup.matrix.shape, seed, seconds / windows)
    except BaseException:
        setup.server.stop()
        raise
    served = serve.serve(setup, plan, seconds / windows, windows, trace)
    untraced = {
        "setup_s": setup.seconds["setup"],
        **serve.latency_metrics(served.windows[0]),
        "mre_pct": served.mre_pct,
        "peak_rss_mb": served.peak_rss_mb,
    }
    total = served.total
    if not trace:
        return Outcome(untraced, served.attempted, total.failed)

    window = served.windows[-1]
    before, after = served.snapshots
    samples = [s for w in [served.warmup, *served.windows] for s in w.samples]
    out = layers.http_layers(samples, window, before, after)
    out["latency_p99_ms"] = untraced["latency_p99_ms"]
    sent = [plan.requests[s.index] for s in sorted(window.samples, key=lambda s: s.sent)]
    ticks = layers.group_ticks(sent, out["batch.queries_per_tick"])
    out.update(layers.replay_layers(ticks, setup.private))
    out.update(layers.overhead(serve.latency_metrics(window), untraced))

    tracer = Tracer()
    released = sweep.release_all(setup.matrix, seed, tracer)
    reload_failed = sweep.reload_failures(released)
    out.update(layers.release_layers(tracer, released, setup.seconds))
    out.update(layers.failure_layers(total.statuses, total.mismatched, reload_failed))
    return Outcome(
        out, served.attempted + len(released.releases), total.failed + reload_failed
    )
