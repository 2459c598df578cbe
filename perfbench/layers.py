"""Per-layer metrics of a traced run, timed from the benchmark's own files.

Nothing inside ``src/`` is instrumented: each layer is timed around the
public call that enters it.  Three sources feed the breakdown:

* the HTTP traffic: client-side spans of every request plus the
  server's own ``/statz`` before and after the traced window;
* a replay of the recorded request bodies, grouped into ticks of the
  size ``/statz`` reported, through each serving step in process:
  JSON decode, int64 coercion, admission validation, routing, answer,
  JSON encode; then each kernel forced through ``EngineConfig`` and a
  resident ``ShardWorkerPool`` on the same ticks;
* the release pipeline's spans (build, sanitize, encode, evaluate).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.packed import validate_box_arrays
from repro.core.private_matrix import PrivateFrequencyMatrix
from repro.engine import Engine, EngineConfig, QueryRequest, ShardWorkerPool
from repro.engine.server import percentile
from repro.experiments.figures import PAPER_EPSILONS
from repro.methods.registry import PAPER_METHODS

from .loadgen import Sample, Window
from .trace import Tracer
from .traffic import Request

PLANS = ("dense", "broadcast", "pruned", "sharded")

#: Replayed ticks; enough for stable medians, few enough to stay quick.
MAX_TICKS = 24

#: Each forced kernel runs this many times per tick; the fastest counts.
KERNEL_REPEATS = 3

#: Workers of the replay's resident pool (one per core of a 2-core box).
POOL_SHARDS = 2

#: Failure counters, by HTTP status and by stage.
FAIL_STATUSES = (400, 413, 500, 503, 504)


def http_layers(
    samples: Sequence[Sample], window: Window, before: Mapping, after: Mapping
) -> Dict[str, float]:
    """HTTP stages, from client spans and ``/statz``.

    ``/statz`` keeps latencies and loop lag only since the server started,
    so ``http.server_us`` and ``loop.max_lag_ms`` cover every request the
    server answered: warm-up and both windows (``samples``).  The client
    medians subtracted from or compared with them are taken over those
    same requests.  Tick counts (counter differences) and the generator's
    lateness cover the traced ``window`` only.
    """
    answered = int(after["latency_ms"]["count"])
    ok = sorted((s for s in samples if s.status == 200), key=lambda s: s.done)
    ok = ok[-answered:] if answered else ok
    round_trip_us = 1e6 * statistics.median(s.round_trip for s in ok)
    server_us = 1e3 * float(after["latency_ms"]["p50"])
    engine_us = 1e6 * statistics.median(s.engine_s for s in ok)
    ticks = after["counters"]["ticks"] - before["counters"]["ticks"]
    queries = (
        after["counters"]["answered_queries"] - before["counters"]["answered_queries"]
    )
    return {
        "http.round_trip_us": round_trip_us,
        "http.server_us": server_us,
        "http.transport_us": round_trip_us - server_us,
        "batch_queue.wait_us": server_us - engine_us,
        "batch.ticks": float(ticks),
        "batch.queries_per_tick": queries / max(ticks, 1),
        "loop.max_lag_ms": float(after["loop"]["max_lag_ms"]),
        "loadgen.late_p99_ms": 1e3 * percentile(sorted(s.late for s in window.samples), 99),
    }


def group_ticks(requests: Sequence[Request], queries_per_tick: float) -> List[List[Request]]:
    """Consecutive requests grouped so each tick holds about
    ``queries_per_tick`` queries, at most :data:`MAX_TICKS` ticks."""
    mean_queries = statistics.mean(r.n_queries for r in requests)
    per_tick = max(1, round(queries_per_tick / mean_queries))
    starts = range(0, len(requests), per_tick)
    return [list(requests[i : i + per_tick]) for i in starts][:MAX_TICKS]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _best(fn, *args) -> float:
    return min(_timed(fn, *args)[1] for _ in range(KERNEL_REPEATS))


def replay_layers(
    ticks: Sequence[Sequence[Request]], private: PrivateFrequencyMatrix
) -> Dict[str, float]:
    """Serving steps (default engine), each kernel forced, and a resident
    pool, on replayed ticks."""
    tracer = Tracer()
    engine = Engine(private)
    forced = {plan: Engine(private, EngineConfig(plan=plan)) for plan in PLANS}
    cost = engine.config.plan_cost()
    shards = private.packed.split_shards(POOL_SHARDS)
    pool = ShardWorkerPool(private.packed, POOL_SHARDS, cost=cost)
    plans: Counter = Counter()
    regrets = []
    skipped = total_shards = 0
    try:
        warm = ticks[0]
        lows = np.concatenate([r.lows for r in warm])
        highs = np.concatenate([r.highs for r in warm])
        for plan in PLANS:
            forced[plan].answer_arrays(lows, highs)
        engine.answer(QueryRequest(lows, highs))
        pool.answer(lows, highs)
        for tick in ticks:
            with tracer.span("json_decode"):
                payloads = [json.loads(r.body) for r in tick]
            with tracer.span("coerce"):
                arrays = [
                    (
                        np.asarray(p["lows"], dtype=np.int64),
                        np.asarray(p["highs"], dtype=np.int64),
                    )
                    for p in payloads
                ]
            with tracer.span("admit_validate"):
                for lo, hi in arrays:
                    validate_box_arrays(lo, hi, private.shape)
            lows = np.concatenate([a[0] for a in arrays])
            highs = np.concatenate([a[1] for a in arrays])
            with tracer.span("route"):
                chosen = engine.plan_queries(lows, highs)
            with tracer.span("answer"):
                answer = engine.answer(QueryRequest(lows, highs))
            plans[answer.plan] += 1
            with tracer.span("json_encode"):
                offset = 0
                for lo, _ in arrays:
                    part = answer.answers[offset : offset + len(lo)]
                    offset += len(lo)
                    json.dumps({"answers": part.tolist(), "plan": answer.plan})
            kernel = {
                plan: _best(forced[plan].answer_arrays, lows, highs) for plan in PLANS
            }
            for plan, seconds in kernel.items():
                tracer.record(f"kernel.{plan}", seconds)
            regrets.append(kernel[chosen] / min(kernel.values()))
            pooled, seconds = _timed(pool.answer, lows, highs)
            tracer.record("pool.answer", seconds)
            compute = max(_timed(s.partial, lows, highs, cost)[1] for s in shards)
            tracer.record("pool.compute", compute)
            tracer.record("pool.ipc", seconds - compute)
            skipped += pooled.skipped_shards
            total_shards += pooled.n_shards
    finally:
        pool.shutdown()

    us = lambda name: 1e6 * tracer.median(name)  # noqa: E731
    out = {
        "json_decode.us": us("json_decode"),
        "coerce.us": us("coerce"),
        "admit_validate.us": us("admit_validate"),
        "engine.route_us": us("route"),
        "engine.answer_us": us("answer"),
        "json_encode.us": us("json_encode"),
    }
    for plan in PLANS:
        out[f"engine.plan_share.{plan}"] = plans[plan] / len(ticks)
        out[f"kernel.{plan}_us"] = us(f"kernel.{plan}")
    out.update(
        {
            "planner.regret": statistics.median(regrets),
            "pool.answer_us": us("pool.answer"),
            "pool.compute_us": us("pool.compute"),
            "pool.ipc_us": us("pool.ipc"),
            "pool.ipc_share": tracer.median("pool.ipc") / tracer.median("pool.answer"),
            "sharding.skip_rate": skipped / max(total_shards, 1),
        }
    )
    return out


def release_layers(tracer: Tracer, released, setup_seconds: Mapping[str, float]) -> Dict[str, float]:
    """Release-pipeline stages: the served release's build and publish
    (medians over set-ups) and the traced method sweep."""
    out = {
        "od_build.s": setup_seconds["od_build"],
        "release.publish_s": setup_seconds["publish"],
        "release.serialize_s": tracer.total("release.serialize"),
        "release.bytes": float(sum(len(r.text) for r in released.releases)),
        "evaluate.truth_s": tracer.total("evaluate.truth"),
        "evaluate.answer_s": tracer.total("evaluate.answer"),
        "evaluate.mre_pct": float(np.mean([row.mre for row in released.rows])),
    }
    top = max(PAPER_EPSILONS)
    for method in PAPER_METHODS:
        out[f"sanitize.s.{method}"] = tracer.median(f"sanitize.{method}")
        out[f"release.partitions.{method}"] = float(
            next(
                r.private.n_partitions
                for r in released.releases
                if r.method == method and r.epsilon == top
            )
        )
    plans = Counter(row.plan for row in released.rows)
    for plan in PLANS:
        out[f"evaluate.plan_share.{plan}"] = plans[plan] / len(released.rows)
    return out


def failure_layers(status_counts: Mapping[int, int], mismatched: int, reload_failed: int) -> Dict[str, float]:
    """Failure counts per HTTP status (0 = transport) and per check."""
    out = {f"fail.status_{code}": float(status_counts.get(code, 0)) for code in FAIL_STATUSES}
    known = set(FAIL_STATUSES) | {0, 200}
    out["fail.status_other"] = float(
        sum(n for code, n in status_counts.items() if code not in known)
    )
    out["fail.transport"] = float(status_counts.get(0, 0))
    out["fail.mismatch"] = float(mismatched)
    out["fail.reload"] = float(reload_failed)
    return out


def overhead(traced: Mapping[str, float], untraced: Mapping[str, float]) -> Dict[str, float]:
    """Tracing overhead: traced minus untraced, per timed end-to-end metric."""
    return {
        f"overhead.{name}": traced[name] - untraced[name]
        for name in ("latency_p50_ms", "latency_p99_ms", "queries_per_s")
    }
