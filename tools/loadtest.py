#!/usr/bin/env python
"""Zipf-skewed load-test harness for the HTTP serving layer.

Boots the real ``repro serve`` CLI server as a subprocess (off-loop and
on-loop, back to back), replays a skewed query stream from many
concurrent HTTP clients, and writes ``bench-out/BENCH_serving.json``
— the serving SLO artifact tracked by ``tools/bench_gate.py``.

What one run measures
---------------------
* **Throughput phase** — ``--clients`` concurrent
  :class:`~repro.engine.AsyncServingClient` connections each send
  ``--requests-per-client`` batches of ``--queries-per-request``
  queries whose centers are drawn from the same multivariate Zipf
  sampler the synthetic datasets use (``repro.datagen.zipf_points``),
  so traffic concentrates on hot cells the way real per-user query
  streams do.  Records p50/p95/p99 request latency, queries/sec, the
  server's tick-size distribution, and the rejected/dropped counts.
* **Exactness** — every throughput-phase answer is compared against an
  in-process ``Engine.answer`` on a bit-identically rebuilt substrate
  (``repro.datagen.grid_substrate`` is ``(shape, m, seed)``-
  deterministic across processes): ``serving_max_abs_diff`` must be
  exactly 0.0.  Dropped non-rejected requests (anything other than a
  200 or an explicit 503/413 rejection) fail the run.
* **Responsiveness phase** — a few clients send deliberately heavy
  batches (``--heavy-queries-per-request`` against ``k = m**2``
  partitions with the broadcast plan pinned, ~hundreds of ms per tick)
  and the server's own ``/statz`` loop-lag monitor records the longest
  stretch the event loop could not run.  The same traffic is then
  replayed against an on-loop server; ``responsiveness_ratio =
  on_loop_max_lag / off_loop_max_lag`` must be at least
  ``--responsiveness-floor`` (default 5): dispatching kernels into the
  worker thread must keep the loop at least that much more responsive.

Usage::

    PYTHONPATH=src python tools/loadtest.py            # full run
    PYTHONPATH=src python tools/loadtest.py --ci       # short CI burst
    PYTHONPATH=src python tools/loadtest.py --url http://127.0.0.1:8080

    # serve through the resident shard-worker pool (docs/WORKERS.md):
    # pins plan=sharded, records served p50/p95 with the pool enabled,
    # and verifies pool answers ≡ in-process serial at exactly 0.0
    PYTHONPATH=src python tools/loadtest.py --ci --shard-executor resident

With ``--url`` the harness replays the throughput phase against an
already-running server (booted with the same ``--bench-substrate`` /
``--seed`` flags so exactness can still be verified; pass
``--no-verify`` otherwise) and skips the off-vs-on-loop comparison.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datagen import grid_substrate  # noqa: E402
from repro.datagen.zipf import zipf_points  # noqa: E402
from repro.engine import (  # noqa: E402
    AsyncServingClient,
    Engine,
    EngineConfig,
    QueryRequest,
    ServingError,
)
from repro.engine.server import percentile  # noqa: E402

ARTIFACT = REPO_ROOT / "bench-out" / "BENCH_serving.json"

#: The serving plan is pinned for the whole harness: determinism lever
#: (bit-identical HTTP vs in-process answers) and the kernel whose
#: per-tick cost scales predictably with q·k for the heavy phase.
#: ``--shard-executor``/``--n-shards`` switch the pin to ``sharded``
#: (the only plan those knobs apply to) — still pinned, still
#: deterministic, and with the resident pool the exactness check then
#: verifies pool answers ≡ serial shard evaluation through HTTP.
PLAN = "broadcast"


def build_queries(
    shape, n_queries: int, zipf_a: float, extent: int, rng
) -> "tuple[np.ndarray, np.ndarray]":
    """Zipf-skewed inclusive boxes: hot-cell centers, bounded extents."""
    centers = zipf_points(shape, zipf_a, n_queries, rng)
    spans = rng.integers(0, extent + 1, size=centers.shape)
    lows = np.maximum(centers - spans, 0)
    highs = np.minimum(centers + spans, np.asarray(shape) - 1)
    return lows.astype(np.int64), highs.astype(np.int64)


class LoadResult:
    """Per-phase collection: answers, latencies, rejections, drops."""

    def __init__(self):
        self.answers = {}
        self.latencies = []
        self.rejected = 0
        self.dropped = 0
        self.started = 0.0
        self.elapsed = 0.0
        self.n_queries = 0


async def run_phase(
    host: str,
    port: int,
    batches: "list[tuple[int, np.ndarray, np.ndarray]]",
    n_clients: int,
    timeout: float,
) -> LoadResult:
    """Replay ``batches`` across ``n_clients`` persistent connections."""
    result = LoadResult()
    queue: "asyncio.Queue[tuple[int, np.ndarray, np.ndarray]]" = (
        asyncio.Queue()
    )
    for batch in batches:
        queue.put_nowait(batch)

    async def client():
        async with AsyncServingClient(host, port, timeout=timeout) as c:
            while True:
                try:
                    index, lows, highs = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                start = time.perf_counter()
                try:
                    answer = await c.query(
                        lows, highs, workload=f"req-{index}"
                    )
                except ServingError as exc:
                    if exc.status in (503, 413):
                        result.rejected += 1
                    else:
                        result.dropped += 1
                    continue
                except (ConnectionError, asyncio.TimeoutError):
                    result.dropped += 1
                    return
                result.latencies.append(time.perf_counter() - start)
                result.answers[index] = answer.answers
                result.n_queries += len(lows)

    result.started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(n_clients)))
    result.elapsed = time.perf_counter() - result.started
    return result


async def fetch_statz(host: str, port: int) -> dict:
    async with AsyncServingClient(host, port) as c:
        return await c.statz()


def engine_config_arg(args) -> str:
    """The servers' ``--engine-config``: the pinned plan plus shard knobs."""
    pairs = [f"plan={args.plan}"]
    if args.shard_executor:
        pairs.append(f"shard_executor={args.shard_executor}")
    if args.n_shards is not None:
        pairs.append(f"n_shards={args.n_shards}")
    return ",".join(pairs)


def spawn_server(args, off_loop: bool) -> "tuple[subprocess.Popen, int]":
    """Boot ``repro serve --port 0`` and parse the bound port."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", args.host,
        "--port", "0",
        "--bench-substrate", str(args.grid_m),
        "--bench-shape", str(args.shape),
        "--seed", str(args.seed),
        "--engine-config", engine_config_arg(args),
        "--request-timeout", str(args.timeout),
    ]
    if not off_loop:
        cmd.append("--no-off-loop")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env, cwd=str(REPO_ROOT),
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise RuntimeError("server did not report a bound port within 60s")


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def measure_mode(args, off_loop: bool, reference: "Engine | None") -> dict:
    """Boot one server mode, run both phases, return its measurements."""
    label = "off-loop" if off_loop else "on-loop"
    proc, port = spawn_server(args, off_loop)
    try:
        return drive_server(args, args.host, port, label, reference)
    finally:
        stop_server(proc)


def drive_server(
    args, host: str, port: int, label: str, reference: "Engine | None"
) -> dict:
    rng = np.random.default_rng(args.seed + 17)
    shape = (args.shape, args.shape)

    # Throughput phase: many clients, small Zipf-skewed batches.
    batches = []
    for index in range(args.clients * args.requests_per_client):
        lows, highs = build_queries(
            shape, args.queries_per_request, args.zipf_a, args.extent, rng
        )
        batches.append((index, lows, highs))
    throughput = asyncio.run(
        run_phase(host, port, batches, args.clients, args.timeout)
    )

    # Exactness: replay every answered batch through the in-process
    # engine the server was rebuilt from.
    max_abs_diff = None
    if reference is not None:
        max_abs_diff = 0.0
        for index, lows, highs in batches:
            if index not in throughput.answers:
                continue
            expected = reference.answer(QueryRequest(lows, highs)).answers
            diff = float(
                np.abs(throughput.answers[index] - expected).max()
            ) if len(expected) else 0.0
            max_abs_diff = max(max_abs_diff, diff)

    # Responsiveness phase: few clients, heavy ticks.
    heavy = []
    for index in range(args.heavy_clients * args.heavy_requests_per_client):
        lows, highs = build_queries(
            shape, args.heavy_queries_per_request, args.zipf_a,
            args.shape // 2, rng,
        )
        heavy.append((index, lows, highs))
    heavy_result = asyncio.run(
        run_phase(host, port, heavy, args.heavy_clients, args.timeout)
    )

    statz = asyncio.run(fetch_statz(host, port))
    latencies = sorted(throughput.latencies)
    answered = len(throughput.latencies)
    measurements = {
        "label": label,
        "answered_requests": answered,
        "rejected_requests": throughput.rejected + heavy_result.rejected,
        "dropped_requests": throughput.dropped + heavy_result.dropped,
        "n_queries": throughput.n_queries,
        "elapsed_seconds": throughput.elapsed,
        "queries_per_second": (
            throughput.n_queries / throughput.elapsed
            if throughput.elapsed else 0.0
        ),
        "requests_per_second": (
            answered / throughput.elapsed if throughput.elapsed else 0.0
        ),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p95_ms": 1e3 * percentile(latencies, 95),
        "p99_ms": 1e3 * percentile(latencies, 99),
        "max_ms": 1e3 * (latencies[-1] if latencies else 0.0),
        "tick_queries": statz["tick_queries"],
        "server_dropped_requests": statz["counters"]["dropped_requests"],
        "max_loop_lag_ms": statz["loop"]["max_lag_ms"],
        "heartbeat_interval_ms": statz["loop"]["heartbeat_interval_ms"],
    }
    if max_abs_diff is not None:
        measurements["serving_max_abs_diff"] = max_abs_diff
    print(
        f"[{label}] {answered} requests ({throughput.n_queries} queries) "
        f"in {throughput.elapsed:.2f}s: "
        f"p50 {measurements['p50_ms']:.1f}ms / "
        f"p95 {measurements['p95_ms']:.1f}ms / "
        f"p99 {measurements['p99_ms']:.1f}ms, "
        f"{measurements['queries_per_second']:.0f} q/s; "
        f"max loop lag {measurements['max_loop_lag_ms']:.1f}ms"
        + (
            f"; drift {max_abs_diff:.3g}"
            if max_abs_diff is not None else ""
        )
    )
    return measurements


def build_reference(args) -> Engine:
    """The bit-identical in-process engine the servers were booted from.

    Deliberately never uses the resident pool itself: with
    ``--shard-executor resident`` the server answers through worker
    processes while the reference evaluates the same shards serially
    in-process, so the 0.0-drift check doubles as an end-to-end
    pool ≡ serial bit-identity assertion.
    """
    private = grid_substrate(
        shape=(args.shape, args.shape), m=args.grid_m, seed=args.seed
    )
    return Engine(
        private, EngineConfig(plan=args.plan, n_shards=args.n_shards)
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="load-test this already-running server instead "
                             "of booting off-loop/on-loop subprocesses")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--clients", type=int, default=64,
                        help="concurrent connections (throughput phase)")
    parser.add_argument("--requests-per-client", type=int, default=8)
    parser.add_argument("--queries-per-request", type=int, default=4)
    parser.add_argument("--extent", type=int, default=4,
                        help="max per-dimension half-extent of a query box")
    parser.add_argument("--zipf-a", type=float, default=1.5,
                        help="skew of the query-center distribution")
    parser.add_argument("--heavy-clients", type=int, default=8)
    parser.add_argument("--heavy-requests-per-client", type=int, default=2)
    parser.add_argument("--heavy-queries-per-request", type=int, default=512,
                        help="queries per batch in the responsiveness phase")
    parser.add_argument("--shape", type=int, default=256,
                        help="square side of the bench substrate")
    parser.add_argument("--grid-m", type=int, default=64,
                        help="substrate grid: k = m^2 partitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shard-executor", default=None,
                        choices=["serial", "resident"],
                        help="serve through the sharded plan with this "
                             "executor (resident = persistent worker pool "
                             "on shared-memory shards; pins plan=sharded)")
    parser.add_argument("--n-shards", type=int, default=None,
                        help="shard count for --shard-executor runs "
                             "(pins plan=sharded)")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--responsiveness-floor", type=float, default=5.0,
                        help="required on-loop/off-loop max-lag ratio")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the in-process exactness check")
    parser.add_argument("--no-enforce", action="store_true",
                        help="measure and write the artifact but never fail")
    parser.add_argument("--output", type=Path, default=ARTIFACT)
    parser.add_argument("--ci", action="store_true",
                        help="shrink the run for CI (fewer clients/requests)")
    args = parser.parse_args(argv)
    # Sharding knobs only apply to the sharded plan, so their presence
    # repins the harness plan (EngineConfig rejects the combination
    # otherwise).  Everything downstream reads args.plan.
    args.plan = (
        "sharded"
        if args.shard_executor or args.n_shards is not None
        else PLAN
    )
    if args.ci:
        args.clients = min(args.clients, 32)
        args.requests_per_client = min(args.requests_per_client, 4)
        args.heavy_clients = min(args.heavy_clients, 4)
        args.heavy_requests_per_client = 1

    reference = None if args.no_verify else build_reference(args)

    payload = {
        "clients": args.clients,
        "requests_per_client": args.requests_per_client,
        "queries_per_request": args.queries_per_request,
        "zipf_a": args.zipf_a,
        "shape": [args.shape, args.shape],
        "grid_m": args.grid_m,
        "n_partitions": args.grid_m * args.grid_m,
        "plan": args.plan,
        "shard_executor": args.shard_executor,
        "n_shards": args.n_shards,
        "heavy_clients": args.heavy_clients,
        "heavy_queries_per_request": args.heavy_queries_per_request,
        "responsiveness_floor": args.responsiveness_floor,
    }
    failures = []

    if args.url:
        match = re.match(r"https?://([^:/]+):(\d+)", args.url)
        if not match:
            parser.error(f"--url {args.url!r} is not host:port form")
        off = drive_server(
            args, match.group(1), int(match.group(2)), "target", reference
        )
        # No on-loop twin to compare against: the ratio series is
        # deliberately absent (the bench gate only runs spawn mode).
        payload.update({k: v for k, v in off.items() if k != "label"})
    else:
        off = measure_mode(args, off_loop=True, reference=reference)
        on = measure_mode(args, off_loop=False, reference=reference)
        payload.update({k: v for k, v in off.items() if k != "label"})
        payload["on_loop"] = on
        payload["off_loop_max_lag_ms"] = off["max_loop_lag_ms"]
        payload["on_loop_max_lag_ms"] = on["max_loop_lag_ms"]
        # Guard the denominator: a perfectly responsive loop would
        # otherwise make the ratio infinite/unstable.
        floor_lag = max(off["max_loop_lag_ms"], 1e-3)
        ratio = on["max_loop_lag_ms"] / floor_lag
        payload["responsiveness_ratio"] = ratio
        print(
            f"responsiveness: on-loop max lag {on['max_loop_lag_ms']:.1f}ms "
            f"vs off-loop {off['max_loop_lag_ms']:.1f}ms -> {ratio:.1f}x "
            f"(floor {args.responsiveness_floor}x)"
        )
        if ratio < args.responsiveness_floor:
            failures.append(
                f"responsiveness ratio {ratio:.2f} below floor "
                f"{args.responsiveness_floor}"
            )
        for side in (off, on):
            if side["dropped_requests"]:
                failures.append(
                    f"{side['label']}: {side['dropped_requests']} dropped "
                    f"non-rejected request(s)"
                )
            if (
                reference is not None
                and side.get("serving_max_abs_diff", 0.0) != 0.0
            ):
                failures.append(
                    f"{side['label']}: HTTP answers drifted "
                    f"{side['serving_max_abs_diff']:.3g} from "
                    f"in-process Engine.answer"
                )

    if args.url:
        if off["dropped_requests"]:
            failures.append(
                f"{off['dropped_requests']} dropped non-rejected request(s)"
            )
        if (
            reference is not None
            and off.get("serving_max_abs_diff", 0.0) != 0.0
        ):
            failures.append(
                f"HTTP answers drifted {off['serving_max_abs_diff']:.3g} "
                f"from in-process Engine.answer"
            )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=1))
    print(f"wrote {args.output}")
    if failures and not args.no_enforce:
        for failure in failures:
            print(f"FAIL  {failure}")
        return 1
    print("loadtest: all serving checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
