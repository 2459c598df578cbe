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
* **Responsiveness phase** — a fresh server on a heavy substrate (a
  ``512 × 512`` grid with one partition per cell, ``k = 262144``)
  takes a few deliberately heavy batches, and its own ``/statz``
  loop-lag monitor records the longest stretch the event loop could
  not run.  The fresh server keeps the throughput phase's lag out of
  the figure.  The batch size is set by a measured tick, not fixed:
  queries per request double from 16 until one in-process
  ``Engine.answer`` on that substrate takes 200 ms.  The
  on-loop work a request costs even off-loop (JSON, coercion) grows
  with its query count, the kernel with queries × ``k``, so a large
  ``k`` keeps that work small next to the kernel however fast the
  kernel gets.  The same traffic is then replayed against an on-loop
  server; ``responsiveness_ratio =
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
``--no-verify`` otherwise) and skips the responsiveness phase.
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

#: Side of the responsiveness phase's square substrate, one partition
#: per cell.
HEAVY_SHAPE = 512

#: In-process tick the heavy batches are sized to reach: on-loop lag
#: then lands in the hundreds of ms, far above off-loop scheduling noise.
HEAVY_TICK_S = 0.2

#: Smallest heavy batch tried, and the cap on doubling it.
HEAVY_MIN_QUERIES = 16
HEAVY_MAX_QUERIES = 16_384


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


def spawn_server(
    args, off_loop: bool, shape: int, grid_m: int
) -> "tuple[subprocess.Popen, int]":
    """Boot ``repro serve --port 0`` and parse the bound port."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", args.host,
        "--port", "0",
        "--bench-substrate", str(grid_m),
        "--bench-shape", str(shape),
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


def measure_mode(
    args, off_loop: bool, reference: "Engine | None", heavy: list
) -> dict:
    """Boot one server mode per phase, return its measurements."""
    label = "off-loop" if off_loop else "on-loop"
    proc, port = spawn_server(args, off_loop, args.shape, args.grid_m)
    try:
        measurements = drive_server(args, args.host, port, label, reference)
    finally:
        stop_server(proc)
    proc, port = spawn_server(args, off_loop, HEAVY_SHAPE, HEAVY_SHAPE)
    try:
        heavy_result = asyncio.run(
            run_phase(args.host, port, heavy, args.heavy_clients, args.timeout)
        )
        statz = asyncio.run(fetch_statz(args.host, port))
    finally:
        stop_server(proc)
    measurements["rejected_requests"] += heavy_result.rejected
    measurements["dropped_requests"] += heavy_result.dropped
    measurements["heavy_max_loop_lag_ms"] = statz["loop"]["max_lag_ms"]
    print(
        f"[{label}] heavy phase: {len(heavy)} requests in "
        f"{heavy_result.elapsed:.2f}s, max loop lag "
        f"{measurements['heavy_max_loop_lag_ms']:.1f}ms"
    )
    return measurements


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

    statz = asyncio.run(fetch_statz(host, port))
    latencies = sorted(throughput.latencies)
    answered = len(throughput.latencies)
    measurements = {
        "label": label,
        "answered_requests": answered,
        "rejected_requests": throughput.rejected,
        "dropped_requests": throughput.dropped,
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


def build_reference(args, shape: int, grid_m: int) -> Engine:
    """The bit-identical in-process engine the servers were booted from.

    Deliberately never uses the resident pool itself: with
    ``--shard-executor resident`` the server answers through worker
    processes while the reference evaluates the same shards serially
    in-process, so the 0.0-drift check doubles as an end-to-end
    pool ≡ serial bit-identity assertion.
    """
    private = grid_substrate(
        shape=(shape, shape), m=grid_m, seed=args.seed
    )
    return Engine(
        private, EngineConfig(plan=args.plan, n_shards=args.n_shards)
    )


def build_heavy(args) -> "tuple[list, float]":
    """The responsiveness phase's batches, sized by a measured tick.

    Queries per request double from :data:`HEAVY_MIN_QUERIES` until one
    in-process ``Engine.answer`` of a batch on the :data:`HEAVY_SHAPE`
    substrate (the same plan and shard knobs as the servers) takes
    :data:`HEAVY_TICK_S`.  Returns the batches and the last measured
    tick in seconds.
    """
    shape = (HEAVY_SHAPE, HEAVY_SHAPE)
    engine = build_reference(args, HEAVY_SHAPE, HEAVY_SHAPE)
    rng = np.random.default_rng(args.seed + 29)
    n_queries = HEAVY_MIN_QUERIES
    # The first call builds the engine's lazy state; keep it untimed.
    engine.answer(QueryRequest(*build_queries(shape, 1, args.zipf_a, 0, rng)))
    while True:
        lows, highs = build_queries(
            shape, n_queries, args.zipf_a, HEAVY_SHAPE // 2, rng
        )
        start = time.perf_counter()
        engine.answer(QueryRequest(lows, highs))
        tick = time.perf_counter() - start
        if tick >= HEAVY_TICK_S or n_queries >= HEAVY_MAX_QUERIES:
            break
        n_queries *= 2
    batches = [(0, lows, highs)]
    for index in range(1, args.heavy_clients * args.heavy_requests_per_client):
        batches.append((index, *build_queries(
            shape, n_queries, args.zipf_a, HEAVY_SHAPE // 2, rng
        )))
    return batches, tick


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

    reference = (
        None if args.no_verify
        else build_reference(args, args.shape, args.grid_m)
    )

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
        heavy, heavy_tick = build_heavy(args)
        payload["heavy_shape"] = [HEAVY_SHAPE, HEAVY_SHAPE]
        payload["heavy_n_partitions"] = HEAVY_SHAPE ** 2
        payload["heavy_queries_per_request"] = len(heavy[0][1])
        payload["heavy_tick_ms"] = 1e3 * heavy_tick
        print(
            f"heavy phase: {len(heavy[0][1])} queries per request "
            f"(in-process tick {1e3 * heavy_tick:.0f}ms against "
            f"k={HEAVY_SHAPE ** 2})"
        )
        off = measure_mode(args, True, reference, heavy)
        on = measure_mode(args, False, reference, heavy)
        payload.update({k: v for k, v in off.items() if k != "label"})
        payload["on_loop"] = on
        payload["off_loop_max_lag_ms"] = off["heavy_max_loop_lag_ms"]
        payload["on_loop_max_lag_ms"] = on["heavy_max_loop_lag_ms"]
        # Guard the denominator: a perfectly responsive loop would
        # otherwise make the ratio infinite/unstable.
        floor_lag = max(payload["off_loop_max_lag_ms"], 1e-3)
        ratio = payload["on_loop_max_lag_ms"] / floor_lag
        payload["responsiveness_ratio"] = ratio
        print(
            f"responsiveness: on-loop max lag "
            f"{payload['on_loop_max_lag_ms']:.1f}ms vs off-loop "
            f"{payload['off_loop_max_lag_ms']:.1f}ms -> {ratio:.1f}x "
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
