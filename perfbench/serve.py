"""The HTTP workloads: serve the published release, drive traffic, check it.

Set-up is what a deployment pays before its first answer: simulate the
trajectories, build the OD matrix, sanitize and encode the release, start
the server subprocess on it (``launcher.py``: ``from_publishable`` load
and ``EngineServer.start``).  It is repeated ``release.SETUP_REPEATS``
times and the median reported; the last server stays up for the traffic.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.core.frequency_matrix import FrequencyMatrix
from repro.core.prefix_sum import PrefixSumTable
from repro.core.private_matrix import PrivateFrequencyMatrix
from repro.engine import Engine, EngineConfig
from repro.engine.server import percentile
from repro.queries.metrics import relative_errors

from . import loadgen, release, traffic
from .loadgen import Sample, Window
from .verify import mismatches

#: Connections the load generator opens (the box's usable cores).
CONNECTIONS = 2

#: Closed-loop warm-up before the measured window, so lazily built
#: caches (interval index, shard split) exist when timing starts.
WARMUP_SECONDS = 0.5

#: Distinct request bodies a closed loop cycles through.
BATCH_POOL = 512

#: ``mre_pct`` is scored on at least this many queries of the workload's
#: mix: the served ones and, off the clock, more from the same seed.
ACCURACY_QUERIES = 100_000

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
BOOT_TIMEOUT = 120.0


class ServerProcess:
    """``launcher.py`` in a subprocess, serving one release."""

    def __init__(self, payload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            self.proc.stdin.write(payload.encode("utf-8") + b"\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited during boot (code {self.proc.wait(BOOT_TIMEOUT)})"
                )
            info = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.port = int(info["port"])

    def peak_rss_mb(self) -> float:
        return release.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Close stdin (the launcher drains and exits); kill if it hangs."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc.stdout:
            self.proc.stdout.close()


@dataclass
class Setup:
    """One set-up of the served release, and what each step took."""

    server: ServerProcess
    matrix: FrequencyMatrix
    private: PrivateFrequencyMatrix
    payload: str
    seconds: Dict[str, float] = field(default_factory=dict)


def set_up() -> Setup:
    start = time.perf_counter()
    inputs = release.simulate(np.random.default_rng(release.SERVED_DATA_SEED))
    simulated = time.perf_counter()
    matrix = inputs.builder.build(inputs.dataset)
    built = time.perf_counter()
    private = release.sanitize(
        matrix,
        release.SERVED_METHOD,
        release.SERVED_EPSILON,
        np.random.default_rng(release.SERVED_NOISE_SEED),
    )
    payload = release.encode(private)
    encoded = time.perf_counter()
    server = ServerProcess(payload)
    ready = time.perf_counter()
    return Setup(
        server,
        matrix,
        private,
        payload,
        {
            "setup": ready - start,
            "od_build": built - simulated,
            "publish": encoded - simulated,
        },
    )


def set_up_repeatedly() -> Setup:
    """Set up ``release.SETUP_REPEATS`` times; keep the last server,
    report medians."""
    runs: List[Setup] = []
    try:
        for _ in range(release.SETUP_REPEATS):
            if runs:
                runs[-1].server.stop()
            runs.append(set_up())
    except BaseException:
        if runs:
            runs[-1].server.stop()
        raise
    last = runs[-1]
    last.seconds = {
        key: statistics.median(run.seconds[key] for run in runs)
        for key in last.seconds
    }
    return last


@dataclass
class Traffic:
    """A workload's seeded requests and how they are sent.

    ``scored`` starts with ``requests`` and is the pool ``mre_pct`` is
    scored on; its requests beyond ``requests`` are never sent.
    """

    requests: List[traffic.Request]
    warmup: List[traffic.Request]
    offsets: np.ndarray | None  # open loop send times; None = closed loop
    scored: List[traffic.Request]


def make_traffic(workload: str, shape, seed: int, seconds: float) -> Traffic:
    rng = np.random.default_rng(seed)
    warmup = traffic.batch_requests(shape, 2 * CONNECTIONS, rng)
    if workload == "serve_point":
        offsets = traffic.poisson_schedule(traffic.POINT_RATE, seconds, seed)
        n = max(len(offsets), -(-ACCURACY_QUERIES // traffic.POINT_QUERIES))
        pool = traffic.point_requests(shape, n, rng)
        return Traffic(pool[: len(offsets)], warmup, offsets, pool)
    pool = traffic.batch_requests(shape, BATCH_POOL, rng)
    return Traffic(pool, warmup, None, pool)


async def _drive(port: int, plan: Traffic, seconds: float, windows: int, statz: bool):
    """Warm up, then run ``windows`` measured windows of the same traffic.

    Returns the warm-up window, the measured windows, and (with
    ``statz``) a ``/statz`` snapshot before and after the last window,
    taken over the first connection between windows.
    """
    clients = await loadgen.connect("127.0.0.1", port, CONNECTIONS)
    try:
        warm = await loadgen.closed_loop(clients, plan.warmup, WARMUP_SECONDS)
        measured, snapshots = [], []
        for w in range(windows):
            last = w == windows - 1
            if statz and last:
                snapshots.append(await clients[0].statz())
            if plan.offsets is None:
                window = await loadgen.closed_loop(clients, plan.requests, seconds)
            else:
                window = await loadgen.open_loop(clients, plan.requests, plan.offsets)
            measured.append(window)
            if statz and last:
                snapshots.append(await clients[0].statz())
        return warm, measured, snapshots
    finally:
        await loadgen.close(clients)


def latency_metrics(window: Window) -> Dict[str, float]:
    """End-to-end figures of one window.  A failed request counts as
    missing every latency limit, so it sorts as infinitely slow."""
    latencies = sorted(
        s.latency if s.status == 200 else float("inf") for s in window.samples
    )
    answered = sum(
        len(s.answers) for s in window.samples if s.status == 200
    )
    return {
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "queries_per_s": answered / window.seconds,
    }


@dataclass
class Expected:
    """The dense reference's answers and the true counts of a request pool."""

    answers: np.ndarray
    true: np.ndarray
    starts: np.ndarray

    def answer(self, index: int) -> np.ndarray:
        return self.answers[self.starts[index] : self.starts[index + 1]]

    @property
    def mre_pct(self) -> float:
        return float(relative_errors(self.true, self.answers).mean())


def expected(
    requests: Sequence[traffic.Request], reference: Engine, truth: PrefixSumTable
) -> Expected:
    """Answer every request of a pool with ``reference`` (the dense plan on
    the served release) and with the true matrix."""
    lows = np.concatenate([r.lows for r in requests])
    highs = np.concatenate([r.highs for r in requests])
    starts = np.cumsum([0] + [r.n_queries for r in requests])
    return Expected(
        reference.answer_arrays(lows, highs), truth.query_arrays(lows, highs), starts
    )


@dataclass
class Check:
    """Outcome of checking one window's responses."""

    statuses: Counter = field(default_factory=Counter)
    mismatched: int = 0

    @property
    def failed(self) -> int:
        refused = sum(n for status, n in self.statuses.items() if status != 200)
        return refused + self.mismatched

    def merge(self, other: "Check") -> "Check":
        return Check(
            self.statuses + other.statuses, self.mismatched + other.mismatched
        )


def check(samples: Sequence[Sample], reference: Expected) -> Check:
    """Compare every answered request with the reference answers of its
    pool, and count refusals and mismatches."""
    out = Check(Counter(s.status for s in samples))
    for sample in samples:
        if sample.status == 200 and mismatches(reference.answer(sample.index), sample.answers):
            out.mismatched += 1
    return out


@dataclass
class Served:
    """A finished serving run: what was sent, answered and checked."""

    setup: Setup
    traffic: Traffic
    warmup: Window
    windows: List[Window]
    snapshots: List[dict]
    checks: List[Check]
    peak_rss_mb: float
    mre_pct: float

    @property
    def attempted(self) -> int:
        return sum(sum(c.statuses.values()) for c in self.checks)

    @property
    def total(self) -> Check:
        out = Check()
        for c in self.checks:
            out = out.merge(c)
        return out


def serve(
    setup: Setup, plan: Traffic, seconds: float, windows: int, statz: bool
) -> Served:
    """Drive ``plan`` at the set-up server, stop it, check every answer,
    and score the release's accuracy on the whole ``plan.scored`` pool.

    ``mre_pct`` is taken from the reference answers, which every served
    answer must match, so it depends only on the seed and the release.
    """
    try:
        warm, measured, snapshots = asyncio.run(
            _drive(setup.server.port, plan, seconds, windows, statz)
        )
        rss = setup.server.peak_rss_mb()
    finally:
        setup.server.stop()
    reference = Engine(setup.private, EngineConfig(plan="dense"))
    truth = PrefixSumTable(setup.matrix.data)
    scored = expected(plan.scored, reference, truth)
    checks = [check(warm.samples, expected(plan.warmup, reference, truth))]
    checks += [check(w.samples, scored) for w in measured]
    return Served(setup, plan, warm, measured, snapshots, checks, rss, scored.mre_pct)
