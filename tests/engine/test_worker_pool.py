"""ShardWorkerPool lifecycle and failure paths.

The equivalence suite (``tests/core/test_plan_equivalence.py``) pins
the happy path — pool answers bit-identical to serial sharded
execution across partitioning families and shard counts.  This module
covers everything that can go *wrong* around that path:

* a worker killed hard (``SIGKILL``) between batches is restarted from
  the parent's cached shard and the next batch is still exact;
* a worker dying **mid-batch** triggers restart + one retry of the
  in-flight batch; a second death surfaces as a clean
  :class:`~repro.engine.ServingError` (503) instead of a hang;
* a restart that itself fails surfaces as :class:`ServingError`;
* a failure still drains every other shard's reply, and a worker that
  misses its deadline is killed and revived on the next batch;
* the pool is bit-identical to serial sharded evaluation under both
  the ``fork`` and the ``spawn`` start method;
* shutdown is idempotent, reaps every worker and closes its pipe, and
  later ``answer`` calls fail with :class:`ServingError`;
* no path leaks a process or trips the ``resource_tracker`` — verified
  end-to-end in a subprocess whose stderr must stay silent.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import boxes_to_arrays, full_box
from repro.core.sharding import SHARD_SKIPPED, answer_sharded
from repro.engine import (
    Engine,
    EngineConfig,
    QueryRequest,
    ServingError,
    ShardWorkerPool,
)
from repro.engine import worker_pool
from repro.methods._grid import axis_intervals
from repro.core import PrivateFrequencyMatrix, packed_from_intervals

SHAPE = (32, 32)


def _private(m=8, seed=0):
    rng = np.random.default_rng(seed)
    intervals = [axis_intervals(s, m) for s in SHAPE]
    noisy = rng.poisson(20.0, size=m * m).astype(float)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return PrivateFrequencyMatrix.from_packed(packed, method="grid")


def _batch(n=40, seed=1):
    rng = np.random.default_rng(seed)
    boxes = [full_box(SHAPE)]
    for _ in range(n):
        a = rng.integers(0, SHAPE[0], 2)
        b = rng.integers(0, SHAPE[1], 2)
        boxes.append(tuple((min(x, y), max(x, y)) for x, y in zip(a, b)))
    return boxes_to_arrays(boxes)


@pytest.fixture
def private():
    return _private()


@pytest.fixture
def pool(private):
    p = ShardWorkerPool(private.packed, 3)
    yield p
    p.shutdown()


def _serial(private, lows, highs):
    return answer_sharded(private.packed, lows, highs, n_shards=3)


def _large_batch(n, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, SHAPE[0], (n, 2))
    b = rng.integers(0, SHAPE[1], (n, 2))
    return np.minimum(a, b), np.maximum(a, b)


def _answer_within(pool, lows, highs, timeout):
    """``pool.answer`` that fails, instead of hanging, on a deadlock."""
    box = []

    def run():
        try:
            box.append(pool.answer(lows, highs))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        for pid in pool.stats()["pids"]:
            os.kill(pid, signal.SIGKILL)  # unblocks the parent's send
        thread.join(10.0)
        pytest.fail(f"pool.answer did not return within {timeout:g}s")
    if isinstance(box[0], BaseException):
        raise box[0]
    return box[0]


def _wait_dead(process, timeout=5.0):
    deadline = time.monotonic() + timeout
    while process.is_alive():
        assert time.monotonic() < deadline, "worker did not die"
        time.sleep(0.01)


def _assert_reaped(pool):
    """Every worker has exited and been joined; every pipe is closed."""
    for worker in pool._workers:
        assert not worker.process.is_alive()
        assert worker.process.exitcode is not None
        assert worker.conn.closed


class TestLifecycle:
    def test_answers_are_bit_identical_and_workers_persist(
        self, private, pool
    ):
        lows, highs = _batch()
        serial = _serial(private, lows, highs)
        pids = pool.stats()["pids"]
        for _ in range(3):
            result = pool.answer(lows, highs)
            np.testing.assert_array_equal(result.answers, serial.answers)
            assert result.plans == serial.plans
        stats = pool.stats()
        assert stats["pids"] == pids  # same processes across batches
        assert stats["worker_batches"] == [3, 3, 3]
        assert stats["restarts"] == 0 and stats["alive"] == 3

    def test_zero_query_batch_skips_dispatch(self, pool):
        empty = np.empty((0, 2), dtype=np.int64)
        result = pool.answer(empty, empty)
        assert result.answers.size == 0
        assert result.plans == (SHARD_SKIPPED,) * 3
        assert pool.stats()["worker_batches"] == [0, 0, 0]

    def test_stats_gauges(self, private, pool):
        stats = pool.stats()
        assert stats["n_workers"] == 3 and stats["alive"] == 3
        assert stats["queue_depth"] == 0 and not stats["closed"]
        assert len(stats["pids"]) == 3
        assert all(isinstance(p, int) for p in stats["pids"])


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_matches_serial_under_start_method(private, monkeypatch, method):
    """Forked workers inherit their shard, spawned ones unpickle it;
    either way the pool answers bit for bit like ``answer_sharded``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    monkeypatch.setattr(
        worker_pool,
        "_preferred_context",
        lambda: multiprocessing.get_context(method),
    )
    lows, highs = _batch()
    serial = _serial(private, lows, highs)
    with ShardWorkerPool(private.packed, 3) as pool:
        result = pool.answer(lows, highs)
    np.testing.assert_array_equal(result.answers, serial.answers)
    assert result.plans == serial.plans
    assert result.bounds == serial.bounds


class TestCrashRecovery:
    def test_sigkill_idle_worker_restarts_on_next_batch(
        self, private, pool
    ):
        lows, highs = _batch()
        serial = _serial(private, lows, highs)
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        _wait_dead(victim)
        result = pool.answer(lows, highs)
        np.testing.assert_array_equal(result.answers, serial.answers)
        stats = pool.stats()
        assert stats["restarts"] == 1
        assert stats["worker_restarts"] == [1, 0, 0]
        assert stats["alive"] == 3
        assert stats["pids"][0] != victim.pid

    def test_crash_mid_batch_restarts_and_retries_once(
        self, private, pool
    ):
        lows, highs = _batch()
        serial = _serial(private, lows, highs)
        # The crash_next hook makes worker 1 die *after* receiving the
        # next batch frame and before replying — the exact in-flight
        # window the retry logic covers.
        pool._workers[1].conn.send(("crash_next",))
        result = pool.answer(lows, highs)
        np.testing.assert_array_equal(result.answers, serial.answers)
        assert pool.stats()["restarts"] == 1
        # The pool keeps serving normally afterwards.
        again = pool.answer(lows, highs)
        np.testing.assert_array_equal(again.answers, serial.answers)
        assert pool.stats()["restarts"] == 1

    def test_second_crash_surfaces_as_serving_error(
        self, private, pool, monkeypatch
    ):
        lows, highs = _batch()
        original = pool._restart_worker

        def sabotaged_restart(shard_id):
            # Restart succeeds, but the replacement is primed to crash
            # on its first batch — so the one allowed retry also dies.
            original(shard_id)
            pool._workers[shard_id].conn.send(("crash_next",))

        monkeypatch.setattr(pool, "_restart_worker", sabotaged_restart)
        pool._workers[0].conn.send(("crash_next",))
        with pytest.raises(ServingError) as excinfo:
            pool.answer(lows, highs)
        assert excinfo.value.status == 503
        assert "crashed twice" in str(excinfo.value)

    def test_failed_restart_surfaces_as_serving_error(
        self, private, pool, monkeypatch
    ):
        lows, highs = _batch()

        def broken_spawn(shard_id):
            raise ServingError(
                503, {"error": f"shard worker {shard_id} refused to start"}
            )

        monkeypatch.setattr(pool, "_restart_worker", broken_spawn)
        victim = pool._workers[2].process
        os.kill(victim.pid, signal.SIGKILL)
        _wait_dead(victim)
        with pytest.raises(ServingError) as excinfo:
            pool.answer(lows, highs)
        assert excinfo.value.status == 503

    def test_worker_error_frame_is_a_500(self, private, pool, caplog):
        # An in-worker exception (not a death) must come back as a 500
        # and must not kill the worker.  Its traceback goes to the log:
        # the payload reaches HTTP clients, so it carries only "error".
        lows, highs = _batch()
        pool._workers[0].conn.send(("batch", 10_000, "not-an-array", "nope"))
        with caplog.at_level("ERROR", logger="repro.engine.worker_pool"):
            with pytest.raises(ServingError) as excinfo:
                pool._collect(0, 10_000, lows, highs)
        assert excinfo.value.status == 500
        assert excinfo.value.payload == {
            "error": "shard worker 0 failed batch 10000"
        }
        assert any("Traceback" in r.getMessage() for r in caplog.records)
        assert pool._workers[0].process.is_alive()
        # And the pool still answers fine afterwards.
        serial = _serial(private, lows, highs)
        np.testing.assert_array_equal(
            pool.answer(lows, highs).answers, serial.answers
        )


class TestPipeInvariants:
    """Pipe sends block, so the pool keeps every pipe empty between
    batches: it drains after a failure and kills a worker that misses
    its deadline (docs/WORKERS.md)."""

    def test_failure_drains_other_shards_before_raising(
        self, private, monkeypatch
    ):
        # 60k queries: shard 1's partial (480 KB) is larger than the
        # socket buffer, so left unread it would keep worker 1 blocked
        # in send, and the next large batch would deadlock with parent
        # and worker both sending.
        lows, highs = _large_batch(60_000)
        serial = answer_sharded(private.packed, lows, highs, n_shards=2)
        pool = ShardWorkerPool(private.packed, 2)
        try:
            original = pool._restart_worker
            primed = []

            def crash_retry_once(shard_id):
                original(shard_id)
                if not primed:
                    primed.append(shard_id)
                    pool._workers[shard_id].conn.send(("crash_next",))

            monkeypatch.setattr(pool, "_restart_worker", crash_retry_once)
            pool._workers[0].conn.send(("crash_next",))
            with pytest.raises(ServingError, match="crashed twice"):
                pool.answer(lows, highs)
            result = _answer_within(pool, lows, highs, timeout=30.0)
            np.testing.assert_array_equal(result.answers, serial.answers)
            assert pool.stats()["worker_restarts"] == [2, 0]
        finally:
            pool.shutdown()

    def test_deadline_miss_kills_the_worker_and_next_batch_revives_it(
        self, private, pool, monkeypatch
    ):
        lows, highs = _batch()
        serial = _serial(private, lows, highs)
        monkeypatch.setattr(worker_pool, "BATCH_TIMEOUT", 0.5)
        victim = pool._workers[1].process
        os.kill(victim.pid, signal.SIGSTOP)
        with pytest.raises(ServingError) as excinfo:
            pool.answer(lows, highs)
        assert excinfo.value.status == 503
        assert "within 0.5s" in str(excinfo.value)
        assert victim.exitcode == -signal.SIGKILL
        result = pool.answer(lows, highs)
        np.testing.assert_array_equal(result.answers, serial.answers)
        stats = pool.stats()
        assert stats["restarts"] == 1
        assert stats["worker_restarts"] == [0, 1, 0]
        assert stats["alive"] == 3


class TestShutdown:
    def test_double_shutdown_is_idempotent(self, private):
        pool = ShardWorkerPool(private.packed, 3)
        lows, highs = _batch(10)
        pool.answer(lows, highs)
        pool.shutdown()
        pool.shutdown()  # second call: no error, nothing left to stop
        assert pool.closed
        _assert_reaped(pool)

    def test_answer_after_shutdown_is_serving_error(self, private):
        pool = ShardWorkerPool(private.packed, 2)
        pool.shutdown()
        lows, highs = _batch(5)
        with pytest.raises(ServingError) as excinfo:
            pool.answer(lows, highs)
        assert excinfo.value.status == 503
        assert "shut down" in str(excinfo.value)

    def test_context_manager_shuts_down(self, private):
        with ShardWorkerPool(private.packed, 2) as pool:
            assert pool.stats()["alive"] == 2
        assert pool.closed
        _assert_reaped(pool)

    def test_engine_close_resets_and_pool_respawns(self, private):
        engine = Engine(
            private, EngineConfig(n_shards=2, shard_executor="resident")
        )
        lows, highs = _batch(10)
        serial = _serial(private, lows, highs)
        first = engine.shard_pool()
        engine.close()
        assert first.closed and engine.pool_stats() is None
        # The engine stays usable: a later batch spawns a fresh pool.
        result = engine.answer(QueryRequest(lows, highs))
        try:
            np.testing.assert_array_equal(
                result.answers[: serial.answers.size],
                serial.answers[: result.answers.size],
            )
            second = engine.shard_pool()
            assert second is not first and not second.closed
        finally:
            engine.close()


class TestNoResourceLeaks:
    """End-to-end: a full pool lifecycle leaves no tracker complaints.

    Run in a subprocess so the ``resource_tracker`` of *that* process
    tree finishes its lifetime inside the test — leak warnings are
    emitted at interpreter exit, which an in-process test can't see.
    """

    SCRIPT = """
import multiprocessing, os, signal, time
import numpy as np
from repro.core import packed_from_intervals, PrivateFrequencyMatrix
from repro.engine import ShardWorkerPool, worker_pool
from repro.methods._grid import axis_intervals

intervals = [axis_intervals(32, 8) for _ in range(2)]
noisy = np.arange(64, dtype=float)
packed = packed_from_intervals(intervals, noisy, (32, 32))
private = PrivateFrequencyMatrix.from_packed(packed, method="grid")

rng = np.random.default_rng(0)
lows = rng.integers(0, 32, (20, 2)).astype(np.int64)
highs = np.minimum(lows + 4, 31)

preferred = worker_pool._preferred_context
for context in (preferred, lambda: multiprocessing.get_context("spawn")):
    worker_pool._preferred_context = context
    pool = ShardWorkerPool(private.packed, 3)
    first = pool.answer(lows, highs)
    # Hard-kill one worker (kill -9: no cleanup handlers run in it),
    # then keep serving through the restart path.
    os.kill(pool.stats()["pids"][0], signal.SIGKILL)
    time.sleep(0.2)
    second = pool.answer(lows, highs)
    assert np.array_equal(first.answers, second.answers)
    assert pool.stats()["restarts"] == 1
    pool.shutdown()
worker_pool._preferred_context = preferred

# One pool deliberately dropped without shutdown: the GC finalizer
# must clean it (workers and pipes) without tracker noise either.
leaked = ShardWorkerPool(private.packed, 2)
leaked.answer(lows, highs)
del leaked
import gc; gc.collect()
print("LIFECYCLE-OK")
"""

    def test_subprocess_stderr_has_no_leak_warnings(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=180,
            env=env,
        )
        assert proc.returncode == 0, (
            f"lifecycle script failed\nstdout:\n{proc.stdout}\n"
            f"stderr:\n{proc.stderr}"
        )
        assert "LIFECYCLE-OK" in proc.stdout
        # Neither leak warnings nor resource_tracker tracebacks on any
        # path, including kill -9 and a pool cleaned up by the GC.
        assert "leaked" not in proc.stderr.lower(), proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
