"""Resident shard-worker pool: persistent processes, one per shard.

``BENCH_sharded.json`` showed why per-call fan-out loses: every
``ProcessPoolTrialExecutor`` round pays process spawn plus pickling the
full shard arrays, which swamps the kernel time it was supposed to
parallelize.  :class:`ShardWorkerPool` fixes the cost model by making
both prices one-time:

* **Arrays** — each worker receives its
  :class:`~repro.core.sharding.PartitionShard` (packed
  ``lo``/``hi``/``noisy_counts`` plus the built interval index) as a
  process argument, once per worker life.  Under fork the child
  inherits the parent's arrays, so nothing is copied; under spawn the
  shard is pickled once.  A restarted worker gets the parent's cached
  shard again.
* **Processes** — one worker per shard, spawned once, answering query
  batches over one duplex pipe per worker life until shutdown.  Per
  request only the ``(q, d)`` bound arrays and the ``(q,)`` partial
  cross the pipe.

Protocol frames (full tables in ``docs/WORKERS.md``)::

    parent -> worker   ("batch", batch_id, lows, highs)
                       ("crash_next",)            # test hook
                       ("stop",)
    worker -> parent   ("ready", shard_id, pid)   # warmup handshake
                       ("done", shard_id, batch_id, partial, plan)
                       ("error", shard_id, batch_id, traceback)

Determinism: a worker executes the *same*
:meth:`~repro.core.sharding.PartitionShard.partial` the serial path
runs, over the same shard arrays and interval index, with the same
:class:`~repro.core.interval_index.PlanCost`; the parent merges
partials as a fixed-order sum in shard order.  Workers never consult
(or re-derive) any RNG state — a shard answer is pure arithmetic over
the shard's arrays — so pool answers are **bit-identical** to
``shard_executor="serial"``, and the equivalence suite asserts exactly
that (``==``, not a tolerance).

Waiting: the ready handshake, batch collection and the retry after a
crash all wait through one primitive, :meth:`_Worker.receive` — a
:func:`multiprocessing.connection.wait` on the worker's pipe and its
process sentinel.  A death wakes the parent at once; nothing polls.
Pipe sends block (there is no feeder thread), so two invariants keep
parent and worker from deadlocking:

* **every pipe is empty between batches** — :meth:`ShardWorkerPool.answer`
  reads every dispatched shard's frame before it raises the first
  failure, and a worker that misses its deadline is killed (its pipe
  may hold half a frame) and revived, as a restart, on the next
  dispatch;
* **dead-or-slow is decided only after reaping** — on EOF
  ``is_alive()`` can still read True for a moment, so a worker is
  joined before it is reported dead.

Lifecycle: spawn + ready handshake (:meth:`ShardWorkerPool.__init__`),
automatic restart of a crashed worker with the in-flight batch retried
once (:meth:`ShardWorkerPool.answer`), then a clean
:class:`~repro.engine.ServingError`; :meth:`ShardWorkerPool.shutdown`
is idempotent and reaps every worker.  A :func:`weakref.finalize` net
tears the workers down if a pool is dropped without shutdown.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..core.interval_index import PlanCost
from ..core.sharding import SHARD_SKIPPED, PartitionShard, ShardedAnswer
from .api import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.packed import PackedPartitioning

_log = logging.getLogger(__name__)

#: Seconds a freshly spawned worker gets to start up and send the
#: ``ready`` handshake before the pool declares it failed.
WARMUP_TIMEOUT = 60.0

#: Seconds the pool waits for one shard's partial before declaring the
#: batch failed and killing the worker (a worker that is alive but
#: silent for this long is indistinguishable from a livelocked one).
BATCH_TIMEOUT = 120.0

#: Exit code of the ``crash_next`` test hook, distinguishable from a
#: real kill in worker post-mortems.
_CRASH_EXIT_CODE = 117


def _preferred_context() -> multiprocessing.context.BaseContext:
    """Fork where available (POSIX), else spawn.

    Under fork a worker inherits its shard's arrays and interval index
    from the parent; under spawn the shard is pickled once per worker
    life.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_main(
    shard: PartitionShard,
    shard_id: int,
    cost: PlanCost | None,
    conn,
) -> None:
    """One resident worker: answer batches on ``shard`` until told to stop.

    Module-level so the spawn start method can import it by name.  The
    body deliberately touches no RNG (global or otherwise): everything
    it computes is a deterministic function of the shard's arrays and
    the batch bounds, which is what makes pool answers bit-identical to
    serial execution.
    """
    crash_next = False
    try:
        conn.send(("ready", shard_id, os.getpid()))
        while True:
            try:
                frame = conn.recv()
            except EOFError:  # the parent closed its end
                return
            kind = frame[0]
            if kind == "stop":
                return
            if kind == "crash_next":
                # Test hook: die *mid-batch* (after receiving, before
                # reply), the exact window the restart logic covers.
                crash_next = True
            elif kind == "batch":
                _, batch_id, lows, highs = frame
                if crash_next:
                    os._exit(_CRASH_EXIT_CODE)
                try:
                    partial, plan = shard.partial(lows, highs, cost)
                except BaseException:
                    conn.send(
                        (
                            "error",
                            shard_id,
                            batch_id,
                            traceback.format_exc(),
                        )
                    )
                else:
                    conn.send(("done", shard_id, batch_id, partial, plan))
    finally:
        conn.close()


class _Worker:
    """Parent-side handle: one worker life — process, pipe end, gauges."""

    __slots__ = ("shard_id", "process", "conn", "batches", "restarts")

    def __init__(self, shard_id, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.batches = 0
        self.restarts = 0

    def receive(self, timeout: float):
        """The pool's one wait primitive: the next frame, or ``None``
        once the worker is dead.

        Sleeps in :func:`multiprocessing.connection.wait` on the pipe
        and the process sentinel, so a frame, an EOF or an exit wakes
        it at once.  Death is reported only after the process is
        reaped.  A worker silent for ``timeout`` seconds is killed and
        reaped — its pipe may hold half a frame, so it must not serve
        again; the next dispatch revives it — and :class:`TimeoutError`
        is raised.
        """
        if not wait([self.conn, self.process.sentinel], timeout):
            self.process.kill()
            self.process.join()
            raise TimeoutError
        if self.conn.poll():  # a frame, or EOF
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass
        self.process.join()
        return None


def _finalize_pool(workers: List[_Worker]) -> None:
    """GC safety net: kill and reap the workers, close their pipes."""
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
    for worker in workers:
        worker.process.join(timeout=5.0)
        worker.conn.close()


class ShardWorkerPool:
    """Persistent per-shard worker processes answering query batches.

    Parameters
    ----------
    packed:
        The partition-backed matrix to shard.  Its cached
        ``split_shards`` result is what the workers receive, so pool
        and serial execution share the very same shards.
    n_shards:
        Worker/shard count (clipped to the partition count, like every
        sharded path).  ``None`` uses
        :data:`~repro.core.sharding.DEFAULT_N_SHARDS`.
    cost:
        Per-shard :class:`~repro.core.interval_index.PlanCost`, shipped
        to each worker once so pooled and serial planning are
        identical.

    Workers start with :func:`_preferred_context`; the handshake and
    per-shard deadlines are :data:`WARMUP_TIMEOUT` and
    :data:`BATCH_TIMEOUT`.  The pool is thread-safe (one internal lock
    serializes dispatch) and usable as a context manager;
    :meth:`shutdown` is idempotent.
    """

    def __init__(
        self,
        packed: "PackedPartitioning",
        n_shards: int | None = None,
        *,
        cost: PlanCost | None = None,
    ):
        self._shards = packed.split_shards(n_shards)
        for shard in self._shards:
            # Built once here: forked workers inherit the index and
            # spawned ones unpickle it, so none of them re-sorts.
            shard.packed.interval_index()
        self._bounds = tuple((s.start, s.stop) for s in self._shards)
        self._cost = cost
        self._ctx = _preferred_context()
        self._lock = threading.Lock()
        self._closed = False
        self._restarts_total = 0
        self._next_batch_id = 0
        self._inflight = 0
        # Mutated in place on restart — the finalizer holds this exact
        # list, so it always sees the current processes.
        self._workers: List[_Worker] = []
        self._finalizer = weakref.finalize(
            self, _finalize_pool, self._workers
        )
        try:
            for shard_id in range(self.n_shards):
                self._workers.append(self._spawn_worker(shard_id))
            for worker in self._workers:
                self._await_ready(worker)
        except BaseException:
            self._finalizer()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        return self._bounds

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        """Total worker restarts over the pool's lifetime."""
        return self._restarts_total

    def stats(self) -> Dict[str, object]:
        """Worker gauges for ``/statz``: liveness, restarts, depth,
        per-worker batch counts."""
        return {
            "n_workers": self.n_shards,
            "alive": sum(
                1 for w in self._workers if w.process.is_alive()
            ),
            "restarts": self._restarts_total,
            "queue_depth": self._inflight,
            "worker_batches": [w.batches for w in self._workers],
            "worker_restarts": [w.restarts for w in self._workers],
            "pids": [w.process.pid for w in self._workers],
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(self, lows: np.ndarray, highs: np.ndarray) -> ShardedAnswer:
        """Fan a validated batch out to the workers; merge fixed-order.

        Same contract as :func:`repro.core.sharding.answer_sharded`
        with this pool's shard layout: identical bounds, identical
        per-shard plans, and a merge that sums partials in shard order,
        so the answers are bit-identical to serial execution.  A worker
        found dead is restarted from the parent's cached shard before
        dispatch; a worker dying mid-batch triggers one restart + retry
        of that shard's batch, after which the failure surfaces as a
        :class:`~repro.engine.ServingError` (status 503).  Every
        dispatched shard's frame is read before the first failure is
        raised, so no pipe carries a stale frame into the next batch.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        q = int(lows.shape[0])
        with self._lock:
            self._ensure_open()
            if q == 0:
                # Mirror answer_sharded: evidence without dispatch.
                return ShardedAnswer(
                    answers=np.zeros(0, dtype=np.float64),
                    bounds=self.bounds,
                    plans=(SHARD_SKIPPED,) * self.n_shards,
                )
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            failures: List[ServingError] = []
            dispatched: List[int] = []
            for shard_id in range(self.n_shards):
                try:
                    self._dispatch(shard_id, batch_id, lows, highs)
                except ServingError as exc:
                    failures.append(exc)
                    break
                dispatched.append(shard_id)
            self._inflight = len(dispatched)
            partials = []
            try:
                for shard_id in dispatched:
                    try:
                        partials.append(
                            self._collect(shard_id, batch_id, lows, highs)
                        )
                    except ServingError as exc:
                        failures.append(exc)
                    self._inflight -= 1
            finally:
                self._inflight = 0
            if failures:
                raise failures[0]
        answers = np.zeros(q, dtype=np.float64)
        plans: List[str] = []
        for partial, plan in partials:
            plans.append(plan)
            if partial is not None:
                answers += partial
        return ShardedAnswer(
            answers=answers, bounds=self.bounds, plans=tuple(plans)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: drain the workers, reap them, close their pipes.

        Idempotent — a second call returns immediately.  Workers get a
        ``stop`` frame and ``timeout`` seconds to exit before being
        terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                if worker.process.is_alive():
                    try:
                        worker.conn.send(("stop",))
                    except OSError:
                        pass
            deadline = time.monotonic() + timeout
            for worker in self._workers:
                worker.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                worker.conn.close()
            self._finalizer.detach()  # cleanup is done; drop the net

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardWorkerPool(shards={self.n_shards}, "
            f"closed={self._closed})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError(
                503, {"error": "shard worker pool is shut down"}
            )

    def _spawn_worker(self, shard_id: int) -> _Worker:
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._shards[shard_id], shard_id, self._cost, child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The worker now holds the only copy of its end, so its
            # exit reads as EOF here.
            child_conn.close()
        return _Worker(shard_id, process, conn)

    def _await_ready(self, worker: _Worker) -> None:
        try:
            if worker.receive(WARMUP_TIMEOUT) is not None:
                return
            reason = (
                f"died during warmup (exit code {worker.process.exitcode})"
            )
        except TimeoutError:
            reason = (
                f"failed the warmup handshake within {WARMUP_TIMEOUT:g}s"
            )
        raise ServingError(
            503, {"error": f"shard worker {worker.shard_id} {reason}"}
        )

    def _restart_worker(self, shard_id: int) -> None:
        """Replace a dead worker, re-spawned from the parent's cached shard.

        A fresh pipe per life: a frame half-written by the previous
        incarnation can never be read as an answer from the new one.
        """
        old = self._workers[shard_id]
        if old.process.is_alive():  # pragma: no cover - defensive
            old.process.kill()
            old.process.join()
        old.conn.close()
        replacement = self._spawn_worker(shard_id)
        replacement.batches = old.batches
        replacement.restarts = old.restarts + 1
        self._workers[shard_id] = replacement
        self._restarts_total += 1
        try:
            self._await_ready(replacement)
        except ServingError as exc:
            raise ServingError(
                503,
                {
                    "error": f"shard worker {shard_id} could not be "
                    f"restarted: "
                    f"{exc.payload.get('error', str(exc))}"
                },
            ) from exc

    def _dispatch(
        self,
        shard_id: int,
        batch_id: int,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        if not self._workers[shard_id].process.is_alive():
            # Died idle (e.g. kill -9 between requests) or was killed
            # for a missed deadline: revive before send — this is a
            # restart, not a retry.
            self._restart_worker(shard_id)
        try:
            self._workers[shard_id].conn.send(
                ("batch", batch_id, lows, highs)
            )
        except OSError:
            pass  # died after the check: _collect sees it and retries

    def _collect(
        self,
        shard_id: int,
        batch_id: int,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        retried: bool = False,
    ) -> Tuple[np.ndarray | None, str]:
        worker = self._workers[shard_id]
        try:
            frame = worker.receive(BATCH_TIMEOUT)
        except TimeoutError:
            raise ServingError(
                503,
                {
                    "error": f"shard worker {shard_id} did not answer "
                    f"batch {batch_id} within {BATCH_TIMEOUT:g}s and "
                    f"was killed"
                },
            ) from None
        if frame is None:
            # Crash mid-batch: restart once and re-run, then give up.
            if retried:
                raise ServingError(
                    503,
                    {
                        "error": f"shard worker {shard_id} crashed twice "
                        f"answering batch {batch_id} (last exit code "
                        f"{worker.process.exitcode}); giving up after "
                        f"one retry"
                    },
                )
            self._restart_worker(shard_id)
            self._dispatch(shard_id, batch_id, lows, highs)
            return self._collect(
                shard_id, batch_id, lows, highs, retried=True
            )
        if frame[0] == "done":
            worker.batches += 1
            return frame[3], frame[4]
        # An in-worker exception: the traceback is for the operator's
        # log, not for HTTP clients.
        _log.error(
            "shard worker %d failed batch %d:\n%s",
            shard_id,
            batch_id,
            frame[3],
        )
        raise ServingError(
            500,
            {"error": f"shard worker {shard_id} failed batch {batch_id}"},
        )
