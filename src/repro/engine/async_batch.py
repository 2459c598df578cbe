"""Async micro-batching: many concurrent clients, one engine call per tick.

The serving cost of a range-query batch is dominated by per-invocation
overhead — bound validation, plan selection, a possible dense
reconstruction, kernel launch — that the vectorized engine amortizes
over the whole batch.  A client that sends one query at a time forfeits
all of that.  :class:`AsyncBatchEngine` wins it back *across* clients:
concurrent ``await engine.answer(request)`` calls are accumulated into
a **tick**, the tick is answered with exactly one
:meth:`~repro.engine.Engine.answer` invocation on the concatenated
batch, and the answer vector is demultiplexed back to each client's
future, which also receives the tick-level execution evidence (plan,
shard plans, tick wall-clock).

Ticks are **self-clocking** (group commit): there is no flush timer.

* With no tick in flight, the first pending request schedules a flush
  for the end of the current event-loop iteration (``call_soon``), so
  every request that arrives in the same iteration rides one tick.
* While an off-loop tick is in flight, requests accumulate; the tick's
  completion flushes them as the next tick.  Ticks therefore grow with
  the load instead of with a latency budget, and a lone request never
  waits on a clock.
* ``max_batch_size`` (from the engine's
  :class:`~repro.engine.EngineConfig`) pending requests flush at once.

Inline ticks are never in flight, so a run of them forms one tick per
loop iteration.

**Determinism.**  Batching changes *scheduling*, never *answers*: every
kernel computes each query's sum in an order fixed by that query alone
(broadcast reduces the full partition axis per query; the pruned gather
bincounts each query's own candidate run; dense prefix sums touch
``2^d`` corners; shard merge is a fixed-order sum), so a query's answer
is bit-identical whether it travels alone or inside any tick — provided
the same plan runs.  Plan *choice* is the one batch-shaped input, so a
serving deployment that requires bit-exactness across batching pins
``config.plan``; the async test suite enforces equality at 0.0, not
1e-9.

Each request's bounds are validated once, at admission; the tick goes
to the engine as a :class:`~repro.engine.engine.ValidatedTick`, which
:meth:`Engine.answer` routes without validating it again.

Cancellation is safe: a client that abandons its pending request (task
cancelled, timeout) is dropped at flush time — its queries are simply
excluded from the tick and every other client's answers are unaffected.

**Inline vs off-loop kernels.**  All bookkeeping runs on the event
loop.  Without an ``executor`` every tick's kernel runs inline in the
flush — it releases the GIL for the heavy parts but blocks the loop for
the whole call.  Pass an ``executor`` (a
:class:`concurrent.futures.ThreadPoolExecutor`) and heavy ticks are
dispatched through ``loop.run_in_executor`` instead: the loop keeps
accepting requests, forming the next tick, and firing timeouts while
the kernel runs in the worker thread.  A *light* tick still runs
inline: one the engine's :meth:`~repro.engine.Engine.runs_inline`
accepts (unsharded, partition-backed, ``n_queries * n_partitions`` at
most :data:`~repro.engine.engine.INLINE_MAX_PAIRS`, a few milliseconds
of kernel), because a thread round trip costs more than such a kernel.
Threads — not processes — are the right executor because numpy
releases the GIL inside the kernels, so the overlap is real and nothing
is pickled.  Answers are identical either way (same
:meth:`Engine.answer` call on the same concatenated batch);
:meth:`drain` awaits in-flight off-loop ticks before returning, so
shutdown never abandons a dispatched kernel.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque
from concurrent.futures import Executor
from typing import Deque, Dict, List, Set, Tuple

import numpy as np

from ..core.packed import validate_box_arrays
from .api import QueryAnswer, QueryRequest
from .engine import Engine, ValidatedTick


class _Pending:
    """One client's enqueued request and the future that resolves it."""

    __slots__ = ("request", "future", "n_queries")

    def __init__(
        self,
        request: QueryRequest,
        future: "asyncio.Future[QueryAnswer]",
    ):
        self.request = request
        self.future = future
        self.n_queries = request.n_queries


class AsyncBatchEngine:
    """Accumulate concurrent requests into ticks; answer each tick once.

    Wraps a synchronous :class:`~repro.engine.Engine`; the one flush
    threshold is the engine config's ``max_batch_size``, and an
    optional ``executor`` moves each heavy tick's kernel off the event
    loop (see the module docstring).  Use from a single event loop::

        engine = Engine(private, EngineConfig(plan="broadcast"))
        batcher = AsyncBatchEngine(engine)
        answer = await batcher.answer(QueryRequest(lows, highs))
    """

    def __init__(self, engine: Engine, *, executor: Executor | None = None):
        self._engine = engine
        self._executor = executor
        self._pending: List[_Pending] = []
        self._flush_scheduled = False
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._ticks = 0
        self._answered_queries = 0
        self._answered_requests = 0
        self._dropped_requests = 0
        self._last_tick_queries = 0
        self._max_tick_queries = 0
        self._tick_sizes: Deque[int] = deque(maxlen=4096)
        self._ticks_inline = 0
        self._tick_plans: Counter = Counter()

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    @property
    def inflight_ticks(self) -> int:
        """Off-loop ticks dispatched to the executor and not yet demuxed."""
        return len(self._inflight)

    @property
    def recent_tick_queries(self) -> Tuple[int, ...]:
        """Query counts of the most recent ticks (bounded window)."""
        return tuple(self._tick_sizes)

    @property
    def stats(self) -> Dict[str, float]:
        """Cumulative serving counters (ticks, requests, queries)."""
        return {
            "ticks": self._ticks,
            "ticks_inline": self._ticks_inline,
            "ticks_off_loop": self._ticks - self._ticks_inline,
            "answered_requests": self._answered_requests,
            "answered_queries": self._answered_queries,
            "dropped_requests": self._dropped_requests,
            "last_tick_queries": self._last_tick_queries,
            "max_tick_queries": self._max_tick_queries,
            "mean_tick_queries": (
                self._answered_queries / self._ticks if self._ticks else 0.0
            ),
        }

    @property
    def tick_plans(self) -> Dict[str, int]:
        """Answered ticks by the plan that ran them."""
        return dict(self._tick_plans)

    # ------------------------------------------------------------------
    async def answer(self, request: QueryRequest) -> QueryAnswer:
        """Enqueue one client's batch; resolves when its tick is answered.

        Bounds are validated *before* enqueueing, so a malformed request
        raises in its own caller instead of poisoning the whole tick,
        and the tick gets them normalized to int64: valid requests of
        different integer dtypes (say ``uint64`` and ``int64``) would
        otherwise concatenate to float64.  A zero-query request is
        answered inline (there is nothing to amortize, and its possibly
        ``(0, 0)``-shaped arrays must not enter a tick's
        concatenation), matching the synchronous engine.
        """
        if request.n_queries == 0:
            return self._engine.answer(request)
        lows, highs = validate_box_arrays(
            request.lows, request.highs, self._engine.private.shape
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryAnswer]" = loop.create_future()
        self._pending.append(
            _Pending(QueryRequest(lows, highs, request.workload), future)
        )
        if len(self._pending) >= self._engine.config.max_batch_size:
            self._flush()
        elif not self._inflight:
            # An in-flight tick flushes what queued behind it when its
            # kernel returns (``_run_tick_off_loop``).
            self._schedule_flush()
        return await future

    async def answer_arrays(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """:meth:`answer` for bare arrays; returns just the answers."""
        result = await self.answer(QueryRequest(lows, highs))
        return result.answers

    async def drain(self) -> None:
        """Flush pending and await in-flight ticks (shutdown hook)."""
        self._flush()
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight))
        # Let the just-resolved futures' awaiters run before returning.
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    def _schedule_flush(self) -> None:
        """Flush at the end of this event-loop iteration (once)."""
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _inline(self, n_queries: int) -> bool:
        """Whether a tick of ``n_queries`` runs on the loop."""
        return self._executor is None or self._engine.runs_inline(n_queries)

    def _flush(self) -> None:
        """Answer every live pending request with one engine invocation.

        A light tick (see :meth:`_inline`) runs inline, blocking the
        loop for the duration of its kernel; any other is dispatched to
        the ``executor`` (a tracked :class:`asyncio.Task` awaits the
        worker thread and demuxes).
        """
        self._flush_scheduled = False
        batch = self._pending
        self._pending = []
        live = [p for p in batch if not p.future.done()]
        self._dropped_requests += len(batch) - len(live)
        if not live:
            return
        lows = np.concatenate([p.request.lows for p in live], axis=0)
        highs = np.concatenate([p.request.highs for p in live], axis=0)
        request = ValidatedTick(lows, highs)
        if not self._inline(len(lows)):
            task = asyncio.get_running_loop().create_task(
                self._run_tick_off_loop(live, request)
            )
            self._inflight.add(task)
            return
        try:
            tick = self._engine.answer(request)
        except Exception as exc:  # noqa: BLE001 - forwarded to clients
            self._fail(live, exc)
            return
        self._ticks_inline += 1
        self._demux(live, tick)

    async def _run_tick_off_loop(
        self, live: List[_Pending], request: QueryRequest
    ) -> None:
        """Run one tick's kernel in the executor, then demux on-loop.

        Self-clocking: the moment the kernel returns, what queued behind
        this tick becomes the next one.  An off-loop successor is
        dispatched before the demux, so its kernel overlaps this tick's
        response work; an inline one would block the loop, so it is
        flushed only after this tick's clients have been resumed.
        """
        loop = asyncio.get_running_loop()
        try:
            tick = await loop.run_in_executor(
                self._executor, self._engine.answer, request
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to clients
            tick = exc
        finally:
            self._inflight.discard(asyncio.current_task())
        successor = bool(self._pending) and not self._inflight
        if successor and not self._inline(
            sum(p.n_queries for p in self._pending)
        ):
            self._flush()
            successor = False
        if isinstance(tick, Exception):
            self._fail(live, tick)
        else:
            self._demux(live, tick)
        if successor:
            self._schedule_flush()

    @staticmethod
    def _fail(live: List[_Pending], exc: BaseException) -> None:
        for p in live:
            if not p.future.done():
                p.future.set_exception(exc)

    def _demux(self, live: List[_Pending], tick: QueryAnswer) -> None:
        """Slice one answered tick back into per-client futures."""
        self._ticks += 1
        self._last_tick_queries = int(tick.n_queries)
        self._max_tick_queries = max(
            self._max_tick_queries, self._last_tick_queries
        )
        self._tick_sizes.append(self._last_tick_queries)
        self._tick_plans[tick.plan] += 1
        offset = 0
        for p in live:
            chunk = tick.answers[offset:offset + p.n_queries]
            offset += p.n_queries
            if p.future.done():  # cancelled between collection and now
                self._dropped_requests += 1
                continue
            self._answered_requests += 1
            self._answered_queries += p.n_queries
            p.future.set_result(
                QueryAnswer(
                    answers=chunk,
                    plan=tick.plan,
                    workload=p.request.workload,
                    shard_bounds=tick.shard_bounds,
                    shard_plans=tick.shard_plans,
                    elapsed_seconds=tick.elapsed_seconds,
                )
            )


async def gather_answers(
    batcher: AsyncBatchEngine, requests: List[QueryRequest]
) -> Tuple[QueryAnswer, ...]:
    """Submit many client requests concurrently; answers in request order.

    The canonical N-clients-one-tick pattern, used by the tests and the
    micro-benchmark.
    """
    return tuple(
        await asyncio.gather(*(batcher.answer(r) for r in requests))
    )
