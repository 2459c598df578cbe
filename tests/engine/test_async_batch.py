"""AsyncBatchEngine: concurrency equivalence, flush policy, cancellation.

The headline guarantee: answers produced through the micro-batching
endpoint are **bit-identical** to one-by-one `Engine.answer` calls —
max absolute difference 0.0, not 1e-9 — because each query runs through
the same kernel invocation arithmetic regardless of the tick it rides
in (per-query reductions are batch-shape-independent; plan choice is
pinned by the config, the serving determinism lever).
"""

import asyncio
import sys
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    PrivateFrequencyMatrix,
    QueryError,
    packed_from_intervals,
)
from repro.core.interval_index import PRUNE_MIN_PARTITIONS
from repro.engine import async_batch as async_batch_module
from repro.engine import engine as engine_module
from repro.engine import (
    AsyncBatchEngine,
    Engine,
    EngineConfig,
    QueryRequest,
    gather_answers,
)
from repro.methods._grid import axis_intervals

SHAPE = (128, 128)


def grid_private(m=32):
    rng = np.random.default_rng(0)
    intervals = [axis_intervals(s, m) for s in SHAPE]
    noisy = rng.poisson(40.0, size=m * m).astype(float)
    noisy += rng.laplace(0.0, 2.0, size=m * m)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return PrivateFrequencyMatrix.from_packed(packed, method="grid")


def client_requests(n_clients, rng, q_low=1, q_high=6):
    requests = []
    for i in range(n_clients):
        q = int(rng.integers(q_low, q_high))
        a = rng.integers(0, SHAPE[0], size=(q, 2))
        b = rng.integers(0, SHAPE[0], size=(q, 2))
        requests.append(
            QueryRequest(
                np.minimum(a, b).astype(np.int64),
                np.maximum(a, b).astype(np.int64),
                workload=f"client-{i}",
            )
        )
    return requests


def assert_exact(engine, requests, answers):
    for request, answer in zip(requests, answers):
        serial = engine.answer(request)
        assert float(np.abs(serial.answers - answer.answers).max()) == 0.0


class GatedEngine(Engine):
    """An engine whose ``answer`` blocks until ``gate`` is set.

    Behind a one-thread executor it holds a tick in flight for as long
    as a test needs, so the flush policy is pinned by structure (what
    is pending while which tick runs), not by wall-clock time.
    """

    def __init__(self, engine):
        super().__init__(engine.private, engine.config)
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.tick_queries = []

    def runs_inline(self, n_queries):
        return False

    def answer(self, request):
        self.entered.set()
        assert self.gate.wait(timeout=10.0), "gate never opened"
        self.tick_queries.append(request.n_queries)
        return super().answer(request)

    async def held(self):
        """Wait until a tick is blocked inside :meth:`answer`."""
        assert await asyncio.to_thread(self.entered.wait, 10.0)


def record_timers(loop):
    """Record every timer armed on ``loop`` (all of them go via call_at)."""
    armed = []
    call_at = loop.call_at

    def recording_call_at(when, *args, **kwargs):
        armed.append(when)
        return call_at(when, *args, **kwargs)

    loop.call_at = recording_call_at
    return armed


@pytest.fixture(scope="module")
def private():
    return grid_private()


class TestConcurrencyEquivalence:
    """N interleaved clients ≡ serial answers, exactly (0.0 drift)."""

    @pytest.mark.parametrize(
        "plan", [PLAN_BROADCAST, PLAN_PRUNED, PLAN_DENSE, PLAN_SHARDED]
    )
    def test_batched_equals_serial_bit_for_bit(self, private, plan):
        # For the sharded layout the per-shard kernel choice is also
        # batch-shaped, so the config pins the whole route: 16 shards of
        # 64 partitions sit below PRUNE_MIN_PARTITIONS, so every shard
        # broadcasts whatever the batch.
        assert private.n_partitions // 16 < PRUNE_MIN_PARTITIONS
        config = EngineConfig(
            plan=plan,
            n_shards=16 if plan == PLAN_SHARDED else None,
            max_batch_size=24,
        )
        engine = Engine(private, config)
        requests = client_requests(24, np.random.default_rng(1))

        async def run():
            batcher = AsyncBatchEngine(engine)
            return await gather_answers(batcher, requests), batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] == 1  # one engine invocation for all clients
        assert stats["answered_requests"] == 24
        for request, answer in zip(requests, answers):
            serial = engine.answer(request)
            diff = float(np.abs(serial.answers - answer.answers).max())
            assert diff == 0.0, f"plan={plan}: batched drifted by {diff}"
            assert answer.workload == request.workload
            assert answer.plan == serial.plan

    def test_many_ticks_still_exact(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=7)
        )
        requests = client_requests(30, np.random.default_rng(2))

        async def run():
            # Four size-7 ticks, then the 30 % 7 residue flushes at the
            # end of the loop iteration.
            batcher = AsyncBatchEngine(engine)
            return await gather_answers(batcher, requests), batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] >= 4  # size-30 load over size-7 ticks
        for request, answer in zip(requests, answers):
            assert (
                float(
                    np.abs(engine.answer(request).answers - answer.answers).max()
                )
                == 0.0
            )


class TestFlushTriggers:
    def test_flush_on_size_does_not_wait_for_timeout(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=4)
        )
        requests = client_requests(4, np.random.default_rng(3))

        async def run():
            batcher = AsyncBatchEngine(engine)
            tasks = [
                asyncio.ensure_future(batcher.answer(r)) for r in requests
            ]
            await asyncio.sleep(0)  # every request enqueues this iteration
            # The fourth request flushed inside answer(), before the
            # end-of-iteration flush could run.
            assert batcher.stats["ticks"] == 1
            assert batcher.pending_requests == 0
            return await asyncio.gather(*tasks), batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] == 1 and len(answers) == 4

    def test_drain_flushes_immediately(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=10_000)
        )
        [request] = client_requests(1, np.random.default_rng(5))

        async def run():
            batcher = AsyncBatchEngine(engine)
            task = asyncio.ensure_future(batcher.answer(request))
            await asyncio.sleep(0)  # let the request enqueue
            assert batcher.pending_requests == 1
            await batcher.drain()
            return await asyncio.wait_for(task, timeout=1.0)

        answer = asyncio.run(run())
        assert (
            float(np.abs(engine.answer(request).answers - answer.answers).max())
            == 0.0
        )


class TestSelfClocking:
    """Group-commit flushing: no timer, ticks form behind in-flight ticks."""

    def test_lone_request_answered_without_a_timer(self, private):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        [request] = client_requests(1, np.random.default_rng(20))

        async def run():
            armed = record_timers(asyncio.get_running_loop())
            batcher = AsyncBatchEngine(engine)
            task = asyncio.ensure_future(batcher.answer(request))
            # Enqueue, end-of-iteration flush, wake-up: three iterations.
            for _ in range(3):
                await asyncio.sleep(0)
            assert task.done(), "a lone request waited on a clock"
            return task.result(), armed

        answer, armed = asyncio.run(run())
        assert armed == []
        assert_exact(engine, [request], [answer])

    def test_lone_request_dispatched_off_loop_without_a_timer(
        self, private
    ):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        gated = GatedEngine(engine)
        [request] = client_requests(1, np.random.default_rng(21))

        async def run():
            armed = record_timers(asyncio.get_running_loop())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(gated, executor=pool)
                task = asyncio.ensure_future(batcher.answer(request))
                # Enqueue, end-of-iteration flush, dispatch.
                for _ in range(3):
                    await asyncio.sleep(0)
                assert batcher.pending_requests == 0
                assert batcher.inflight_ticks == 1
                timers = list(armed)
                gated.gate.set()
                return await task, timers

        answer, armed = asyncio.run(run())
        assert armed == []
        assert_exact(engine, [request], [answer])

    def test_arrivals_behind_a_held_tick_form_one_next_tick(self, private):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        gated = GatedEngine(engine)
        requests = client_requests(4, np.random.default_rng(22))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(gated, executor=pool)
                tasks = [asyncio.ensure_future(batcher.answer(requests[0]))]
                await gated.held()
                for request in requests[1:]:  # spaced well past any timer
                    tasks.append(
                        asyncio.ensure_future(batcher.answer(request))
                    )
                    await asyncio.sleep(0.01)
                assert batcher.pending_requests == 3
                gated.gate.set()
                return await asyncio.gather(*tasks), batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] == 2
        assert gated.tick_queries == [
            requests[0].n_queries,
            sum(r.n_queries for r in requests[1:]),
        ]
        assert_exact(engine, requests, answers)

    def test_cancelled_while_behind_a_held_tick_is_dropped(self, private):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        gated = GatedEngine(engine)
        requests = client_requests(4, np.random.default_rng(23))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(gated, executor=pool)
                first = asyncio.ensure_future(batcher.answer(requests[0]))
                await gated.held()
                waiting = [
                    asyncio.ensure_future(batcher.answer(r))
                    for r in requests[1:]
                ]
                await asyncio.sleep(0)  # all three are pending
                waiting[1].cancel()
                gated.gate.set()
                kept = await asyncio.gather(first, waiting[0], waiting[2])
                return kept, waiting[1], batcher.stats

        kept, quitter, stats = asyncio.run(run())
        assert quitter.cancelled()
        assert stats["dropped_requests"] == 1
        assert stats["answered_requests"] == 3
        assert stats["ticks"] == 2
        assert_exact(engine, [requests[0], requests[1], requests[3]], kept)

    def test_drain_answers_held_and_pending_requests(self, private):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        gated = GatedEngine(engine)
        requests = client_requests(3, np.random.default_rng(24))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(gated, executor=pool)
                tasks = [asyncio.ensure_future(batcher.answer(requests[0]))]
                await gated.held()
                tasks += [
                    asyncio.ensure_future(batcher.answer(r))
                    for r in requests[1:]
                ]
                await asyncio.sleep(0)
                drain = asyncio.ensure_future(batcher.drain())
                await asyncio.sleep(0.02)
                assert not drain.done()  # the held tick is still running
                gated.gate.set()
                await drain
                assert all(t.done() for t in tasks)
                assert batcher.inflight_ticks == 0
                assert batcher.pending_requests == 0
                return [t.result() for t in tasks]

        answers = asyncio.run(run())
        assert_exact(engine, requests, answers)


class TestCancellationAndErrors:
    def test_cancelled_client_does_not_corrupt_the_tick(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=3)
        )
        requests = client_requests(3, np.random.default_rng(6))

        async def run():
            batcher = AsyncBatchEngine(engine)
            first = asyncio.ensure_future(batcher.answer(requests[0]))
            second = asyncio.ensure_future(batcher.answer(requests[1]))
            await asyncio.sleep(0)
            second.cancel()  # abandon a pending client mid-tick
            # The third request hits the size trigger and flushes.
            third = await batcher.answer(requests[2])
            return await first, third, second, batcher.stats

        first, third, second, stats = asyncio.run(run())
        assert second.cancelled()
        assert stats["dropped_requests"] == 1
        assert stats["answered_requests"] == 2
        # Survivors get exactly their own answers, unshifted.
        for request, answer in ((requests[0], first), (requests[2], third)):
            assert (
                float(
                    np.abs(engine.answer(request).answers - answer.answers).max()
                )
                == 0.0
            )

    def test_malformed_request_fails_its_caller_only(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=2)
        )
        good = client_requests(1, np.random.default_rng(7))[0]
        bad = QueryRequest(
            np.array([[0, 0]], dtype=np.int64),
            np.array([[999, 999]], dtype=np.int64),
        )

        async def run():
            batcher = AsyncBatchEngine(engine)
            good_task = asyncio.ensure_future(batcher.answer(good))
            await asyncio.sleep(0)
            with pytest.raises(QueryError, match="outside matrix shape"):
                await batcher.answer(bad)  # rejected before enqueueing
            return await asyncio.wait_for(good_task, timeout=5.0)

        answer = asyncio.run(run())
        assert (
            float(np.abs(engine.answer(good).answers - answer.answers).max())
            == 0.0
        )

    def test_mixed_integer_dtypes_share_a_tick(self, private):
        # uint64 and int64 bounds are each valid, but concatenated raw
        # they promote to float64 and the tick would fail both callers.
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=2)
        )
        signed, other = client_requests(2, np.random.default_rng(9))
        unsigned = QueryRequest(
            other.lows.astype(np.uint64),
            other.highs.astype(np.uint64),
            workload=other.workload,
        )
        requests = [signed, unsigned]

        async def run():
            batcher = AsyncBatchEngine(engine)
            answers = await gather_answers(batcher, requests)
            return batcher, answers

        batcher, answers = asyncio.run(run())
        assert batcher.stats["ticks"] == 1
        assert answers[1].workload == other.workload
        assert_exact(engine, requests, answers)

    def test_engine_failure_propagates_to_all_tick_clients(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=2)
        )

        class Boom(RuntimeError):
            pass

        class ExplodingEngine(Engine):
            def answer(self, request):
                raise Boom("kernel exploded")

        requests = client_requests(2, np.random.default_rng(8))

        async def run():
            batcher = AsyncBatchEngine(
                ExplodingEngine(engine.private, engine.config)
            )
            results = await asyncio.gather(
                *(batcher.answer(r) for r in requests),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(run())
        assert all(isinstance(r, Boom) for r in results)

    @pytest.mark.parametrize("width", [2, 0])
    def test_zero_query_request_resolves(self, private, width):
        # Zero-query requests — including the (0, 0)-shaped arrays
        # QueryRequest.from_boxes([]) builds — are answered inline
        # without entering (or stalling) a tick, matching the sync
        # engine's empty-batch contract.
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=1)
        )
        empty = QueryRequest(
            np.empty((0, width), dtype=np.int64),
            np.empty((0, width), dtype=np.int64),
        )
        [other] = client_requests(1, np.random.default_rng(9))

        async def run():
            batcher = AsyncBatchEngine(engine)
            empty_answer = await batcher.answer(empty)
            assert batcher.pending_requests == 0  # never enqueued
            other_answer = await batcher.answer(other)
            return empty_answer, other_answer

        empty_answer, other_answer = asyncio.run(run())
        assert empty_answer.n_queries == 0
        assert empty_answer.plan == PLAN_BROADCAST
        assert (
            float(
                np.abs(engine.answer(other).answers - other_answer.answers).max()
            )
            == 0.0
        )

    def test_from_boxes_empty_served_like_sync(self, private):
        engine = Engine(private, EngineConfig(max_batch_size=4))
        request = QueryRequest.from_boxes([])

        async def run():
            batcher = AsyncBatchEngine(engine)
            return await batcher.answer(request)

        answer = asyncio.run(run())
        sync = engine.answer(request)
        assert answer.n_queries == sync.n_queries == 0
        assert answer.plan == sync.plan


class TestOffLoopExecutor:
    """The ``executor`` option: kernels off the loop, same contract."""

    def test_off_loop_answers_bit_identical(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=4)
        )
        requests = client_requests(16, np.random.default_rng(10))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(engine, executor=pool)
                answers = await gather_answers(batcher, requests)
                await batcher.drain()
                return answers, batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] >= 4
        assert stats["answered_requests"] == 16
        for request, answer in zip(requests, answers):
            assert (
                float(
                    np.abs(engine.answer(request).answers - answer.answers).max()
                )
                == 0.0
            )

    def test_loop_stays_responsive_during_off_loop_tick(self, private):
        # The point of the executor: a heartbeat coroutine keeps beating
        # while a (deliberately slow) kernel runs in the worker thread.
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=1)
        )

        class SlowEngine(Engine):
            def runs_inline(self, n_queries):
                return False

            def answer(self, request):
                time.sleep(0.15)
                return super().answer(request)

        [request] = client_requests(1, np.random.default_rng(11))

        async def run():
            beats = 0
            done = asyncio.Event()

            async def heartbeat():
                nonlocal beats
                while not done.is_set():
                    await asyncio.sleep(0.01)
                    beats += 1

            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(
                    SlowEngine(engine.private, engine.config), executor=pool
                )
                ticker = asyncio.ensure_future(heartbeat())
                answer = await batcher.answer(request)
                done.set()
                await ticker
            return answer, beats

        answer, beats = asyncio.run(run())
        # 0.15s of kernel at a 10ms heartbeat: an on-loop kernel would
        # allow ~0 beats; off-loop must land well clear of that.
        assert beats >= 5
        assert (
            float(np.abs(engine.answer(request).answers - answer.answers).max())
            == 0.0
        )

    def test_drain_awaits_inflight_off_loop_ticks(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=10_000)
        )
        requests = client_requests(3, np.random.default_rng(12))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(engine, executor=pool)
                tasks = [
                    asyncio.ensure_future(batcher.answer(r)) for r in requests
                ]
                await asyncio.sleep(0)  # enqueue without flushing
                assert batcher.pending_requests == 3
                await batcher.drain()
                # After drain every client already holds its answer.
                assert all(t.done() for t in tasks)
                assert batcher.inflight_ticks == 0
                return [t.result() for t in tasks], batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks"] == 1
        for request, answer in zip(requests, answers):
            assert (
                float(
                    np.abs(engine.answer(request).answers - answer.answers).max()
                )
                == 0.0
            )

    def test_off_loop_engine_failure_propagates(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=2)
        )

        class Boom(RuntimeError):
            pass

        class ExplodingEngine(Engine):
            def runs_inline(self, n_queries):
                return False

            def answer(self, request):
                raise Boom("kernel exploded off-loop")

        requests = client_requests(2, np.random.default_rng(13))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(
                    ExplodingEngine(engine.private, engine.config),
                    executor=pool,
                )
                return await asyncio.gather(
                    *(batcher.answer(r) for r in requests),
                    return_exceptions=True,
                )

        results = asyncio.run(run())
        assert all(isinstance(r, Boom) for r in results)

    def test_cancellation_during_off_loop_tick_drops_one_client(self, private):
        engine = Engine(
            private, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=2)
        )

        class SlowEngine(Engine):
            def runs_inline(self, n_queries):
                return False

            def answer(self, request):
                time.sleep(0.1)
                return super().answer(request)

        requests = client_requests(2, np.random.default_rng(14))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(
                    SlowEngine(engine.private, engine.config), executor=pool
                )
                keeper = asyncio.ensure_future(batcher.answer(requests[0]))
                quitter = asyncio.ensure_future(batcher.answer(requests[1]))
                await asyncio.sleep(0.02)  # tick is now off-loop
                quitter.cancel()
                answer = await keeper
                await batcher.drain()
                return answer, quitter, batcher.stats

        answer, quitter, stats = asyncio.run(run())
        assert quitter.cancelled()
        assert stats["dropped_requests"] == 1
        assert stats["answered_requests"] == 1
        assert (
            float(
                np.abs(engine.answer(requests[0]).answers - answer.answers).max()
            )
            == 0.0
        )


class RefusingExecutor(Executor):
    """An executor no tick may reach: ``submit`` fails the test."""

    def submit(self, fn, /, *args, **kwargs):
        raise AssertionError("a light tick was sent to the executor")


class CountingExecutor(ThreadPoolExecutor):
    """A one-thread executor that counts the ticks sent to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class TestInlineDispatch:
    """Light ticks answer on the loop; heavy ones still go off-loop."""

    def test_light_tick_never_reaches_the_executor(
        self, private, monkeypatch
    ):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        requests = client_requests(8, np.random.default_rng(30))
        assert engine.runs_inline(max(r.n_queries for r in requests))

        async def run(executor):
            batcher = AsyncBatchEngine(engine, executor=executor)
            answers = [await batcher.answer(r) for r in requests]
            return answers, batcher.stats

        inline, stats = asyncio.run(run(RefusingExecutor()))
        assert stats["ticks_inline"] == stats["ticks"] == 8
        assert stats["ticks_off_loop"] == 0

        monkeypatch.setattr(engine_module, "INLINE_MAX_PAIRS", 0)
        with CountingExecutor() as pool:
            off_loop, stats = asyncio.run(run(pool))
        assert pool.submitted == stats["ticks_off_loop"] == 8
        for a, b in zip(inline, off_loop):
            assert float(np.abs(a.answers - b.answers).max()) == 0.0
        assert_exact(engine, requests, inline)

    def test_tick_over_the_bound_is_in_flight(self, private, monkeypatch):
        monkeypatch.setattr(engine_module, "INLINE_MAX_PAIRS", 0)
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        [request] = client_requests(1, np.random.default_rng(31))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(engine, executor=pool)
                task = asyncio.ensure_future(batcher.answer(request))
                # Enqueue, end-of-iteration flush.
                for _ in range(2):
                    await asyncio.sleep(0)
                assert batcher.inflight_ticks == 1
                return await task, batcher.stats

        answer, stats = asyncio.run(run())
        assert stats["ticks_off_loop"] == 1 and stats["ticks_inline"] == 0
        assert_exact(engine, [request], [answer])

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(shard_executor="resident", n_shards=2),
            EngineConfig(n_shards=2),
            EngineConfig(plan=PLAN_SHARDED),
            EngineConfig(plan=PLAN_DENSE),
        ],
        ids=["resident", "serial-sharded", "forced-sharded", "forced-dense"],
    )
    def test_sharded_and_dense_plans_stay_off_loop(self, private, config):
        # Building the engine spawns no resident pool; only a tick would.
        assert not Engine(private, config).runs_inline(1)

    def test_dense_backed_ticks_stay_off_loop(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones(SHAPE))
        engine = Engine(dense)
        assert not engine.runs_inline(1)
        [request] = client_requests(1, np.random.default_rng(32))

        async def run(executor):
            batcher = AsyncBatchEngine(engine, executor=executor)
            return await batcher.answer(request), batcher.stats

        with CountingExecutor() as pool:
            answer, stats = asyncio.run(run(pool))
        assert pool.submitted == 1 and stats["ticks_off_loop"] == 1
        assert answer.plan == PLAN_DENSE
        assert_exact(engine, [request], [answer])

    def test_inline_successor_runs_after_the_returned_ticks_clients(
        self, private
    ):
        engine = Engine(private, EngineConfig(plan=PLAN_BROADCAST))
        requests = client_requests(3, np.random.default_rng(33))
        first = None  # the first client's task, set in run()
        first_done_at_successor = []

        class HeldThenLight(GatedEngine):
            """Off-loop (and held) until the gate opens; light after."""

            def runs_inline(self, n_queries):
                return self.gate.is_set()

            def answer(self, request):
                if self.gate.is_set():
                    first_done_at_successor.append(first.done())
                return super().answer(request)

        gated = HeldThenLight(engine)

        async def run():
            nonlocal first
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(gated, executor=pool)
                first = asyncio.ensure_future(batcher.answer(requests[0]))
                await gated.held()
                rest = [
                    asyncio.ensure_future(batcher.answer(r))
                    for r in requests[1:]
                ]
                await asyncio.sleep(0)
                assert batcher.pending_requests == 2
                gated.gate.set()
                answers = await asyncio.gather(first, *rest)
                return answers, batcher.stats

        answers, stats = asyncio.run(run())
        # The first tick's client had its answer before the successor's
        # kernel blocked the loop.
        assert first_done_at_successor == [True]
        assert stats["ticks_off_loop"] == 1 and stats["ticks_inline"] == 1
        assert gated.tick_queries == [
            requests[0].n_queries,
            requests[1].n_queries + requests[2].n_queries,
        ]
        assert_exact(engine, requests, answers)

    def test_mixed_inline_and_off_loop_ticks_stay_exact(self, monkeypatch):
        # Inline ticks on the loop thread and off-loop ticks in the worker
        # thread share a fresh matrix's lazily built caches.
        fresh = grid_private()
        monkeypatch.setattr(
            engine_module, "INLINE_MAX_PAIRS", 6 * fresh.n_partitions
        )
        engine = Engine(
            fresh, EngineConfig(plan=PLAN_BROADCAST, max_batch_size=3)
        )
        requests = client_requests(96, np.random.default_rng(35), 1, 9)

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(engine, executor=pool)
                answers = await asyncio.wait_for(
                    gather_answers(batcher, requests), timeout=30.0
                )
                return answers, batcher.stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            answers, stats = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert stats["ticks_inline"] > 0 and stats["ticks_off_loop"] > 0
        assert stats["answered_requests"] == len(requests)
        assert_exact(
            Engine(grid_private(), EngineConfig(plan=PLAN_BROADCAST)),
            requests,
            answers,
        )

    @pytest.mark.parametrize("off_loop", [False, True])
    def test_one_validation_per_batched_request(
        self, private, monkeypatch, off_loop
    ):
        calls = []
        for module in (engine_module, async_batch_module):
            validate = module.validate_box_arrays
            monkeypatch.setattr(
                module,
                "validate_box_arrays",
                lambda *args, _v=validate: calls.append(1) or _v(*args),
            )
        if off_loop:
            monkeypatch.setattr(engine_module, "INLINE_MAX_PAIRS", 0)
        engine = Engine(private)
        requests = client_requests(12, np.random.default_rng(34))

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = AsyncBatchEngine(engine, executor=pool)
                answers = await gather_answers(batcher, requests)
                return answers, batcher.stats

        answers, stats = asyncio.run(run())
        assert stats["ticks_off_loop" if off_loop else "ticks_inline"] >= 1
        assert len(calls) == len(requests)
        # Direct engine callers are still validated, once per call.
        del calls[:]
        assert_exact(engine, requests, answers)
        assert len(calls) == len(requests)
        with pytest.raises(QueryError, match="outside matrix shape"):
            engine.answer(
                QueryRequest(np.array([[0, 0]]), np.array([[0, 999]]))
            )
