"""EngineServer HTTP transport: exactness, flow control, edge cases.

Every test boots a real :class:`EngineServer` on an ephemeral port
inside the test's own event loop and talks to it over actual TCP via
:class:`AsyncServingClient` (or raw sockets for the malformed-wire
cases) — no mocked transports.  The headline guarantee mirrors the
async-batch suite one level up the stack: answers that crossed HTTP
are **bit-identical** to in-process ``Engine.answer`` (drift exactly
0.0), because the JSON transport round-trips float64 through ``repr``.
"""

import asyncio
import json
import logging
import multiprocessing
import socket
import time

import numpy as np
import pytest

from repro.core import PrivateFrequencyMatrix, packed_from_intervals
from repro.core.exceptions import ValidationError
from repro.core.sharding import PartitionShard, answer_sharded
from repro.engine import client as client_module
from repro.engine import engine as engine_module
from repro.engine import server as server_module
from repro.engine import (
    AsyncServingClient,
    Engine,
    EngineConfig,
    EngineServer,
    QueryRequest,
    ServingError,
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


class SlowEngine(Engine):
    """An engine that holds each tick for ``delay`` seconds, off the loop."""

    def __init__(self, engine, delay=0.3):
        super().__init__(engine.private, engine.config)
        self.delay = delay

    def runs_inline(self, n_queries):
        return False

    def answer(self, request):
        time.sleep(self.delay)
        return super().answer(request)


@pytest.fixture(scope="module")
def private():
    return grid_private()


@pytest.fixture(scope="module")
def engine(private):
    return Engine(private, EngineConfig(plan="broadcast"))


def serve(engine, **kwargs):
    kwargs.setdefault("port", 0)
    return EngineServer(engine, **kwargs)


async def raw_exchange(port, payload: bytes, host="127.0.0.1"):
    """Write raw bytes, read one full HTTP response, close."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    status_line = await asyncio.wait_for(reader.readline(), 5.0)
    headers = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), 5.0)
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    raw = await reader.readexactly(length) if length else b""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    status = int(status_line.split()[1])
    body = json.loads(raw) if raw else {}
    return status, headers, body


def post_bytes(path, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


class TestExactness:
    @pytest.mark.parametrize("off_loop", [True, False])
    def test_http_answers_bit_identical(self, engine, off_loop):
        requests = client_requests(8, np.random.default_rng(1))

        async def run():
            async with serve(engine, off_loop=off_loop) as server:
                async with AsyncServingClient(port=server.port) as client:
                    return [
                        await client.query_request(r) for r in requests
                    ]

        answers = asyncio.run(run())
        for request, answer in zip(requests, answers):
            serial = engine.answer(request)
            diff = float(np.abs(serial.answers - answer.answers).max())
            assert diff == 0.0, f"off_loop={off_loop}: HTTP drifted {diff}"
            assert answer.plan == serial.plan
            assert answer.workload == request.workload

    def test_concurrent_clients_share_ticks_exactly(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=12)
        )
        requests = client_requests(12, np.random.default_rng(2))

        async def run():
            async with serve(engine) as server:

                async def one(request):
                    async with AsyncServingClient(port=server.port) as c:
                        return await c.query_request(request)

                answers = await asyncio.gather(*(one(r) for r in requests))
                stats = server.statz()
            return answers, stats

        answers, stats = asyncio.run(run())
        assert stats["counters"]["ticks"] < len(requests)  # coalesced
        for request, answer in zip(requests, answers):
            assert (
                float(
                    np.abs(engine.answer(request).answers - answer.answers).max()
                )
                == 0.0
            )

    def test_empty_batch_round_trips(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    return await client.query([], [])

        answer = asyncio.run(run())
        assert answer.n_queries == 0
        assert answer.answers.shape == (0,)

    def test_empty_batch_names_dense_on_a_dense_backed_release(self):
        dense = PrivateFrequencyMatrix.from_dense_noisy(np.ones(SHAPE))

        async def run():
            async with serve(Engine(dense)) as server:
                async with AsyncServingClient(port=server.port) as client:
                    return await client.query([], [])

        answer = asyncio.run(run())
        assert answer.n_queries == 0
        assert answer.plan == "dense"


class TestBadRequests:
    def test_malformed_json_is_400_with_error_body(self, engine):
        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", b"{not json")
                )

        status, _, body = asyncio.run(run())
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_non_object_body_is_400(self, engine):
        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", b"[1, 2, 3]")
                )

        status, _, body = asyncio.run(run())
        assert status == 400
        assert "JSON object" in body["error"]

    def test_ragged_arrays_are_400(self, engine):
        payload = json.dumps(
            {"lows": [[0, 0], [1]], "highs": [[2, 2], [3, 3]]}
        ).encode()

        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", payload)
                )

        status, _, body = asyncio.run(run())
        assert status == 400
        assert "lows/highs" in body["error"]

    @pytest.mark.parametrize(
        "lows,highs", [(5, 5), (5, [[1, 1]]), ([[1, 1]], 5)],
        ids=["both", "lows", "highs"],
    )
    def test_scalar_bounds_are_400_and_counted(self, engine, lows, highs):
        payload = json.dumps({"lows": lows, "highs": highs}).encode()

        async def run():
            async with serve(engine) as server:
                response = await raw_exchange(
                    server.port, post_bytes("/v1/query", payload)
                )
                return response, server.statz()["counters"]

        (status, _, body), counters = asyncio.run(run())
        assert status == 400
        assert "scalar" in body["error"]
        assert counters["bad_requests"] == 1
        assert counters["internal_errors"] == 0

    @pytest.mark.parametrize("bound", [1e30, 2**70], ids=["float", "int"])
    def test_bounds_outside_int64_are_400_and_counted(self, engine, bound):
        payload = json.dumps(
            {"lows": [[bound, 0]], "highs": [[bound, 0]]}
        ).encode()

        async def run():
            async with serve(engine) as server:
                response = await raw_exchange(
                    server.port, post_bytes("/v1/query", payload)
                )
                return response, server.statz()["counters"]["bad_requests"]

        (status, _, body), bad_requests = asyncio.run(run())
        assert status == 400
        assert "lows/highs" in body["error"]
        assert bad_requests == 1

    def test_negative_content_length_is_400_and_counted(self, engine):
        # int() alone reads "3_2" and "+32" as 32, which would answer
        # the 32-byte body below 200; only ASCII digits are a length.
        body = b'{"lows":[[0,0]],"highs":[[1,1]]}'
        assert len(body) == 32
        values = [b"-5", b"3_2", b"+32", b"9" * 5000]

        async def run():
            async with serve(engine) as server:
                responses = [
                    await raw_exchange(
                        server.port,
                        b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: " + value + b"\r\n\r\n" + body,
                    )
                    for value in values
                ]
                return responses, server.statz()["counters"]["bad_requests"]

        responses, bad_requests = asyncio.run(run())
        for value, (status, headers, payload) in zip(values, responses):
            assert status == 400, value
            assert payload["error"] == "bad Content-Length"
            assert headers.get("connection") == "close"
        assert bad_requests == len(values)

    @pytest.mark.parametrize(
        "literal",
        ["1.7", "1.0", "1e2", "-0.5", "NaN", "Infinity", "-Infinity"]
        + ["true", "false", '"1"', '" 0 "'],
    )
    def test_non_integer_literals_are_400_and_counted(self, engine, literal):
        # Before strict decoding, 1.7 was silently truncated to 1, true
        # read as 1 and "1" parsed as 1, all answered with 200.
        body = (
            '{"lows": [[%s, 0]], "highs": [[5, 5]]}' % literal
        ).encode()

        async def run():
            async with serve(engine) as server:
                response = await raw_exchange(
                    server.port, post_bytes("/v1/query", body)
                )
                return response, server.statz()["counters"]

        (status, _, body), counters = asyncio.run(run())
        assert status == 400
        assert "integer" in body["error"]
        assert literal in body["error"]
        assert counters["bad_requests"] == 1
        assert counters["answered_requests"] == 0

    def test_integer_body_with_quotes_and_true_in_workload_answers(
        self, engine
    ):
        # The workload string trips the cheap pre-check, so the bounds
        # are walked element by element; they are integers, so 200.
        body = (
            b'{"lows": [[1, 0]], "highs": [[5, 5]], '
            b'"workload": "true \\"story\\""}'
        )

        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", body)
                )

        status, _, payload = asyncio.run(run())
        expected = engine.answer(QueryRequest([[1, 0]], [[5, 5]])).answers
        assert status == 200
        assert payload["answers"] == expected.tolist()
        assert payload["workload"] == 'true "story"'

    def test_integer_body_still_answers(self, engine):
        body = b'{"lows": [[1, 0]], "highs": [[5, 5]]}'

        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", body)
                )

        status, _, payload = asyncio.run(run())
        expected = engine.answer(QueryRequest([[1, 0]], [[5, 5]])).answers
        assert status == 200
        assert payload["answers"] == expected.tolist()

    def test_out_of_range_query_is_400(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    with pytest.raises(ServingError) as excinfo:
                        await client.query([[0, 0]], [[999, 999]])
            return excinfo.value

        error = asyncio.run(run())
        assert error.status == 400
        assert "outside matrix shape" in str(error)

    def test_malformed_request_line_is_400(self, engine):
        async def run():
            async with serve(engine) as server:
                return await raw_exchange(server.port, b"GARBAGE\r\n\r\n")

        status, headers, _ = asyncio.run(run())
        assert status == 400
        assert headers.get("connection") == "close"

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (70 * 1024)
            + b"\r\n\r\n",
        ],
        ids=["request_line", "header_line"],
    )
    def test_line_over_reader_limit_is_400_and_counted(
        self, engine, caplog, request_bytes
    ):
        # Past the StreamReader's 64 KiB line limit readline raises
        # ValueError; it must become a 400, not a dropped connection.
        async def run():
            async with serve(engine) as server:
                response = await raw_exchange(server.port, request_bytes)
                async with AsyncServingClient(port=server.port) as client:
                    health = await client.request("GET", "/healthz")
                counters = server.statz()["counters"]
            return response, health, counters

        with caplog.at_level(logging.ERROR):
            (status, headers, body), health, counters = asyncio.run(run())
        assert status == 400
        assert body["error"] == "request line or header line too long"
        assert headers.get("connection") == "close"
        assert counters["bad_requests"] == 1
        assert health[0] == 200
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_unknown_route_is_404_and_wrong_method_is_405(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    missing = await client.request("GET", "/nope")
                    wrong = await client.request("GET", "/v1/query")
            return missing, wrong

        (missing_status, _, _), (wrong_status, _, wrong_body) = asyncio.run(
            run()
        )
        assert missing_status == 404
        assert wrong_status == 405
        assert "POST" in wrong_body["error"]


def counter_deltas(before, after):
    """Counters that moved between two ``/statz`` snapshots, except
    ``connections_total``."""
    return {
        key: after[key] - before[key]
        for key in after
        if key != "connections_total" and after[key] != before[key]
    }


async def counted_exchange(server, request_bytes):
    """One raw exchange, plus the counters it moved."""
    before = server.statz()["counters"]
    response = await raw_exchange(server.port, request_bytes)
    return response, counter_deltas(before, server.statz()["counters"])


class TestRequestFraming:
    """A request head the server cannot frame a body from gets one
    response with ``Connection: close`` and moves exactly one counter."""

    QUERY_BODY = b'{"lows":[[0,0]],"highs":[[1,1]]}'

    def exchange(self, engine, request_bytes):
        async def run():
            async with serve(engine) as server:
                response = await counted_exchange(server, request_bytes)
                async with AsyncServingClient(port=server.port) as client:
                    health = await client.request("GET", "/healthz")
            return response, health

        return asyncio.run(run())

    @pytest.mark.parametrize(
        "coding", [b"chunked", b"gzip, chunked", b"identity"]
    )
    def test_transfer_encoding_is_501_counted_once(self, engine, coding):
        # Read as an empty body, the chunk-size line used to come back as
        # a second request line: two 400s for one request.
        request_bytes = (
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: " + coding + b"\r\n\r\n"
            b"20\r\n" + self.QUERY_BODY + b"\r\n0\r\n\r\n"
        )
        ((status, headers, body), deltas), health = self.exchange(
            engine, request_bytes
        )
        assert status == 501
        assert "Transfer-Encoding" in body["error"]
        assert headers.get("connection") == "close"
        assert deltas == {"bad_requests": 1}
        assert health[0] == 200

    def test_conflicting_content_length_is_400(self, engine):
        request_bytes = (
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 32\r\nContent-Length: 31\r\n\r\n"
            + self.QUERY_BODY
        )
        ((status, headers, body), deltas), health = self.exchange(
            engine, request_bytes
        )
        assert status == 400
        assert body["error"] == "conflicting Content-Length headers"
        assert headers.get("connection") == "close"
        assert deltas == {"bad_requests": 1}
        assert health[0] == 200

    def test_repeated_equal_content_length_answers(self, engine):
        request_bytes = (
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: 32\r\nContent-Length: 32\r\n\r\n"
            + self.QUERY_BODY
        )
        ((status, _, body), deltas), _ = self.exchange(engine, request_bytes)
        assert status == 200
        assert body["n_queries"] == 1
        assert deltas["answered_requests"] == 1
        assert "bad_requests" not in deltas

    def test_header_line_without_colon_is_400(self, engine):
        request_bytes = (
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\nNo colon here\r\n"
            b"Content-Length: 32\r\n\r\n" + self.QUERY_BODY
        )
        ((status, headers, body), deltas), health = self.exchange(
            engine, request_bytes
        )
        assert status == 400
        assert body["error"] == "header line without a colon"
        assert headers.get("connection") == "close"
        assert deltas == {"bad_requests": 1}
        assert health[0] == 200

    @pytest.mark.parametrize(
        "path,method,allowed",
        [("/v1/query", "GET", "POST"), ("/healthz", "POST", "GET"),
         ("/statz", "DELETE", "GET")],
    )
    def test_wrong_method_is_405_counted(self, engine, path, method, allowed):
        request_bytes = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: 0\r\n\r\n"
        ).encode("latin-1")
        ((status, headers, body), deltas), _ = self.exchange(
            engine, request_bytes
        )
        assert status == 405
        assert allowed in body["error"]
        assert headers.get("allow") == allowed
        assert deltas == {"method_not_allowed": 1}

    @pytest.mark.parametrize(
        "head",
        [b"GET /healthz HTTP/1.1\r\n", b"GET /healthz HTTP/1.1\r\nHost: t",
         b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"],
        ids=["after_request_line", "mid_header_line", "after_header_line"],
    )
    def test_eof_inside_header_section_is_a_counted_disconnect(
        self, engine, head
    ):
        async def run():
            async with serve(engine) as server:
                before = server.statz()["counters"]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(head)
                writer.write_eof()
                reply = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                deltas = counter_deltas(before, server.statz()["counters"])
            return reply, deltas

        reply, deltas = asyncio.run(run())
        assert reply == b""
        assert deltas == {"client_disconnects": 1}


class TestFlowControl:
    def test_oversized_batch_is_413(self, engine):
        async def run():
            async with serve(engine, max_batch_queries=4) as server:
                async with AsyncServingClient(port=server.port) as client:
                    lows = [[0, 0]] * 5
                    highs = [[10, 10]] * 5
                    with pytest.raises(ServingError) as excinfo:
                        await client.query(lows, highs)
                    stats = await client.statz()
            return excinfo.value, stats

        error, stats = asyncio.run(run())
        assert error.status == 413
        assert error.payload["max_batch_queries"] == 4
        assert stats["counters"]["rejected_oversized"] == 1

    def test_oversized_body_is_413(self, engine, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)

        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", b"x" * 65)
                )

        status, _, body = asyncio.run(run())
        assert status == 413
        assert body["max_body_bytes"] == 64

    def test_queue_full_is_503_with_retry_after(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=1)
        )
        slow = SlowEngine(engine, delay=0.3)

        async def run():
            async with serve(slow, max_pending_requests=1) as server:
                async with AsyncServingClient(port=server.port) as first:
                    request = client_requests(1, np.random.default_rng(3))[0]
                    task = asyncio.ensure_future(first.query_request(request))
                    while server._in_progress < 1:
                        await asyncio.sleep(0.005)
                    async with AsyncServingClient(port=server.port) as second:
                        with pytest.raises(ServingError) as excinfo:
                            await second.query([[0, 0]], [[1, 1]])
                    answer = await task
                stats = server.statz()
            return excinfo.value, answer, request, stats

        error, answer, request, stats = asyncio.run(run())
        assert error.status == 503
        assert error.retry_after == server_module.RETRY_AFTER == 1.0
        assert stats["counters"]["rejected_queue_full"] == 1
        # The request that held the queue slot still answered exactly.
        assert (
            float(np.abs(engine.answer(request).answers - answer.answers).max())
            == 0.0
        )

    @pytest.mark.parametrize(
        "header, delay",
        [
            ("1", 1.0),
            (" 2.5 ", 2.5),
            ("0", 0.0),
            (None, None),
            ("", None),
            ("soon", None),
            ("nan", None),
            ("inf", None),
            ("1e400", None),
            ("-1", None),
        ],
    )
    def test_retry_after_is_a_finite_non_negative_delay(self, header, delay):
        # Clients back off for ServingError.retry_after, and time.sleep
        # raises on a negative, nan or infinite delay.
        assert client_module._parse_retry_after(header) == delay

    def test_slow_tick_times_out_as_504(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=1)
        )
        slow = SlowEngine(engine, delay=0.5)

        async def run():
            async with serve(slow, request_timeout=0.05) as server:
                async with AsyncServingClient(port=server.port) as client:
                    with pytest.raises(ServingError) as excinfo:
                        await client.query([[0, 0]], [[1, 1]])
                    stats = await client.statz()
            return excinfo.value, stats

        error, stats = asyncio.run(run())
        assert error.status == 504
        assert error.payload["timeout_seconds"] == 0.05
        assert stats["counters"]["timeouts"] == 1

    def test_client_disconnect_mid_tick_leaves_tick_unharmed(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=2)
        )
        slow = SlowEngine(engine, delay=0.2)
        survivor, doomed = client_requests(2, np.random.default_rng(4))

        async def run():
            async with serve(slow) as server:
                async with AsyncServingClient(port=server.port) as client:
                    # The doomed client joins the tick, then vanishes
                    # before its answer can be written back.
                    body = json.dumps(
                        {
                            "lows": np.asarray(doomed.lows).tolist(),
                            "highs": np.asarray(doomed.highs).tolist(),
                        }
                    ).encode()
                    _, rude_writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    rude_writer.write(post_bytes("/v1/query", body))
                    await rude_writer.drain()
                    task = asyncio.ensure_future(
                        client.query_request(survivor)
                    )
                    await asyncio.sleep(0.02)
                    rude_writer.close()
                    answer = await task
            return answer

        answer = asyncio.run(run())
        assert (
            float(
                np.abs(engine.answer(survivor).answers - answer.answers).max()
            )
            == 0.0
        )


class TestFailureMapping:
    """Tick failures reach every tick-mate as a well-formed response."""

    @staticmethod
    def _fail_ticks(monkeypatch, exc):
        def answer(self, request):
            raise exc

        monkeypatch.setattr(Engine, "answer", answer)

    @staticmethod
    async def _two_requests_then_health(server):
        request = post_bytes("/v1/query", b'{"lows": [[0, 0]], "highs": [[3, 3]]}')
        responses = await asyncio.gather(
            raw_exchange(server.port, request),
            raw_exchange(server.port, request),
        )
        health = await raw_exchange(
            server.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        return responses, health, server.statz()["counters"]

    def test_pool_serving_error_keeps_status_and_retry_after(
        self, private, monkeypatch
    ):
        self._fail_ticks(
            monkeypatch,
            ServingError(503, {"error": "shard worker 0 crashed twice"}),
        )

        async def run():
            async with serve(Engine(private)) as server:
                return await self._two_requests_then_health(server)

        responses, health, counters = asyncio.run(run())
        for status, headers, body in responses:
            assert status == 503
            assert headers["retry-after"] == "1"
            assert body["error"] == "shard worker 0 crashed twice"
        assert counters["serving_errors"] == 2
        assert counters["internal_errors"] == 0
        assert health[0] == 200 and health[2] == {"status": "ok"}

    def test_pool_worker_error_frame_is_500_without_retry_after(
        self, private, monkeypatch
    ):
        self._fail_ticks(
            monkeypatch,
            ServingError(500, {"error": "shard worker 1 failed batch 3"}),
        )

        async def run():
            async with serve(Engine(private)) as server:
                return await self._two_requests_then_health(server)

        responses, health, counters = asyncio.run(run())
        for status, headers, body in responses:
            assert status == 500
            assert "retry-after" not in headers
            assert body["error"] == "shard worker 1 failed batch 3"
        assert counters["serving_errors"] == 2
        assert health[0] == 200

    @pytest.mark.parametrize("off_loop", [True, False], ids=["off", "on"])
    def test_unexpected_exception_is_500_counted_and_logged(
        self, private, monkeypatch, caplog, off_loop
    ):
        self._fail_ticks(monkeypatch, RuntimeError("kernel bug"))

        async def run():
            async with serve(Engine(private), off_loop=off_loop) as server:
                return await self._two_requests_then_health(server)

        with caplog.at_level("ERROR", logger="repro.engine.server"):
            responses, health, counters = asyncio.run(run())
        for status, _, body in responses:
            assert status == 500
            assert body == {"error": "internal server error"}
        assert counters["internal_errors"] == 2
        assert counters["serving_errors"] == 0
        assert health[0] == 200 and health[2] == {"status": "ok"}
        logged = [r for r in caplog.records if r.exc_info]
        assert logged and "kernel bug" in str(logged[0].exc_info[1])


@pytest.fixture
def resident_engine(private):
    engine = Engine(
        private, EngineConfig(n_shards=2, shard_executor="resident")
    )
    yield engine
    engine.close()


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


class TestResidentPoolOverHttp:
    """Real resident-pool failures, seen by HTTP clients."""

    LOWS = [[0, 0], [10, 20], [64, 3]]
    HIGHS = [[50, 60], [127, 127], [100, 90]]

    def test_worker_crashing_twice_is_503_then_pool_recovers(
        self, private, resident_engine, monkeypatch
    ):
        body = json.dumps({"lows": self.LOWS, "highs": self.HIGHS}).encode()
        expected = answer_sharded(
            private.packed,
            np.asarray(self.LOWS),
            np.asarray(self.HIGHS),
            n_shards=2,
            cost=resident_engine.config.plan_cost(),
        ).answers

        async def run():
            async with serve(resident_engine) as server:
                pool = resident_engine.shard_pool()
                original = pool._restart_worker
                primed = []

                def crash_retry_once(shard_id):
                    # The retry's replacement dies too; the revival on
                    # the next request is left alone.
                    original(shard_id)
                    if not primed:
                        primed.append(shard_id)
                        pool._workers[shard_id].conn.send(("crash_next",))

                monkeypatch.setattr(pool, "_restart_worker", crash_retry_once)
                pool._workers[0].conn.send(("crash_next",))
                request = post_bytes("/v1/query", body)
                failed = await raw_exchange(server.port, request)
                health = await raw_exchange(server.port, HEALTHZ)
                answered = await raw_exchange(server.port, request)
                return failed, health, answered, server.statz()["counters"]

        failed, health, answered, counters = asyncio.run(run())
        status, headers, payload = failed
        assert status == 503
        assert "retry-after" in headers
        assert "crashed twice" in payload["error"]
        assert counters["serving_errors"] == 1
        assert health[0] == 200 and health[2] == {"status": "ok"}
        assert answered[0] == 200
        assert answered[2]["answers"] == expected.tolist()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the patched kernel only when forked",
    )
    def test_worker_error_traceback_is_logged_not_sent(
        self, private, monkeypatch, caplog
    ):
        def broken_partial(self, lows, highs, cost=None):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(PartitionShard, "partial", broken_partial)
        engine = Engine(
            private, EngineConfig(n_shards=2, shard_executor="resident")
        )
        body = json.dumps({"lows": self.LOWS, "highs": self.HIGHS}).encode()

        async def run():
            async with serve(engine) as server:
                return await raw_exchange(
                    server.port, post_bytes("/v1/query", body)
                )

        try:
            with caplog.at_level("ERROR", logger="repro.engine.worker_pool"):
                status, _, payload = asyncio.run(run())
        finally:
            engine.close()
        assert status == 500
        assert payload == {"error": "shard worker 0 failed batch 0"}
        logged = [r.getMessage() for r in caplog.records]
        assert any(
            "Traceback" in m and "kernel bug" in m for m in logged
        ), logged


class TestStatzAndHealth:
    def test_healthz_ok_while_serving(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    return await client.healthz()

        assert asyncio.run(run())["status"] == "ok"

    def test_statz_counters_monotone_under_concurrent_load(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=4)
        )
        requests = client_requests(10, np.random.default_rng(5))
        monotone = [
            "connections_total",
            "requests_total",
            "answered_requests",
            "answered_queries",
            "ticks",
        ]

        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as probe:
                    snapshots = [await probe.statz()]

                    async def one(request):
                        async with AsyncServingClient(port=server.port) as c:
                            return await c.query_request(request)

                    for wave in (requests[:5], requests[5:]):
                        await asyncio.gather(*(one(r) for r in wave))
                        snapshots.append(await probe.statz())
            return snapshots

        snapshots = asyncio.run(run())
        for before, after in zip(snapshots, snapshots[1:]):
            for key in monotone:
                assert after["counters"][key] >= before["counters"][key]
        final = snapshots[-1]["counters"]
        assert final["answered_requests"] == len(requests)
        assert final["answered_queries"] == sum(
            r.n_queries for r in requests
        )
        assert final["dropped_requests"] == 0
        assert snapshots[-1]["latency_ms"]["count"] == len(requests)
        assert snapshots[-1]["latency_ms"]["p50"] <= snapshots[-1][
            "latency_ms"
        ]["max"]

    def test_statz_reports_off_loop_and_loop_lag(self, engine):
        async def run():
            async with serve(engine, off_loop=True) as server:
                async with AsyncServingClient(port=server.port) as client:
                    await client.query([[0, 0]], [[5, 5]])
                    await asyncio.sleep(0.02)  # a few heartbeats
                    return await client.statz()

        stats = asyncio.run(run())
        assert stats["off_loop"] is True
        assert stats["loop"]["beats"] > 0
        assert stats["loop"]["max_lag_ms"] >= 0.0
        assert stats["queue"]["max_pending_requests"] >= 1

    def test_statz_times_an_injected_loop_stall(self, engine):
        async def run():
            async with serve(engine) as server:
                await asyncio.sleep(0.05)  # heartbeats settle
                start = server.statz()["uptime_seconds"]
                asyncio.get_running_loop().call_soon(time.sleep, 0.05)
                await asyncio.sleep(0.06)  # the stall, then a few beats
                return start, server.statz()["loop"]

        start, loop_stats = asyncio.run(run())
        assert loop_stats["max_lag_ms"] >= 40.0
        # The stall began when the blocking callback ran (clock offsets
        # between uptime and the monitor are far under a millisecond).
        assert start - 0.01 <= loop_stats["max_lag_at_s"] <= start + 0.05
        assert 0.0 < loop_stats["recent_p99_lag_ms"] <= loop_stats[
            "max_lag_ms"
        ]

    def test_statz_counts_inline_and_off_loop_ticks_by_plan(
        self, private, monkeypatch
    ):
        # Up to four queries per tick run inline; eight go off-loop.
        monkeypatch.setattr(
            engine_module, "INLINE_MAX_PAIRS", 4 * private.n_partitions
        )
        light = client_requests(3, np.random.default_rng(40), 1, 5)
        [heavy] = client_requests(1, np.random.default_rng(41), 8, 9)

        async def run():
            async with serve(Engine(private)) as server:
                async with AsyncServingClient(port=server.port) as client:
                    before = await client.statz()
                    answers = [
                        await client.query_request(r) for r in light
                    ]
                    answers.append(await client.query_request(heavy))
                    return before, await client.statz(), answers

        before, after, answers = asyncio.run(run())

        def moved(key):
            return after["counters"][key] - before["counters"][key]

        assert moved("ticks_inline") == 3
        assert moved("ticks_off_loop") == 1
        assert after["counters"]["ticks"] == (
            after["counters"]["ticks_inline"]
            + after["counters"]["ticks_off_loop"]
        )
        assert set(after["tick_plans"]) == {
            "dense", "broadcast", "pruned", "sharded"
        }
        plans = {
            plan: after["tick_plans"][plan] - before["tick_plans"][plan]
            for plan in after["tick_plans"]
        }
        assert sum(plans.values()) == 4
        for plan in plans:
            assert plans[plan] == sum(a.plan == plan for a in answers)


    def test_statz_names_the_level_table_built_at_start(self):
        # 512 x 512 in 32 x 32 blocks: the full prefix table (2.1 MB)
        # exceeds the level budget, and the 32 row groups' level-1
        # table fits it.
        shape = (512, 512)
        intervals = [axis_intervals(s, 32) for s in shape]
        noisy = np.random.default_rng(3).poisson(40.0, 32 * 32).astype(float)
        level_private = PrivateFrequencyMatrix.from_packed(
            packed_from_intervals(intervals, noisy, shape), method="grid"
        )
        lows, highs = [[0, 0], [10, 300]], [[511, 511], [100, 400]]

        async def run():
            async with serve(Engine(level_private)) as server:
                built = level_private.packed._level is not None
                async with AsyncServingClient(port=server.port) as client:
                    answers = await client.query(lows, highs)
                    return built, answers, await client.statz()

        built, answers, stats = asyncio.run(run())
        assert built  # before the first request
        table = stats["dense_table"]
        assert table.pop("build_ms") >= 0.0
        # Per group: a float64 table over axis 1 and an int16 prefix row
        # over axis 0, 513 entries each.
        assert table == {"level": 1, "groups": 32, "bytes": 32 * 513 * 10}
        assert stats["tick_plans"]["dense"] == 1
        assert answers.plan == "dense"
        reference = Engine(level_private, EngineConfig(plan="broadcast"))
        np.testing.assert_allclose(
            answers.answers,
            reference.answer_arrays(np.array(lows), np.array(highs)),
            rtol=1e-12,
        )

    def test_statz_dense_table_is_null_without_a_level_table(self, engine):
        async def run():
            async with serve(engine) as server:
                return server.statz()

        assert asyncio.run(run())["dense_table"] is None


class TestLifecycle:
    def test_graceful_drain_finishes_inflight_then_refuses(self, private):
        engine = Engine(
            private, EngineConfig(plan="broadcast", max_batch_size=1)
        )
        slow = SlowEngine(engine, delay=0.2)
        request = client_requests(1, np.random.default_rng(6))[0]

        async def run():
            server = serve(slow)
            await server.start()
            client = AsyncServingClient(port=server.port)
            task = asyncio.ensure_future(client.query_request(request))
            while server._in_progress < 1:
                await asyncio.sleep(0.005)
            shutdown = asyncio.ensure_future(server.shutdown())
            answer = await task  # in-flight tick completes during drain
            await shutdown
            await client.close()
            # The port no longer accepts connections at all.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)
            return answer

        answer = asyncio.run(run())
        assert (
            float(np.abs(engine.answer(request).answers - answer.answers).max())
            == 0.0
        )

    def test_drain_with_keep_alive_clients_logs_nothing(
        self, private, caplog
    ):
        # Two keep-alive clients stay attached through shutdown, one of
        # them with a request in flight.  The drain answers it and leaves
        # no connection handler for the loop's teardown to cancel (each
        # one used to log "Exception in callback ... CancelledError").
        slow = SlowEngine(
            Engine(private, EngineConfig(plan="broadcast")), delay=0.2
        )
        request = client_requests(1, np.random.default_rng(15))[0]

        async def run():
            server = serve(slow)
            await server.start()
            idle = AsyncServingClient(port=server.port)
            busy = AsyncServingClient(port=server.port)
            await idle.healthz()
            await busy.healthz()
            task = asyncio.ensure_future(busy.query_request(request))
            while server._in_progress < 1:
                await asyncio.sleep(0.005)
            await server.shutdown()
            # Every handler ran to its end inside shutdown(): none is
            # left for the loop's teardown.
            assert not server._connections
            answer = await task
            # Closed on this loop: left to GC, their transports would
            # outlive it and warn against the next test in dev mode.
            await idle.close()
            await busy.close()
            return answer

        with caplog.at_level(logging.ERROR):
            answer = asyncio.run(run())
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert (
            float(np.abs(slow.answer(request).answers - answer.answers).max())
            == 0.0
        )

    def test_shutdown_aborts_a_peer_that_stopped_reading(
        self, private, monkeypatch, caplog
    ):
        # A peer that never reads keeps its response stuck in the send
        # buffer, so closing its connection alone would never finish.
        monkeypatch.setattr("repro.engine.server.CLOSE_GRACE", 0.05)
        engine = Engine(private, EngineConfig(plan="dense"))
        q = 5000  # a ~100 KB answer: past the transport's high-water mark
        body = json.dumps(
            {"lows": [[0, 0]] * q, "highs": [[127, 127]] * q}
        ).encode()

        async def run():
            server = serve(engine)
            await server.start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", server.port))
            sock.setblocking(False)
            while not server._connections:
                await asyncio.sleep(0.005)
            [server_writer] = server._connections
            server_writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            loop = asyncio.get_running_loop()
            await loop.sock_sendall(sock, post_bytes("/v1/query", body))
            while not server_writer.transport.get_write_buffer_size():
                await asyncio.sleep(0.005)
            await asyncio.wait_for(server.shutdown(), 5.0)
            assert not server._connections
            sock.close()

        with caplog.at_level(logging.ERROR):
            asyncio.run(run())
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_draining_server_refuses_queries_and_health(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    server._draining = True  # simulate mid-drain window
                    health_status, health_headers, _ = await client.request(
                        "GET", "/healthz"
                    )
                    query_status, query_headers, _ = await client.request(
                        "POST",
                        "/v1/query",
                        json.dumps(
                            {"lows": [[0, 0]], "highs": [[1, 1]]}
                        ).encode(),
                    )
                    server._draining = False
            return (
                health_status,
                health_headers,
                query_status,
                query_headers,
            )

        health_status, health_headers, query_status, query_headers = (
            asyncio.run(run())
        )
        assert health_status == 503
        assert query_status == 503
        assert "retry-after" in health_headers
        assert "retry-after" in query_headers

    def test_invalid_limits_rejected(self, engine):
        with pytest.raises(ValidationError, match="max_pending_requests"):
            EngineServer(engine, max_pending_requests=0)
        with pytest.raises(ValidationError, match="max_batch_queries"):
            EngineServer(engine, max_batch_queries=0)
        with pytest.raises(ValidationError, match="request_timeout"):
            EngineServer(engine, request_timeout=0.0)

    def test_keep_alive_serves_many_requests_per_connection(self, engine):
        async def run():
            async with serve(engine) as server:
                async with AsyncServingClient(port=server.port) as client:
                    for _ in range(5):
                        await client.query([[0, 0]], [[5, 5]])
                    stats = await client.statz()
            return stats

        stats = asyncio.run(run())
        # All five queries (plus the statz) rode one TCP connection.
        assert stats["counters"]["connections_total"] == 1
        assert stats["counters"]["answered_requests"] == 5
