"""Fuzzed HTTP boundary: every byte string gets a response or a counted close.

A hypothesis suite over raw sockets.  Each example opens one connection
to a live :class:`EngineServer`, writes a fuzzed message (request line,
headers, ``Content-Length``, body and JSON shape all drawn), half-closes
and reads until the server closes.  The message may hold several
pipelined requests, or none that parses.

The counter identity, per example: every request the server reads ends
in exactly one outcome, a response that increments exactly one of the
response counters, or a close counted in ``client_disconnects``.  So,
between two ``/statz`` reads,

    Δ(response counters) == responses received (the second /statz too)
    Δ client_disconnects  == 1 if no response came back, else 0 or 1

and the outcome counters sum to the requests sent.  Every response is
well-formed (status line, JSON object body of the declared length, an
``"error"`` string on every 4xx/5xx), no input raises a 500, and
``/healthz`` answers 200 after the run.  The suite runs on both decode
paths: the canonical-body recogniser live, and patched to decline every
body so all of them take ``json.loads``.
"""

import asyncio
import json
import os
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PrivateFrequencyMatrix, packed_from_intervals
from repro.engine import Engine, EngineServer
from repro.engine import server as server_module
from repro.methods._grid import axis_intervals

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)

SHAPE = (128, 128)

#: Counters that a response increments, one per response.
RESPONSE_COUNTERS = (
    "answered_requests",
    "bad_requests",
    "rejected_oversized",
    "rejected_queue_full",
    "timeouts",
    "serving_errors",
    "internal_errors",
    "not_found",
    "method_not_allowed",
    "health_checks",
    "stat_checks",
)


class LiveServer:
    """An :class:`EngineServer` on its own event loop in a thread, so
    blocking sockets can talk to it from a hypothesis test."""

    def __init__(self, engine):
        self.loop = asyncio.new_event_loop()
        self.loop_errors = []
        self.loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.server = EngineServer(engine, port=0)

    def __enter__(self):
        self.thread.start()
        self._call(self.server.start())
        return self

    def __exit__(self, *exc_info):
        self._call(self.server.shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def exchange(self, message: bytes) -> bytes:
        """Send ``message``, half-close, return every byte received."""
        with socket.create_connection(
            ("127.0.0.1", self.server.port), timeout=30
        ) as sock:
            try:
                sock.sendall(message)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server answered and closed mid-send
            chunks = []
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def get(self, path: str):
        (response,) = parse_responses(self.exchange(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
        ))
        return response


def parse_responses(raw: bytes):
    """Split a byte stream into ``(status, headers, payload)`` responses,
    asserting each is well-formed and nothing trails the last."""
    responses = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head[:200]!r}"
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and reason, status_line
        headers = {}
        for line in header_lines:
            name, colon, value = line.partition(": ")
            assert colon, line
            headers[name.lower()] = value
        assert headers["content-type"] == "application/json"
        assert headers["connection"] in ("close", "keep-alive")
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        assert len(body) == length
        payload = json.loads(body)
        assert isinstance(payload, dict)
        if int(status) >= 400:
            assert isinstance(payload.get("error"), str), payload
        responses.append((int(status), headers, payload))
        if headers["connection"] == "close":
            assert not raw, f"bytes after a closing response: {raw[:200]!r}"
    return responses


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
TOKEN = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1, max_size=8,
)
METHODS = st.sampled_from(["GET", "POST", "PUT", "HEAD", "get"]) | TOKEN
TARGETS = st.sampled_from(
    ["/v1/query", "/healthz", "/statz", "/", "/v1/query?x=1", "/nope"]
) | TOKEN
VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2"]) | TOKEN
REQUEST_LINES = st.one_of(
    st.tuples(METHODS, TARGETS, VERSIONS).map(" ".join),
    st.lists(TOKEN, max_size=4).map(" ".join),
    st.text(max_size=30),
)
HEADER_NAMES = st.sampled_from(
    ["Host", "Content-Type", "Connection", "Content-Length",
     "Transfer-Encoding", "X-Fuzz"]
) | TOKEN
HEADER_VALUES = st.sampled_from(
    ["close", "keep-alive", "chunked", "application/json", "0", "5"]
) | st.text(max_size=20)
#: ``Content-Length`` values; ``None`` sends the body's true length.
LENGTHS = st.one_of(
    st.none(),
    st.sampled_from(["+5", "3_2", "-1", "0x10", "１２", "",
                     "9" * 30, "1" * 5000]),
    st.integers(0, 400).map(str),
)


def bound_rows(q, d, low=0, high=SHAPE[0] - 1):
    return st.lists(
        st.lists(st.integers(low, high), min_size=d, max_size=d),
        min_size=q, max_size=q,
    )


@st.composite
def query_bodies(draw):
    """Canonical bodies: valid queries, out-of-range or inverted boxes,
    other dimensions, with and without a workload."""
    q = draw(st.integers(0, 5))
    d = draw(st.sampled_from([2, 2, 2, 1, 3]))
    a = np.asarray(draw(bound_rows(q, d)), dtype=np.int64).reshape(q, d)
    b = np.asarray(draw(bound_rows(q, d)), dtype=np.int64).reshape(q, d)
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    if draw(st.booleans()):
        lows, highs = highs, lows + draw(st.sampled_from([0, 200]))
    payload = {"lows": lows.tolist(), "highs": highs.tolist()}
    if draw(st.booleans()):
        payload["workload"] = draw(st.text(max_size=8))
    return json.dumps(payload).encode("utf-8")


@st.composite
def mutated(draw, bodies):
    body = bytearray(draw(bodies))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(body)))
        byte = draw(st.sampled_from(b'0123456789,[] "{}:-.eE\\\x00truefalsn'))
        if draw(st.booleans()):
            body[at:at] = bytes([byte])
        else:
            del body[at:at + 1]
    return bytes(body)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["lows", "highs", "workload"]) | st.text(max_size=4),
        inner, max_size=4,
    ),
    max_leaves=12,
)

BODIES = st.one_of(
    query_bodies(),
    mutated(query_bodies()),
    JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    st.sampled_from([1, 1000, 100_000]).map(
        lambda depth: b'{"lows": ' + b"[" * depth + b"]" * depth + b"}"
    ),
    st.binary(max_size=100),
)


@st.composite
def messages(draw):
    """One connection's bytes: zero or more requests, maybe a tail."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    message = b""
    for _ in range(draw(st.integers(1, 3))):
        body = draw(BODIES)
        lines = [draw(REQUEST_LINES).encode("utf-8")]
        for name, value in draw(st.lists(
            st.tuples(HEADER_NAMES, HEADER_VALUES), max_size=3
        )):
            lines.append(f"{name}: {value}".encode("utf-8"))
        length = draw(LENGTHS)
        if length is None:
            length = str(len(body))
        if draw(st.integers(0, 9)) > 0:
            lines.append(f"Content-Length: {length}".encode("utf-8"))
        if draw(st.integers(0, 19)) == 0:
            lines.append(b"X-Long: " + b"a" * 70_000)
        if draw(st.integers(0, 19)) == 0:
            lines.append(b"a header without a colon")
        message += eol.join(lines) + eol + eol + body
    if draw(st.booleans()):
        message += draw(st.binary(max_size=40))
    return message


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    intervals = [axis_intervals(s, 32) for s in SHAPE]
    noisy = np.random.default_rng(5).poisson(40.0, size=32 * 32).astype(float)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return Engine(PrivateFrequencyMatrix.from_packed(packed, method="grid"))


@pytest.fixture(params=["strict_pass", "json_only"])
def live(request, engine, monkeypatch):
    if request.param == "json_only":
        monkeypatch.setattr(
            server_module, "_canonical_arrays", lambda body: None
        )
    with LiveServer(engine) as live:
        yield live
        assert live.get("/healthz")[0] == 200
    assert live.loop_errors == []


def post_query(body: bytes) -> bytes:
    return (
        f"POST /v1/query HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def outcome_counts(live):
    status, _, payload = live.get("/statz")
    assert status == 200
    return payload["counters"]


class TestFuzzedBoundary:
    @PROFILE
    @given(message=messages())
    def test_every_input_gets_a_response_or_a_counted_close(
        self, live, message
    ):
        """Σ Δ(response counters) == responses received + 1 (the second
        /statz read), and a message that got no response at all ended
        in exactly one counted close."""
        before = outcome_counts(live)
        responses = parse_responses(live.exchange(message))
        after = outcome_counts(live)
        delta = {key: after[key] - before[key] for key in after}
        assert sum(delta[key] for key in RESPONSE_COUNTERS) == (
            len(responses) + 1
        ), (delta, [r[0] for r in responses])
        assert delta["client_disconnects"] in ((0, 1) if responses else (1,))
        assert delta["internal_errors"] == 0
        assert all(status != 500 for status, _, _ in responses)

    @PROFILE
    @given(body=BODIES)
    def test_query_bodies_answer_or_fail_once(self, live, body):
        """One well-framed POST per connection: exactly one response,
        200 with one answer per query or a 400, each counted once."""
        before = outcome_counts(live)
        (response,) = parse_responses(live.exchange(post_query(body)))
        after = outcome_counts(live)
        status, _, payload = response
        assert after["requests_total"] - before["requests_total"] == 1
        if status == 200:
            assert len(payload["answers"]) == payload["n_queries"]
            assert after["answered_requests"] - before["answered_requests"] == 1
        else:
            assert status == 400
            assert after["bad_requests"] - before["bad_requests"] == 1

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deeply_nested_body_is_400_and_counted(self, live, depth):
        """Nesting past the interpreter's recursion limit is invalid
        JSON, not a dropped connection."""
        body = b'{"lows": ' + b"[" * depth + b"]" * depth + b"}"
        before = outcome_counts(live)
        (response,) = parse_responses(live.exchange(post_query(body)))
        assert response[0] == 400
        assert response[2]["error"].startswith("invalid JSON")
        after = outcome_counts(live)
        assert after["bad_requests"] - before["bad_requests"] == 1
