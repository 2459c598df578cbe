"""Stdlib-only asyncio HTTP transport in front of the serving facade.

This module is the network front door of the engine: an
:class:`EngineServer` binds one :class:`~repro.engine.Engine` to a TCP
port and answers JSON over HTTP/1.1 (keep-alive), feeding every
``POST /v1/query`` into an :class:`~repro.engine.AsyncBatchEngine` so
concurrent HTTP clients are coalesced into micro-batched ticks exactly
like in-process asyncio clients.  Endpoints (full request/response
schemas in ``docs/SERVING.md``):

* ``POST /v1/query`` — a JSON query batch (``lows``/``highs``
  ``(q, d)`` integer lists plus an optional ``workload`` tag); answers
  are **bit-identical** to an in-process ``Engine.answer`` call: the
  transport serializes float64 answers through ``repr``-exact JSON and
  never re-orders or re-reduces anything.
* ``GET /healthz`` — liveness; 200 while serving, 503 while draining.
* ``GET /statz`` — monotone serving counters (including how many
  ticks ran inline and off-loop, and ticks by plan) plus gauges:
  latency percentiles, tick-size distribution, queue depth, the
  event-loop lag measured by :class:`LoopLagMonitor`, the level
  prefix table auto's dense route reads (if any), and — when the
  engine runs a resident :class:`~repro.engine.ShardWorkerPool` —
  worker gauges (alive count, restarts, queue depth, per-worker batch
  counts).

**Off-loop kernels.**  With ``off_loop=True`` (the default) each heavy
tick's engine invocation is dispatched through ``loop.run_in_executor``
into a :class:`ThreadPoolExecutor`, so the event loop keeps accepting
connections, parsing requests, forming the next tick, and firing
timeouts while the kernel runs.  Threads give real overlap because
numpy releases the GIL inside the kernels — no pickling, no copies.  A
light tick runs inline on the loop instead: one the engine's
:meth:`~repro.engine.Engine.runs_inline` accepts (unsharded,
partition-backed, ``n_queries * n_partitions`` at most
:data:`~repro.engine.engine.INLINE_MAX_PAIRS`), whose kernel is short
enough that handing it to a thread would cost more than it saves.
Ticks are
self-clocking: requests that arrive while a tick's kernel runs become
the next tick the moment it completes, so tick size follows the load
and no timer delays a lone request.  ``off_loop=False`` runs every
kernel inline on the loop.  It stays because the responsiveness
benchmark needs an on-loop server to measure the lag the executor
removes, and because one thread is the simplest setting in which to
debug a tick.

**Flow control.**  Three protections keep an overloaded server honest
instead of unbounded: a queue-depth cap (`max_pending_requests`)
answered with **503 + Retry-After** (:data:`RETRY_AFTER` seconds)
before the request touches the batcher; a per-request batch-size cap
(`max_batch_queries`) and body cap (:data:`MAX_BODY_BYTES`) answered
with **413**; and a per-request timeout answered with **504** whose
``asyncio.wait_for`` cancellation drops the request from its tick
without disturbing tick-mates (the AsyncBatchEngine cancellation
contract).  Shutdown is graceful: :meth:`EngineServer.shutdown` stops
accepting connections, refuses new queries with 503, lets in-flight
ticks complete, and only then tears down the executor.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

from ..core.exceptions import QueryError, ValidationError
from .async_batch import AsyncBatchEngine
from .api import QueryRequest, ServingError
from .config import ENGINE_PLANS
from .engine import Engine

_log = logging.getLogger(__name__)

#: Queue-depth cap: queries queued or executing above this answer 503.
DEFAULT_MAX_PENDING_REQUESTS = 1024

#: Largest query batch one POST may carry (larger answers 413).
DEFAULT_MAX_BATCH_QUERIES = 100_000

#: Largest request body in bytes (larger answers 413).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Per-request serving deadline (exceeded answers 504).
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Seconds suggested to a 503-rejected client via ``Retry-After``.
RETRY_AFTER = 1.0

#: Seconds a closing connection gets to flush its last response on
#: shutdown before it is aborted.
CLOSE_GRACE = 1.0

#: Heartbeat period of the loop-lag monitor.
HEARTBEAT_INTERVAL = 0.005

#: Recent heartbeats the loop-lag monitor keeps for its p99 (about 10 s
#: of an idle loop at :data:`HEARTBEAT_INTERVAL`).
LAG_WINDOW = 2048

#: Ring-buffer window for latency percentiles in ``/statz``.
LATENCY_WINDOW = 8192

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _NonIntegerLiteral(Exception):
    """A float or ``NaN``/``Infinity`` literal in a request body.

    Not a ``ValueError``, so it cannot be mistaken for malformed JSON.
    """


class _Unframed(Exception):
    """A request head the server cannot parse, or frame a body from.

    It is answered with :attr:`status` and ``Connection: close``: the
    rest of the stream cannot be read as requests.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


#: Methods each route answers; another method is answered 405.
_ROUTE_METHODS = {"/healthz": "GET", "/statz": "GET", "/v1/query": "POST"}


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """``reader.readline()``, raising :class:`_Unframed` (400) for a
    line past the stream reader's 64 KiB limit instead of
    ``StreamReader``'s bare ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError:
        raise _Unframed(400, "request line or header line too long") from None


def _body_length(headers: Dict[str, str]) -> int:
    """The body length a request head declares."""
    if "transfer-encoding" in headers:
        raise _Unframed(
            501, "Transfer-Encoding is not supported; send Content-Length"
        )
    raw_length = headers.get("content-length", "0") or "0"
    # ASCII digits only: int() alone would also read "+32", "3_2" and
    # non-ASCII digits.  int() still refuses a 5000-digit value.
    try:
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ValueError(raw_length)
        return int(raw_length)
    except ValueError:
        raise _Unframed(400, "bad Content-Length") from None


class _BadQuery(Exception):
    """A query body answered 400; the message is the error sent."""


def _reject_literal(text: str):
    raise _NonIntegerLiteral(text)


def _non_integers(value):
    """Yield each element of nested JSON lists that is not an ``int``
    (a JSON ``true``/``false`` decodes to ``bool``, which is not)."""
    if type(value) is list:
        for item in value:
            yield from _non_integers(item)
    elif type(value) is not int:
        yield value


#: The frame of a canonical body around its two lists of rows.
_LOWS_HEAD = b'{"lows": ['
_HIGHS_HEAD = b'], "highs": ['

#: What follows the ``highs`` rows: the list's closing bracket, an
#: optional ``workload`` of printable ASCII without quotes or
#: backslashes, and the closing brace.
_CANONICAL_TAIL = re.compile(rb'\](?:, "workload": "([ !#-\[\]-~]*)")?\}')

#: Maps ``[`` to a space, ``]`` to a comma and the digits 1-9 to ``1``.
#: In rows with whole separators every bound then sits between a space
#: and a comma, and starts with ``0`` or ``1``.
_BOUND_FOLD = bytes.maketrans(b"[]123456789", b" ,111111111")

#: The largest bound the canonical form spells (18 digits).
_MAX_CANONICAL_BOUND = 10**18 - 1


def _canonical_row_count(text: bytes, d: int) -> int:
    """How many ``d``-bound rows ``text`` holds if it is a list of them
    as ``json.dumps`` writes it, outer brackets removed; else 0."""
    row = b"[" + b", " * (d - 1) + b"]"
    skeleton = text.translate(None, b"0123456789")
    q = (len(skeleton) + 2) // (len(row) + 2)
    # The bytes other than digits are json.dumps's, in its order, ...
    if q == 0 or skeleton != b", ".join([row] * q):
        return 0
    # ... no digit splits a separator or stands outside the rows, ...
    if (
        text[:1] != b"["
        or text[-1:] != b"]"
        or text.count(b", ") != q * d - 1
        or text.count(b"], [") != q - 1
    ):
        return 0
    # ... and no bound is empty or has a leading zero.
    folded = text.translate(_BOUND_FOLD)
    if b" ," in folded or b" 00" in folded or b" 01" in folded:
        return 0
    return q


def _canonical_arrays(
    body: bytes,
) -> "Tuple[np.ndarray, np.ndarray, str] | None":
    """``(lows, highs, workload)`` of a body spelled as ``json.dumps``
    writes a query batch, or ``None`` for any other body, which
    :func:`_json_arrays` then decodes.

    The canonical body is ``{"lows": [rows], "highs": [rows]}`` with an
    optional trailing ``"workload"`` string: ``", "`` and ``": "``
    separators, nothing around the object, equal non-empty lists of
    ``d``-bound rows, every bound ``0|[1-9][0-9]{0,17}``.  The checks
    are byte-level (``bytes.translate``, counts and substring tests),
    so they hold no Python int per bound and no per-bound matching
    state, and both arrays come from one ``np.fromstring``.  That call
    stops at text it cannot read (older NumPy only warns, and returns
    what it read) and saturates a long number, so it is only handed
    text the checks have shown it reads in full.
    """
    if not body.startswith(_LOWS_HEAD):
        return None
    lows_end = body.find(_HIGHS_HEAD)
    highs_start = lows_end + len(_HIGHS_HEAD)
    # The rows hold no quote and no "]]", so these finds land on the
    # frame of a canonical body; any other body fails a check below.
    highs_end = body.find(b"]]", highs_start) + 1
    if lows_end < 0 or highs_end == 0:
        return None
    tail = _CANONICAL_TAIL.fullmatch(body, highs_end)
    if tail is None:
        return None
    lows_text = body[len(_LOWS_HEAD):lows_end]
    highs_text = body[highs_start:highs_end]
    d = lows_text.count(b",", 0, lows_text.find(b"]")) + 1
    q = _canonical_row_count(lows_text, d)
    if q == 0 or _canonical_row_count(highs_text, d) != q:
        return None
    values = np.fromstring(
        (lows_text + b", " + highs_text).translate(None, b"[]"),
        dtype=np.int64,
        sep=",",
    )
    # A bound of 19 or more digits parses (exactly, or saturated at the
    # int64 maximum) above the largest 18-digit one.
    if values.size != 2 * q * d or values.max() > _MAX_CANONICAL_BOUND:
        return None
    lows, highs = values.reshape(2, q, d)
    return lows, highs, (tail[1] or b"").decode("ascii")


def _json_arrays(body: bytes) -> Tuple[np.ndarray, np.ndarray, str]:
    """``(lows, highs, workload)`` of any query body, through
    ``json.loads`` and an int64 coercion.

    Raises :class:`_BadQuery` for a body that is not a JSON object with
    a string ``workload``, and ``TypeError`` / ``ValueError`` /
    ``OverflowError`` for bounds that are not integer arrays.
    """
    try:
        # Float and NaN/Infinity literals would be truncated to int64
        # below; the hooks fire only on such tokens, so integer-only
        # bodies decode at full speed.
        payload = json.loads(
            body, parse_float=_reject_literal, parse_constant=_reject_literal
        )
    except _NonIntegerLiteral as exc:
        raise _BadQuery(
            f"lows/highs must be (q, d) integer arrays "
            f"(got the non-integer literal {exc})"
        ) from None
    except ValueError as exc:
        raise _BadQuery(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise _BadQuery("invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise _BadQuery("request body must be a JSON object")
    workload = payload.get("workload", "")
    if not isinstance(workload, str):
        raise _BadQuery("workload must be a string")
    # int64 coercion also takes "1" and true as 1, so this path walks
    # the bounds for them (the canonical form admits neither).
    # Integer-only bodies skip the walk: a bool needs a true/false token
    # (both spell "e"), a string needs more quote characters than the
    # keys and the workload account for.  The walk runs after the
    # coercion, which caps the nesting it can meet at NumPy's ndim.
    suspect = (
        b"e" in body and (b"true" in body or b"false" in body)
    ) or body.count(b'"') > 2 * (len(payload) + ("workload" in payload))
    lows = np.asarray(payload.get("lows"), dtype=np.int64)
    highs = np.asarray(payload.get("highs"), dtype=np.int64)
    if suspect:
        for name in ("lows", "highs"):
            for bad in _non_integers(payload[name]):
                raise ValueError(f"got the non-integer {json.dumps(bad)}")
    return lows, highs, workload


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = int(round((q / 100.0) * (len(sorted_values) - 1)))
    return float(sorted_values[rank])


class LoopLagMonitor:
    """Measures event-loop responsiveness with a heartbeat coroutine.

    Sleeps ``interval`` seconds in a loop and records how much later
    than scheduled each wake-up arrives.  ``max_lag`` is therefore the
    longest stretch the loop spent unable to run ready callbacks — with
    on-loop kernels it approaches the heaviest tick's kernel time, with
    off-loop kernels it stays near zero.  This is the number the
    serving benchmark's responsiveness ratio is built from.
    ``max_lag_at`` is when that stall began (the late beat's due time,
    in seconds since :meth:`start`), which tells a start-up stall from
    one in steady state; ``recent`` holds the last :data:`LAG_WINDOW`
    lags for a percentile that a single old stall cannot dominate.
    """

    def __init__(self, interval: float = HEARTBEAT_INTERVAL):
        self.interval = float(interval)
        self.max_lag = 0.0
        self.max_lag_at = 0.0
        self.beats = 0
        self.recent: Deque[float] = deque(maxlen=LAG_WINDOW)
        self._started = 0.0
        self._task: "asyncio.Task[None] | None" = None

    def start(self) -> None:
        if self._task is None:
            loop = asyncio.get_running_loop()
            self._started = loop.time()
            self._task = loop.create_task(self._run())

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.interval)
            lag = loop.time() - before - self.interval
            if lag > self.max_lag:
                self.max_lag = lag
                self.max_lag_at = before + self.interval - self._started
            self.recent.append(lag)
            self.beats += 1


class EngineServer:
    """One engine, one port: the asyncio HTTP serving layer.

    Typical use (the CLI ``repro serve --port N`` path)::

        server = EngineServer(engine, port=8080)
        asyncio.run(server.serve_until())        # Ctrl-C drains and exits

    or embedded in an existing loop::

        await server.start()                     # binds; server.port set
        ...
        await server.shutdown()                  # graceful drain
    """

    def __init__(
        self,
        engine: Engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        off_loop: bool = True,
        max_pending_requests: int = DEFAULT_MAX_PENDING_REQUESTS,
        max_batch_queries: int = DEFAULT_MAX_BATCH_QUERIES,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    ):
        if max_pending_requests < 1:
            raise ValidationError(
                f"max_pending_requests must be >= 1, got "
                f"{max_pending_requests}"
            )
        if max_batch_queries < 1:
            raise ValidationError(
                f"max_batch_queries must be >= 1, got {max_batch_queries}"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ValidationError(
                f"request_timeout must be positive or None, got "
                f"{request_timeout}"
            )
        self.engine = engine
        self.host = host
        self.port = int(port)  # rewritten with the bound port on start()
        self.off_loop = bool(off_loop)
        self.max_pending_requests = int(max_pending_requests)
        self.max_batch_queries = int(max_batch_queries)
        self.request_timeout = request_timeout
        self._requested_port = int(port)
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._batcher: AsyncBatchEngine | None = None
        self.monitor = LoopLagMonitor()
        self._draining = False
        self._in_progress = 0
        self._started_at = 0.0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        # Each open connection's writer and the task handling it.
        self._connections: Dict[
            asyncio.StreamWriter, "asyncio.Task[None]"
        ] = {}
        self._counters: Dict[str, int] = {
            "connections_total": 0,
            "requests_total": 0,
            "answered_requests": 0,
            "answered_queries": 0,
            "bad_requests": 0,
            "rejected_oversized": 0,
            "rejected_queue_full": 0,
            "timeouts": 0,
            "client_disconnects": 0,
            "serving_errors": 0,
            "internal_errors": 0,
            "not_found": 0,
            "method_not_allowed": 0,
            "health_checks": 0,
            "stat_checks": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def batcher(self) -> AsyncBatchEngine:
        if self._batcher is None:
            raise RuntimeError("server not started")
        return self._batcher

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind and begin accepting connections; sets :attr:`port`."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.off_loop:
            # One worker is deliberate: off-loop ticks are answered in
            # flush order and numpy already uses the cores inside a
            # kernel.
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-tick"
            )
        self._batcher = AsyncBatchEngine(self.engine, executor=self._executor)
        # Build what the engine's routes read (the level table, the
        # resident pool) before accepting traffic: workers fork from
        # this thread, not from a tick thread mid-request, and no tick
        # pays for a build.
        self.engine.warm()
        self._draining = False
        self._started_at = time.time()
        self.monitor.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight ticks."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # In-progress requests either resolve with their tick or hit
        # their own timeout; both paths decrement the gauge.
        while self._in_progress > 0:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
        await self._batcher.drain()
        self.monitor.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # After the tick executor is gone no kernel can touch the pool;
        # stop and reap its workers (idempotent, and a no-op for
        # non-resident executors).
        self.engine.close()
        # Closing a keep-alive connection ends its handler at the next
        # read; awaiting the handlers leaves no task for the loop's
        # teardown to cancel (and log) mid-close.  A peer that stops
        # reading would hold its close open, so after a grace period
        # the stragglers are aborted.
        handlers = tuple(self._connections.values())
        for writer in tuple(self._connections):
            writer.close()
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=CLOSE_GRACE)
            for writer in tuple(self._connections):
                writer.transport.abort()
            await asyncio.gather(*stuck, return_exceptions=True)

    async def serve_until(self, stop: "asyncio.Event | None" = None) -> None:
        """Start, run until ``stop`` is set (or cancelled), then drain."""
        await self.start()
        try:
            if stop is None:
                stop = asyncio.Event()
            await stop.wait()
        finally:
            await self.shutdown()

    async def __aenter__(self) -> "EngineServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        self._counters["connections_total"] += 1
        try:
            while True:
                try:
                    request_line = await _readline(reader)
                    if not request_line:
                        break
                    parts = request_line.decode("latin-1").split()
                    if len(parts) != 3:
                        raise _Unframed(400, "malformed request line")
                    method, target, version = parts
                    headers = await self._read_headers(reader)
                    if headers is None:
                        # End of file inside the header section.
                        self._counters["client_disconnects"] += 1
                        break
                    length = _body_length(headers)
                except _Unframed as exc:
                    self._counters["bad_requests"] += 1
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    break
                if length > MAX_BODY_BYTES:
                    self._counters["rejected_oversized"] += 1
                    await self._respond(
                        writer, 413,
                        {
                            "error": "request body too large",
                            "max_body_bytes": MAX_BODY_BYTES,
                        },
                        close=True,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version == "HTTP/1.0"
                    or self._draining
                )
                status, payload, extra = await self._dispatch(
                    method, target.partition("?")[0], body
                )
                await self._respond(
                    writer, status, payload, extra_headers=extra, close=close
                )
                if close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            self._counters["client_disconnects"] += 1
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_headers(
        reader: asyncio.StreamReader,
    ) -> "Dict[str, str] | None":
        """The header section as a lower-cased name -> value dict, or
        ``None`` if the stream ends inside it."""
        headers: Dict[str, str] = {}
        while True:
            line = await _readline(reader)
            if line in (b"\r\n", b"\n"):
                return headers
            if not line.endswith(b"\n"):
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _Unframed(400, "header line without a colon")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _Unframed(400, "conflicting Content-Length headers")
            headers[name] = value

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        extra_headers: "List[str] | None" = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(extra_headers or ())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict, "List[str] | None"]:
        allowed = _ROUTE_METHODS.get(path)
        if allowed is None:
            self._counters["not_found"] += 1
            return 404, {"error": f"no route for {path!r}"}, None
        if method != allowed:
            self._counters["method_not_allowed"] += 1
            return (
                405,
                {"error": f"{path} is {allowed}-only"},
                [f"Allow: {allowed}"],
            )
        if path == "/v1/query":
            return await self._query(body)
        if path == "/healthz":
            self._counters["health_checks"] += 1
            if self._draining:
                return 503, {"status": "draining"}, self._retry_header()
            return 200, {"status": "ok"}, None
        self._counters["stat_checks"] += 1
        return 200, self.statz(), None

    def _retry_header(self) -> List[str]:
        return [f"Retry-After: {RETRY_AFTER:g}"]

    async def _query(self, body: bytes) -> Tuple[int, dict, "List[str] | None"]:
        self._counters["requests_total"] += 1
        if self._draining:
            return (
                503,
                {"error": "server is draining"},
                self._retry_header(),
            )
        try:
            lows, highs, workload = (
                _canonical_arrays(body) or _json_arrays(body)
            )
            request = QueryRequest(lows, highs, workload=workload)
        except _BadQuery as exc:
            self._counters["bad_requests"] += 1
            return 400, {"error": str(exc)}, None
        except (TypeError, ValueError, OverflowError, QueryError) as exc:
            self._counters["bad_requests"] += 1
            return (
                400,
                {"error": f"lows/highs must be (q, d) integer arrays ({exc})"},
                None,
            )
        n_queries = request.n_queries
        if n_queries > self.max_batch_queries:
            self._counters["rejected_oversized"] += 1
            return (
                413,
                {
                    "error": f"batch of {n_queries} queries exceeds "
                    f"max_batch_queries={self.max_batch_queries}",
                    "max_batch_queries": self.max_batch_queries,
                },
                None,
            )
        if self._in_progress >= self.max_pending_requests:
            self._counters["rejected_queue_full"] += 1
            return (
                503,
                {
                    "error": f"pending queue full "
                    f"({self.max_pending_requests} requests in flight)",
                    "max_pending_requests": self.max_pending_requests,
                },
                self._retry_header(),
            )
        loop = asyncio.get_running_loop()
        self._in_progress += 1
        start = loop.time()
        try:
            pending = self.batcher.answer(request)
            if self.request_timeout is not None:
                answer = await asyncio.wait_for(pending, self.request_timeout)
            else:
                answer = await pending
        except asyncio.TimeoutError:
            # wait_for cancelled the request's future: it is dropped at
            # flush (or on demux) without disturbing its tick-mates.
            self._counters["timeouts"] += 1
            return (
                504,
                {
                    "error": f"request timed out after "
                    f"{self.request_timeout:g}s",
                    "timeout_seconds": self.request_timeout,
                },
                None,
            )
        except (QueryError, ValidationError) as exc:
            self._counters["bad_requests"] += 1
            return 400, {"error": str(exc)}, None
        except ServingError as exc:
            # A resident-pool failure (docs/WORKERS.md): keep its status.
            self._counters["serving_errors"] += 1
            extra = self._retry_header() if exc.status == 503 else None
            return exc.status, {"error": str(exc), **exc.payload}, extra
        except Exception:  # noqa: BLE001 - every request gets a response
            self._counters["internal_errors"] += 1
            _log.exception("unexpected error answering a query batch")
            return 500, {"error": "internal server error"}, None
        finally:
            self._in_progress -= 1
        self._latencies.append(loop.time() - start)
        self._counters["answered_requests"] += 1
        self._counters["answered_queries"] += answer.n_queries
        return (
            200,
            {
                "answers": answer.answers.tolist(),
                "plan": answer.plan,
                "workload": answer.workload,
                "n_queries": answer.n_queries,
                "shard_bounds": [list(b) for b in answer.shard_bounds],
                "shard_plans": list(answer.shard_plans),
                "skipped_shards": answer.skipped_shards,
                "elapsed_seconds": answer.elapsed_seconds,
            },
            None,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statz(self) -> dict:
        """The ``/statz`` payload: monotone counters + gauges."""
        batch_stats = self.batcher.stats
        latencies = sorted(self._latencies)
        ticks = sorted(self.batcher.recent_tick_queries)
        tick_plans = self.batcher.tick_plans
        counters = dict(self._counters)
        counters["ticks"] = int(batch_stats["ticks"])
        counters["ticks_inline"] = int(batch_stats["ticks_inline"])
        counters["ticks_off_loop"] = int(batch_stats["ticks_off_loop"])
        counters["dropped_requests"] = int(batch_stats["dropped_requests"])
        level = self.engine.level_table()
        return {
            "uptime_seconds": time.time() - self._started_at,
            "draining": self._draining,
            "off_loop": self.off_loop,
            "counters": counters,
            # Answered ticks by the plan that ran them.
            "tick_plans": {
                plan: tick_plans.get(plan, 0) for plan in ENGINE_PLANS
            },
            "queue": {
                "in_progress": self._in_progress,
                "pending_requests": self.batcher.pending_requests,
                "inflight_ticks": self.batcher.inflight_ticks,
                "max_pending_requests": self.max_pending_requests,
            },
            "latency_ms": {
                "count": len(latencies),
                "p50": 1e3 * percentile(latencies, 50),
                "p95": 1e3 * percentile(latencies, 95),
                "p99": 1e3 * percentile(latencies, 99),
                "max": 1e3 * (latencies[-1] if latencies else 0.0),
            },
            "tick_queries": {
                "count": len(ticks),
                "p50": percentile(ticks, 50),
                "max": int(batch_stats["max_tick_queries"]),
                "mean": batch_stats["mean_tick_queries"],
                "last": int(batch_stats["last_tick_queries"]),
            },
            "loop": {
                "heartbeat_interval_ms": 1e3 * self.monitor.interval,
                "max_lag_ms": 1e3 * self.monitor.max_lag,
                "max_lag_at_s": self.monitor.max_lag_at,
                "recent_p99_lag_ms": 1e3 * percentile(
                    sorted(self.monitor.recent), 99
                ),
                "beats": self.monitor.beats,
            },
            # The level prefix table auto's dense route reads: level,
            # groups, bytes and build time (null when dense reads the
            # full table or cannot run).
            "dense_table": None if level is None else level.stats(),
            # Resident shard-worker gauges (null unless the engine is
            # running a ShardWorkerPool): alive count, restarts, queue
            # depth, per-worker batch counts.
            "workers": self.engine.pool_stats(),
        }
