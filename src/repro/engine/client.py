"""HTTP clients for the engine's serving layer (stdlib only).

Two clients for :class:`~repro.engine.server.EngineServer`, both
speaking the JSON schemas documented in ``docs/SERVING.md`` and both
reconstructing full :class:`~repro.engine.QueryAnswer` objects — the
answer vector round-trips through ``repr``-exact JSON, so a client-side
answer is bit-identical to the in-process one:

* :class:`ServingClient` — synchronous, built on
  :class:`http.client.HTTPConnection` with keep-alive.  The right tool
  for scripts, tests, and anything not already inside an event loop.
* :class:`AsyncServingClient` — asyncio, one persistent connection per
  client over ``asyncio.open_connection``.  The serving benchmark runs
  dozens of these concurrently; because the server micro-batches, their
  requests coalesce into shared ticks exactly like in-process
  ``AsyncBatchEngine`` callers.

Non-2xx responses raise :class:`ServingError` carrying the HTTP status,
the server's JSON error payload, and the ``Retry-After`` hint when the
server sent one (503 backpressure) — so a well-behaved client can
distinguish "back off" (503), "shrink the batch" (413), "fix the
request" (400), and "took too long" (504) without string matching.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .api import QueryAnswer, QueryRequest, ServingError

DEFAULT_TIMEOUT = 60.0


def _answer_from_payload(payload: dict) -> QueryAnswer:
    return QueryAnswer(
        answers=np.asarray(payload["answers"], dtype=np.float64),
        plan=payload["plan"],
        workload=payload.get("workload", ""),
        shard_bounds=tuple(
            (int(lo), int(hi)) for lo, hi in payload.get("shard_bounds", ())
        ),
        shard_plans=tuple(payload.get("shard_plans", ())),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )


def _query_payload(request: QueryRequest) -> bytes:
    return json.dumps(
        {
            "lows": np.asarray(request.lows).tolist(),
            "highs": np.asarray(request.highs).tolist(),
            "workload": request.workload,
        }
    ).encode("utf-8")


def _parse_retry_after(value: "str | None") -> "float | None":
    """A finite, non-negative ``Retry-After`` delay in seconds, else
    ``None`` (a client may pass it straight to ``time.sleep``)."""
    try:
        delay = float(value)
    except (TypeError, ValueError):
        return None
    return delay if 0.0 <= delay < math.inf else None


class ServingClient:
    """Synchronous keep-alive client for one :class:`EngineServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.host = host
        self.port = int(port)
        self._conn = http.client.HTTPConnection(
            host, self.port, timeout=timeout
        )

    # ------------------------------------------------------------------
    def request(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> Tuple[int, Dict[str, str], dict]:
        """One raw round-trip: ``(status, headers, decoded JSON)``."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException):
            # One reconnect: the server may have closed an idle
            # keep-alive connection (e.g. across a drain/restart).
            self._conn.close()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {}
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            payload,
        )

    def _checked(self, method: str, path: str, body: "bytes | None" = None):
        status, headers, payload = self.request(method, path, body)
        if status != 200:
            raise ServingError(
                status, payload, _parse_retry_after(headers.get("retry-after"))
            )
        return payload

    # ------------------------------------------------------------------
    def query(
        self,
        lows: Sequence[Sequence[int]],
        highs: Sequence[Sequence[int]],
        workload: str = "",
    ) -> QueryAnswer:
        """Answer one batch of inclusive cell-index range queries."""
        return self.query_request(QueryRequest(lows, highs, workload))

    def query_request(self, request: QueryRequest) -> QueryAnswer:
        payload = self._checked(
            "POST", "/v1/query", _query_payload(request)
        )
        return _answer_from_payload(payload)

    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def statz(self) -> dict:
        return self._checked("GET", "/statz")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServingClient:
    """Asyncio keep-alive client; one persistent connection per instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._reader = None
        self._writer = None

    async def connect(self) -> "AsyncServingClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServingClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> Tuple[int, Dict[str, str], dict]:
        """One raw round-trip: ``(status, headers, decoded JSON)``."""
        if self._writer is None:
            await self.connect()
        body = body or b""
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
        ]
        if body:
            lines.append("Content-Type: application/json")
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()

        async def read_response():
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            parts = status_line.decode("latin-1").split(None, 2)
            status = int(parts[1])
            headers: Dict[str, str] = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, sep, value = line.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            raw = await self._reader.readexactly(length) if length else b""
            return status, headers, raw

        status, headers, raw = await asyncio.wait_for(
            read_response(), self.timeout
        )
        if headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {}
        return status, headers, payload

    async def _checked(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> dict:
        status, headers, payload = await self.request(method, path, body)
        if status != 200:
            raise ServingError(
                status, payload, _parse_retry_after(headers.get("retry-after"))
            )
        return payload

    # ------------------------------------------------------------------
    async def query(
        self,
        lows: Sequence[Sequence[int]],
        highs: Sequence[Sequence[int]],
        workload: str = "",
    ) -> QueryAnswer:
        """Answer one batch of inclusive cell-index range queries."""
        return await self.query_request(QueryRequest(lows, highs, workload))

    async def query_request(self, request: QueryRequest) -> QueryAnswer:
        payload = await self._checked(
            "POST", "/v1/query", _query_payload(request)
        )
        return _answer_from_payload(payload)

    async def healthz(self) -> dict:
        return await self._checked("GET", "/healthz")

    async def statz(self) -> dict:
        return await self._checked("GET", "/statz")
