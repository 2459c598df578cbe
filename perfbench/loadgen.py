"""Open- and closed-loop HTTP load generation from one process.

Both loops run on one asyncio event loop in the calling thread over a
fixed set of keep-alive connections (``repro.engine.AsyncServingClient``),
one request in flight per connection.  Every request yields a
:class:`Sample` with the time it was due, sent and answered, so latency
can be taken from the due time: in an open loop a stall then also
charges the requests that queued behind it.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.engine import AsyncServingClient

from .traffic import Request

#: Per-request client timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT = 30.0

#: Lead time between arming an open loop and its first due request.
START_LEAD = 0.05


@dataclass
class Sample:
    """One request's fate.  ``status`` 0 means the transport failed."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    answers: list = field(default_factory=list)
    engine_s: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class Window:
    """Samples of one measured window and its wall-clock span."""

    samples: List[Sample]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


async def connect(host: str, port: int, n: int) -> List[AsyncServingClient]:
    return [
        await AsyncServingClient(host, port, timeout=REQUEST_TIMEOUT).connect()
        for _ in range(n)
    ]


async def close(clients: Sequence[AsyncServingClient]) -> None:
    for client in clients:
        await client.close()


async def _send(
    client: AsyncServingClient, index: int, request: Request, due: float
) -> Sample:
    sent = time.perf_counter()
    try:
        status, _, payload = await client.request("POST", "/v1/query", request.body)
    except (ConnectionError, OSError, asyncio.TimeoutError, ValueError):
        await client.close()
        return Sample(index, due, sent, time.perf_counter(), 0)
    done = time.perf_counter()
    if status != 200:
        return Sample(index, due, sent, done, status)
    return Sample(
        index, due, sent, done, status,
        payload.get("answers", []),
        float(payload.get("elapsed_seconds", 0.0)),
    )


async def open_loop(
    clients: Sequence[AsyncServingClient],
    requests: Sequence[Request],
    offsets: np.ndarray,
) -> Window:
    """Send ``requests[i]`` at ``offsets[i]`` seconds after the start.

    A request whose connections are all busy waits for the first free
    one; its latency still counts from its due time.
    """
    start = time.perf_counter() + START_LEAD
    samples: List[Sample] = []
    cursor = iter(range(len(offsets)))

    async def connection(client: AsyncServingClient) -> None:
        for i in cursor:
            due = start + float(offsets[i])
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            samples.append(await _send(client, i, requests[i], due))

    await asyncio.gather(*(connection(c) for c in clients))
    return Window(samples, start, max(s.done for s in samples))


async def closed_loop(
    clients: Sequence[AsyncServingClient],
    requests: Sequence[Request],
    seconds: float,
) -> Window:
    """Each connection sends its next request when the last one answers,
    cycling through ``requests``, until ``seconds`` have passed.

    A request is due when its connection became free, so its lateness is
    the generator's own time between a reply and the next send.
    """
    start = time.perf_counter()
    stop = start + seconds
    samples: List[Sample] = []
    counter = itertools.count()

    async def connection(client: AsyncServingClient) -> None:
        due = start
        while due < stop:
            i = next(counter) % len(requests)
            sample = await _send(client, i, requests[i], due)
            samples.append(sample)
            due = sample.done

    await asyncio.gather(*(connection(c) for c in clients))
    return Window(samples, start, max(s.done for s in samples))
