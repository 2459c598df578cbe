"""Serve one published release over HTTP until stdin closes.

Run as a subprocess by the benchmark::

    python perfbench/launcher.py

It reads one line from stdin, the release's publishable JSON, loads it
with ``PrivateFrequencyMatrix.from_publishable`` and starts
``EngineServer`` on its default settings.  When the server listens it
prints one JSON line holding the bound port.  It serves until stdin reaches end of
file, then drains and exits, so it cannot outlive the benchmark.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.private_matrix import PrivateFrequencyMatrix  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.server import EngineServer  # noqa: E402


async def serve(payload: str) -> None:
    private = PrivateFrequencyMatrix.from_publishable(json.loads(payload))
    server = EngineServer(Engine(private))
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    try:
        await loop.run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await server.shutdown()


def main() -> int:
    payload = sys.stdin.buffer.readline().decode("utf-8")
    asyncio.run(serve(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
