"""The lazy package surface and the serving process's import closure.

``repro``, ``repro.core`` and ``repro.engine`` resolve their public
names on first access (PEP 562), so a process that only serves a
release loads the query engine and nothing else.  These tests pin both
halves: every public name still resolves, star-imports and lists as
before, and the server's import closure stays small.
"""

import doctest
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import PrivateFrequencyMatrix, packed_from_intervals

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = ("repro", "repro.core", "repro.engine")

#: Modules a serving process must never load.
NOT_SERVED = (
    "repro.methods",
    "repro.dp",
    "repro.queries",
    "repro.trajectories",
    "repro.datagen",
    "repro.experiments",
    "repro.engine.worker_pool",
    "repro.engine.client",
    "http.client",
    "multiprocessing",
    "numpy.random",
)

#: Most ``repro.*`` modules the serving process may load.
MAX_SERVED_MODULES = 20

# perfbench/launcher.py's imports and boot, plus one answered POST.
SERVE_ONE_REQUEST = f"""
import asyncio, json, sys

from repro.core.private_matrix import PrivateFrequencyMatrix
from repro.engine import Engine
from repro.engine.server import EngineServer

private = PrivateFrequencyMatrix.from_publishable(json.loads(sys.stdin.read()))


async def main():
    server = EngineServer(Engine(private))
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        body = json.dumps({{"lows": [[0, 0]], "highs": [[3, 5]]}}).encode()
        writer.write(
            b"POST /v1/query HTTP/1.1\\r\\nConnection: close\\r\\n"
            + b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body
        )
        await writer.drain()
        response = await reader.read()
        writer.close()
    finally:
        await server.shutdown()
    return response


response = asyncio.run(main())
assert response.startswith(b"HTTP/1.1 200 "), response
loaded = [name for name in {NOT_SERVED!r} if name in sys.modules]
assert not loaded, f"the server loaded {{loaded}}"
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def small_release() -> str:
    intervals = [[(0, 1), (2, 3)], [(0, 2), (3, 5)]]
    packed = packed_from_intervals(intervals, [1.0, 2.0, 3.0, 4.0], (4, 6))
    private = PrivateFrequencyMatrix.from_packed(packed, method="grid")
    return json.dumps(private.to_publishable())


class TestServingImportClosure:
    def test_server_loads_only_what_it_serves(self):
        done = subprocess.run(
            [sys.executable, "-c", SERVE_ONE_REQUEST],
            input=small_release(),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        served = json.loads(done.stdout)
        assert "repro.engine.server" in served
        assert len(served) <= MAX_SERVED_MODULES, served


def package_table(name):
    package = importlib.import_module(name)
    return package, package._ORIGIN


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazySurface:
    def test_every_name_is_its_submodules_object(self, name):
        package, table = package_table(name)
        for attr in set(package.__all__) - {"__version__"}:
            value = getattr(package, attr)
            holder = importlib.import_module(table[attr], name)
            assert value is getattr(holder, attr), attr
            if isinstance(value, type) or inspect.isfunction(value):
                defining = importlib.import_module(value.__module__)
                assert getattr(defining, value.__qualname__) is value, attr

    def test_dir_lists_every_public_name(self, name):
        package, _ = package_table(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_public_name(self, name):
        package, _ = package_table(name)
        namespace = {}
        exec(f"from {name} import *", namespace)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr), attr

    def test_unknown_name_raises_naming_the_package(self, name):
        package, _ = package_table(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})


def test_serving_error_has_one_home():
    import repro.engine
    import repro.engine.api
    import repro.engine.client

    assert repro.engine.ServingError is repro.engine.api.ServingError
    assert repro.engine.client.ServingError is repro.engine.api.ServingError


def test_package_quickstart_runs():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
