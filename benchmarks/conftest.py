"""Shared configuration for the figure/table benchmarks.

Each benchmark regenerates one paper artifact and prints the series the
paper plots (run with ``-s`` to see the tables).  Absolute numbers depend
on the synthetic substrate; the assertions check the *shape* of each
result — who wins, how trends move — which is what the reproduction
claims (see EXPERIMENTS.md).

Scale is selected with ``REPRO_BENCH_SCALE`` (``tiny`` | ``small`` |
``paper``); the default ``small`` keeps the whole suite at a few minutes
while preserving every qualitative result.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np
import pytest

from perfbench.release import fingerprint
from repro.experiments import get_scale


#: Where the micro benchmarks write their ``BENCH_*.json`` artifacts.
#: Gitignored, so test runs never touch the committed baselines at the
#: repository root; refreshing one is an explicit copy (see
#: ``tools/bench_gate.py``).
BENCH_OUT = Path(__file__).resolve().parent.parent / "bench-out"


def bench_artifact(name: str) -> Path:
    """``bench-out/BENCH_<name>.json``, creating the directory."""
    BENCH_OUT.mkdir(exist_ok=True)
    return BENCH_OUT / f"BENCH_{name}.json"


def write_bench_artifact(name: str, payload: Mapping[str, object]) -> None:
    """Write ``payload`` to ``bench-out/BENCH_<name>.json``, stamped with
    the machine it was measured on."""
    machine = {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": fingerprint()["blas"],
        "platform": platform.platform(),
    }
    bench_artifact(name).write_text(
        json.dumps({**payload, "machine": machine}, indent=1)
    )


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    Shared by the micro benchmarks that enforce a parallel-speedup floor
    only on wide-enough machines and write a ``skipped_low_cores``
    marker otherwise (``tools/bench_gate.py`` ignores marked entries).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def mre_by_method(
    rows: Sequence[Mapping[str, object]], **conditions
) -> Dict[str, float]:
    """Mean MRE per method over the rows matching ``conditions``."""
    acc: Dict[str, List[float]] = {}
    for row in rows:
        if all(row.get(k) == v for k, v in conditions.items()):
            acc.setdefault(str(row["method"]), []).append(float(row["mre"]))
    return {m: float(np.mean(v)) for m, v in acc.items()}


def assert_method_beats(
    mres: Mapping[str, float], winner: str, loser: str, factor: float = 1.0
) -> None:
    """Assert ``winner`` has at most ``1/factor`` of ``loser``'s MRE."""
    assert winner in mres and loser in mres, sorted(mres)
    assert mres[winner] * factor <= mres[loser], (
        f"expected {winner} (MRE {mres[winner]:.2f}) to beat {loser} "
        f"(MRE {mres[loser]:.2f}) by factor {factor}"
    )


def assert_decreasing(values: Sequence[float], label: str, slack: float = 1.0) -> None:
    """Assert the sequence trends downward (first > last, with slack)."""
    assert values[0] * slack >= values[-1], (
        f"{label}: expected a decreasing trend, got {list(values)}"
    )
