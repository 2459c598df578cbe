#!/usr/bin/env python
"""Dense-switch / pruning calibration from measured benchmark artifacts.

``DENSE_SWITCH_FACTOR``, ``LEVEL_ELEMENT_COST`` and the ``PRUNE_*``
constants were chosen on one development machine; the right crossovers
depend on the host's BLAS, memory bandwidth, and core count.  This tool
reads the measurements the micro-benchmarks already record
(``bench-out/BENCH_query_engine.json``, and ``BENCH_level_table.json``
from the same directory when it is there) and prints a *suggested*
value for each constant it can fit, with the file that defines it, e.g.
``suggested DENSE_SWITCH_FACTOR = 13.06 (src/repro/engine/engine.py)``.
It never applies anything: calibration output is a suggestion to a
human, who edits the constant.  It exits 1 when the artifact is
missing, unreadable, or yields no suggestion.

Model
-----
* **Dense switch.**  The artifact measures the broadcast kernel on a
  ``q × k`` batch (``kernel_seconds``) and the dense prefix-sum route on
  the same batch (``auto_seconds``, recorded when the planner picked
  ``dense``).  The kernel costs ``pair_cost = kernel_seconds / (q·k)``
  per scored pair; the dense route's total is ~flat in ``q`` at this
  scale.  They break even when ``q·k ≈ auto_seconds / pair_cost``, i.e.
  at ``factor* = auto_seconds · q · k / (kernel_seconds · cells)`` times
  the cell count — with a safety margin below that, densifying is a
  measured win.
* **Prune safety factor.**  The small-query case measures the broadcast
  kernel (``broadcast_seconds_small``) against the pruned gather
  (``pruned_seconds_small``) whose touched-pair estimate is
  ``candidate_fraction · q · k + q · overhead``.  The ratio of measured
  per-pair costs (gathered vs contiguous) is exactly what
  ``PRUNE_SAFETY_FACTOR`` models, so the suggestion is that ratio with
  head-room.
* **Level element cost.**  ``BENCH_level_table.json`` times a batch of
  ``q`` queries on the level table of each level ``j``
  (``levels[j].batch_us``) and on the broadcast kernel
  (``broadcast_batch_us``).  A level query touches ``groups ·
  (2^(d−j) + j)`` elements, a broadcast one ``k · d``; the ratio of the
  per-element times is what ``LEVEL_ELEMENT_COST`` models.  It is
  recorded for every level, and suggested at the level the release
  chose (``chosen_level``).  The ratio's spread, from the fastest and
  slowest of the repeated batch runs (``batch_us_min`` /
  ``batch_us_max``), prints beside it when the artifact has them.

Usage::

    PYTHONPATH=src python tools/calibrate.py \
        [--artifact bench-out/BENCH_query_engine.json]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: The suggested dense switch sits this far below the measured
#: break-even multiple, so the dense route is only taken where it is a
#: clear, not marginal, win (mirrors the conservatism of the shipped
#: default: measured break-even is far above the default factor).
DENSE_HEADROOM = 4.0

#: Head-room multiplier on the measured gathered-vs-contiguous pair-cost
#: ratio (the candidate bound is an over-estimate of *work*, not of
#: *savings*, so the raw ratio is too aggressive).
PRUNE_HEADROOM = 1.5

# The cost model's per-query gather overhead.  Prefer the value the
# artifact itself recorded (so an artifact measured under an edited
# constant is interpreted with that value), then the live constant; the
# literal fallback only covers running this file standalone without
# PYTHONPATH.
try:
    from repro.core.interval_index import PRUNE_OVERHEAD_PAIRS
except ImportError:  # pragma: no cover - standalone invocation
    PRUNE_OVERHEAD_PAIRS = 64.0

REQUIRED_DENSE_KEYS = (
    "kernel_seconds", "auto_seconds", "n_queries", "n_partitions", "shape",
)
REQUIRED_PRUNE_KEYS = (
    "broadcast_seconds_small", "pruned_seconds_small",
    "small_query_candidate_fraction", "n_queries", "n_partitions",
)
REQUIRED_LEVEL_KEYS = (
    "shape", "n_partitions", "batch_queries", "chosen_level",
    "broadcast_batch_us", "levels",
)

#: The level-table artifact, read from the ``--artifact`` directory.
LEVEL_ARTIFACT = "BENCH_level_table.json"

#: Each constant calibration can suggest, and the file that defines it.
CONSTANT_FILES = {
    "DENSE_SWITCH_FACTOR": "src/repro/engine/engine.py",
    "LEVEL_ELEMENT_COST": "src/repro/engine/engine.py",
    "PRUNE_SAFETY_FACTOR": "src/repro/core/interval_index.py",
}


def suggest(artifact: dict, level: dict | None = None) -> dict:
    """Suggested constant values from the query-engine ``artifact`` and
    the optional level-table artifact ``level``.

    Returns a dict with any of the :data:`CONSTANT_FILES` names plus
    the intermediate evidence under ``evidence``.  Series whose inputs
    are missing are skipped (the artifact may predate them).
    """
    out: dict = {"evidence": {}}
    if all(k in artifact for k in REQUIRED_DENSE_KEYS):
        q = float(artifact["n_queries"])
        k = float(artifact["n_partitions"])
        cells = float(math.prod(artifact["shape"]))
        kernel_seconds = float(artifact["kernel_seconds"])
        auto_seconds = float(artifact["auto_seconds"])
        if kernel_seconds > 0 and auto_seconds > 0 and artifact.get(
            "auto_plan", "dense"
        ) == "dense":
            pair_cost = kernel_seconds / (q * k)
            breakeven = auto_seconds / pair_cost / cells
            suggestion = max(1.0, breakeven / DENSE_HEADROOM)
            out["DENSE_SWITCH_FACTOR"] = round(suggestion, 2)
            out["evidence"]["dense_breakeven_factor"] = round(breakeven, 2)
            out["evidence"]["broadcast_pair_seconds"] = pair_cost
    if all(k in artifact for k in REQUIRED_PRUNE_KEYS):
        q = float(artifact["n_queries"])
        k = float(artifact["n_partitions"])
        broadcast = float(artifact["broadcast_seconds_small"])
        pruned = float(artifact["pruned_seconds_small"])
        fraction = float(artifact["small_query_candidate_fraction"])
        overhead = float(
            artifact.get("prune_overhead_pairs", PRUNE_OVERHEAD_PAIRS)
        )
        est_pairs = fraction * q * k + q * overhead
        if broadcast > 0 and pruned > 0 and est_pairs > 0:
            contiguous_pair = broadcast / (q * k)
            gathered_pair = pruned / est_pairs
            ratio = gathered_pair / contiguous_pair
            out["PRUNE_SAFETY_FACTOR"] = round(
                max(1.0, ratio * PRUNE_HEADROOM), 2
            )
            out["evidence"]["gathered_vs_contiguous_pair_ratio"] = round(
                ratio, 2
            )
    if level is not None and all(k in level for k in REQUIRED_LEVEL_KEYS):
        d = len(level["shape"])
        q = float(level["batch_queries"])
        # us per broadcast element op: one axis of one (query, partition)
        # pair.
        element = float(level["broadcast_batch_us"]) / (
            q * float(level["n_partitions"]) * d
        )
        ratios = {}
        for j, row in level["levels"].items():
            j = int(j)
            batch_us = float(row["batch_us"])
            if element > 0 and batch_us > 0:
                elements = q * float(row["groups"]) * (2 ** (d - j) + j)
                ratios[j] = batch_us / elements / element
                out["evidence"][f"level_{j}_element_cost"] = round(
                    ratios[j], 2
                )
                for end in ("min", "max"):
                    if f"batch_us_{end}" in row:
                        out["evidence"][f"level_{j}_element_cost_{end}"] = (
                            round(float(row[f"batch_us_{end}"])
                                  / elements / element, 2)
                        )
        chosen = int(level["chosen_level"])
        if chosen in ratios:
            out["LEVEL_ELEMENT_COST"] = round(ratios[chosen], 2)
    return out


def render(suggestions: dict) -> str:
    """Human-facing report: evidence, then one line per constant."""
    lines = []
    for key, value in sorted(suggestions.get("evidence", {}).items()):
        lines.append(f"measured  {key} = {value:g}")
    names = sorted(k for k in suggestions if k != "evidence")
    if not names:
        lines.append(
            "no suggestions: artifact lacks the required measurement series"
        )
        return "\n".join(lines)
    for name in names:
        lines.append(
            f"suggested {name} = {suggestions[name]:g} "
            f"({CONSTANT_FILES[name]})"
        )
    lines.append(
        "suggestions only — nothing was applied; re-measure with "
        "benchmarks/test_micro_query_engine.py and "
        "benchmarks/test_micro_primitives.py::test_level_table before "
        "trusting them"
    )
    return "\n".join(lines)


def read_artifact(path: Path) -> dict | None:
    """The JSON object at ``path``, or ``None`` (reported on stderr)
    when it is not one."""
    try:
        artifact = json.loads(path.read_text())
    except ValueError as exc:
        print(f"unreadable artifact {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(artifact, dict):
        print(f"unreadable artifact {path}: expected a JSON object",
              file=sys.stderr)
        return None
    return artifact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "bench-out" / "BENCH_query_engine.json",
        help="measured BENCH_query_engine.json (default: the fresh one "
             "the micro-benchmark writes to bench-out/)",
    )
    args = parser.parse_args(argv)
    if not args.artifact.is_file():
        print(f"no artifact at {args.artifact}; run the query-engine "
              f"micro-benchmark first", file=sys.stderr)
        return 1
    artifact = read_artifact(args.artifact)
    if artifact is None:
        return 1
    level = None
    level_path = args.artifact.parent / LEVEL_ARTIFACT
    if level_path.is_file():
        level = read_artifact(level_path)
        if level is None:
            return 1
    suggestions = suggest(artifact, level)
    print(render(suggestions))
    return 0 if set(suggestions) - {"evidence"} else 1


if __name__ == "__main__":
    sys.exit(main())
