"""Answer checks, kept off every timed path.

All plans (dense, broadcast, pruned, sharded) agree within 1e-9 of each
other, and the default planner may pick different plans for different
tick shapes, so a served answer is checked against the in-process dense
prefix-sum answer of the same release within that tolerance, relative
to the answer's magnitude (at least 1).
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-9


def mismatches(expected: np.ndarray, got) -> int:
    """Number of answers in ``got`` that differ from ``expected``.

    A length mismatch or a non-finite value counts every expected answer
    as wrong.
    """
    expected = np.asarray(expected, dtype=np.float64)
    try:
        got = np.asarray(got, dtype=np.float64)
    except (TypeError, ValueError):
        return max(1, expected.size)
    if got.shape != expected.shape or not np.all(np.isfinite(got)):
        return max(1, expected.size)
    scale = np.maximum(1.0, np.abs(expected))
    return int(np.count_nonzero(np.abs(got - expected) > TOLERANCE * scale))
