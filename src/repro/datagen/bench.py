"""Deterministic serving substrates for the micro benchmarks.

The serving benchmarks need two things a sanitizer run cannot cheaply
guarantee: a *known, reproducible* partition count (so the broadcast
kernel's per-tick cost — ``O(q · k · d)`` — is set by the benchmark,
not by what a sanitizer happened to emit), and *bit-identical*
rebuilds (so every benchmark run answers against the same matrix).

:func:`grid_substrate` provides both: an ``m × m`` uniform-grid
:class:`~repro.core.PrivateFrequencyMatrix` (``k = m**d`` partitions)
with Poisson+Laplace pseudo-noisy counts derived only from ``(shape,
m, seed)``.  It is a *benchmark* substrate — no privacy budget was
spent on it — which is exactly why it never goes through a sanitizer.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core.exceptions import ValidationError
from ..core.packed import packed_from_intervals
from ..core.private_matrix import PrivateFrequencyMatrix
from ..methods._grid import axis_intervals

DEFAULT_SHAPE: Tuple[int, int] = (256, 256)
DEFAULT_GRID_M = 64


def grid_substrate(
    shape: Sequence[int] = DEFAULT_SHAPE,
    m: int = DEFAULT_GRID_M,
    seed: int = 0,
    mean_count: float = 40.0,
    noise_scale: float = 2.0,
) -> PrivateFrequencyMatrix:
    """An ``m``-per-dimension uniform-grid private matrix, ``(shape, m,
    seed)``-deterministic across processes.

    ``k = m ** len(shape)`` partitions with ``Poisson(mean_count) +
    Laplace(0, noise_scale)`` counts drawn from a fresh
    ``default_rng(seed)``.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValidationError(f"shape must be positive, got {shape}")
    if not all(1 <= m <= s for s in shape):
        raise ValidationError(
            f"grid m={m} must be within [1, min(shape)] for shape {shape}"
        )
    rng = np.random.default_rng(seed)
    intervals = [axis_intervals(s, m) for s in shape]
    k = m ** len(shape)
    noisy = rng.poisson(mean_count, size=k).astype(float)
    noisy += rng.laplace(0.0, noise_scale, size=k)
    packed = packed_from_intervals(intervals, noisy, shape)
    return PrivateFrequencyMatrix.from_packed(packed, method="bench_grid")
