"""UNIFORM (a.k.a. *singular*) baseline: one partition for the whole matrix.

The total count is sanitized once with the full budget and queries are
answered assuming perfectly uniform data (Section 5's "singular" algorithm).
Minimal noise error, maximal uniformity error.
"""

from __future__ import annotations

import numpy as np

from ..core.frequency_matrix import FrequencyMatrix, full_box
from ..core.packed import PackedPartitioning, boxes_to_arrays
from ..core.private_matrix import PrivateFrequencyMatrix
from ..dp.budget import BudgetLedger
from ..dp.mechanisms import laplace_noise
from .base import Sanitizer


class Uniform(Sanitizer):
    """Single-partition sanitizer (the paper's UNIFORM / singular baseline)."""

    name = "uniform"

    def _sanitize(
        self,
        matrix: FrequencyMatrix,
        ledger: BudgetLedger,
        rng: np.random.Generator,
    ) -> PrivateFrequencyMatrix:
        epsilon = ledger.epsilon_total
        ledger.charge(epsilon, note="total count")
        noisy_total = matrix.total + laplace_noise(1.0, epsilon, rng)
        lo, hi = boxes_to_arrays([full_box(matrix.shape)])
        packed = PackedPartitioning(lo, hi, [noisy_total], matrix.shape,
                                    [matrix.total], validate=False)
        return self.publish_packed(packed, matrix, ledger,
                                   metadata={"n_partitions": 1})
