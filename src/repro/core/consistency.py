"""DP-safe post-processing of private frequency matrices.

Differential privacy is closed under post-processing: any transformation
of a published output that does not touch the raw data preserves the
guarantee.  These helpers implement the standard clean-ups analysts apply
before using a sanitized matrix:

* :func:`clip_nonnegative` — zero out negative noisy counts;
* :func:`rescale_to_total` — force the counts to sum to a target total
  (e.g. a separately-published sanitized ``N``);
* :func:`project_nonnegative_total` — both at once: clip, then shift the
  clipped mass proportionally so the published total is preserved.

All functions return a *new* :class:`PrivateFrequencyMatrix`; the input is
never mutated, and the output records the transformation in its metadata.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError
from .packed import PackedPartitioning
from .private_matrix import PrivateFrequencyMatrix


def _rebuild(
    private: PrivateFrequencyMatrix,
    new_counts: np.ndarray,
    note: str,
) -> PrivateFrequencyMatrix:
    """A copy of ``private`` with per-partition (or per-cell) counts
    replaced by ``new_counts``."""
    meta = private.metadata
    meta["postprocessing"] = meta.get("postprocessing", []) + [note]
    if private.is_dense_backed:
        return PrivateFrequencyMatrix.from_dense_noisy(
            new_counts.reshape(private.shape),
            private.domain,
            epsilon=private.epsilon,
            method=private.method,
            metadata=meta,
        )
    packed = private.packed
    return PrivateFrequencyMatrix.from_packed(
        PackedPartitioning(packed.lo, packed.hi, new_counts, packed.shape,
                           packed.true_counts, validate=False),
        private.domain,
        epsilon=private.epsilon,
        method=private.method,
        metadata=meta,
    )


def _counts_of(private: PrivateFrequencyMatrix) -> np.ndarray:
    if private.is_dense_backed:
        return private.dense_array().ravel().copy()
    return private.packed.noisy_counts.copy()


def clip_nonnegative(private: PrivateFrequencyMatrix) -> PrivateFrequencyMatrix:
    """Zero out negative counts (the simplest consistency fix).

    Introduces a positive bias on sums over sparse regions — pair with
    :func:`rescale_to_total` when aggregate consistency matters.
    """
    counts = _counts_of(private)
    return _rebuild(private, np.maximum(counts, 0.0), "clip_nonnegative")


def rescale_to_total(
    private: PrivateFrequencyMatrix, target_total: float
) -> PrivateFrequencyMatrix:
    """Scale all counts so they sum to ``target_total``.

    ``target_total`` must itself be DP-derived (e.g. the sanitized total
    a method already publishes) for the result to remain private.
    Requires a positive current sum.
    """
    if not np.isfinite(target_total):
        raise ValidationError(f"target_total must be finite, got {target_total}")
    counts = _counts_of(private)
    current = counts.sum()
    if current <= 0:
        raise ValidationError(
            "cannot rescale: current counts sum to a non-positive value; "
            "clip first or use project_nonnegative_total"
        )
    # A tiny current sum overflows the factor or the scaled counts (and
    # an infinite factor times a zero count is NaN); the finiteness
    # check below reports either, so NumPy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = counts * (target_total / current)
    if not np.all(np.isfinite(scaled)):
        raise ValidationError(
            f"cannot rescale: current sum {current:g} is too small for "
            f"target {target_total:g}"
        )
    return _rebuild(private, scaled, f"rescale_to_total({target_total:g})")


def project_nonnegative_total(
    private: PrivateFrequencyMatrix,
    target_total: float | None = None,
    max_iterations: int = 100,
) -> PrivateFrequencyMatrix:
    """Clip negatives while preserving the (published) total.

    Iteratively zeroes negative entries and subtracts the created surplus
    proportionally from the positive ones — the standard projection onto
    the simplex-like set {x >= 0, sum x = T} under a proportional rule.
    ``target_total`` defaults to the current summed count (clipped at 0).
    """
    counts = _counts_of(private)
    total = counts.sum() if target_total is None else float(target_total)
    total = max(total, 0.0)
    x = counts.copy()
    for _ in range(max_iterations):
        x = np.maximum(x, 0.0)
        s = x.sum()
        if s <= 0:
            # Degenerate: spread the target uniformly.
            x = np.full_like(x, total / x.size)
            break
        if abs(s - total) <= 1e-9 * max(1.0, total):
            break
        positive = x > 0
        x[positive] -= (s - total) * x[positive] / x[positive].sum()
    x = np.maximum(x, 0.0)
    return _rebuild(private, x, f"project_nonnegative_total({total:g})")
