"""Per-dimension sorted interval index and the pruned query strategy.

The tiled broadcast kernel (:meth:`PackedPartitioning.answer_many_arrays
<repro.core.packed.PackedPartitioning.answer_many_arrays>`) scores every
``(query, partition)`` pair, so a batch of *small* queries against a
*large* partition list pays ``O(q × k × d)`` even though each query
overlaps only a handful of partitions.  An :class:`IntervalIndex` makes
the overlapping handful cheap to find.

Per dimension ``a`` the partitions are argsorted by ``lo[:, a]``, and the
running maximum of ``hi`` along that order is precomputed.  A query
``[qlo, qhi]`` on that dimension can only overlap positions in a
*contiguous* slice ``[s, e)`` of the lo-sorted order:

* ``e = searchsorted(lo_sorted, qhi, "right")`` — everything at or past
  ``e`` starts after the query ends;
* ``s = searchsorted(running_max_hi, qlo, "left")`` — the running max is
  non-decreasing, and everything before ``s`` has ``hi < qlo``, so it
  ends before the query starts.

Two binary searches per (query, dimension) therefore bound the candidate
set from above; the dimension with the smallest slice is the probe axis.
Gathered candidates then go through the exact overlap product (the same
arithmetic as the broadcast kernel, clipped at zero, on the same narrow
:class:`~repro.core.packed.OverlapLayout`: per-axis lengths in the
narrowest int holding ``max(shape)``, their product in int32, one cast
to float64), so false positives contribute exactly zero and the answers
are *identical* to the unpruned kernel up to float summation order.
The integer product is exact, so the gather is bit-identical to the
same gather done in int64/float64.

The slice lengths double as the planner's cost signal: their sum
estimates how many pairs the pruned gather touches, and
:func:`plan_with_slices`, the engine's one pruned-vs-alternative rule,
compares that (plus a per-query gather overhead) against what the
alternative costs: the ``q × k`` pairs the broadcast kernel always
pays, or a cheaper dense price the engine passes in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .packed import PackedPartitioning

#: Plan names recorded on result rows and accepted by the ``plan=``
#: overrides of the answering entry points.
PLAN_DENSE = "dense"
PLAN_BROADCAST = "broadcast"
PLAN_PRUNED = "pruned"
PLAN_SHARDED = "sharded"

#: Plans the packed (partition-backed) engine can execute.  ``dense`` is
#: handled one level up, by the private matrix's prefix-sum switch.
PACKED_PLANS = (PLAN_BROADCAST, PLAN_PRUNED, PLAN_SHARDED)

#: Below this many partitions the broadcast kernel is already cheap and
#: the gather bookkeeping cannot amortize.
PRUNE_MIN_PARTITIONS = 128

#: Per-query overhead of the pruned gather (candidate-slice collection
#: and the bincount reduction), expressed in broadcast pair-equivalents.
PRUNE_OVERHEAD_PAIRS = 64

#: The pruned plan must look at least this many times cheaper than the
#: broadcast kernel before the planner picks it.  A gathered pair costs
#: several times a contiguous broadcast pair (fancy indexing, the
#: bincount reduction), and the slice bound is an upper bound on work
#: only, not a guarantee of savings — measured crossover on the
#: query-engine microbenchmark substrate sits near an 8:1 pair ratio.
PRUNE_SAFETY_FACTOR = 8.0

#: Upper bound on gathered (query, partition) pairs per processing chunk
#: of the pruned strategy.  Like the broadcast kernel's query tiles, a
#: 64k-pair chunk keeps every temporary cache-resident (about twice as
#: fast as 2M-pair chunks) and bounds peak memory.
GATHER_TILE_PAIRS = 65_536


@dataclass(frozen=True)
class PlanCost:
    """The tunable constants of :func:`plan_with_slices`.

    The engine passes none, so it and every shard
    (:meth:`repro.core.sharding.PartitionShard.partial`) plan with
    :data:`DEFAULT_PLAN_COST`, built from the module constants above;
    plain frozen data, so it pickles with shard tasks.
    """

    min_partitions: int = PRUNE_MIN_PARTITIONS
    overhead_pairs: float = PRUNE_OVERHEAD_PAIRS
    safety_factor: float = PRUNE_SAFETY_FACTOR


#: The module-constant rule, used wherever no override is supplied.
DEFAULT_PLAN_COST = PlanCost()


class IntervalIndex:
    """Sorted per-dimension interval index over a packed partitioning.

    Construction costs one ``O(k log k)`` argsort per dimension; the
    owning :class:`~repro.core.packed.PackedPartitioning` builds it
    lazily and caches it, so repeated batches share one index.
    """

    __slots__ = ("_packed", "_order", "_lo_sorted", "_run_max_hi")

    def __init__(self, packed: "PackedPartitioning"):
        self._packed = packed
        lo, hi = packed.lo, packed.hi
        d = lo.shape[1]
        # One (d, k) array, so the pruned gather can address every
        # axis's order with a single flat index.
        self._order = np.ascontiguousarray(
            np.argsort(lo.T, axis=1, kind="stable")
        )
        self._lo_sorted: List[np.ndarray] = []
        self._run_max_hi: List[np.ndarray] = []
        for a in range(d):
            order = self._order[a]
            self._lo_sorted.append(np.ascontiguousarray(lo[order, a]))
            self._run_max_hi.append(np.maximum.accumulate(hi[order, a]))

    @property
    def packed(self) -> "PackedPartitioning":
        return self._packed

    @property
    def n_partitions(self) -> int:
        return self._packed.n_partitions

    # ------------------------------------------------------------------
    # Candidate slices (the planner's cost signal)
    # ------------------------------------------------------------------
    def candidate_slices(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(start, stop)`` arrays of shape ``(q, d)`` into each
        dimension's lo-sorted order.

        The slice ``order[a][start[i, a]:stop[i, a]]`` is a superset of
        the partitions query ``i`` can overlap, judged by axis ``a``
        alone (``stop`` may not exceed ``start``; treat the slice as
        empty then).
        """
        q, d = lows.shape
        start = np.empty((q, d), dtype=np.int64)
        stop = np.empty((q, d), dtype=np.int64)
        for a in range(d):
            start[:, a] = np.searchsorted(
                self._run_max_hi[a], lows[:, a], side="left"
            )
            stop[:, a] = np.searchsorted(
                self._lo_sorted[a], highs[:, a], side="right"
            )
        return start, stop

    def candidate_counts(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``(q,)`` upper bound on partitions each query can overlap.

        The tightest single-axis bound: ``min`` over dimensions of the
        candidate-slice length.  Never smaller than the true count.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if lows.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return slice_counts(self.candidate_slices(lows, highs))

    def candidate_fraction(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``(q,)`` estimated fraction of the partition list per query."""
        return self.candidate_counts(lows, highs) / float(self.n_partitions)

    # ------------------------------------------------------------------
    # The pruned gather strategy
    # ------------------------------------------------------------------
    def answer_pruned(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        tile_pairs: int = GATHER_TILE_PAIRS,
        slices: Tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Uniformity-assumption answers via candidate gather.

        Identical values to the broadcast kernel (same overlap product,
        clipped at zero, contracted against ``noisy / n_cells`` weights)
        — only the partitions that each query's probe axis cannot rule
        out are touched.  The candidate slices of a whole chunk of
        queries are gathered as one flat ``np.take`` over the flattened
        order, the overlap products computed in a single vectorized
        pass on the narrow :class:`~repro.core.packed.OverlapLayout`,
        and the per-query sums recovered with a segmented ``bincount``
        — no Python-level loop runs per query.  ``lows``/``highs`` are
        ``(q, d)`` validated bounds; chunks are sized so no more than
        ``tile_pairs`` gathered pairs are in flight at once.  ``slices``
        accepts this batch's :meth:`candidate_slices` result when the
        planner already computed it (see :func:`plan_with_slices`).
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        q = lows.shape[0]
        out = np.zeros(q, dtype=np.float64)
        if q == 0:
            return out
        slice_start, slice_stop = (
            slices if slices is not None else self.candidate_slices(lows, highs)
        )
        per_dim = np.clip(slice_stop - slice_start, 0, None)
        best_axis = per_dim.argmin(axis=1)
        rows = np.arange(q)
        lengths = per_dim[rows, best_axis]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        # Each query's candidates are one run of the flattened (d, k)
        # order, starting at its probe axis's slice start.
        first = best_axis * self.n_partitions + slice_start[rows, best_axis]
        order = self._order.reshape(-1)
        layout = self._packed.overlap_layout()
        qlo, qhi = layout.queries(lows, highs)
        plo, phi = layout.lo, layout.hi
        weights = self._packed.weights
        start = 0
        while start < q:
            # Largest chunk whose gathered pairs fit the tile (always at
            # least one query, even if that query alone exceeds it).
            stop = int(
                np.searchsorted(bounds, bounds[start] + tile_pairs, "right")
            ) - 1
            stop = min(max(stop, start + 1), q)
            n_pairs = int(bounds[stop] - bounds[start])
            if n_pairs == 0:
                start = stop
                continue
            reps = lengths[start:stop]
            run_offset = first[start:stop] - (bounds[start:stop] - bounds[start])
            ids = np.take(order, np.repeat(run_offset, reps) + np.arange(n_pairs))
            # The broadcast kernel's overlap product, over gathered
            # (query, partition) pairs.  ``np.take`` and ``np.repeat``
            # gather several times faster than fancy indexing.
            acc = layout.cells(
                np.repeat(qlo[:, start:stop], reps, axis=1),
                np.repeat(qhi[:, start:stop], reps, axis=1),
                np.take(plo, ids, axis=1),
                np.take(phi, ids, axis=1),
            )
            vals = acc.astype(np.float64, copy=False)
            vals *= np.take(weights, ids)
            out[start:stop] = np.bincount(
                np.repeat(np.arange(stop - start), reps),
                weights=vals,
                minlength=stop - start,
            )
            start = stop
        return out


def slice_counts(slices: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``(q,)`` candidate bound of each query from its
    :meth:`IntervalIndex.candidate_slices`: the shortest slice over the
    dimensions, an empty slice counting zero."""
    start, stop = slices
    return np.clip(stop - start, 0, None).min(axis=1)


def plan_with_slices(
    packed: "PackedPartitioning",
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    dense: float | None = None,
    slices: Tuple[np.ndarray, np.ndarray] | None = None,
    cost: PlanCost | None = None,
) -> Tuple[str, Tuple[np.ndarray, np.ndarray] | None]:
    """The one pruned-vs-alternative rule, in broadcast pairs per query.

    The alternative is :data:`PLAN_DENSE` when its per-query price
    ``dense`` is given and below ``k``, else :data:`PLAN_BROADCAST` at
    ``k`` pairs.  The pruned gather costs the summed candidate bound
    plus :attr:`PlanCost.overhead_pairs` per query, times
    :attr:`PlanCost.safety_factor` (a gathered pair is slower than a
    contiguous one); it wins only below ``q`` times the alternative.
    The candidate pass runs only when ``k`` reaches
    :attr:`PlanCost.min_partitions` and pruned's floor, ``safety ×
    overhead`` per query, is below the alternative: otherwise pruned
    cannot win.  ``slices`` is this batch's
    :meth:`IntervalIndex.candidate_slices` when the caller already has
    it (a shard's skip test).  ``cost`` overrides the rule's constants;
    ``None`` reads :data:`DEFAULT_PLAN_COST` at call time.

    Returns ``(plan, slices)``, ``slices`` being the candidate pass when
    it ran (feed it to :meth:`IntervalIndex.answer_pruned`).  Forced
    plans are the engine's job, not this rule's.
    """
    if cost is None:
        cost = DEFAULT_PLAN_COST
    q, k = len(lows), packed.n_partitions
    plan, best = PLAN_BROADCAST, k
    if dense is not None and dense < k:
        plan, best = PLAN_DENSE, dense
    if (
        q == 0
        or k < cost.min_partitions
        or cost.safety_factor * cost.overhead_pairs >= best
    ):
        return plan, slices
    if slices is None:
        slices = packed.interval_index().candidate_slices(lows, highs)
    pairs = float(slice_counts(slices).sum()) + q * cost.overhead_pairs
    if cost.safety_factor * pairs < q * best:
        return PLAN_PRUNED, slices
    return plan, slices
