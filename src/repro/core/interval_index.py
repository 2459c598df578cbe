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
:func:`plan_with_slices` compares that (plus a per-query gather
overhead) against the ``q × k`` pairs the broadcast kernel always pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from .exceptions import QueryError

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
    """The pruned-vs-broadcast cost rule's tunable constants.

    One value object threads the rule through every planning path —
    the single-node planner (:func:`plan_with_slices`) and the
    per-shard planner (:meth:`repro.core.sharding.PartitionShard.partial`).
    The engine passes none, so every path it runs plans with
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
        start, stop = self.candidate_slices(lows, highs)
        return np.clip(stop - start, 0, None).min(axis=1)

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


def candidate_cost_plan(
    counts: np.ndarray, q: int, k: int, cost: PlanCost | None = None
) -> str:
    """The pruned-vs-broadcast pair-cost rule over a candidate bound.

    ``counts`` is the per-query candidate bound (min slice length over
    dimensions) for a batch of ``q`` queries against ``k`` partitions.
    The single source of the cost model: :func:`plan_with_slices` and
    the per-shard planner in :mod:`repro.core.sharding` both route
    through it, so tuning the constants tunes every path at once.
    ``cost`` overrides the rule's constants (``None`` uses the module
    defaults, :data:`DEFAULT_PLAN_COST`).
    """
    if cost is None:
        cost = DEFAULT_PLAN_COST
    if k < cost.min_partitions:
        return PLAN_BROADCAST
    if pruned_pairs(counts, q, cost) < float(q) * k:
        return PLAN_PRUNED
    return PLAN_BROADCAST


def pruned_pairs(counts: np.ndarray, q: int, cost: PlanCost) -> float:
    """The pruned gather's price, in broadcast pairs, for a batch of
    ``q`` queries with per-query candidate bounds ``counts``: the
    gathered pairs plus a per-query overhead, times the safety factor.
    """
    est_pairs = float(counts.sum()) + q * cost.overhead_pairs
    return cost.safety_factor * est_pairs


def plan_with_slices(
    packed: "PackedPartitioning",
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    force: str | None = None,
    cost: PlanCost | None = None,
) -> Tuple[str, Tuple[np.ndarray, np.ndarray] | None]:
    """Pick :data:`PLAN_PRUNED` or :data:`PLAN_BROADCAST` for a batch.

    The broadcast kernel always scores ``q × k`` pairs.  The pruned
    gather touches roughly the summed candidate-slice bound plus a
    per-query gather overhead; it is chosen only when that estimate
    beats the broadcast cost by :data:`PRUNE_SAFETY_FACTOR` (gathered
    pairs are slower than contiguous ones).  Batches against few
    partitions never prune — there is nothing worth skipping.

    ``force`` pins the outcome to one of :data:`PACKED_PLANS` instead of
    consulting the cost model.  Forcing :data:`PLAN_PRUNED` on a matrix
    with fewer than :data:`PRUNE_MIN_PARTITIONS` partitions falls back
    to :data:`PLAN_BROADCAST` rather than erroring: below the threshold
    the gather bookkeeping cannot amortize, and the two plans compute
    identical answers, so the engine silently takes the cheap route.
    :data:`PLAN_SHARDED` is only ever forced — sharding is an execution
    *layout* for partition lists that outgrow one node, not a
    single-node win the cost model could discover.

    Returns ``(plan, slices)``: when the index was consulted, ``slices``
    is its :meth:`IntervalIndex.candidate_slices` result for the batch,
    so the pruned path does not recompute it (feed it to
    :meth:`IntervalIndex.answer_pruned`).  ``cost`` overrides the cost
    rule's constants (see :class:`PlanCost`).
    """
    if cost is None:
        cost = DEFAULT_PLAN_COST
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    q = int(lows.shape[0])
    k = packed.n_partitions
    if force is not None:
        if force not in PACKED_PLANS:
            raise QueryError(
                f"unknown packed query plan {force!r}; expected one of "
                f"{', '.join(repr(p) for p in PACKED_PLANS)}"
            )
        if force == PLAN_PRUNED:
            if q == 0 or k < cost.min_partitions:
                return PLAN_BROADCAST, None
            return PLAN_PRUNED, packed.interval_index().candidate_slices(
                lows, highs
            )
        return force, None
    if q == 0 or k < cost.min_partitions:
        return PLAN_BROADCAST, None
    slices = packed.interval_index().candidate_slices(lows, highs)
    counts = np.clip(slices[1] - slices[0], 0, None).min(axis=1)
    return candidate_cost_plan(counts, q, k, cost), slices
