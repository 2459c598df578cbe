"""Sharded evaluation: split the partition axis, answer per shard, merge.

A :class:`~repro.core.packed.PackedPartitioning` stores the partition
list as contiguous arrays, so splitting it along the partition axis is a
row-range slice — no geometry is involved.  Sharded evaluation exploits
exactly that:

* the ``k`` partitions are divided into ``K`` contiguous shards of
  near-equal size (:func:`shard_bounds`);
* every shard answers the *whole* query batch against its own rows,
  producing a partial answer vector; the uniformity-assumption answer is
  a sum over partitions, so the merged result is simply the element-wise
  sum of the partials — identical values to the one-node broadcast
  kernel up to float summation order;
* each shard carries its own
  :class:`~repro.core.interval_index.IntervalIndex`.  Before doing any
  arithmetic a shard computes the batch's candidate-slice bound; the
  bound is an over-count, so when it is zero for every query the shard
  *provably* contributes nothing and skips the gather entirely.  The
  skip is observable: :attr:`ShardedAnswer.plans` records
  :data:`SHARD_SKIPPED` for such shards and
  :attr:`ShardedAnswer.skipped_shards` counts them.
* shards that do have candidates route through the same per-batch cost
  model as the single-node engine — index-pruned gather when the bound
  says most of the shard is untouched, tiled broadcast otherwise.

Shard evaluation order does not affect the merged answers (each partial
is computed independently and the merge is a fixed-order sum), so the
partials can be computed serially (:func:`answer_sharded`) or by the
resident worker pool (:class:`~repro.engine.ShardWorkerPool`), with
bit-identical results.

This is the ROADMAP's "partition lists outgrow one node" step: a shard
is self-contained (its arrays, its index), ships across a process
boundary by pickling, and answers any batch without seeing the other
shards — the same structure a multi-node deployment would distribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .exceptions import QueryError
from .interval_index import PLAN_PRUNED, PlanCost, plan_with_slices, slice_counts
from .packed import PackedPartitioning

#: Default shard count when ``plan="sharded"`` is forced without an
#: explicit ``n_shards``.  Deliberately modest: on one node sharding
#: mostly pays off through shard skipping and process fan-out, and the
#: per-shard index build is pure overhead for tiny shards.  Always
#: clipped to the partition count.
DEFAULT_N_SHARDS = 8

#: Recorded in :attr:`ShardedAnswer.plans` for a shard whose candidate
#: bound was zero for every query in the batch — it did no arithmetic.
SHARD_SKIPPED = "skipped"


def shard_bounds(n_partitions: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` ranges over the partition axis.

    ``n_shards`` is clipped to ``n_partitions`` (a shard must hold at
    least one partition); the first ``n_partitions % n_shards`` shards
    get one extra row.  Deterministic, so serial and pooled execution
    see identical shards.
    """
    n_partitions = int(n_partitions)
    n_shards = int(n_shards)
    if n_partitions < 1:
        raise QueryError("cannot shard an empty partition list")
    if n_shards < 1:
        raise QueryError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_partitions)
    base, extra = divmod(n_partitions, n_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class PartitionShard:
    """One contiguous row range of a packed partitioning, self-contained.

    Holds its own :class:`~repro.core.packed.PackedPartitioning` built
    from the parent's array slices (no exact-cover validation — a shard
    deliberately covers only part of the matrix) and lazily builds its
    own interval index.  The resident pool hands each worker its shard
    as a process argument: a forked worker inherits it, a spawned one
    unpickles it (interval index included).
    """

    __slots__ = ("start", "stop", "packed")

    def __init__(self, parent: PackedPartitioning, start: int, stop: int):
        if not 0 <= start < stop <= parent.n_partitions:
            raise QueryError(
                f"shard range [{start}, {stop}) outside partition axis "
                f"[0, {parent.n_partitions})"
            )
        self.start = int(start)
        self.stop = int(stop)
        true = parent.true_counts
        self.packed = PackedPartitioning(
            parent.lo[start:stop],
            parent.hi[start:stop],
            parent.noisy_counts[start:stop],
            parent.shape,
            None if true is None else true[start:stop],
            validate=False,
        )

    @property
    def n_partitions(self) -> int:
        return self.packed.n_partitions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionShard([{self.start}, {self.stop}))"

    def partial(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        cost: PlanCost | None = None,
    ) -> Tuple[np.ndarray | None, str]:
        """This shard's partial answers for the batch, or a provable skip.

        Returns ``(partial, plan)``.  ``partial`` is ``None`` — and
        ``plan`` is :data:`SHARD_SKIPPED` — when the shard's
        candidate-slice bound is zero for every query: the bound never
        under-counts, so a zero bound proves no query box intersects any
        partition in this shard and the partial would be exactly zero.
        Otherwise the shard picks the pruned gather or the broadcast
        kernel by the engine's one rule,
        :func:`~repro.core.interval_index.plan_with_slices` (``cost``
        overrides its constants — see
        :class:`~repro.core.interval_index.PlanCost`), handing it the
        slices the skip test already computed.
        """
        index = self.packed.interval_index()
        slices = index.candidate_slices(lows, highs)
        if not slice_counts(slices).any():
            return None, SHARD_SKIPPED
        plan, _ = plan_with_slices(
            self.packed, lows, highs, slices=slices, cost=cost
        )
        if plan == PLAN_PRUNED:
            return index.answer_pruned(lows, highs, slices=slices), plan
        return self.packed.answer_many_arrays(lows, highs), plan


@dataclass(frozen=True)
class ShardedAnswer:
    """Merged answers plus per-shard execution evidence.

    ``plans[i]`` is what shard ``i`` actually did: :data:`SHARD_SKIPPED`
    (zero candidate bound, no arithmetic),
    :data:`~repro.core.interval_index.PLAN_PRUNED`, or
    :data:`~repro.core.interval_index.PLAN_BROADCAST`.
    """

    answers: np.ndarray
    bounds: Tuple[Tuple[int, int], ...]
    plans: Tuple[str, ...]

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    @property
    def skipped_shards(self) -> int:
        """How many shards proved they had no overlapping query."""
        return sum(1 for p in self.plans if p == SHARD_SKIPPED)

    @property
    def skip_rate(self) -> float:
        return self.skipped_shards / self.n_shards


def split_shards(
    packed: PackedPartitioning, n_shards: int | None = None
) -> List[PartitionShard]:
    """Split ``packed`` into contiguous partition-axis shards.

    The uncached builder; prefer
    :meth:`~repro.core.packed.PackedPartitioning.split_shards`, which
    memoizes per effective shard count so repeated batches reuse the
    shards' lazily built indexes.
    """
    if n_shards is None:
        n_shards = DEFAULT_N_SHARDS
    return [
        PartitionShard(packed, start, stop)
        for start, stop in shard_bounds(packed.n_partitions, n_shards)
    ]


def answer_sharded(
    packed: PackedPartitioning,
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    n_shards: int | None = None,
    cost: PlanCost | None = None,
) -> ShardedAnswer:
    """Answer a validated batch by summing per-shard partial answers.

    The shards run serially in-process.  ``cost`` overrides the
    per-shard pruned-vs-broadcast rule's constants.  The merge is a
    fixed-order sum over shards, so the result matches the resident
    pool's bit for bit, and the one-node broadcast kernel within float
    reassociation (the equivalence suite pins this at 1e-9).
    """
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    # The packed method caches shards per effective count, so repeated
    # batches reuse the shards and their lazily built indexes.
    shards = packed.split_shards(n_shards)
    bounds = tuple((s.start, s.stop) for s in shards)
    q = int(lows.shape[0])
    if q == 0:
        return ShardedAnswer(
            answers=np.zeros(0, dtype=np.float64),
            bounds=bounds,
            plans=(SHARD_SKIPPED,) * len(shards),
        )
    answers = np.zeros(q, dtype=np.float64)
    plans: List[str] = []
    for shard in shards:
        partial, plan = shard.partial(lows, highs, cost)
        plans.append(plan)
        if partial is not None:
            answers += partial
    return ShardedAnswer(answers=answers, bounds=bounds, plans=tuple(plans))
