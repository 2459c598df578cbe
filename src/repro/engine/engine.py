"""The synchronous serving facade: one entry point, four plans.

:class:`Engine` binds a :class:`~repro.core.PrivateFrequencyMatrix` to
an :class:`~repro.engine.EngineConfig` and answers
:class:`~repro.engine.QueryRequest` batches through four strategies —
dense prefix sums, tiled broadcast, index-pruned gather, partition-axis
sharding — with every caller-facing choice read from the config.  It is the
*only* query path: ``PrivateFrequencyMatrix.answer_many`` routes
through a default-config engine, and
:class:`~repro.engine.AsyncBatchEngine` answers each tick with exactly
one :meth:`Engine.answer` invocation.

Routing lives in one place, :meth:`Engine._route`, which both
:meth:`Engine.plan_queries` and :meth:`Engine.answer` call:

1. a forced ``config.plan`` wins as it is, except that a forced
   ``pruned`` falls back to ``broadcast`` on a matrix with fewer
   partitions than the cost rule's ``min_partitions``;
2. ``config.n_shards`` / ``config.shard_executor`` select the sharded
   layout for partition-backed outputs — dense-backed outputs (which
   have no partition list to shard) fall through to their dense route
   instead of erroring, so one config serves a mixed method set;
3. otherwise auto.  On a matrix without a
   :class:`~repro.core.prefix_sum.LevelPrefixTable`, dense prefix sums
   win once ``q × k`` exceeds :data:`DENSE_SWITCH_FACTOR` times the
   cell count (and the matrix has at most
   :data:`DENSE_SWITCH_MAX_CELLS` cells).  Every other batch goes to
   the one pruned-vs-alternative rule,
   :func:`~repro.core.interval_index.plan_with_slices`, which prices
   plans in broadcast pairs per query: broadcast costs ``k``, and on a
   matrix with a level table (its full prefix table exceeds
   :data:`~repro.core.prefix_sum.LEVEL_TABLE_BYTES`) dense costs
   :data:`LEVEL_ELEMENT_COST` times the table's price over ``d``.
   Every shard of a sharded batch plans by the same rule.

A forced ``dense`` plan always reads the full prefix table, so it stays
an independent reference for the level table auto reads.

The thresholds are module constants, not config fields: every plan
gives the same answer, so they choose speed only.  So is
:data:`INLINE_MAX_PAIRS`, the size below which :meth:`Engine.runs_inline`
tells a serving loop that a tick is too light to hand to a thread.

Bounds are validated once per request: :meth:`Engine.answer` validates
every batch, except a tick the async batcher built from requests it
already validated at admission (:class:`ValidatedTick`).

Every answer records the plan that actually ran and, for sharded
execution, the per-shard evidence — so callers aggregate execution
facts instead of re-deriving them.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..core import interval_index
from ..core.exceptions import QueryError
from ..core.interval_index import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    plan_with_slices,
)
from ..core.packed import validate_box_arrays
from ..core.sharding import ShardedAnswer, answer_sharded
from .api import QueryAnswer, QueryRequest
from .config import EngineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.prefix_sum import LevelPrefixTable
    from ..core.private_matrix import PrivateFrequencyMatrix
    from .worker_pool import ShardWorkerPool

#: An interval-index candidate-slice pass: ``(slice_start, slice_stop)``.
Slices = Tuple[np.ndarray, np.ndarray]

#: Matrices larger than this are never densified for querying.
DENSE_SWITCH_MAX_CELLS = 50_000_000

#: The dense prefix-sum engine is used when ``n_queries * n_partitions``
#: exceeds this multiple of the cell count.
DENSE_SWITCH_FACTOR = 4

#: Cost of one element of the level-table kernel (one group's corner
#: or leading-axis overlap, :meth:`LevelPrefixTable.price
#: <repro.core.prefix_sum.LevelPrefixTable.price>`) in broadcast
#: element ops (one axis of one (query, partition) pair).  Measured on
#: the served ``11**6`` release (level 3, 42 groups) with 193-query
#: batches on 2 cores: 3.3 ns per level element against 1.05 ns per
#: broadcast element op.
LEVEL_ELEMENT_COST = 3.0

#: Largest ``n_queries * n_partitions`` a tick may have and still run
#: on the event loop (:meth:`Engine.runs_inline`).  Handing a tick to
#: a thread costs about 0.5 ms, more than a few-query kernel; this
#: bound, about 2-3 ms of the broadcast kernel at ~4.6 ns per pair,
#: caps how long an inline tick may stall the loop.  Auto-dense needs
#: ``q * k > DENSE_SWITCH_FACTOR * cells`` on a matrix without a level
#: table, so an inline tick never builds a full prefix table of more
#: than ``INLINE_MAX_PAIRS / 4`` cells; a level table is at most
#: :data:`~repro.core.prefix_sum.LEVEL_TABLE_BYTES`.
INLINE_MAX_PAIRS = 2**19


class ValidatedTick(QueryRequest):
    """A batch whose bounds already passed :func:`validate_box_arrays`
    against the engine's matrix shape (int64 ``(q, d)``, in range).

    :class:`~repro.engine.AsyncBatchEngine` validates each request at
    admission and hands the engine its concatenated tick as one of
    these, so :meth:`Engine.answer` does not validate the tick again.
    Every other request is validated.
    """


class Engine:
    """Answer query batches for one private matrix under one config.

    Construction is cheap — the engine holds references, no copies —
    and all heavy state (dense reconstruction, prefix table, interval
    index, shards) lives on the matrix's own caches, so any number of
    engines over the same matrix share it.
    """

    __slots__ = ("_private", "_config", "_pool", "_pool_lock")

    def __init__(
        self,
        private: "PrivateFrequencyMatrix",
        config: EngineConfig | None = None,
    ):
        self._private = private
        self._config = config if config is not None else EngineConfig()
        # Lazily built ShardWorkerPool for shard_executor="resident";
        # the lock makes concurrent first-touch spawn exactly one pool.
        self._pool: "ShardWorkerPool | None" = None
        self._pool_lock = threading.Lock()

    @property
    def private(self) -> "PrivateFrequencyMatrix":
        return self._private

    @property
    def config(self) -> EngineConfig:
        return self._config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine({self._private!r}, plan={self._config.plan!r})"

    # ------------------------------------------------------------------
    # Resident pool lifecycle
    # ------------------------------------------------------------------
    @property
    def uses_resident_pool(self) -> bool:
        """True when sharded batches route through a worker pool."""
        return (
            self._config.shard_executor == "resident"
            and not self._private.is_dense_backed
        )

    def shard_pool(self) -> "ShardWorkerPool":
        """The engine's resident pool, spawning it on first use.

        Only meaningful with ``config.shard_executor == "resident"``;
        the pool is built from the matrix's cached shard split, so its
        answers are bit-identical to serial sharded execution.  After
        :meth:`close` a new pool is spawned on the next call.
        """
        if not self.uses_resident_pool:
            raise QueryError(
                "shard_pool() requires shard_executor='resident' and a "
                "partition-backed private matrix"
            )
        pool = self._pool
        if pool is not None and not pool.closed:
            return pool
        with self._pool_lock:
            if self._pool is None or self._pool.closed:
                from .worker_pool import ShardWorkerPool

                self._pool = ShardWorkerPool(
                    self._private.packed, self._config.n_shards
                )
            return self._pool

    def warm_shard_pool(self) -> bool:
        """Spawn the resident pool now (if configured); True if warm.

        Servers call this once at startup from the main thread, so
        worker processes are never forked from a serving thread and the
        first request pays no spawn latency.
        """
        if not self.uses_resident_pool:
            return False
        self.shard_pool()
        return True

    def pool_stats(self) -> "Dict[str, object] | None":
        """Worker gauges for ``/statz``; ``None`` without a live pool."""
        pool = self._pool
        if pool is None or pool.closed:
            return None
        return pool.stats()

    def close(self) -> None:
        """Shut down the resident pool (if any); idempotent.

        The engine remains usable — a later sharded batch simply spawns
        a fresh pool.  Non-pool state (matrix caches) is untouched.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _dense_wins(self, n_queries: int) -> bool:
        """The dense prefix-sum switch."""
        private = self._private
        n_cells = int(np.prod(private.shape, dtype=np.int64))
        return private.is_dense_backed or (
            n_cells <= DENSE_SWITCH_MAX_CELLS
            and n_queries * private.n_partitions
            > DENSE_SWITCH_FACTOR * n_cells
        )

    def level_table(self) -> "LevelPrefixTable | None":
        """The level table auto's dense route reads (built on first
        call, cached on the matrix), or ``None`` when that route reads
        the full table or cannot run.

        Only an auto-routed, unsharded engine over a partition-backed
        matrix reads one; :class:`~repro.engine.EngineServer` builds it
        before it accepts traffic.
        """
        private = self._private
        if (
            self._config.plan is not None
            or self._config.wants_sharding
            or private.is_dense_backed
        ):
            return None
        return private.packed.level_table()

    def runs_inline(self, n_queries: int) -> bool:
        """True when a tick of ``n_queries`` is light enough to answer
        on the serving event loop rather than in an executor thread.

        That holds only for an unsharded engine (no resident pool, no
        serial shard fan-out) over a partition-backed matrix, with
        ``n_queries * n_partitions`` at most :data:`INLINE_MAX_PAIRS`.
        Dense-backed matrices and forced ``dense`` plans stay off the
        loop: their prefix table may have to be built first.
        """
        private = self._private
        return (
            self._config.plan in (None, PLAN_BROADCAST, PLAN_PRUNED)
            and not self._config.wants_sharding
            and not private.is_dense_backed
            and n_queries * private.n_partitions <= INLINE_MAX_PAIRS
        )

    def plan_queries(self, lows: np.ndarray, highs: np.ndarray) -> str:
        """The strategy :meth:`answer` would run for this batch.

        Pure: answers nothing, but may lazily build the interval index
        used as the cost signal.  Runs the same :meth:`_route` as
        :meth:`answer`, so it raises the same :class:`QueryError` for a
        batch :meth:`answer` would reject.
        """
        return self._route(lows, highs)[0]

    def _route(
        self, lows: np.ndarray, highs: np.ndarray, validated: bool = False
    ) -> Tuple[str, "Slices | None", np.ndarray, np.ndarray]:
        """Validate and route a batch: ``(plan, slices, lows, highs)``.

        ``validated`` bounds (a :class:`ValidatedTick`) are trusted.

        ``slices`` is the interval index's candidate-slice pass when
        :func:`~repro.core.interval_index.plan_with_slices` ran it, so
        the pruned gather reuses it instead of recomputing it.  An empty
        batch is not validated: it reports the forced plan, or
        ``broadcast``, except that an empty *partition-backed* sharded
        batch still routes to ``sharded`` so callers get the per-shard
        skip evidence.
        """
        private = self._private
        cfg = self._config
        plan = cfg.plan
        if plan is None and cfg.wants_sharding and not private.is_dense_backed:
            plan = PLAN_SHARDED
        # Below the rule's threshold the gather cannot amortize, and the
        # two plans answer alike, so a forced pruned runs broadcast.
        if plan == PLAN_PRUNED and not private.is_dense_backed and (
            private.packed.n_partitions
            < interval_index.DEFAULT_PLAN_COST.min_partitions
        ):
            plan = PLAN_BROADCAST
        # A 0-d bound is no batch at all: validation rejects it below.
        if np.ndim(lows) and len(lows) == 0 and (
            plan != PLAN_SHARDED or private.is_dense_backed
        ):
            return plan or PLAN_BROADCAST, None, lows, highs
        if not validated:
            lows, highs = validate_box_arrays(lows, highs, private.shape)
        level = self.level_table()
        if plan is None and level is None and self._dense_wins(len(lows)):
            plan = PLAN_DENSE
        if plan == PLAN_DENSE:
            return plan, None, lows, highs
        if private.is_dense_backed:
            raise QueryError(
                f"plan {plan!r} needs a partition list; this private matrix "
                f"is dense-backed"
            )
        if plan is not None:
            return plan, None, lows, highs
        packed = private.packed
        dense = None
        if level is not None:
            dense = LEVEL_ELEMENT_COST * level.price() / packed.ndim
        plan, slices = plan_with_slices(packed, lows, highs, dense=dense)
        return plan, slices, lows, highs

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(self, request: QueryRequest) -> QueryAnswer:
        """Answer one request batch; the public serving entry point."""
        start = time.perf_counter()
        plan, slices, lows, highs = self._route(
            request.lows, request.highs, isinstance(request, ValidatedTick)
        )
        answers, sharded = self._run(plan, slices, lows, highs)
        elapsed = time.perf_counter() - start
        return QueryAnswer(
            answers=answers,
            plan=plan,
            workload=request.workload,
            shard_bounds=() if sharded is None else sharded.bounds,
            shard_plans=() if sharded is None else sharded.plans,
            elapsed_seconds=elapsed,
        )

    def answer_arrays(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """Plain answer vector for ``(q, d)`` bound arrays.

        Convenience for callers that want neither tagging nor evidence
        (tests, benchmarks); :meth:`answer` is the serving surface.
        """
        return self._run(*self._route(lows, highs))[0]

    def _run(
        self,
        plan: str,
        slices: "Slices | None",
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> Tuple[np.ndarray, "ShardedAnswer | None"]:
        """Execute a routed batch: ``(answers, shard_evidence)``."""
        private = self._private
        if plan == PLAN_SHARDED and not private.is_dense_backed:
            # Even an empty batch runs the sharded route, so callers
            # get the per-shard evidence (every shard trivially skips).
            # Both executors merge partials in fixed shard order, so
            # their answers are bit-identical.
            if self.uses_resident_pool:
                sharded = self.shard_pool().answer(lows, highs)
            else:
                sharded = answer_sharded(
                    private.packed, lows, highs, n_shards=self._config.n_shards
                )
            return sharded.answers, sharded
        if len(lows) == 0:
            return np.zeros(0, dtype=np.float64), None
        if plan == PLAN_DENSE:
            # Auto reads the level table when it has one, else (and when
            # forced) the full table.
            table = self.level_table() or private._prefix_table()
            return table.query_arrays(lows, highs), None
        packed = private.packed
        if plan == PLAN_PRUNED:
            index = packed.interval_index()
            return index.answer_pruned(lows, highs, slices=slices), None
        return packed.answer_many_arrays(lows, highs), None
