"""`EngineConfig`: the one tuning object of the query-serving engine.

The settings callers choose live in one validated, immutable object
that travels with an :class:`~repro.engine.Engine`:

* **routing** — ``plan`` pins a strategy (``dense`` / ``broadcast`` /
  ``pruned`` / ``sharded``); ``n_shards`` / ``shard_executor`` select
  and parameterize the sharded layout;
* **async serving** — ``max_batch_size`` caps an
  :class:`~repro.engine.AsyncBatchEngine` tick; ticks are otherwise
  self-clocking (no flush timer, see :mod:`repro.engine.async_batch`).

The planner's thresholds are not settings: every plan gives the same
answer, so they choose speed only and are module constants next to the
code that applies them (``DENSE_SWITCH_*`` and ``LEVEL_ELEMENT_COST``
in :mod:`repro.engine.engine`, ``PRUNE_*`` in
:mod:`repro.core.interval_index`, ``LEVEL_TABLE_BYTES`` in
:mod:`repro.core.prefix_sum`; ``tools/calibrate.py`` suggests new
values for ``DENSE_SWITCH_FACTOR`` and ``PRUNE_SAFETY_FACTOR``).

A config is built one of two ways: keyword arguments in code, or a
``key=value,...`` string (:meth:`EngineConfig.from_string`, the format
of ``repro serve --engine-config``).  The environment is not read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core.exceptions import QueryError, ValidationError
from ..core.interval_index import (
    DEFAULT_PLAN_COST,
    PACKED_PLANS,
    PLAN_DENSE,
    PLAN_SHARDED,
    PlanCost,
)

#: Plan names accepted by :attr:`EngineConfig.plan` (``None`` = let the
#: cost model choose).
ENGINE_PLANS = (PLAN_DENSE,) + PACKED_PLANS

#: The shard-execution modes ``shard_executor`` accepts.  ``"serial"``
#: answers the shards in-process; ``"resident"`` routes through a
#: persistent :class:`~repro.engine.ShardWorkerPool`, one worker process
#: per shard.
SHARD_EXECUTORS = ("serial", "resident")

#: Fields settable from strings (``repro serve --engine-config``),
#: with their coercions.  Fields in :data:`_OPTIONAL_FIELDS`
#: additionally accept ``none``.
_OPTIONAL_FIELDS = frozenset({"plan", "n_shards", "shard_executor"})
_STRING_FIELDS: Dict[str, type] = {
    "plan": str,
    "n_shards": int,
    "shard_executor": str,
    "max_batch_size": int,
}


@dataclass(frozen=True)
class EngineConfig:
    """Validated tuning knobs for :class:`~repro.engine.Engine`.

    Attributes
    ----------
    plan:
        Force one strategy for every batch (``None`` lets the cost
        model pick per batch).  Pinning a plan is also the
        determinism lever for serving: with a fixed plan, a query's
        answer is bit-identical whether it is answered alone or inside
        any batch (each kernel computes per-query sums in a fixed
        order; only *plan choice* depends on batch shape).
    n_shards:
        Partition-axis shard count; setting it selects the sharded
        plan.
    shard_executor:
        How shard partials are executed; setting it alone also selects
        the sharded plan.  One of :data:`SHARD_EXECUTORS`: ``"serial"``
        (in-process, same as ``None`` with ``n_shards`` set) or
        ``"resident"`` (a persistent
        :class:`~repro.engine.ShardWorkerPool` whose per-shard worker
        processes hold their shard and survive across requests).
    max_batch_size:
        :class:`~repro.engine.AsyncBatchEngine` flush threshold: a tick
        flushes at once when this many requests are pending.
    """

    plan: str | None = None
    n_shards: int | None = None
    shard_executor: str | None = None
    max_batch_size: int = 256

    def __post_init__(self) -> None:
        if self.plan is not None and self.plan not in ENGINE_PLANS:
            # Same wording as the planner's own unknown-plan error.
            raise QueryError(
                f"unknown packed query plan {self.plan!r}; expected one of "
                f"{', '.join(repr(p) for p in ENGINE_PLANS)}"
            )
        if self.wants_sharding and self.plan not in (None, PLAN_SHARDED):
            raise QueryError(
                f"n_shards/shard_executor only apply to the "
                f"{PLAN_SHARDED!r} plan, not {self.plan!r}"
            )
        if self.n_shards is not None and self.n_shards < 1:
            raise QueryError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if (
            self.shard_executor is not None
            and self.shard_executor not in SHARD_EXECUTORS
        ):
            raise QueryError(
                f"unknown shard_executor {self.shard_executor!r}; expected "
                f"one of {', '.join(repr(m) for m in SHARD_EXECUTORS)}"
            )
        if self.max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )

    # ------------------------------------------------------------------
    @property
    def wants_sharding(self) -> bool:
        """True when the config selects the sharded layout implicitly."""
        return self.n_shards is not None or self.shard_executor is not None

    def plan_cost(self) -> PlanCost:
        """The pruned-vs-broadcast cost rule every path plans with."""
        return DEFAULT_PLAN_COST

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """A copy with ``kwargs`` replaced (re-validated)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # String construction
    # ------------------------------------------------------------------
    @staticmethod
    def parse_overrides(text: str) -> Dict[str, object]:
        """``"plan=broadcast,n_shards=4"`` -> a typed override dict.

        The ``repro serve --engine-config`` format: comma-separated
        ``key=value`` pairs over the string-settable fields.  ``none``
        (any case) clears an optional field.
        """
        overrides: Dict[str, object] = {}
        for pair in filter(None, (p.strip() for p in text.split(","))):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValidationError(
                    f"engine-config entry {pair!r} is not key=value"
                )
            if key not in _STRING_FIELDS:
                raise ValidationError(
                    f"unknown engine-config field {key!r}; settable fields: "
                    f"{', '.join(sorted(_STRING_FIELDS))}"
                )
            value = value.strip()
            if value.lower() == "none":
                if key not in _OPTIONAL_FIELDS:
                    raise ValidationError(
                        f"engine-config field {key!r} cannot be cleared; "
                        f"only {', '.join(sorted(_OPTIONAL_FIELDS))} accept "
                        f"'none'"
                    )
                overrides[key] = None
                continue
            try:
                overrides[key] = _STRING_FIELDS[key](value)
            except ValueError as exc:
                raise ValidationError(
                    f"engine-config field {key!r}: bad value {value!r} "
                    f"({exc})"
                ) from exc
        return overrides

    @classmethod
    def from_string(
        cls, text: str, base: "EngineConfig | None" = None
    ) -> "EngineConfig":
        """Config from a ``key=value,...`` override string."""
        base = base if base is not None else cls()
        return base.with_overrides(**cls.parse_overrides(text))
