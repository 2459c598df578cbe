"""Typed request/response objects of the serving facade.

A :class:`QueryRequest` is what a client hands the engine: the batch's
inclusive cell-index bounds as ``(q, d)`` arrays plus an optional
workload tag that rides along for bookkeeping.  A :class:`QueryAnswer`
is everything the engine knows about how the batch was answered: the
answer vector, the plan that actually ran, per-shard execution evidence
when the sharded layout was used, and the wall-clock of the engine
invocation.  Both are plain data — no behavior beyond light conversion
and convenience accessors — so they pickle, log, and compare cleanly.
:class:`ServingError` is the one failure type the serving stack adds:
the resident pool raises it, the server answers it with its status, and
the HTTP clients raise it for a non-2xx answer.  It lives here, not in
the client, so the server and the pool load no HTTP client code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..core.exceptions import QueryError
from ..core.frequency_matrix import Box
from ..core.packed import boxes_to_arrays
from ..core.sharding import SHARD_SKIPPED


@dataclass(frozen=True)
class QueryRequest:
    """A batch of inclusive cell-index range queries.

    ``lows``/``highs`` are ``(q, d)`` integer arrays (anything
    array-like; the engine validates them against its matrix's shape).
    A scalar bound raises :class:`~repro.core.exceptions.QueryError`
    here: it has no query count.
    ``workload`` is a free-form tag echoed back on the answer — the
    evaluator uses it to name the workload set, a serving client can
    use it to correlate responses.
    """

    lows: np.ndarray
    highs: np.ndarray
    workload: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "lows", np.asarray(self.lows))
        object.__setattr__(self, "highs", np.asarray(self.highs))
        if self.lows.ndim == 0 or self.highs.ndim == 0:
            raise QueryError(
                "lows/highs must be (q, d) arrays, got a scalar bound"
            )

    @classmethod
    def from_boxes(
        cls, boxes: Sequence[Box], workload: str = ""
    ) -> "QueryRequest":
        """Build a request from a list of inclusive box tuples."""
        boxes = list(boxes)
        if not boxes:
            empty = np.zeros((0, 0), dtype=np.int64)
            return cls(empty, empty, workload)
        lows, highs = boxes_to_arrays(boxes)
        return cls(lows, highs, workload)

    @property
    def n_queries(self) -> int:
        return int(self.lows.shape[0])

    def __len__(self) -> int:
        return self.n_queries


@dataclass(frozen=True)
class QueryAnswer:
    """Answers plus execution evidence for one engine invocation.

    ``plan`` is the strategy that actually ran for the batch (after any
    graceful fallback), one of ``dense`` / ``broadcast`` / ``pruned`` /
    ``sharded``.  For the sharded layout, ``shard_bounds`` and
    ``shard_plans`` carry the per-shard evidence of
    :class:`~repro.core.sharding.ShardedAnswer` — which partition
    ranges existed and what each did (including provable skips) — so
    downstream aggregation never needs to special-case rows that lack a
    plan.  ``elapsed_seconds`` is the engine-side wall-clock of the
    invocation; for answers demultiplexed out of an async tick it is
    the *tick's* wall-clock, shared by every client in the batch.
    """

    answers: np.ndarray
    plan: str
    workload: str = ""
    shard_bounds: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)
    shard_plans: Tuple[str, ...] = field(default_factory=tuple)
    elapsed_seconds: float = 0.0

    @property
    def n_queries(self) -> int:
        return int(self.answers.shape[0])

    def __len__(self) -> int:
        return self.n_queries

    # ------------------------------------------------------------------
    # Sharded-execution evidence
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Shards the batch ran across (0 for single-node plans)."""
        return len(self.shard_bounds)

    @property
    def skipped_shards(self) -> int:
        """How many shards proved they had no overlapping query."""
        return sum(1 for p in self.shard_plans if p == SHARD_SKIPPED)

    @property
    def skip_rate(self) -> float:
        """Fraction of shards that skipped (0.0 for single-node plans)."""
        if not self.shard_plans:
            return 0.0
        return self.skipped_shards / len(self.shard_plans)


class ServingError(Exception):
    """A failure the serving layer answers with a non-2xx HTTP status.

    Attributes
    ----------
    status:
        The HTTP status code (400, 413, 503, 504, ...).
    payload:
        The decoded JSON error body (``{}`` if undecodable).
    retry_after:
        Seconds the server suggested waiting before retrying, or
        ``None`` when the response carried no finite, non-negative
        ``Retry-After`` delay.
    """

    def __init__(
        self,
        status: int,
        payload: dict,
        retry_after: "float | None" = None,
    ):
        self.status = int(status)
        self.payload = payload if isinstance(payload, dict) else {}
        self.retry_after = retry_after
        message = self.payload.get("error", "") or f"HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
