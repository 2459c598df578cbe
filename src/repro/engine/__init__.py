"""repro.engine — the unified query-serving facade.

The single public API for answering range-query batches against a
sanitized :class:`~repro.core.PrivateFrequencyMatrix`:

* :class:`EngineConfig` — the settings callers choose (plan forcing,
  shard layout, the async flush threshold) in one validated object,
  also buildable from a ``key=value`` string (``repro serve
  --engine-config``); the planner's thresholds are module constants;
* :class:`QueryRequest` / :class:`QueryAnswer` — typed request and
  response carrying the batch, the plan that ran, per-shard evidence,
  and timing;
* :class:`Engine` — the synchronous facade wrapping plan selection and
  all four execution strategies;
* :class:`AsyncBatchEngine` — the asyncio micro-batching endpoint that
  coalesces concurrent clients into ticks answered by one engine
  invocation each (optionally off-loop in a thread pool);
* :class:`EngineServer` — the stdlib asyncio HTTP transport
  (``POST /v1/query`` / ``GET /healthz`` / ``GET /statz``) with
  backpressure, timeouts, and graceful drain;
* :class:`ShardWorkerPool` — the resident shard-worker pool behind
  ``EngineConfig(shard_executor="resident")``: one persistent process
  per partition shard, handed its shard at start, with crash restart
  and idempotent shutdown (see ``docs/WORKERS.md``);
* :class:`ServingClient` / :class:`AsyncServingClient` — matching HTTP
  clients that rebuild full :class:`QueryAnswer` objects; non-2xx
  answers raise :class:`ServingError`.
"""

from .api import QueryAnswer, QueryRequest
from .async_batch import AsyncBatchEngine, gather_answers
from .client import AsyncServingClient, ServingClient, ServingError
from .config import ENGINE_PLANS, SHARD_EXECUTORS, EngineConfig
from .engine import Engine
from .server import EngineServer
from .worker_pool import ShardWorkerPool

__all__ = [
    "ENGINE_PLANS",
    "SHARD_EXECUTORS",
    "AsyncBatchEngine",
    "AsyncServingClient",
    "Engine",
    "EngineConfig",
    "EngineServer",
    "QueryAnswer",
    "QueryRequest",
    "ServingClient",
    "ServingError",
    "ShardWorkerPool",
    "gather_answers",
]
