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
  answers raise :class:`ServingError` (defined in :mod:`.api`, where the
  server and the worker pool also get it).

Names resolve lazily (PEP 562): importing this package loads no
submodule, and each name loads only the submodule that defines it.  A
process that only serves a release (``Engine`` and ``EngineServer``)
therefore never loads the HTTP clients or :mod:`multiprocessing`:
:meth:`Engine.shard_pool` imports the worker pool when it first builds
a resident pool.
"""

from .._lazy import lazy_exports

_ORIGIN, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".api": ("QueryAnswer", "QueryRequest", "ServingError"),
        ".async_batch": ("AsyncBatchEngine", "gather_answers"),
        ".client": ("AsyncServingClient", "ServingClient"),
        ".config": ("ENGINE_PLANS", "SHARD_EXECUTORS", "EngineConfig"),
        ".engine": ("Engine",),
        ".server": ("EngineServer",),
        ".worker_pool": ("ShardWorkerPool",),
    },
)

__all__ = list(_ORIGIN)
