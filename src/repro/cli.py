"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``methods``
    List registered sanitization methods.
``sanitize``
    Generate a dataset (synthetic or city), sanitize it with one method,
    report accuracy, and optionally write the publishable JSON payload.
``figure``
    Regenerate one paper artifact (figure4..figure8, table3) at a chosen
    scale and print its panels.
``compare``
    MRE comparison table of several methods on one dataset.
``serve``
    Run the HTTP serving layer (:class:`~repro.engine.EngineServer` —
    ``POST /v1/query``, ``GET /healthz``, ``GET /statz``) over one
    sanitized dataset until interrupted, draining gracefully on
    SIGINT/SIGTERM; ``--off-loop`` (default) dispatches each heavy
    tick's kernel into a worker thread so the event loop stays
    responsive, while light ticks (``INLINE_MAX_PAIRS``) run inline.

``serve`` takes the engine's settings from ``--engine-config``:
comma-separated ``key=value`` pairs over the
:class:`~repro.engine.EngineConfig` fields (e.g.
``--engine-config plan=sharded,n_shards=4``).  The offline commands
answer under the default config: every plan gives the same counts, so
a config there would choose speed only.  Engine settings are never
read from the environment; the CLI refuses to run while one is set
there rather than ignore it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from typing import List

from .core.frequency_matrix import FrequencyMatrix
from .datagen import get_city, gaussian_matrix, zipf_matrix
from .engine import Engine, EngineConfig, EngineServer
from .methods import available_methods, get_sanitizer

# The experiment runner and the query evaluator are imported by the
# commands that use them, so ``repro serve`` does not load them.


def _build_dataset(args: argparse.Namespace) -> FrequencyMatrix:
    if args.dataset in ("new_york", "denver", "detroit"):
        return get_city(args.dataset).population_matrix(
            n_points=args.n_points, resolution=args.resolution, rng=args.seed
        )
    if args.dataset == "gaussian":
        return gaussian_matrix(
            args.dims, variance=args.variance, n_points=args.n_points,
            rng=args.seed,
        )
    if args.dataset == "zipf":
        return zipf_matrix(
            args.dims, a=args.zipf_a, n_points=args.n_points, rng=args.seed
        )
    raise SystemExit(f"unknown dataset {args.dataset!r}")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="new_york",
        choices=["new_york", "denver", "detroit", "gaussian", "zipf"],
        help="city profile or synthetic distribution",
    )
    parser.add_argument("--n-points", type=int, default=100_000)
    parser.add_argument("--resolution", type=int, default=256,
                        help="city grid resolution (city datasets)")
    parser.add_argument("--dims", type=int, default=2,
                        help="dimensionality (synthetic datasets)")
    parser.add_argument("--variance", type=float, default=100.0,
                        help="Gaussian cluster variance")
    parser.add_argument("--zipf-a", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)


def _refuse_engine_env(environ=os.environ) -> None:
    """Exit when the environment tries to set an engine setting.

    Engine settings were once read from environment variables; a
    leftover one must fail loudly, not be silently ignored.  Empty
    values count as unset.
    """
    stray = sorted(
        name for name, value in environ.items()
        if name.startswith("REPRO_ENGINE_") and value
    )
    if stray:
        raise SystemExit(
            f"{', '.join(stray)}: engine settings are not read from the "
            f"environment; unset it and pass them as "
            f"`repro serve --engine-config KEY=VALUE[,...]`"
        )


def cmd_methods(_: argparse.Namespace) -> int:
    for name in available_methods():
        print(f"{name:18s} {type(get_sanitizer(name)).__doc__.strip().splitlines()[0]}")
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    from .queries import WorkloadEvaluator, random_workload

    matrix = _build_dataset(args)
    print(f"dataset: shape={matrix.shape}, N={matrix.total:,.0f}",
          file=sys.stderr)
    sanitizer = get_sanitizer(args.method)
    start = time.perf_counter()
    private = sanitizer.sanitize(matrix, args.epsilon, rng=args.seed + 1)
    elapsed = time.perf_counter() - start
    workload = random_workload(matrix.shape, args.n_queries, rng=args.seed + 2)
    result = WorkloadEvaluator(matrix).evaluate(private, workload)
    print(
        f"method={args.method} eps={args.epsilon} "
        f"partitions={private.n_partitions} time={elapsed:.2f}s "
        f"MRE={result.mre:.2f}%",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(private.to_publishable(), fh)
        print(f"wrote publishable payload to {args.output}", file=sys.stderr)
    return 0


def _artifact(name: str) -> str:
    """``figure``'s artifact argument: a name in ``ALL_ARTIFACTS``."""
    from .experiments import ALL_ARTIFACTS

    if name not in ALL_ARTIFACTS:
        raise argparse.ArgumentTypeError(
            f"unknown artifact {name!r}; available: "
            f"{', '.join(sorted(ALL_ARTIFACTS))}"
        )
    return name


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import ALL_ARTIFACTS, get_scale

    scale = get_scale(args.scale)
    if args.n_jobs is not None:
        scale = scale.with_overrides(n_jobs=args.n_jobs)
    result = ALL_ARTIFACTS[args.artifact](scale=scale, rng=args.seed)
    columns = [c for c in result.rows[0] if c not in ("mre_std", "n_trials")]
    print(result.to_text(columns))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .queries import WorkloadEvaluator, random_workload

    matrix = _build_dataset(args)
    evaluator = WorkloadEvaluator(matrix)
    workload = random_workload(matrix.shape, args.n_queries, rng=args.seed + 2)
    methods: List[str] = args.methods or available_methods()
    print(f"{'method':18s} {'MRE %':>10s} {'partitions':>11s} {'time':>8s}")
    for name in methods:
        start = time.perf_counter()
        private = get_sanitizer(name).sanitize(
            matrix, args.epsilon, rng=args.seed + 1
        )
        elapsed = time.perf_counter() - start
        mre = evaluator.evaluate(private, workload).mre
        print(f"{name:18s} {mre:10.2f} {private.n_partitions:11d} "
              f"{elapsed:7.2f}s")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP serving layer until SIGINT/SIGTERM, then drain."""
    config = EngineConfig.from_string(args.engine_config)
    matrix = _build_dataset(args)
    print(f"dataset: shape={matrix.shape}, N={matrix.total:,.0f}",
          file=sys.stderr)
    sanitizer = get_sanitizer(args.method)
    private = sanitizer.sanitize(matrix, args.epsilon, rng=args.seed + 1)
    engine = Engine(private, config)
    server = EngineServer(
        engine,
        host=args.host,
        port=args.port,
        off_loop=args.off_loop,
        max_pending_requests=args.max_pending,
        max_batch_queries=args.max_batch_queries,
        request_timeout=args.request_timeout,
    )

    async def run():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        await server.start()
        # With --port 0, callers parse this line for the bound port.
        print(f"serving on {server.url} (off_loop={server.off_loop})",
              flush=True)
        try:
            await stop.wait()
        finally:
            print("draining...", file=sys.stderr)
            await server.shutdown()
            stats = server.statz()
            print(
                f"served {stats['counters']['answered_requests']} requests "
                f"({stats['counters']['answered_queries']} queries) in "
                f"{stats['counters']['ticks']} tick(s); "
                f"max loop lag {stats['loop']['max_lag_ms']:.1f} ms",
                file=sys.stderr,
            )

    asyncio.run(run())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DP publication of OD matrices with intermediate stops "
                    "(EDBT 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods", help="list sanitization methods")

    p_san = sub.add_parser("sanitize", help="sanitize one dataset")
    _add_dataset_args(p_san)
    p_san.add_argument("--method", default="daf_entropy",
                       choices=available_methods())
    p_san.add_argument("--epsilon", type=float, default=0.1)
    p_san.add_argument("--n-queries", type=int, default=500)
    p_san.add_argument("--output", help="write publishable JSON here")

    p_fig = sub.add_parser("figure", help="regenerate a paper artifact")
    p_fig.add_argument("artifact", type=_artifact,
                       help="figure4 .. figure8 or table3")
    p_fig.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "paper"])
    p_fig.add_argument("--seed", type=int, default=2022)
    p_fig.add_argument("--n-jobs", type=int, default=None,
                       help="trial parallelism: 1 = serial (default), "
                            "k > 1 = worker processes, -1 = all cores; "
                            "results are identical across settings")

    p_cmp = sub.add_parser("compare", help="compare methods on one dataset")
    _add_dataset_args(p_cmp)
    p_cmp.add_argument("--methods", nargs="*",
                       help="subset of methods (default: all)")
    p_cmp.add_argument("--epsilon", type=float, default=0.1)
    p_cmp.add_argument("--n-queries", type=int, default=500)

    p_srv = sub.add_parser("serve", help="run the HTTP serving layer")
    _add_dataset_args(p_srv)
    p_srv.add_argument("--method", default="ag", choices=available_methods())
    p_srv.add_argument("--epsilon", type=float, default=0.5)
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address for the HTTP server")
    p_srv.add_argument("--port", type=int, default=8000,
                       help="HTTP port (0 = ephemeral)")
    p_srv.add_argument("--off-loop", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="run each heavy tick's kernel in a worker "
                            "thread so the event loop stays responsive; "
                            "ticks of at most INLINE_MAX_PAIRS query x "
                            "partition pairs run on the loop (default on; "
                            "--no-off-loop runs every kernel on the loop)")
    p_srv.add_argument("--max-pending", type=int, default=1024,
                       help="requests in flight before 503 backpressure")
    p_srv.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request deadline in seconds (504 past it)")
    p_srv.add_argument("--max-batch-queries", type=int, default=100_000,
                       help="largest query batch one POST may carry (413)")
    p_srv.add_argument("--engine-config", default="",
                       metavar="KEY=VALUE[,...]",
                       help="EngineConfig fields, e.g. "
                            "plan=sharded,n_shards=4 (default: all defaults)")

    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _refuse_engine_env()
    handlers = {
        "methods": cmd_methods,
        "sanitize": cmd_sanitize,
        "figure": cmd_figure,
        "compare": cmd_compare,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
