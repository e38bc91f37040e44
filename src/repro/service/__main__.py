"""``python -m repro.service`` — serve, query, and benchmark the oracle.

Subcommands
-----------
``serve``
    Run a server in the foreground (graceful drain on SIGTERM/SIGINT).
``query``
    One-shot client: ``cost``, ``advise``, ``metrics``, or ``healthz``
    against a running server; prints the JSON response.
``bench``
    The closed-loop batched-vs-unbatched comparison from
    :mod:`repro.service.loadgen`; boots its own ephemeral-port server
    unless ``--url`` points at one (then only a single batched pass
    runs against it).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import render_comparison, run_comparison
from repro.service.oracle import CostOracle
from repro.service.protocol import MODES
from repro.service.server import ServiceServer


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="run the cost service in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="0 picks an ephemeral port (default: 8787)")
    p.add_argument("--max-batch-size", type=int, default=32)
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="batching window after the first arrival")
    p.add_argument("--queue-bound", type=int, default=256,
                   help="pending-request bound before 429s")
    p.add_argument("--timeout-s", type=float, default=60.0,
                   help="per-request deadline")
    p.add_argument("--jobs", default="1",
                   help="executor worker processes ('auto' for cpu count)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the persistent result cache")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the background metrics recorder")
    p.add_argument("--telemetry-resolution-s", type=float, default=1.0,
                   help="seconds between metrics samples (default: 1)")
    p.add_argument("--telemetry-retention", type=int, default=300,
                   help="samples retained per series (default: 300)")
    p.add_argument("--telemetry-persist", action="store_true",
                   help="persist recorded series to the store's "
                        "telemetry namespace on drain (restored on boot)")


def _add_query(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("query", help="query a running server once")
    p.add_argument("what", choices=("cost", "advise", "metrics", "healthz"))
    p.add_argument("--url", default="http://127.0.0.1:8787")
    p.add_argument("--kernel", default="sum", choices=("sum", "convolution"))
    p.add_argument("--model", default="hmm")
    p.add_argument("--mode", default="replay", choices=MODES)
    for name, default in (("n", 1024), ("k", 0), ("p", 64), ("w", 16),
                          ("l", 16), ("d", 8)):
        p.add_argument(f"--{name}", type=int, default=default)


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="closed-loop service benchmark")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds per config")
    p.add_argument("--clients", type=int, default=128)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--zipf-s", type=float, default=2.5,
                   help="workload skew (higher = hotter hot spots)")
    p.add_argument("--seed", type=int, default=7,
                   help="client RNG seed, recorded in the output rows "
                        "(same seed = same request sequence)")
    p.add_argument("--out", default=None,
                   help="also write the report to this file")
    p.add_argument("--metrics-out", default=None,
                   help="write the raw result rows as JSON")


def _cmd_serve(args: argparse.Namespace) -> int:
    async def main() -> None:
        oracle = CostOracle(
            jobs=args.jobs if args.jobs == "auto" else int(args.jobs),
            cache=not args.no_cache, cache_dir=args.cache_dir,
        )
        server = ServiceServer(
            oracle, host=args.host, port=args.port,
            max_batch_size=args.max_batch_size,
            max_wait_s=args.max_wait_ms / 1e3,
            max_queue=args.queue_bound, timeout_s=args.timeout_s,
            telemetry=not args.no_telemetry,
            telemetry_resolution_s=args.telemetry_resolution_s,
            telemetry_retention=args.telemetry_retention,
            telemetry_persist=args.telemetry_persist,
        )
        await server.start()
        server.install_signal_handlers()
        print(f"repro-service listening on {server.url} "
              f"(batch<={args.max_batch_size}, window={args.max_wait_ms}ms, "
              f"queue<={args.queue_bound})", flush=True)
        await server.serve_forever()
        print("repro-service drained, bye", flush=True)

    asyncio.run(main())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    params = {name: getattr(args, name) for name in
              ("n", "k", "p", "w", "l", "d")}
    try:
        with ServiceClient(args.url) as client:
            if args.what == "cost":
                body = client.cost(args.kernel, args.model, params,
                                   mode=args.mode)
            elif args.what == "advise":
                body = client.advise(args.kernel, args.model, params,
                                     mode=args.mode)
            elif args.what == "metrics":
                body = client.metrics()
            else:
                body = client.healthz()
    except ServiceError as exc:
        print(json.dumps(exc.body, indent=2, sort_keys=True))
        return 1
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        rows = run_comparison(
            duration=args.duration, clients=args.clients,
            batch_size=args.batch_size, zipf_s=args.zipf_s,
            seed=args.seed, cache_dir=Path(tmp) / "cache",
        )
    report = render_comparison(rows)
    print(report)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"\nwrote {out}")
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HMM cost-oracle service: serve, query, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_serve(sub)
    _add_query(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)
    return {"serve": _cmd_serve, "query": _cmd_query,
            "bench": _cmd_bench}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
