"""``python -m repro.cluster`` — serve, inspect, and benchmark a ring.

Subcommands
-----------
``serve``
    Boot N worker shards (subprocesses, each with a private store
    directory) plus the front router in the foreground.  SIGTERM/SIGINT
    drains the whole ring gracefully: the router stops accepting and
    finishes in-flight relays, then every shard drains its batcher.
``status``
    One-shot health + ring summary against a running router.
``bench``
    The scaling + chaos comparison from :mod:`repro.cluster.bench`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro.cluster.bench import (
    render_cluster_comparison,
    run_cluster_comparison,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor
from repro.service.client import ServiceClient, ServiceError


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="run a shard ring + router")
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--replicas", type=int, default=2,
                   help="owners per hot key")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8799,
                   help="router port; 0 picks an ephemeral port")
    p.add_argument("--store-root", default=None,
                   help="parent dir for per-shard stores "
                        "(default: a temp dir)")
    p.add_argument("--jobs", default="1",
                   help="worker processes per shard ('auto' for cpu count)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable each shard's persistent result cache")
    p.add_argument("--vnodes", type=int, default=64)
    p.add_argument("--hot-top-k", type=int, default=8)
    p.add_argument("--hot-min-count", type=int, default=16)
    p.add_argument("--hot-window-s", type=float, default=10.0)


def _add_status(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("status", help="health + ring summary of a router")
    p.add_argument("--url", default="http://127.0.0.1:8799")
    p.add_argument("--json", action="store_true",
                   help="print the raw /metrics JSON instead")


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="scaling + shard-kill benchmark")
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--clients", type=int, default=64)
    p.add_argument("--zipf-s", type=float, default=2.5)
    p.add_argument("--seed", type=int, default=7,
                   help="client RNG seed, recorded in the output rows")
    p.add_argument("--jobs", default="1")
    p.add_argument("--no-warm", action="store_true",
                   help="skip the cache+warming showcase run")
    p.add_argument("--no-kill", action="store_true",
                   help="skip the shard-kill chaos run")
    p.add_argument("--out", default=None,
                   help="also write the report to this file")
    p.add_argument("--metrics-out", default=None,
                   help="write the raw result dict as JSON")


def _cmd_serve(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        store_root = Path(args.store_root) if args.store_root else Path(tmp)
        supervisor = ClusterSupervisor(
            args.shards, store_root=store_root,
            jobs=args.jobs if args.jobs == "auto" else int(args.jobs),
            cache=not args.no_cache,
        )
        print(f"booting {args.shards} shards under {store_root}...",
              flush=True)
        supervisor.start()
        try:
            async def main() -> None:
                router = ClusterRouter(
                    supervisor.shard_urls, host=args.host, port=args.port,
                    replicas=args.replicas, vnodes=args.vnodes,
                    hot_top_k=args.hot_top_k,
                    hot_min_count=args.hot_min_count,
                    hot_window_s=args.hot_window_s,
                )
                await router.start()
                router.install_signal_handlers()
                print(f"repro-cluster router on {router.url} "
                      f"({args.shards} shards, replicas={args.replicas})",
                      flush=True)
                for url in supervisor.shard_urls:
                    print(f"  shard {url}", flush=True)
                await router.serve_forever()
                print("router drained; draining shards...", flush=True)

            asyncio.run(main())
        finally:
            supervisor.stop()
        print("ring drained, bye", flush=True)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url, retries=1)
    try:
        health = client.healthz()
        metrics = client.metrics()
    except (ServiceError, Exception) as exc:  # noqa: B014 - one-shot CLI
        print(f"router at {args.url} unreachable: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    cluster = metrics.get("cluster", {})
    ring = cluster.get("ring", {})
    router = cluster.get("router", {})
    shards = metrics.get("shards", {})
    print(f"router {args.url}: {health.get('status')}")
    rows = []
    for url in ring.get("shards", []):
        body = shards.get(url)
        body = body if isinstance(body, dict) else {}
        cache = body.get("cache", {})
        hit_rate = cache.get("hit_rate")
        rows.append((
            url,
            "up" if ring.get("alive", {}).get(url) else "down",
            f"{ring.get('ownership', {}).get(url, 0.0):.1%}",
            str(router.get("forwards", {}).get(url, 0)),
            str(body.get("requests_total", "-")),
            f"{hit_rate:.1%}" if isinstance(hit_rate, (int, float)) else "-",
            str(body.get("warming", {}).get("received_stored", "-")),
        ))
    headers = ("shard", "state", "owns", "fwd", "req", "hit", "warm_rx")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    print("  " + "  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)).rstrip())
    for row in rows:
        print("  " + "  ".join(c.ljust(widths[i])
                               for i, c in enumerate(row)).rstrip())
    hot = cluster.get("hot", {})
    hot_keys = hot.get("hot_keys", {})
    print(f"hot keys ({len(hot_keys)}/{hot.get('top_k', 0)} promoted, "
          f"window={hot.get('window_s', 0):g}s):")
    for key, count in sorted(hot_keys.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {count:>6}  {key}")
    if not hot_keys:
        print("  (none)")
    events = cluster.get("events", {})
    print(f"requests={router.get('requests_total', 0)} "
          f"reroutes={router.get('reroutes', 0)} "
          f"503s={router.get('no_live_shard_503', 0)} "
          f"ring_adds={router.get('ring_adds', 0)} "
          f"ring_drains={router.get('ring_drains', 0)} "
          f"warm_pushes={cluster.get('warming', {}).get('pushes_sent_total', 0)} "
          f"remote_hits={cluster.get('warming', {}).get('hits_remote_total', 0)} "
          f"events={events.get('emitted', 0)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    result = run_cluster_comparison(
        shards=args.shards, replicas=args.replicas,
        duration=args.duration, clients=args.clients,
        zipf_s=args.zipf_s, seed=args.seed,
        jobs=args.jobs if args.jobs == "auto" else int(args.jobs),
        warm_run=not args.no_warm, kill_run=not args.no_kill,
    )
    report = render_cluster_comparison(result)
    print(report)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"\nwrote {out}")
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded HMM cost-oracle cluster: serve, status, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_serve(sub)
    _add_status(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)
    return {"serve": _cmd_serve, "status": _cmd_status,
            "bench": _cmd_bench}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
