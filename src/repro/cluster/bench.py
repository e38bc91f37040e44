"""The standard cluster benchmark: scaling, warming, and chaos.

Four measured configurations, each against real subprocess shards
(separate interpreters — the scaling claim must not be GIL-bound):

1. ``single-shard`` — one ``repro.service`` process driven directly,
   no router in the path, result cache off.  The honest compute-bound
   baseline: closed-loop throughput is limited by how fast one process
   evaluates the zipf-weighted unique-spec stream.
2. ``cluster-<N>shard`` — the same shard configuration ×N behind the
   consistent-hash router, cache still off.  This is the scaling row:
   ownership partitions the unique-spec work across shards, and hot-key
   replication spreads the zipf head over R owners.  On a host with ≥N
   CPUs the target is ≥2x the baseline; on fewer cores the shards
   time-slice and the row instead bounds the routing overhead.
3. ``cluster-<N>shard+cache`` — caches on: the warming showcase.  The
   hot set is promoted, replicated via framed store pushes, and served
   from replica caches; the per-shard hit-rate table comes from here.
4. ``shard-kill`` — topology of (3), one shard SIGKILLed halfway
   through.  The acceptance criterion is **zero** client-visible
   failures: the router reroutes, the client retries, nobody notices.

Used by ``python -m repro.cluster bench`` and
``benchmarks/bench_cluster.py`` (which adds the BENCH JSON envelope).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.cluster.supervisor import BackgroundRouter, ClusterSupervisor
from repro.service.client import ServiceClient
from repro.service.loadgen import drive_url

__all__ = ["run_cluster_comparison", "render_cluster_comparison"]


def _shard_summary(router_url: str) -> dict:
    """Per-shard serving counters pulled from the router's /metrics."""
    body = ServiceClient(router_url, retries=1).metrics()
    cluster = body.get("cluster", {})
    forwards = cluster.get("router", {}).get("forwards", {})
    shards = {}
    for url, metrics in body.get("shards", {}).items():
        if not isinstance(metrics, dict) or "error" in metrics:
            shards[url] = {"state": "down", "forwarded": forwards.get(url, 0)}
            continue
        cache = metrics.get("cache", {})
        warming = metrics.get("warming", {})
        store = metrics.get("store", {})
        hits_remote = sum(
            ns.get("hits_remote", 0) for ns in store.values()
            if isinstance(ns, dict)
        )
        shards[url] = {
            "state": "up",
            "forwarded": forwards.get(url, 0),
            "requests_total": metrics.get("requests_total", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_hit_rate": cache.get("hit_rate", 0.0),
            "warm_pushes_sent": warming.get("pushes_sent", 0),
            "warm_received": warming.get("received_stored", 0),
            "hits_remote": hits_remote,
        }
    return {
        "router": cluster.get("router", {}),
        "ring": cluster.get("ring", {}),
        "hot": cluster.get("hot", {}),
        "warming": cluster.get("warming", {}),
        "per_shard": shards,
    }


def run_cluster_comparison(
    *,
    shards: int = 3,
    replicas: int = 2,
    duration: float = 10.0,
    clients: int = 64,
    zipf_s: float = 2.5,
    seed: int = 7,
    jobs: "int | str" = 1,
    store_root: "Path | str | None" = None,
    warm_run: bool = True,
    kill_run: bool = True,
    log=print,
) -> dict:
    """Run the four-way comparison; returns rows + cluster telemetry.

    ``store_root=None`` uses a temporary directory (hermetic: every
    configuration starts cold).  ``speedup`` compares the two cache-off
    rows — the compute-bound scaling measurement; ``warm_run`` adds the
    cache+warming showcase row and ``kill_run`` the chaos row.
    """
    rows: list[dict] = []
    telemetry: dict = {}
    common = dict(duration=duration, clients=clients, zipf_s=zipf_s,
                  seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-cluster-bench-") as tmp:
        root = Path(store_root) if store_root is not None else Path(tmp)

        def shard_args(tag: str, cache: bool) -> dict:
            return dict(store_root=root / tag, jobs=jobs, cache=cache)

        log(f"[bench_cluster] single-shard baseline, cache off "
            f"({clients} clients, {duration:g}s, seed={seed})...")
        with ClusterSupervisor(1, **shard_args("single", False)) as single:
            result = drive_url(single.shard_urls[0], **common)
            rows.append(result.row("single-shard"))

        log(f"[bench_cluster] {shards}-shard cluster, cache off "
            f"(the scaling row)...")
        with ClusterSupervisor(shards, **shard_args("cluster", False)) as sup:
            with BackgroundRouter(sup.shard_urls, replicas=replicas) as fr:
                result = drive_url(fr.url, **common)
                rows.append(result.row(f"cluster-{shards}shard"))
                telemetry["cluster"] = _shard_summary(fr.url)

        if warm_run:
            log(f"[bench_cluster] {shards}-shard cluster, caches + "
                f"hot-key warming on...")
            with ClusterSupervisor(shards, **shard_args("warm", True)) as sup:
                with BackgroundRouter(sup.shard_urls,
                                      replicas=replicas) as fr:
                    result = drive_url(fr.url, **common)
                    rows.append(result.row(f"cluster-{shards}shard+cache"))
                    telemetry["warm"] = _shard_summary(fr.url)

        if kill_run:
            log(f"[bench_cluster] shard-kill chaos run "
                f"(SIGKILL shard 1 at t={duration / 2:g}s)...")
            with ClusterSupervisor(shards, **shard_args("chaos", True)) as sup:
                with BackgroundRouter(sup.shard_urls,
                                      replicas=replicas) as fr:
                    result = drive_url(
                        fr.url, **common,
                        mid_run=lambda: sup.kill_shard(1),
                    )
                    rows.append(result.row("shard-kill"))
                    telemetry["chaos"] = _shard_summary(fr.url)

    by_name = {row["name"]: row for row in rows}
    single_rps = by_name["single-shard"]["rps"]
    cluster_rps = by_name[f"cluster-{shards}shard"]["rps"]
    speedup = cluster_rps / single_rps if single_rps else 0.0
    kill_row = by_name.get("shard-kill")
    return {
        "rows": rows,
        "speedup": round(speedup, 2),
        "kill_errors": kill_row["errors"] if kill_row else None,
        "telemetry": telemetry,
        "config": {
            "shards": shards, "replicas": replicas, "duration": duration,
            "clients": clients, "zipf_s": zipf_s, "seed": seed,
            "jobs": str(jobs),
        },
    }


def render_cluster_comparison(result: dict) -> str:
    """Text report for the terminal and ``benchmarks/out/cluster.txt``."""
    header = (
        f"{'config':<22} {'reqs':>8} {'errs':>5} {'rps':>9} "
        f"{'p50ms':>8} {'p95ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in result["rows"]:
        lines.append(
            f"{row['name']:<22} {row['requests']:>8} {row['errors']:>5} "
            f"{row['rps']:>9.1f} {row['p50_ms']:>8.2f} {row['p95_ms']:>8.2f}"
        )
    lines.append("")
    lines.append(f"cluster vs single-shard throughput (cache off): "
                 f"{result['speedup']:.2f}x")
    if result.get("kill_errors") is not None:
        lines.append(f"shard-kill client-visible failures: "
                     f"{result['kill_errors']}")
    telemetry = result.get("telemetry", {})
    per_shard = (telemetry.get("warm") or telemetry.get("cluster", {})) \
        .get("per_shard", {})
    if per_shard:
        lines.append("")
        lines.append(f"{'shard':<28} {'fwd':>7} {'hit%':>6} {'warm_rx':>8} "
                     f"{'remote_hits':>12}")
        for url in sorted(per_shard):
            s = per_shard[url]
            hit = f"{100 * s.get('cache_hit_rate', 0.0):.0f}"
            lines.append(
                f"{url:<28} {s.get('forwarded', 0):>7} {hit:>6} "
                f"{s.get('warm_received', 0):>8} {s.get('hits_remote', 0):>12}"
            )
    return "\n".join(lines)
