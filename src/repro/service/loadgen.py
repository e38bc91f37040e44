"""Closed-loop load generation for the cost service.

The workload models real oracle traffic: many clients querying costs
over the Table I parameter grid with a heavy-tailed (Zipf) popularity
distribution — autotuners and sweeps hammer a few hot points while the
long tail trickles.  Hot-spot traffic is exactly what the micro-batcher
exploits: concurrent requests for one spec coalesce into a single
evaluation, so batched throughput scales with the *unique*-spec rate,
not the request rate.

:func:`drive_url` drives any running endpoint — one server or a cluster
router — with ``clients`` closed-loop asyncio clients for ``duration``
seconds, recording per-request outcomes, and can fire an action (kill a
shard) partway through.  :func:`run_config` boots a fresh
:class:`~repro.service.server.BackgroundServer` with the given
batching/caching knobs and drives it with :func:`drive_url`.
:func:`run_comparison` runs the standard four-way experiment —
unbatched vs micro-batched (both cache-cold and cache-off, isolating
the batching win) and batched with the persistent cache cold vs warm —
and :func:`render_comparison` formats the result for
``benchmarks/out/service.txt``.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.table1 import CONV_GRID, SUM_GRID
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.protocol import DEFAULT_SEED
from repro.service.server import BackgroundServer

__all__ = [
    "DriveResult",
    "table1_workload",
    "drive_url",
    "run_config",
    "run_comparison",
    "render_comparison",
]


def table1_workload(model: str = "hmm") -> list[dict]:
    """The Table I grid as cost-request payload dicts (sum + conv)."""
    specs = [
        {"kernel": "sum", "model": model, "k": 0, **q} for q in SUM_GRID
    ]
    specs += [
        {"kernel": "convolution", "model": model, **q} for q in CONV_GRID
    ]
    return specs


def _zipf_cdf(count: int, s: float) -> list[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


@dataclass
class DriveResult:
    """Outcome of one closed-loop run against one URL."""

    requests: int = 0
    errors: int = 0
    latencies: list = field(default_factory=list)
    #: Measured wall time, including the requests still in flight at the
    #: deadline.
    duration_s: float = 0.0
    seed: int = 0
    zipf_s: float = 0.0
    clients: int = 0

    @property
    def rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    def row(self, name: str) -> dict:
        """A benchmark result row: the fields ``BENCH_cluster.json`` and
        :func:`run_config` rows share."""
        return {
            "name": name,
            "clients": self.clients,
            "seed": self.seed,
            "zipf_s": self.zipf_s,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "errors": self.errors,
            "rps": round(self.rps, 1),
            "p50_ms": round(_percentile(self.latencies, 0.50) * 1e3, 2),
            "p95_ms": round(_percentile(self.latencies, 0.95) * 1e3, 2),
        }


async def _client_loop(
    client: AsyncServiceClient, specs: list[dict], cdf: list[float],
    rng: random.Random, stop_at: float, result: DriveResult,
) -> None:
    while time.monotonic() < stop_at:
        spec = specs[bisect.bisect_left(cdf, rng.random())]
        params = {k: spec[k] for k in ("n", "k", "p", "w", "l", "d")}
        started = time.monotonic()
        try:
            await client.cost(spec["kernel"], spec["model"], params,
                              seed=DEFAULT_SEED)
        except ServiceError:
            # Includes Unavailable: the client's retries were exhausted,
            # so this is a *client-visible* failure — exactly what the
            # shard-kill acceptance criterion counts.
            result.errors += 1
            continue
        result.latencies.append(time.monotonic() - started)
        result.requests += 1


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[idx]


def drive_url(
    url: str,
    *,
    duration: float = 10.0,
    clients: int = 64,
    zipf_s: float = 2.5,
    seed: int = 7,
    model: str = "hmm",
    mid_run: "Callable[[], None] | None" = None,
    mid_run_at: float = 0.5,
) -> DriveResult:
    """Drive ``url`` closed-loop; optionally fire ``mid_run`` partway.

    ``mid_run`` runs in a worker thread at ``mid_run_at`` (fraction of
    ``duration``) — e.g. ``lambda: supervisor.kill_shard(1)`` for the
    chaos benchmark.  ``seed`` fixes every client's sampling sequence,
    so two runs with the same seed issue the same requests.
    """
    specs = table1_workload(model)
    cdf = _zipf_cdf(len(specs), zipf_s)
    result = DriveResult(seed=seed, zipf_s=zipf_s, clients=clients)

    async def drive() -> None:
        stop_at = time.monotonic() + duration
        tasks = [
            asyncio.ensure_future(_client_loop(
                AsyncServiceClient(url),
                specs, cdf, random.Random(seed * 10_000 + i),
                stop_at, result,
            ))
            for i in range(clients)
        ]
        if mid_run is not None:
            async def chaos() -> None:
                await asyncio.sleep(duration * mid_run_at)
                await asyncio.get_running_loop().run_in_executor(
                    None, mid_run
                )
            tasks.append(asyncio.ensure_future(chaos()))
        await asyncio.gather(*tasks)

    started = time.monotonic()
    asyncio.run(drive())
    result.duration_s = time.monotonic() - started
    return result


def run_config(
    name: str,
    *,
    max_batch_size: int,
    cache: bool,
    coalesce: bool = True,
    cache_dir=None,
    duration: float = 10.0,
    clients: int = 96,
    zipf_s: float = 1.5,
    seed: int = 7,
    max_wait_s: float = 0.01,
    max_queue: int = 1024,
    model: str = "hmm",
) -> dict:
    """Boot a server with these knobs and drive it closed-loop.

    Returns a result row: requests served, throughput over the measured
    run time, latency quantiles, plus the server's own ``/metrics``
    snapshot (batch sizes, coalescing, evaluations, rejections, cache
    hit rate, and ``bypassed``: memory-tier hits answered ahead of the
    batcher).
    """
    with BackgroundServer(
        cache=cache, cache_dir=cache_dir, coalesce=coalesce,
        max_batch_size=max_batch_size, max_wait_s=max_wait_s,
        max_queue=max_queue,
    ) as srv:
        result = drive_url(srv.url, duration=duration, clients=clients,
                           zipf_s=zipf_s, seed=seed, model=model)
        with ServiceClient(srv.url) as client:
            metrics = client.metrics()
    batches = metrics["batches"]
    return {
        **result.row(name),
        "max_batch_size": max_batch_size,
        "cache": cache,
        "evaluations": batches["unique_points"],
        "batch_count": batches["count"],
        "mean_batch": batches["mean_size"],
        "max_batch": batches["max_size"],
        "coalesced": batches["coalesced"],
        "bypassed": batches["bypassed"],
        "rejected": metrics["rejected"],
        "cache_hit_rate": metrics["cache"]["hit_rate"],
    }


def run_comparison(
    *,
    duration: float = 10.0,
    clients: int = 128,
    batch_size: int = 128,
    zipf_s: float = 2.5,
    seed: int = 7,
    cache_dir=None,
    log=print,
) -> list[dict]:
    """The standard four-way batching/caching experiment.

    ``unbatched`` vs ``batched`` (both cache-off) isolates the
    micro-batching win — the acceptance row.  ``batched+cache`` cold vs
    warm shows what the persistent result cache adds on top.
    ``cache_dir`` holds the persistent cache for the warm run; pass a
    temp dir to keep benchmark runs hermetic.  ``seed`` drives every
    client's spec sampling and is recorded in each result row, so two
    runs with the same seed replay the same request sequence.
    """
    common = dict(duration=duration, clients=clients, zipf_s=zipf_s,
                  seed=seed)
    rows = []
    for name, kwargs in (
        # batch=1, no coalescing: a naive server — one evaluation per
        # request, requests served strictly one at a time.
        ("unbatched", dict(max_batch_size=1, cache=False, coalesce=False)),
        ("batched", dict(max_batch_size=batch_size, cache=False)),
        ("batched+cache cold", dict(max_batch_size=batch_size, cache=True,
                                    cache_dir=cache_dir)),
        ("batched+cache warm", dict(max_batch_size=batch_size, cache=True,
                                    cache_dir=cache_dir)),
    ):
        log(f"[bench_service] running {name!r} "
            f"({clients} clients, {duration:g}s)...")
        rows.append(run_config(name, **common, **kwargs))
    return rows


def render_comparison(rows: list[dict]) -> str:
    """Text report: one line per config plus the headline speedup."""
    header = (
        f"{'config':<20} {'reqs':>7} {'rps':>8} {'p50ms':>8} {'p95ms':>8} "
        f"{'evals':>7} {'mean_b':>7} {'max_b':>6} {'coal':>7} "
        f"{'rej':>5} {'hit%':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        hit = f"{100 * r['cache_hit_rate']:.0f}" if r["cache"] else "-"
        lines.append(
            f"{r['name']:<20} {r['requests']:>7} {r['rps']:>8.1f} "
            f"{r['p50_ms']:>8.1f} {r['p95_ms']:>8.1f} {r['evaluations']:>7} "
            f"{r['mean_batch']:>7.1f} {r['max_batch']:>6} "
            f"{r['coalesced']:>7} {r['rejected']:>5} {hit:>6}"
        )
    by_name = {r["name"]: r for r in rows}
    base = by_name.get("unbatched")
    batched = by_name.get("batched")
    if base and batched and base["rps"] > 0:
        ratio = batched["rps"] / base["rps"]
        lines.append("")
        lines.append(
            f"micro-batched vs unbatched throughput: {ratio:.1f}x "
            f"({batched['rps']:.1f} vs {base['rps']:.1f} req/s; cache off "
            "in both — the win is window batching + coalescing)"
        )
    return "\n".join(lines)
