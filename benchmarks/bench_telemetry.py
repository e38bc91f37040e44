"""Streaming telemetry overhead under zipfian load — the ≤5% claim.

The telemetry subsystem rides along with every request the cluster
serves: each shard samples its metrics into ring-buffer time series,
the router multiplexes every shard's event feed onto one ordered
``/v1/events`` stream, and a live SSE consumer tails it — all while
the closed-loop load generator drives the ring.  None of that may
meaningfully tax the serving path.

Two configurations of the same deployment shape (subprocess shards —
real parallelism, like production — behind an in-process router,
caches off so both runs are compute-bound and deterministic):

* **telemetry-off** — shards launched with ``--no-telemetry``, router
  with ``multiplex=False``: the pre-telemetry serving path.
* **telemetry-on** — recorders sampling on every shard, the shard
  feeds multiplexed onto the router stream, and a live SSE subscriber
  consuming it for the whole run (the worst case: streaming writes
  interleave with request relay on the router's loop).

Acceptance: the telemetry-on configuration keeps at least 95% of the
telemetry-off throughput (``overhead_pct <= 5``).  Both runs must end
with zero client-visible errors, and the SSE consumer must actually
have received events (otherwise the "overhead" run measured nothing).
"""

import tempfile
import threading
from pathlib import Path

from repro.cluster.supervisor import BackgroundRouter, ClusterSupervisor
from repro.service.client import ServiceClient
from repro.service.loadgen import drive_url
from repro.telemetry import sse_events

from _util import emit, format_rows, once, write_bench_json

SHARDS = 2
CLIENTS = 16
DURATION_S = 3.0
WARM_S = 1.5
ROUNDS = 3
ZIPF_S = 2.5
SEED = 7

MAX_OVERHEAD_PCT = 5.0
MIN_STREAMED_EVENTS = 10


def _best_drive(url: str) -> "tuple[object, list[object]]":
    """Warm once, then best-of-``ROUNDS`` closed-loop runs."""
    drive_url(url, duration=WARM_S, clients=CLIENTS,
              zipf_s=ZIPF_S, seed=SEED)
    runs = [
        drive_url(url, duration=DURATION_S, clients=CLIENTS,
                  zipf_s=ZIPF_S, seed=SEED)
        for _ in range(ROUNDS)
    ]
    return max(runs, key=lambda r: r.rps), runs


def _run_config(store_root: Path, *, telemetry: bool) -> dict:
    extra = [] if telemetry else ["--no-telemetry"]
    out: dict = {}
    with ClusterSupervisor(SHARDS, store_root=store_root, cache=False,
                           extra_args=extra) as sup:
        with BackgroundRouter(sup.shard_urls, port=0,
                              multiplex=telemetry) as router:
            consumer = None
            streamed = {"events": 0}
            if telemetry:
                def consume() -> None:
                    # Runs until the router drains: the stream delivers
                    # the router.drain sentinel, then the server closes
                    # the connection and the generator ends.
                    for _ in sse_events(router.url, timeout=120.0):
                        streamed["events"] += 1

                consumer = threading.Thread(target=consume, daemon=True,
                                            name="bench-telemetry-sse")
                consumer.start()
            best, runs = _best_drive(router.url)
            assert best.errors == 0, best.errors
            if telemetry:
                out["events_emitted"] = (
                    ServiceClient(router.url, retries=1).metrics()
                    .get("cluster", {}).get("events", {}).get("emitted", 0))
        if consumer is not None:
            consumer.join(timeout=30)
            out["events_streamed"] = streamed["events"]
    out["best"] = best
    out["all_rps"] = [round(r.rps, 1) for r in runs]
    return out


def _run_comparison() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
        off = _run_config(Path(tmp) / "off", telemetry=False)
        on = _run_config(Path(tmp) / "on", telemetry=True)

    off_rps, on_rps = off["best"].rps, on["best"].rps
    rows = [off["best"].row("telemetry-off"), on["best"].row("telemetry-on")]
    rows[0]["rounds"] = rows[1]["rounds"] = ROUNDS
    return {
        "rows": rows,
        "off_rps": off_rps,
        "on_rps": on_rps,
        "off_all_rps": off["all_rps"],
        "on_all_rps": on["all_rps"],
        "overhead_pct": max(0.0, 100.0 * (off_rps - on_rps) / off_rps),
        "events_emitted": on["events_emitted"],
        "events_streamed": on["events_streamed"],
    }


def test_telemetry_overhead(benchmark):
    result = once(benchmark, _run_comparison)

    overhead = result["overhead_pct"]
    table = format_rows(
        ["config", "rps", "p50_ms", "p95_ms", "requests", "errors"],
        [[r["name"], r["rps"], r["p50_ms"], r["p95_ms"],
          r["requests"], r["errors"]] for r in result["rows"]],
    )
    emit(
        "telemetry",
        f"streaming telemetry overhead: {SHARDS} subprocess shards, "
        f"{CLIENTS} clients, best of {ROUNDS}x{DURATION_S:g}s, "
        f"zipf s={ZIPF_S}, seed={SEED}\n\n{table}\n\n"
        f"overhead: {overhead:.2f}% of telemetry-off rps "
        f"(budget {MAX_OVERHEAD_PCT:g}%)\n"
        f"events: emitted={result['events_emitted']} "
        f"streamed-live={result['events_streamed']}",
    )

    assert result["events_streamed"] >= MIN_STREAMED_EVENTS, result
    passed = overhead <= MAX_OVERHEAD_PCT
    write_bench_json(
        "telemetry",
        config={
            "shards": SHARDS, "clients": CLIENTS,
            "duration_s": DURATION_S, "rounds": ROUNDS,
            "zipf_s": ZIPF_S, "seed": SEED,
        },
        rows=result["rows"],
        metrics={
            "off_rps": round(result["off_rps"], 1),
            "on_rps": round(result["on_rps"], 1),
            "overhead_pct": round(overhead, 2),
            "events_emitted": result["events_emitted"],
            "events_streamed": result["events_streamed"],
        },
        criteria={
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "min_streamed_events": MIN_STREAMED_EVENTS,
            "pass": bool(passed),
        },
    )
    assert passed, (result["off_rps"], result["on_rps"], overhead)
