"""The sweep executor itself — serial-vs-sharded and cold-vs-warm.

One benchmark runs the Table I sum sweep (all models) three ways against
a throwaway cache directory:

* **serial-event** — ``jobs=1``, ``mode="event"``, no cache: the
  pre-executor baseline, every point simulated step by step in-process.
* **cold** — ``jobs="auto"``, ``mode="batch"``, empty cache: the
  executor's fast path, sharded across worker processes.
* **warm** — the same sweep again: every point a cache hit, nothing
  re-simulated.

The emitted table records wall-clock, speed-ups, and the host CPU count
(the cold speed-up scales with cores; the warm one does not).  Cycle
counts must be identical in all three configurations — the executor's
core guarantee.
"""

import os
import time
from functools import partial

from repro.analysis.executor import SweepExecutor
from repro.analysis.terms import Params
from repro.experiments.table1 import SUM_GRID, sum_task

from _util import emit, format_rows, once, write_bench_json

SEED = 20130520
MODELS = ("pram", "umm", "dmm", "hmm")
POINTS = [Params(**q) for q in SUM_GRID]


def _run_all(executor: SweepExecutor, mode: str) -> tuple[float, dict]:
    start = time.perf_counter()
    cycles = {}
    for model in MODELS:
        pts = executor.run(
            partial(sum_task, model=model, seed=SEED, mode=mode),
            POINTS,
            mode=mode,
            label=f"bench/sweep-executor/{model}",
        )
        cycles[model] = [p.cycles for p in pts]
    return time.perf_counter() - start, cycles


def test_sweep_executor_speedups(benchmark, tmp_path):
    cache_dir = tmp_path / "sweep_cache"

    def run():
        serial_s, serial = _run_all(
            SweepExecutor(jobs=1, cache=False), "event"
        )
        cold_ex = SweepExecutor(jobs="auto", cache=True, cache_dir=cache_dir)
        cold_s, cold = _run_all(cold_ex, "batch")
        warm_ex = SweepExecutor(jobs="auto", cache=True, cache_dir=cache_dir)
        warm_s, warm = _run_all(warm_ex, "batch")
        return {
            "serial_s": serial_s,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "serial": serial,
            "cold": cold,
            "warm": warm,
            "warm_hits": warm_ex.metrics["cache.hits"],
            "warm_misses": warm_ex.metrics["cache.misses"],
        }

    r = once(benchmark, run)
    total = len(POINTS) * len(MODELS)
    rows = [
        ["serial-event", "1", "event", "no", f"{r['serial_s']:.3f}", "1.00x"],
        [
            "cold", "auto", "batch", "empty", f"{r['cold_s']:.3f}",
            f"{r['serial_s'] / r['cold_s']:.2f}x",
        ],
        [
            "warm", "auto", "batch", "full", f"{r['warm_s']:.3f}",
            f"{r['serial_s'] / r['warm_s']:.2f}x",
        ],
    ]
    emit(
        "sweep_executor",
        f"Table I sum sweep, {len(POINTS)} points x {len(MODELS)} models "
        f"= {total} measurements   (host: {os.cpu_count()} CPUs)\n"
        + format_rows(
            ["config", "jobs", "mode", "cache", "wall s", "vs serial-event"],
            rows,
        )
        + f"\nwarm run: {r['warm_hits']} hits / {r['warm_misses']} misses",
    )

    # The executor's core guarantee: identical cycles in every config.
    assert r["cold"] == r["serial"]
    assert r["warm"] == r["serial"]
    # A warm rerun re-measures nothing...
    assert r["warm_hits"] == total
    assert r["warm_misses"] == 0
    # ...and reading the cache beats re-simulating by a wide margin.
    assert r["serial_s"] / r["warm_s"] >= 3.0, (r["serial_s"], r["warm_s"])

    warm_speedup = r["serial_s"] / r["warm_s"]
    write_bench_json(
        "sweep_executor",
        config={
            "points": len(POINTS),
            "models": list(MODELS),
            "measurements": total,
            "cpus": os.cpu_count(),
        },
        rows=[
            {"config": "serial-event", "jobs": 1, "mode": "event",
             "cache": "no", "wall_s": round(r["serial_s"], 4)},
            {"config": "cold", "jobs": "auto", "mode": "batch",
             "cache": "empty", "wall_s": round(r["cold_s"], 4),
             "speedup_vs_serial": round(r["serial_s"] / r["cold_s"], 2)},
            {"config": "warm", "jobs": "auto", "mode": "batch",
             "cache": "full", "wall_s": round(r["warm_s"], 4),
             "speedup_vs_serial": round(warm_speedup, 2)},
        ],
        metrics={
            "warm_speedup_vs_serial": round(warm_speedup, 2),
            "warm_hits": r["warm_hits"],
            "warm_misses": r["warm_misses"],
        },
        criteria={
            "cycles_identical": True,
            "min_warm_speedup": 3.0,
            "pass": bool(warm_speedup >= 3.0 and r["warm_misses"] == 0),
        },
    )
