"""Trace replay vs. event vs. batch on a Figure-4-style latency sweep.

The replay engine's reason to exist: a latency sweep re-prices the same
warp transaction trace at every point, so after one capture, each
remaining point is a cache hit — one vectorized slot
count (cached per policy) plus a lean integer pass over the compiled
op stream, with no thread-program re-execution.  This bench times the
same sweep under all three modes, asserts the cycle counts are
identical everywhere, and records the warm-replay speedup.

Artifacts:

* ``benchmarks/out/replay.txt`` — human-readable comparison table;
* ``BENCH_replay.json`` (repo root) — machine-readable record with the
  pass/fail criterion, a schema other benches can adopt.
"""

import json
import os
import pathlib
import platform
import time

import numpy as np
import pytest

from _util import emit, format_rows
from repro import HMM, UMM, HMMParams, MachineParams
from repro.machine.replay import default_store, reset_default_store


@pytest.fixture(autouse=True)
def _restore_store_env():
    """Leave the process-wide trace-store override as we found it."""
    saved = os.environ.get("REPRO_STORE_TRACE_DIR")
    yield
    if saved is None:
        os.environ.pop("REPRO_STORE_TRACE_DIR", None)
    else:
        os.environ["REPRO_STORE_TRACE_DIR"] = saved
    reset_default_store()

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Figure 4 sweeps latency at fixed width/workload; same shape, bigger:
#: w=4, 64 warps, 32 latency points.
WIDTH = 4
NUM_THREADS = 256
N = 4096
LATENCIES = tuple(range(2, 130, 4))

#: Acceptance threshold: warm replay must beat the batch engine by this
#: factor on the sweep.
MIN_SPEEDUP = 5.0

RNG = np.random.default_rng(20130520)
VALUES = RNG.standard_normal(N)


def _sweep(machine_for, mode):
    """Run the latency sweep once; return (seconds, cycles-per-point)."""
    t0 = time.perf_counter()
    cycles = [machine_for(l, mode).sum(VALUES, NUM_THREADS)[1].cycles
              for l in LATENCIES]
    return time.perf_counter() - t0, cycles


def _flat(l, mode):
    return UMM(MachineParams(width=WIDTH, latency=l), mode=mode)


def _hmm(l, mode):
    return HMM(HMMParams(num_dmms=8, width=WIDTH, global_latency=l),
               mode=mode)


def _isolated_store(tmpdir):
    os.environ["REPRO_STORE_TRACE_DIR"] = str(tmpdir)
    reset_default_store()


def _measure(tmp_path):
    """Both sweeps under all three modes; returns (rows, metrics)."""
    rows, metrics = [], {}
    for label, machine_for in (("umm_sum", _flat), ("hmm_sum", _hmm)):
        t_event, c_event = _sweep(machine_for, "event")
        t_batch, c_batch = _sweep(machine_for, "batch")
        _isolated_store(tmp_path / label)
        # Cold: two captures (the second stores the trace), then hits.
        _sweep(machine_for, "replay")
        t_warm, c_warm = _sweep(machine_for, "replay")  # warm: all hits
        store = default_store().metrics["trace_store"]
        assert c_event == c_batch == c_warm, f"{label}: modes disagree"
        assert store["captures"] == 2, store
        assert store["hits"] >= 2 * len(LATENCIES) - 2, store
        rows.append({
            "workload": label,
            "points": len(LATENCIES),
            "event_ms": round(t_event * 1e3, 1),
            "batch_ms": round(t_batch * 1e3, 1),
            "replay_warm_ms": round(t_warm * 1e3, 1),
            "replay_vs_event": round(t_event / t_warm, 1),
            "replay_vs_batch": round(t_batch / t_warm, 1),
            "cycles_first_last": [c_event[0], c_event[-1]],
        })
    metrics["replay_vs_batch_speedup"] = min(
        r["replay_vs_batch"] for r in rows)
    metrics["replay_vs_event_speedup"] = min(
        r["replay_vs_event"] for r in rows)
    metrics["equivalence"] = True  # asserted above, per point
    return rows, metrics


def test_replay_sweep_speedup(tmp_path):
    """Warm replay beats the batch engine ≥ 5x at identical cycles."""
    rows, metrics = _measure(tmp_path)

    emit("replay", format_rows(
        ["workload", "points", "event ms", "batch ms", "replay ms",
         "vs event", "vs batch"],
        [(r["workload"], r["points"], r["event_ms"], r["batch_ms"],
          r["replay_warm_ms"], f"{r['replay_vs_event']}x",
          f"{r['replay_vs_batch']}x") for r in rows],
    ))

    record = {
        "bench": "trace_replay",
        "schema_version": 1,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {
            "width": WIDTH,
            "num_threads": NUM_THREADS,
            "n": N,
            "latency_points": len(LATENCIES),
            "latency_range": [LATENCIES[0], LATENCIES[-1]],
        },
        "rows": rows,
        "metrics": metrics,
        "criteria": {
            "min_replay_vs_batch_speedup": MIN_SPEEDUP,
            "pass": metrics["replay_vs_batch_speedup"] >= MIN_SPEEDUP,
        },
    }
    (ROOT / "BENCH_replay.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert record["criteria"]["pass"], (
        f"warm replay only {metrics['replay_vs_batch_speedup']}x over batch "
        f"(need {MIN_SPEEDUP}x)")


def test_speed_replay_warm_point(benchmark, tmp_path):
    """pytest-benchmark row: one warm replay re-costing of the sweep shape."""
    _isolated_store(tmp_path)
    for _ in range(2):  # the second capture stores the trace
        _flat(2, "replay").sum(VALUES, NUM_THREADS)

    def run():
        return _flat(77, "replay").sum(VALUES, NUM_THREADS)[1]

    report = benchmark(run)
    assert report.engine == "replay"
