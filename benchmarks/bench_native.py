"""Native compiled backend vs. the pure-Python hot loops.

The native backend moves the three mechanical loops — the replay
pricer's heap event loop, the batch engine's wave/port scans, and the
per-policy slot counting — into a small C library compiled on demand
with the system ``cc``.  Semantics stay in Python; the contract is
*bit-identical* results (asserted per point here and exhaustively in
``tests/native/``).  This bench records the two speedups the backend
exists for:

* ``event_loop`` — warm re-pricing of a captured trace across a
  latency sweep: the evaluator's decode and slot tables are cached, so
  this isolates the heap event loop itself.  Target ≥ 5x.
* ``repricing_cold`` — a fresh :class:`ReplayCostEvaluator` per
  measurement (decode + slot counting + pricing), the cold cost a
  sweep pays on first touch of a trace.  Target ≥ 3x.

Artifacts:

* ``benchmarks/out/native.txt`` — human-readable comparison table;
* ``BENCH_native.json`` (repo root) — machine-readable record with the
  pass/fail criteria.
"""

import os
import time

import numpy as np
import pytest

from _util import emit, format_rows, write_bench_json
from repro import HMM, HMMParams
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import (
    ReplayCostEvaluator,
    default_store,
    reset_default_store,
)
from repro.native import native_available, native_kernels

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on this host"
)

#: Figure-4-shaped workload, sized so the op stream is long enough for
#: loop cost to dominate: 8 DMMs, 128 warps, ~6k trace ops.
PARAMS = dict(num_dmms=8, width=4, global_latency=32, shared_latency=2)
N = 16384
NUM_THREADS = 512
LATENCIES = tuple(range(2, 66, 2))
COLD_LATENCIES = LATENCIES[:8]

MIN_EVENT_LOOP_SPEEDUP = 5.0
MIN_COLD_REPRICING_SPEEDUP = 3.0

RNG = np.random.default_rng(20130520)
VALUES = RNG.standard_normal(N)


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path):
    """Private artifact store; leave the process-wide override as found."""
    saved = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = str(tmp_path / "store")
    reset_default_store()
    yield
    if saved is None:
        os.environ.pop("REPRO_STORE_DIR", None)
    else:
        os.environ["REPRO_STORE_DIR"] = saved
    reset_default_store()


def _capture_trace():
    """Capture one HMM sum trace and return the stored object."""
    params = HMMParams(**PARAMS)
    for _ in range(2):  # the second capture stores the trace
        HMM(params, mode="replay").sum(VALUES, NUM_THREADS)
    traces = [trace for _, trace in default_store().store_namespace.scan()]
    assert traces, "trace capture did not land in the store"
    return traces[0]


def _sweep_kwargs(n_units, latency):
    return dict(
        latencies=[latency] * n_units,
        policies=[DMMBankPolicy()] * n_units,
        pipelined=[True] * n_units,
    )


def _warm_sweep(trace, backend):
    """Latency sweep on a warmed evaluator; returns (seconds, cycles)."""
    n = len(trace.meta["unit_names"])
    ev = ReplayCostEvaluator(trace, backend=backend)
    ev.evaluate(**_sweep_kwargs(n, LATENCIES[0]))  # warm decode + tables
    t0 = time.perf_counter()
    cycles = [ev.evaluate(**_sweep_kwargs(n, l))[0].cycles
              for l in LATENCIES]
    return time.perf_counter() - t0, cycles


def _cold_sweep(trace, backend):
    """Fresh evaluator + short sweep; returns (seconds, cycles)."""
    n = len(trace.meta["unit_names"])
    t0 = time.perf_counter()
    ev = ReplayCostEvaluator(trace, backend=backend)
    cycles = [ev.evaluate(**_sweep_kwargs(n, l))[0].cycles
              for l in COLD_LATENCIES]
    return time.perf_counter() - t0, cycles


def test_native_backend_speedup():
    """Native heap loop ≥ 5x, cold re-pricing ≥ 3x, at identical cycles."""
    trace = _capture_trace()
    assert native_kernels() is not None  # build outside the timed region

    t_warm_p, c_warm_p = _warm_sweep(trace, "python")
    t_warm_n, c_warm_n = _warm_sweep(trace, "native")
    assert c_warm_p == c_warm_n, "backends disagree on the warm sweep"

    t_cold_p, c_cold_p = _cold_sweep(trace, "python")
    t_cold_n, c_cold_n = _cold_sweep(trace, "native")
    assert c_cold_p == c_cold_n, "backends disagree on the cold sweep"

    rows = [
        {
            "scenario": "event_loop",
            "points": len(LATENCIES),
            "python_ms": round(t_warm_p * 1e3, 1),
            "native_ms": round(t_warm_n * 1e3, 1),
            "speedup": round(t_warm_p / t_warm_n, 1),
            "cycles_first_last": [c_warm_p[0], c_warm_p[-1]],
        },
        {
            "scenario": "repricing_cold",
            "points": len(COLD_LATENCIES),
            "python_ms": round(t_cold_p * 1e3, 1),
            "native_ms": round(t_cold_n * 1e3, 1),
            "speedup": round(t_cold_p / t_cold_n, 1),
            "cycles_first_last": [c_cold_p[0], c_cold_p[-1]],
        },
    ]
    metrics = {
        "event_loop_speedup": rows[0]["speedup"],
        "cold_repricing_speedup": rows[1]["speedup"],
        "trace_ops": int(len(trace.op_warp)),
        "equivalence": True,  # asserted above, per point
    }

    emit("native", format_rows(
        ["scenario", "points", "python ms", "native ms", "speedup"],
        [(r["scenario"], r["points"], r["python_ms"], r["native_ms"],
          f"{r['speedup']}x") for r in rows],
    ))

    record = write_bench_json(
        "native",
        config={
            **PARAMS,
            "n": N,
            "num_threads": NUM_THREADS,
            "latency_points": len(LATENCIES),
            "cold_latency_points": len(COLD_LATENCIES),
        },
        rows=rows,
        metrics=metrics,
        criteria={
            "min_event_loop_speedup": MIN_EVENT_LOOP_SPEEDUP,
            "min_cold_repricing_speedup": MIN_COLD_REPRICING_SPEEDUP,
            "pass": (
                metrics["event_loop_speedup"] >= MIN_EVENT_LOOP_SPEEDUP
                and metrics["cold_repricing_speedup"]
                >= MIN_COLD_REPRICING_SPEEDUP
            ),
        },
    )
    assert record["criteria"]["pass"], (
        f"native speedups {metrics['event_loop_speedup']}x warm / "
        f"{metrics['cold_repricing_speedup']}x cold below targets "
        f"({MIN_EVENT_LOOP_SPEEDUP}x / {MIN_COLD_REPRICING_SPEEDUP}x)")


def test_speed_native_warm_point(benchmark):
    """pytest-benchmark row: one native re-pricing of the trace."""
    trace = _capture_trace()
    n = len(trace.meta["unit_names"])
    ev = ReplayCostEvaluator(trace, backend="native")
    ev.evaluate(**_sweep_kwargs(n, 2))  # warm build + decode + tables

    def run():
        return ev.evaluate(**_sweep_kwargs(n, 77))[0]

    result = benchmark(run)
    assert result.cycles > 0
