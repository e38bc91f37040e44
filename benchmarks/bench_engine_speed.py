"""Simulator throughput — wall-clock cost of the simulation itself.

Not a paper artifact: these benchmarks track the speed of the
discrete-event engine (warp transactions per second) so regressions in
the simulator's own performance are visible.  pytest-benchmark runs
these with proper repetition since they are cheap and deterministic.
"""

import numpy as np
import pytest

from repro import HMM, UMM, HMMParams, MachineParams
from repro.machine.engine import MachineEngine
from repro.machine.policy import UMMGroupPolicy
from repro.core.kernels.contiguous import contiguous_read


def test_speed_contiguous_read(benchmark):
    """Raw transaction throughput of the flat engine."""
    eng = MachineEngine(MachineParams(width=32, latency=100), UMMGroupPolicy())
    a = eng.alloc(1 << 14)

    def run():
        return eng.launch(contiguous_read(a, 1 << 14), 1024).cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_speed_hmm_sum(benchmark, rng):
    """End-to-end HMM sum including allocation (the common usage)."""
    vals = rng.normal(size=1 << 12)
    machine = HMM(HMMParams(num_dmms=8, width=32, global_latency=200))

    def run():
        return machine.sum(vals, 512)

    total, report = benchmark(run)
    assert np.isclose(total, vals.sum())


def test_speed_hmm_convolution(benchmark, rng):
    x = rng.normal(size=16)
    y = rng.normal(size=(1 << 10) + 15)
    machine = HMM(HMMParams(num_dmms=8, width=32, global_latency=200))

    def run():
        return machine.convolve(x, y, 1024)

    z, report = benchmark(run)
    assert np.allclose(z, np.correlate(y, x, "valid"))


# -- batch and replay capture vs event ---------------------------------------
#
# The vectorized batch engine must agree with the event scheduler on
# every cycle count while being substantially faster on the regular
# workloads it is built for.  A replay capture (a cold launch in
# ``mode="replay"``: the warps stepped without the scheduler, the trace
# certified and priced) is timed on the same launches, with trace
# persistence off and the store cleared before each rep, so every rep
# captures.  These benchmarks assert the cycle counts match and persist
# the comparison table to benchmarks/out/engine_speed.txt.

import time

from _util import emit, format_rows, write_bench_json
from repro.core.kernels.hmm_sum import hmm_sum
from repro.machine.hmm import HMMEngine
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import default_store, reset_default_store


def _best_of(fn, reps=3):
    best = None
    result = None
    for _ in range(reps):
        default_store().clear()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best, result


def _contiguous_case(policy, n, p, mode):
    eng = MachineEngine(MachineParams(width=32, latency=100), policy(), mode=mode)
    a = eng.alloc(n)

    def run():
        report = eng.launch(contiguous_read(a, n), p)
        if mode == "replay":
            assert report.engine == "replay-capture", report.engine
        return report.cycles

    return _best_of(run)


def _hmm_sum_case(vals, p, mode):
    def run():
        eng = HMMEngine(
            HMMParams(num_dmms=8, width=32, global_latency=200), mode=mode
        )
        total, report = hmm_sum(eng, vals, p)
        if mode == "replay":
            assert report.engine == "replay-capture", report.engine
        return total, report.cycles

    return _best_of(run)


@pytest.fixture
def memory_trace_store(monkeypatch):
    """The process's trace store with persistence off."""
    monkeypatch.setenv("REPRO_STORE_TRACE", "off")
    reset_default_store()
    yield
    reset_default_store()


def test_speed_contiguous_read_batch(benchmark):
    """Transaction throughput of the batch engine on the same launch."""
    eng = MachineEngine(
        MachineParams(width=32, latency=100), UMMGroupPolicy(), mode="batch"
    )
    a = eng.alloc(1 << 14)

    def run():
        return eng.launch(contiguous_read(a, 1 << 14), 1024).cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_batch_vs_event_comparison(rng, memory_trace_store):
    """Wall-clock comparison table: batch speedup at identical cycles,
    and the replay capture's time beside them."""
    records = []

    for policy in (UMMGroupPolicy, DMMBankPolicy):
        for n_log in (16, 18):
            n, p = 1 << n_log, 1024
            t_ev, c_ev = _contiguous_case(policy, n, p, "event")
            t_ba, c_ba = _contiguous_case(policy, n, p, "batch")
            t_ca, c_ca = _contiguous_case(policy, n, p, "replay")
            assert c_ba == c_ev
            assert c_ca == c_ev
            records.append({
                "workload": f"contiguous_read[{policy().name}] "
                            f"n=2^{n_log} p={p}",
                "event_ms": round(t_ev * 1e3, 2),
                "batch_ms": round(t_ba * 1e3, 2),
                "capture_ms": round(t_ca * 1e3, 2),
                "speedup": round(t_ev / t_ba, 2),
                "cycles": c_ev,
            })

    for n_log in (18, 20):
        vals = rng.normal(size=1 << n_log)
        t_ev, (total_ev, c_ev) = _hmm_sum_case(vals, 512, "event")
        t_ba, (total_ba, c_ba) = _hmm_sum_case(vals, 512, "batch")
        t_ca, (total_ca, c_ca) = _hmm_sum_case(vals, 512, "replay")
        assert c_ba == c_ev
        assert total_ba == total_ev
        assert c_ca == c_ev
        assert total_ca == total_ev
        records.append({
            "workload": f"hmm_sum n=2^{n_log} p=512",
            "event_ms": round(t_ev * 1e3, 2),
            "batch_ms": round(t_ba * 1e3, 2),
            "capture_ms": round(t_ca * 1e3, 2),
            "speedup": round(t_ev / t_ba, 2),
            "cycles": c_ev,
        })

    emit(
        "engine_speed",
        format_rows(
            ["workload", "event ms", "batch ms", "capture ms", "speedup",
             "cycles"],
            [(r["workload"], f"{r['event_ms']:.1f}", f"{r['batch_ms']:.1f}",
              f"{r['capture_ms']:.1f}", f"{r['speedup']:.1f}x", r["cycles"])
             for r in records],
        ),
    )
    speedups = [r["speedup"] for r in records]
    write_bench_json(
        "engine_speed",
        config={"reps": 3, "workloads": [r["workload"] for r in records]},
        rows=records,
        metrics={
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
        },
        criteria={
            # Golden equivalence is the hard criterion (asserted above);
            # the batch engine must also not be slower overall.
            "cycles_identical": True,
            "min_speedup_floor": 1.0,
            "pass": bool(min(speedups) >= 1.0),
        },
    )
