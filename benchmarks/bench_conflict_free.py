"""Conflict-free kernel suite: replay pricing and naive-vs-cf cycles.

Two claims from the PR-9 suite, measured:

1. **Replay leverage** — the conflict-free sort is replay-eligible, so
   a latency sweep re-prices one captured trace: after the capture,
   every point is a store hit.  Warm replay must beat the event engine
   ≥ 5x over a ≥ 12-point sweep at bit-identical cycles, under both
   the Python and the native re-pricing backend.
2. **Conflict removal** — against the naive bitonic network the
   unfused conflict-free layout removes exactly the avoidable excess
   slots (transaction parity) and the fused burst variant removes
   transactions too; the offline permutation beats the naive round
   schedule on the bank-adversarial transpose target.

Artifacts:

* ``benchmarks/out/conflict_free.txt`` — human-readable tables;
* ``BENCH_conflict_free.json`` (repo root) — machine-readable record
  with the pass/fail criteria (same schema as ``BENCH_replay.json``).
"""

import json
import os
import pathlib
import platform
import time

import numpy as np
import pytest

from _util import emit, format_rows
from repro import MachineParams
from repro.machine.engine import MachineEngine
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import default_store, reset_default_store
from repro.core.kernels.conflict_free import flat_cf_permutation, flat_cf_sort
from repro.core.kernels.sorting import flat_bitonic_sort


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

WIDTH = 8
N = 1024
NUM_THREADS = 128
#: 16 points — the acceptance criterion requires >= 12.
LATENCIES = tuple(range(2, 130, 8))

#: Warm replay must beat the event engine by this factor on the sweep.
MIN_SPEEDUP = 5.0

RNG = np.random.default_rng(20130520)
VALUES = RNG.standard_normal(N)


def _engine(l, mode, backend=None):
    return MachineEngine(MachineParams(width=WIDTH, latency=l),
                         DMMBankPolicy(), name="dmm", mode=mode,
                         backend=backend)


def _sweep(mode, backend=None):
    """Time the cf-sort latency sweep; return (seconds, cycles/point)."""
    t0 = time.perf_counter()
    cycles = [
        flat_cf_sort(_engine(l, mode, backend), VALUES, NUM_THREADS)[1].cycles
        for l in LATENCIES
    ]
    return time.perf_counter() - t0, cycles


def _isolated_store(tmpdir):
    os.environ["REPRO_STORE_TRACE_DIR"] = str(tmpdir)
    reset_default_store()


def _measure_replay(tmp_path):
    """The sweep under event vs warm replay, per pricing backend."""
    t_event, c_event = _sweep("event")
    rows = []
    for backend in ("python", "native"):
        _isolated_store(tmp_path / backend)
        # Cold: two captures (the second stores the trace), then hits.
        _sweep("replay", backend)
        t_warm, c_warm = _sweep("replay", backend)   # warm: all hits
        store = default_store().metrics["trace_store"]
        assert c_warm == c_event, f"{backend}: replay cycles diverge"
        assert store["captures"] == 2, store
        assert store["hits"] >= 2 * len(LATENCIES) - 2, store
        rows.append({
            "backend": backend,
            "points": len(LATENCIES),
            "event_ms": round(t_event * 1e3, 1),
            "replay_warm_ms": round(t_warm * 1e3, 1),
            "replay_vs_event": round(t_event / t_warm, 1),
            "cycles_first_last": [c_event[0], c_event[-1]],
            "identical_cycles": True,  # asserted above, per point
        })
    return rows


def _excess(report):
    return sum(s.excess_slots for s in report.unit_stats.values())


def _measure_variants():
    """Naive vs conflict-free cycle/slot rows at a fixed latency."""
    l = LATENCIES[0]
    rows = []
    _, naive = flat_bitonic_sort(_engine(l, "event"), VALUES, NUM_THREADS)
    _, parity = flat_cf_sort(_engine(l, "event"), VALUES, NUM_THREADS,
                             fused=False)
    _, fused = flat_cf_sort(_engine(l, "event"), VALUES, NUM_THREADS)
    for label, rep in (("sort/naive", naive),
                       ("sort/conflict-free", parity),
                       ("sort/fused", fused)):
        rows.append({
            "workload": label, "l": l, "cycles": rep.cycles,
            "transactions": rep.total_transactions(),
            "excess_slots": _excess(rep),
        })
    i = np.arange(N, dtype=np.int64)
    perm = (i % WIDTH) * (N // WIDTH) + i // WIDTH
    for schedule in ("naive", "conflict-free"):
        _, rep = flat_cf_permutation(_engine(l, "event"), VALUES, perm,
                                     NUM_THREADS, schedule=schedule)
        rows.append({
            "workload": f"permutation/{schedule}", "l": l,
            "cycles": rep.cycles,
            "transactions": rep.total_transactions(),
            "excess_slots": _excess(rep),
        })
    return rows


def test_conflict_free_replay_and_parity(tmp_path):
    """Warm replay ≥ 5x over event; cf variants remove every excess
    slot at naive transaction parity."""
    replay_rows = _measure_replay(tmp_path)
    variant_rows = _measure_variants()

    emit("conflict_free", format_rows(
        ["backend", "points", "event ms", "replay ms", "vs event"],
        [(r["backend"], r["points"], r["event_ms"], r["replay_warm_ms"],
          f"{r['replay_vs_event']}x") for r in replay_rows],
    ) + "\n\n" + format_rows(
        ["workload", "l", "cycles", "transactions", "excess slots"],
        [(r["workload"], r["l"], r["cycles"], r["transactions"],
          r["excess_slots"]) for r in variant_rows],
    ))

    by_label = {r["workload"]: r for r in variant_rows}
    naive, parity = by_label["sort/naive"], by_label["sort/conflict-free"]
    speedup = min(r["replay_vs_event"] for r in replay_rows)
    criteria = {
        "min_replay_vs_event_speedup": MIN_SPEEDUP,
        "min_sweep_points": 12,
        "replay_cycles_identical": all(
            r["identical_cycles"] for r in replay_rows),
        "cf_zero_excess": all(
            r["excess_slots"] == 0 for r in variant_rows
            if "naive" not in r["workload"]),
        "cf_transaction_parity": (
            parity["transactions"] == naive["transactions"]),
        "cf_beats_naive": (
            parity["cycles"] < naive["cycles"]
            and by_label["sort/fused"]["cycles"] < parity["cycles"]
            and by_label["permutation/conflict-free"]["cycles"]
            < by_label["permutation/naive"]["cycles"]),
    }
    criteria["pass"] = (
        speedup >= MIN_SPEEDUP
        and len(LATENCIES) >= criteria["min_sweep_points"]
        and criteria["replay_cycles_identical"]
        and criteria["cf_zero_excess"]
        and criteria["cf_transaction_parity"]
        and criteria["cf_beats_naive"]
    )
    record = {
        "bench": "conflict_free",
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
        "rows": replay_rows + variant_rows,
        "metrics": {
            "replay_vs_event_speedup": speedup,
            "sort_excess_slots_removed": naive["excess_slots"],
        },
        "criteria": criteria,
    }
    (ROOT / "BENCH_conflict_free.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert criteria["pass"], json.dumps(criteria, indent=2)


def test_speed_cf_replay_warm_point(benchmark, tmp_path):
    """pytest-benchmark row: one warm replay re-pricing of the cf sort."""
    _isolated_store(tmp_path)
    for _ in range(2):  # the second capture stores the trace
        flat_cf_sort(_engine(2, "replay"), VALUES, NUM_THREADS)

    def run():
        return flat_cf_sort(_engine(77, "replay"), VALUES, NUM_THREADS)[1]

    report = benchmark(run)
    assert report.engine == "replay"
