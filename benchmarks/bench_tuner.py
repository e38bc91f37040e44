"""Autotuner on the conflicted transpose: finds +1 padding, fast.

The acceptance demo for ``repro.tuner``: a tiled HMM transpose whose
shared tile is addressed at natural stride ``w`` (every transposed
write a full ``w``-way bank conflict).  The tuner must

* discover the classic fix — ``pad=1`` (or an equivalent skew) — and
  drive the modeled DMM slot count down to the conflict-free count,
* recover at least 90% of the analytic optimum (the hand-written
  conflict-free layout's cost), and
* do the same search at least 5x faster replay-backed than
  event-backed: replay captures one trace per layout and re-prices the
  remaining latency points from it, the event engine re-executes every
  point.

Artifacts:

* ``benchmarks/out/tuner.txt`` — human-readable comparison;
* ``BENCH_tuner.json`` (repo root) — machine-readable record with the
  pass/fail criteria (baseline vs tuned units, search wall-clock).
"""

import os
import time

import pytest

from _util import emit, format_rows, write_bench_json
from repro.machine.replay import reset_default_store
from repro.tuner import tune
from repro.tuner.demos import run_config


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


#: Big enough that one event-mode costing is real work (36 tiles), and
#: a 12-point latency grid so replay's capture-once pays off.
SHAPE = {"w": 8, "d": 4, "m": 48}
LATENCIES = tuple(range(2, 26, 2))

MIN_RECOVERY = 0.9
MIN_SPEEDUP = 5.0


def _isolated_store(tmpdir):
    os.environ["REPRO_STORE_TRACE_DIR"] = str(tmpdir)
    reset_default_store()


def _search(mode: str, tmp_path):
    """One full exhaustive search in ``mode``; returns (seconds, report).

    No result cache and a private trace store, so the two modes time
    exactly the same amount of fresh work.
    """
    _isolated_store(tmp_path / mode)
    t0 = time.perf_counter()
    report = tune("transpose", shape=SHAPE, latencies=LATENCIES,
                  mode=mode, cache=False, jobs=1)
    return time.perf_counter() - t0, report


def test_tuner_finds_padding(tmp_path):
    """The tuner lands on the conflict-free layout, replay-accelerated."""
    t_replay, rep_replay = _search("replay", tmp_path)
    t_event, rep_event = _search("event", tmp_path)

    # Same search, same answer, regardless of the costing engine.
    assert rep_replay.best.config == rep_event.best.config
    assert rep_replay.best.cost == rep_event.best.cost
    assert rep_replay.baseline.cost == rep_event.baseline.cost

    best = rep_replay.best
    baseline = rep_replay.baseline

    # The seeded conflict is real and the fix removes it entirely:
    # modeled DMM slots drop to the conflict-free count.
    assert baseline.extra["shared_excess_slots"] > 0
    assert best.extra["shared_excess_slots"] == 0
    # The classic +1-padding fix or an equivalent skew.
    assert best.config["pad"] == 1 or best.config["skew"] > 0

    # Analytic optimum: the hand-written conflict-free (+1 pad) layout.
    optimum = float(sum(
        run_config("transpose", {"pad": 1, "skew": 0}, SHAPE, l, "batch")[0]
        for l in LATENCIES))
    recovery = optimum / best.cost
    speedup = t_event / t_replay

    rows = [
        {
            "mode": mode,
            "search_s": round(seconds, 3),
            "evaluations": rep.evaluations,
            "baseline_units": rep.baseline.cost,
            "tuned_units": rep.best.cost,
            "best_config": rep.best.config,
            "certificate": rep.certificate,
            "equivalent": rep.equivalent,
        }
        for mode, seconds, rep in (
            ("replay", t_replay, rep_replay), ("event", t_event, rep_event))
    ]
    emit("tuner", format_rows(
        ["mode", "search s", "evals", "baseline", "tuned", "best", "cert"],
        [(r["mode"], r["search_s"], r["evaluations"],
          int(r["baseline_units"]), int(r["tuned_units"]),
          str(r["best_config"]), r["certificate"]) for r in rows],
    ))

    metrics = {
        "improvement": round(baseline.cost / best.cost, 3),
        "optimum_recovery": round(recovery, 4),
        "replay_vs_event_speedup": round(speedup, 2),
        "baseline_shared_excess_slots": baseline.extra["shared_excess_slots"],
        "tuned_shared_excess_slots": best.extra["shared_excess_slots"],
    }
    record = write_bench_json(
        "tuner",
        config={
            "shape": SHAPE,
            "latency_points": len(LATENCIES),
            "latency_range": [LATENCIES[0], LATENCIES[-1]],
            "strategy": "exhaustive",
        },
        rows=rows,
        metrics=metrics,
        criteria={
            "min_optimum_recovery": MIN_RECOVERY,
            "min_replay_vs_event_speedup": MIN_SPEEDUP,
            "pass": bool(
                recovery >= MIN_RECOVERY
                and speedup >= MIN_SPEEDUP
                and best.extra["shared_excess_slots"] == 0
                and rep_replay.equivalent and rep_event.equivalent
            ),
        },
    )
    assert record["criteria"]["pass"], (
        f"recovery {recovery:.2f} (need {MIN_RECOVERY}), replay speedup "
        f"{speedup:.1f}x (need {MIN_SPEEDUP}x)")


def test_speed_tune_replay(benchmark, tmp_path):
    """pytest-benchmark row: one warm replay-backed exhaustive search."""
    _isolated_store(tmp_path)
    small = {"w": 8, "d": 2, "m": 16}
    lats = (4, 16)
    for _ in range(2):  # a layout's trace is stored on its second capture
        tune("transpose", shape=small, latencies=lats, mode="replay",
             cache=False)

    def run():
        return tune("transpose", shape=small, latencies=lats,
                    mode="replay", cache=False)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.certificate == "conflict-free"
