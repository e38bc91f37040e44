"""Self-tests of the benchmark code (not of the program under test).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import procstat  # noqa: E402
import reference  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from loadgen import Outcome  # noqa: E402


# -- request lists -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_request_list(name):
    _, warm_a, timed_a = workloads.build(name, 7, 10)
    _, warm_b, timed_b = workloads.build(name, 7, 10)
    assert [r.blob for r in warm_a + timed_a] == \
        [r.blob for r in warm_b + timed_b]
    _, _, other = workloads.build(name, 8, 10)
    assert [r.blob for r in other] != [r.blob for r in timed_a]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_run_has_enough_requests_for_p90(name):
    workload, _, timed = workloads.build(name, 1, 0.1)
    assert len(timed) >= report.min_samples(0.90)
    assert len(timed) % workload.quantum == 0


def test_cold_specs_are_distinct_and_cover_the_grid_evenly():
    _, warmup, timed = workloads.build("cost-cold", 3, 10)
    keys = [r.blob for r in warmup + timed]
    assert len(set(keys)) == len(keys)
    shapes = Counter(
        json.dumps({k: v for k, v in r.body.items() if k != "seed"},
                   sort_keys=True) for r in timed)
    assert len(shapes) == len(workloads.COLD_SHAPES)
    assert len(set(shapes.values())) == 1


def test_tune_latencies_never_repeat_within_a_run():
    _, warmup, timed = workloads.build("tune", 3, 10)
    lats = [l for r in warmup + timed for l in r.body["latencies"]]
    assert len(set(lats)) == len(lats)


# -- percentiles -------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert report.min_samples(0.90) == 100
    assert report.min_samples(0.50) == 20
    with pytest.raises(ValueError):
        report.percentile([1.0] * 99, 0.90)
    with pytest.raises(ValueError):
        report.percentile([1.0] * 19, 0.50)
    samples = [float(i) for i in range(1, 101)]
    assert report.percentile(samples, 0.90) == pytest.approx(90.1)
    assert report.percentile(samples, 0.50) == pytest.approx(50.5)


# -- /proc readers -----------------------------------------------------------

def _fake_proc(tmp_path, table):
    for pid, (ppid, utime, stime, cutime, cstime) in table.items():
        fields = ["S", str(ppid)] + ["0"] * 9 + [
            str(utime), str(stime), str(cutime), str(cstime)] + ["0"] * 5
        (tmp_path / str(pid)).mkdir()
        (tmp_path / str(pid) / "stat").write_text(
            f"{pid} (odd name) ) " + " ".join(fields) + "\n")
    (tmp_path / "self").mkdir()
    return tmp_path


def test_tree_cpu_sums_a_process_and_its_descendants(tmp_path):
    proc = _fake_proc(tmp_path, {
        100: (1, 50, 25, 10, 5),     # root: 90 ticks
        101: (100, 20, 0, 0, 0),     # child
        102: (101, 7, 3, 0, 0),      # grandchild
        200: (1, 1000, 1000, 0, 0),  # unrelated
    })
    ticks = 90 + 20 + 10
    assert procstat.tree_cpu_seconds(100, proc) == \
        pytest.approx(ticks / procstat.CLOCK_TICKS)
    with pytest.raises(ProcessLookupError):
        procstat.tree_cpu_seconds(999, proc)


def test_tree_cpu_delta_of_a_live_process_grows_with_work():
    before = procstat.tree_cpu_seconds(os.getpid())
    deadline = before + 0.05
    while procstat.tree_cpu_seconds(os.getpid()) < deadline:
        sum(i * i for i in range(10000))
    assert procstat.tree_cpu_seconds(os.getpid()) - before >= 0.05


def test_steal_ratio_is_a_share_of_the_total():
    assert procstat.steal_ratio((10, 1000), (30, 1200)) == pytest.approx(0.1)
    assert procstat.steal_ratio((10, 1000), (10, 1000)) == 0.0


# -- metric names ------------------------------------------------------------

def test_metric_names_and_counts_fit_the_contract():
    end_to_end = report.metric_table("end_to_end")
    per_layer = report.metric_table("per_layer")
    names = list(end_to_end) + list(per_layer)
    assert all(report.NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert len(end_to_end) <= 16
    assert len(per_layer) <= 128
    assert set(report.FIXED_COUNTS) <= set(per_layer)


def test_benchmark_json_names_the_coded_workloads():
    spec = report.spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fixed_counts_are_keyed_by_the_program_source(tmp_path):
    import run

    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.pyc").write_bytes(b"1")
    first = run._source_digest(tmp_path)
    (tmp_path / "__pycache__" / "a.pyc").write_bytes(b"2")
    assert run._source_digest(tmp_path) == first
    (tmp_path / "a.py").write_text("x = 2\n")
    assert run._source_digest(tmp_path) != first


# -- host speed --------------------------------------------------------------

def test_rescale_scales_only_the_busy_share():
    assert hostspeed.rescale(10.0, 1.0, 2.0) == pytest.approx(5.0)
    assert hostspeed.rescale(10.0, 0.0, 2.0) == pytest.approx(10.0)
    assert hostspeed.rescale(10.0, 0.5, 2.0) == pytest.approx(7.5)
    assert hostspeed.rescale(10.0, 1.3, 0.5) == pytest.approx(20.0)


def _speed(units_us):
    """One sample every 10 ms with the given unit CPU times (µs)."""
    ends = [i * 10_000_000 for i in range(len(units_us))]
    return hostspeed.Speed(ends, [round(u * 1e3) for u in units_us])


def test_speed_factor_is_the_local_median_over_the_reference():
    ref = hostspeed.REFERENCE_UNIT_US
    speed = _speed([ref] * 100 + [2 * ref] * 100)
    assert speed.factor(0, 200_000_000) == pytest.approx(1.0)
    assert speed.factor(1_500_000_000, 1_600_000_000) == pytest.approx(2.0)
    # Far past the last sample the nearest samples still answer.
    assert speed.factor(10**12, 10**12) == pytest.approx(2.0)
    # Half the window fast, half slow: twice as long at reference.
    assert 1.0 / speed.mean_inverse(0, 2_000_000_000) == \
        pytest.approx(4 / 3, rel=0.05)
    with pytest.raises(ValueError):
        hostspeed.Speed([1, 2], [3, 4])


def test_probe_process_samples_until_stopped(tmp_path):
    probe = hostspeed.Probe(None, tmp_path / "speed.bin")
    try:
        time.sleep(0.3)
    finally:
        probe.stop()
    speed = probe.samples()
    assert len(speed.ends) >= hostspeed.MIN_SAMPLES
    assert 0.1 < speed.factor(speed.ends[0], speed.ends[-1]) < 10


# -- correctness gate --------------------------------------------------------

def _answered(name, cycles_of):
    _, _, timed = workloads.build(name, 5, 0.1)
    outcomes = []
    for i, req in enumerate(timed):
        if req.path == "/v1/cost":
            body = {"cycles": cycles_of(reference._point_key(req.body)),
                    "engine": "batch"}
        else:
            lats = req.body["axes"]["l"]
            spec = {k: v for k, v in req.body.items() if k != "axes"}
            body = {"points": [
                {"params": {"l": l}, "engine": "replay-capture",
                 "cycles": cycles_of(reference._point_key(dict(spec, l=l)))}
                for l in lats]}
        outcomes.append(Outcome(i, 200, body, 0.001))
    return timed, outcomes


def _fake_cycles(key):
    return 1 + hash(key) % 1000


@pytest.mark.parametrize("name", ["cost-warm", "sweep-latency"])
def test_right_answers_pass_and_a_wrong_reference_fails_them(name):
    timed, outcomes = _answered(name, _fake_cycles)
    good = reference.check(timed, outcomes, _fake_cycles, 10**6, "s")
    assert not good.failed and good.checked == good.claims > 0
    bad = reference.check(timed, outcomes, lambda k: _fake_cycles(k) + 1,
                          10**6, "s")
    assert bad.failed == set(range(len(timed)))


def test_sampled_reference_is_seeded_and_bounded():
    timed, outcomes = _answered("sweep-latency", _fake_cycles)
    seen_a, seen_b = [], []
    reference.check(timed, outcomes, lambda k: seen_a.append(k) or
                    _fake_cycles(k), 25, "s")
    reference.check(timed, outcomes, lambda k: seen_b.append(k) or
                    _fake_cycles(k), 25, "s")
    assert len(seen_a) == 25 and seen_a == seen_b


def test_transport_errors_and_bad_statuses_count_as_failed():
    timed, outcomes = _answered("cost-warm", _fake_cycles)
    outcomes[0] = Outcome(0, 429, {"error": {}}, 0.001)
    outcomes[1] = Outcome(1, 0, None, 0.0, "connection lost")
    verdict = reference.check(timed, outcomes, _fake_cycles, 10**6, "s")
    assert verdict.failed == {0, 1}


# -- span reduction ----------------------------------------------------------

def test_self_time_subtracts_children_and_unattributed_is_the_gap():
    us = 1000
    raw = [
        spans.Span(1, 0, "http.read", 0, 10 * us, (7,), {}),
        spans.Span(2, 0, "protocol.parse", 10 * us, 12 * us, (7,), {}),
        spans.Span(3, 0, "oracle.run_sweep", 20 * us, 120 * us, (7,), {}),
        spans.Span(4, 3, "executor.run", 21 * us, 119 * us, (), {}),
        spans.Span(5, 4, "experiments.task", 30 * us, 110 * us, (), {}),
        spans.Span(6, 5, "event.run", 40 * us, 100 * us, (), {}),
        spans.Span(7, 0, "http.write", 125 * us, 130 * us, (7,), {}),
    ]
    out = spans.reduce(raw, (0, 200 * us), requests=1, points=4)
    assert out["service.oracle.self_us_per_req"] == pytest.approx(2.0)
    assert out["analysis.executor.key_us_per_point"] == pytest.approx(18 / 4)
    assert out["experiments.inputs_us_per_point"] == pytest.approx(20 / 4)
    assert out["machine.event.us_per_launch"] == pytest.approx(60.0)
    assert out["trace.server_us_per_req"] == pytest.approx(130.0)
    # Gaps 12..20 and 120..125 are covered by no span of the request.
    assert out["trace.unattributed_us_per_req"] == pytest.approx(13.0)
