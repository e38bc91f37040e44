"""One capture per latency sweep: Table I points priced along ``l``.

A ``/v1/sweep`` over ``l`` is one grouped measure: Table I inputs do not
depend on ``l``, so every latency of one shape launches on the same
memory pre-state, and under replay the first latency is captured and
the others re-price that trace.  These tests pin the three things that
rests on: grouped measures equal separate event launches; the race
certificate accepts the Table I launches at any latency and input and
refuses a racy one; and, for the launches replayed this way, no
cross-warp race lets the schedule change what memory ends up holding.
"""

import numpy as np
import pytest

from repro import DMM, HMM, UMM, HMMParams, MachineParams
from repro.analysis.terms import Params
from repro.core.kernels.hmm_conv import hmm_convolution
from repro.core.kernels.hmm_sum import hmm_sum
from repro.core.machines import run_flat_convolution, run_flat_sum
from repro.experiments.table1 import (
    conv_launch_report,
    conv_launch_reports,
    point_rng,
    sum_launch_report,
    sum_launch_reports,
)
from repro.machine.engine import MachineEngine
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import default_store, reset_default_store
from repro.machine.trace import TraceRecorder
from repro.service.oracle import CostOracle, evaluate_point, evaluate_points

from conftest import admit, assert_reports_equal

SEED = 7
LATS = (5, 2, 40, 300)
#: Small Table I-like shapes (grouped-measure equivalence).
SUM_Q = Params(n=256, p=32, w=8, l=1, d=2)
CONV_Q = Params(n=128, k=8, p=64, w=8, l=1, d=2)
LAUNCHES = {"sum": (SUM_Q, sum_launch_reports, sum_launch_report),
            "conv": (CONV_Q, conv_launch_reports, conv_launch_report)}


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """A private on-disk trace store and a fresh singleton per test."""
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_STORE_TRACE", raising=False)
    reset_default_store()
    yield
    reset_default_store()


def _grid(q: Params, lats=LATS) -> list[Params]:
    return [Params(n=q.n, k=q.k, p=q.p, w=q.w, l=l, d=q.d) for l in lats]


class TestGroupedMeasure:
    @pytest.mark.parametrize("mode", ["event", "batch", "replay"])
    @pytest.mark.parametrize("model", ["dmm", "umm", "hmm"])
    @pytest.mark.parametrize("kernel", ["sum", "conv"])
    def test_equals_separate_event_launches(self, kernel, model, mode):
        q, grouped, single = LAUNCHES[kernel]
        points = _grid(q)
        reports = grouped(points, model=model, seed=SEED, mode=mode)
        expected = [single(p, model=model, seed=SEED, mode="event")
                    for p in points]
        assert len(reports) == len(points)
        for want, got in zip(expected, reports):
            assert_reports_equal(want, got)
        tags = [r.engine for r in reports]
        if mode == "replay":
            assert tags == ["replay-capture"] + ["replay"] * (len(LATS) - 1)
        elif mode == "event":
            assert tags == ["event"] * len(LATS)
        else:
            assert set(tags) <= {"batch", "batch-fallback"}

    def test_replay_captures_once_per_group(self):
        sum_launch_reports(_grid(SUM_Q), model="hmm", seed=SEED,
                           mode="replay")
        stats = default_store().metrics["trace_store"]
        assert (stats["captures"], stats["hits"], stats["misses"]) == (1, 0, 1)

    @pytest.mark.parametrize("model", ["sequential", "pram"])
    def test_machine_free_models_measure_every_point(self, model):
        points = _grid(SUM_Q)
        reports = sum_launch_reports(points, model=model, seed=SEED)
        assert [r.cycles for r in reports] == [
            sum_launch_report(p, model=model, seed=SEED).cycles
            for p in points]

    def test_points_must_differ_only_in_latency(self):
        other = Params(n=SUM_Q.n, p=SUM_Q.p * 2, w=SUM_Q.w, l=3, d=SUM_Q.d)
        with pytest.raises(ValueError, match="only in l"):
            sum_launch_reports([SUM_Q, other], model="dmm", seed=SEED)

    def test_inputs_do_not_depend_on_latency(self):
        draws = {point_rng(SEED, "sum", p).normal(size=4).tobytes()
                 for p in _grid(SUM_Q)}
        assert len(draws) == 1
        other = Params(n=SUM_Q.n, p=SUM_Q.p * 2, w=SUM_Q.w, l=1, d=SUM_Q.d)
        assert point_rng(SEED, "sum", other).normal(size=4).tobytes() \
            not in draws


def _spec(l: int, **overrides) -> dict:
    spec = dict(kernel="sum", model="hmm", mode="replay", seed=SEED,
                n=SUM_Q.n, k=0, p=SUM_Q.p, w=SUM_Q.w, l=l, d=SUM_Q.d)
    return {**spec, **overrides}


class TestOracleMeasure:
    def test_evaluate_points_equals_evaluate_point(self):
        specs = [_spec(l) for l in LATS]
        grouped = evaluate_points(specs)
        assert [extra["engine"] for _, extra in grouped] == \
            ["replay-capture"] + ["replay"] * (len(LATS) - 1)
        for spec, (cycles, _) in zip(specs, grouped):
            assert evaluate_point({**spec, "mode": "event"}) == \
                (cycles, {"engine": "event"})

    def test_rejects_specs_that_differ_beyond_latency(self):
        with pytest.raises(ValueError, match="only in l"):
            evaluate_points([_spec(2), _spec(3, seed=SEED + 1)])

    def test_sweep_points_are_cached_under_the_served_keys(self, tmp_path):
        oracle = CostOracle(cache_dir=tmp_path / "sweep")
        try:
            specs = [_spec(l) for l in LATS]
            body = oracle.run_sweep(
                {k: specs[0][k] for k in ("kernel", "model", "mode", "seed")},
                specs)
            assert [p["engine"] for p in body["points"]] == \
                ["replay-capture"] + ["replay"] * (len(LATS) - 1)
            # One lookup for the whole sweep: the other latencies are
            # re-priced, not looked up again.
            stats = default_store().metrics["trace_store"]
            assert (stats["misses"], stats["hits"]) == (1, 0)
            namespace = oracle.store_namespaces()["sweep"]
            for spec, (_, key) in zip(specs,
                                      oracle.spec_store_keys(specs)):
                assert namespace.contains(key)
                cached = oracle.cached_cost(spec)
                assert cached["cycles"] == next(
                    p["cycles"] for p in body["points"]
                    if p["params"]["l"] == spec["l"])
        finally:
            oracle.close()


def _sneaky_launch(latency: int, fill: np.ndarray):
    """A value-indexed writer: racy exactly when two warps' values
    point at one cell."""
    eng = MachineEngine(MachineParams(width=4, latency=latency),
                        DMMBankPolicy(), name="dmm", mode="replay")
    a = eng.array_from(fill, "a")
    out = eng.alloc(16, "out")

    def sneaky(warp):
        vals = yield warp.read(a, warp.tids)
        yield warp.write(out, np.clip(vals.astype(np.int64), 0, 15), 1.0)

    return eng.launch(sneaky, 8)


class TestSelfCheckAcrossLatency:
    """The race certificate decides per launch, whatever the latency."""

    def test_hmm_sum_at_two_latencies_and_seeds_is_not_flagged(self):
        q = Params(n=4096, p=256, w=16, l=1, d=8)
        for seed, l in ((1, 2), (2, 300)):
            report, = sum_launch_reports(_grid(q, (l,)), model="hmm",
                                         seed=seed, mode="replay")
            assert report.engine == "replay-capture"
        stats = default_store().metrics["trace_store"]
        assert stats["flagged_programs"] == 0
        assert stats["captures"] == 2
        # A third input re-prices from its own capture, still unflagged.
        reports = sum_launch_reports(_grid(q, (16, 2)), model="hmm", seed=3,
                                     mode="replay")
        assert [r.engine for r in reports] == ["replay-capture", "replay"]
        assert default_store().metrics["trace_store.flagged_programs"] == 0

    def test_value_indexed_program_is_still_flagged(self):
        """On zeros every warp writes ``out[0]``: refused at each
        latency, and nothing stored.  On ``arange`` the same program is
        race-free: captured once, then replayed at another latency."""
        assert _sneaky_launch(2, np.zeros(16)).engine == "replay-refused"
        assert _sneaky_launch(300, np.zeros(16)).engine == "replay-refused"
        assert default_store().metrics["trace_store.flagged_programs"] == 2
        ramp = np.arange(16, dtype=float)
        admit(lambda: _sneaky_launch(2, ramp))
        assert _sneaky_launch(2, ramp).engine == "replay-capture"
        assert _sneaky_launch(300, ramp).engine == "replay"
        stats = default_store().metrics["trace_store"]
        assert stats["flagged_programs"] == 2 and stats["captures"] == 2


# ---------------------------------------------------------------------------
# The premise of re-pricing along l, for the launches replayed this way.
# ---------------------------------------------------------------------------

#: Two Table I shapes per kernel (``SUM_GRID`` / ``CONV_GRID``, w=16, d=8).
SUM_SHAPES = [Params(n=1024, p=64, w=16, l=1, d=8),
              Params(n=4096, p=256, w=16, l=1, d=8)]
CONV_SHAPES = [Params(n=512, k=8, p=128, w=16, l=1, d=8),
               Params(n=512, k=8, p=512, w=16, l=1, d=8)]


def _engine(model: str, q: Params, latency: int):
    if model == "hmm":
        return HMM(HMMParams(num_dmms=q.d, width=q.w,
                             global_latency=latency)).engine()
    machine = DMM if model == "dmm" else UMM
    return machine(MachineParams(width=q.w, latency=latency)).engine()


def _launch(kernel: str, model: str, q: Params, latency: int, trace=None):
    """One event launch of a Table I point; returns the engine."""
    engine = _engine(model, q, latency)
    rng = point_rng(SEED, kernel, q)
    if kernel == "sum":
        run = hmm_sum if model == "hmm" else run_flat_sum
        run(engine, rng.normal(size=q.n), q.p, trace=trace)
    else:
        run = hmm_convolution if model == "hmm" else run_flat_convolution
        x = rng.normal(size=q.k)
        run(engine, x, rng.normal(size=q.n + q.k - 1), q.p, trace=trace)
    return engine


@pytest.mark.parametrize("model", ["dmm", "umm", "hmm"])
@pytest.mark.parametrize("kernel, q", [
    *(("sum", q) for q in SUM_SHAPES), *(("conv", q) for q in CONV_SHAPES)])
def test_race_free_and_latency_independent_memory(kernel, q, model):
    recorder = TraceRecorder()
    low = _launch(kernel, model, q, 2, trace=recorder)
    assert recorder.records
    assert recorder.detect_races() == []
    high = _launch(kernel, model, q, 300)
    assert [s.name for s in low.spaces] == [s.name for s in high.spaces]
    for a, b in zip(low.spaces, high.spaces):
        np.testing.assert_array_equal(a.state(), b.state())
