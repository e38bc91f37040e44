"""Replay eligibility is decided per launch, by the capture's race
certificate.

No list of kernel modules decides whether a launch may replay.  Every
keyable program is eligible; its capture is stored only when
:meth:`~repro.machine.replay.CompiledTrace.race_free` holds, and a racy
capture rolls back and the launch runs on the event scheduler, tagged
``"replay-refused"``.  So the
data-dependent kernels (sort, merge, histogram, compaction, SpMV,
gather, permutation, BFS) replay wherever their launch is race-free,
bit-identical to the event engine, and the conflict-free suite keeps
replaying as before.
"""

import numpy as np
import pytest

from repro.analysis.certify import certify_launch
from repro.core.kernels.bfs import hmm_bfs
from repro.core.kernels.compaction import hmm_compact
from repro.core.kernels.conflict_free import (
    cf_bitonic_merge_kernel,
    cf_bitonic_sort_kernel,
    flat_cf_permutation,
    flat_cf_sort,
    oblivious_permutation_kernel,
)
from repro.core.kernels.histogram import hmm_histogram, hmm_histogram_racy
from repro.core.kernels.merge import flat_merge, hmm_merge
from repro.core.kernels.permutation import (
    naive_permutation_schedule,
    permutation_kernel,
)
from repro.core.kernels.sorting import flat_bitonic_sort, hmm_bitonic_sort
from repro.core.kernels.spmv import flat_spmv, hmm_spmv
from repro.machine import engine as engine_mod
from repro.machine.engine import make_warp_contexts
from repro.machine.replay import (
    default_store,
    derive_launch_key,
    reset_default_store,
)
from repro.machine.scheduler import Scheduler
from repro.tuner.datadep import gather_kernel

from conftest import admit, assert_reports_equal, make_dmm, make_hmm


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture
def reports(monkeypatch):
    """Every launch report built from here on, in launch order."""
    seen = []
    real = engine_mod._report

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        seen.append(report)
        return report

    monkeypatch.setattr(engine_mod, "_report", recording)
    return seen


class TestRegistryPin:
    """No list pins eligibility: a program that can be keyed may
    replay, and its capture's certificate decides."""

    def test_conflict_free_programs_eligible(self):
        eng = make_dmm()
        a = eng.alloc(8, "a")
        b = eng.alloc(8, "b")
        perm = np.arange(8, dtype=np.int64)
        sched = perm.reshape(2, 4)
        for program in (
            cf_bitonic_sort_kernel(a, 8),
            cf_bitonic_merge_kernel(a, 4),
            oblivious_permutation_kernel(a, b, perm, sched),
        ):
            key = derive_launch_key(
                program, machine="flat", width=4,
                contexts=make_warp_contexts(8, 4), spaces=[eng.space],
                fingerprint="test")
            assert key is not None and len(key) == 64, program


class TestReplayBehavior:
    def test_cf_sort_captures_then_replays(self, rng):
        vals = rng.normal(size=64)
        cycles = {}
        admit(lambda: flat_cf_sort(make_dmm(width=8, latency=3,
                                            mode="replay"), vals, 16))
        for l in (3, 17):
            eng = make_dmm(width=8, latency=l, mode="replay")
            out, report = flat_cf_sort(eng, vals, 16)
            assert np.allclose(out, np.sort(vals))
            assert report.engine in ("replay-capture", "replay")
            cycles[l] = report.cycles
            # Event-mode ground truth at the same latency.
            _, event = flat_cf_sort(make_dmm(width=8, latency=l), vals, 16)
            assert report.cycles == event.cycles
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 2
        assert stats["hits"] >= 1
        assert stats["refusals"] == 0

    def test_cf_permutation_schedule_lives_in_the_key(self, rng):
        """Both schedules of the same permutation replay separately:
        the round schedule is launch-closure data, so each layout gets
        its own trace."""
        n, w = 64, 8
        vals = rng.normal(size=n)
        perm = rng.permutation(n).astype(np.int64)
        for schedule in ("naive", "conflict-free"):
            admit(lambda: flat_cf_permutation(
                make_dmm(width=w, latency=5, mode="replay"), vals, perm, 16,
                schedule=schedule))
            for _ in range(2):
                eng = make_dmm(width=w, latency=5, mode="replay")
                out, report = flat_cf_permutation(eng, vals, perm, 16,
                                                  schedule=schedule)
                assert np.allclose(out[perm], vals)
                assert report.engine in ("replay-capture", "replay")
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 4  # two per schedule
        assert stats["hits"] == 2
        assert stats["refusals"] == 0

    def test_naive_kernels_replay_equal_to_event(self, rng):
        """The naive sort and merge schedule from the data, yet each
        launch is race-free: it captures, then hits at a new latency."""
        vals = rng.normal(size=64)
        a = np.sort(rng.normal(size=48))
        b = np.sort(rng.normal(size=16))
        runs = (
            (lambda eng: flat_bitonic_sort(eng, vals, 16), np.sort(vals)),
            (lambda eng: flat_merge(eng, a, b, 16),
             np.sort(np.concatenate([a, b]))),
        )
        for run, want in runs:
            admit(lambda: run(make_dmm(width=8, latency=5, mode="replay")))
            for l, tag in ((5, "replay-capture"), (23, "replay")):
                out, report = run(make_dmm(width=8, latency=l, mode="replay"))
                _, event = run(make_dmm(width=8, latency=l))
                np.testing.assert_array_equal(out, want)
                assert report.engine == tag
                assert_reports_equal(event, report)
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 4 and stats["hits"] == 2
        assert stats["refusals"] == stats["flagged_programs"] == 0

    def test_registry_presumption_backed_by_certificate(self):
        """The conflict-free sort replays per launch; the cross-input
        certificate pass also proves it oblivious from the recorded
        transactions, so one trace serves every input."""

        def run(rng, trace):
            flat_cf_sort(make_dmm(width=8), rng.standard_normal(64), 16,
                         trace=trace)

        assert certify_launch(run, width=8).certified


# ---------------------------------------------------------------------------
# Per-launch cases: the kernels a module list used to refuse.
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(20130520)
VALS = RNG.standard_normal(64)
SORTED_A = np.sort(RNG.standard_normal(40))
SORTED_B = np.sort(RNG.standard_normal(24))
BINS = RNG.integers(0, 8, 64).astype(float)
KEEP = RNG.random(64) < 0.4
MATRIX = np.where(RNG.random((16, 16)) < 0.3, RNG.standard_normal((16, 16)), 0)
VECTOR = RNG.standard_normal(16)
PERM = RNG.permutation(64).astype(np.int64)
GRAPH = (RNG.random((24, 24)) < 0.12).astype(float)


def _gather(eng):
    idx = eng.array_from(PERM.astype(float), "idx")
    a = eng.array_from(VALS, "a")
    out = eng.alloc(64, "out")
    report = eng.launch(gather_kernel(idx, a, out, 64), 16)
    return out.to_numpy(), report


def _naive_permutation(eng):
    a = eng.array_from(VALS, "a")
    b = eng.alloc(64, "b")
    schedule = naive_permutation_schedule(PERM, eng.params.width)
    report = eng.launch(permutation_kernel(a, b, PERM, schedule), 16)
    return b.to_numpy(), report


#: name -> (machine, run(engine) -> output); every launch's report is
#: compared as recorded (compaction makes two launches).
KERNELS = {
    "flat-sort": ("flat", lambda e: flat_bitonic_sort(e, VALS, 16)[0]),
    "hmm-sort": ("hmm", lambda e: hmm_bitonic_sort(e, VALS, 32)[0]),
    "flat-merge": ("flat", lambda e: flat_merge(e, SORTED_A, SORTED_B, 16)[0]),
    "hmm-merge": ("hmm", lambda e: hmm_merge(e, SORTED_A, SORTED_B, 16)[0]),
    "histogram": ("hmm", lambda e: hmm_histogram(e, BINS, 8)[0]),
    "compaction": ("hmm", lambda e: hmm_compact(e, VALS, KEEP, 32)[0]),
    "flat-spmv": ("flat", lambda e: flat_spmv(e, MATRIX, VECTOR, 16)[0]),
    "hmm-spmv": ("hmm", lambda e: hmm_spmv(e, MATRIX, VECTOR, 16)[0]),
    "gather": ("flat", lambda e: _gather(e)[0]),
    "permutation": ("flat", lambda e: _naive_permutation(e)[0]),
}


def _engine(machine, mode, latency, dispatch):
    if machine == "flat":
        return make_dmm(width=4, latency=latency, mode=mode,
                        dispatch=dispatch)
    return make_hmm(num_dmms=2, width=4, global_latency=latency, mode=mode,
                    dispatch=dispatch)


def _launches(machine, run, mode, latency, dispatch, reports):
    """``(output, reports)`` of one run on a fresh engine."""
    first = len(reports)
    out = run(_engine(machine, mode, latency, dispatch))
    return out, reports[first:]


@pytest.mark.parametrize("dispatch", ["fifo", "round-robin"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_formerly_refused_kernels_replay_equal_to_event(name, dispatch,
                                                        reports):
    """Same output, cycles and every ``UnitStats`` as the event engine at
    two latencies; the second latency re-prices the stored traces."""
    machine, run = KERNELS[name]
    admit(lambda: _launches(machine, run, "replay", 3, dispatch, reports))
    for latency, tag in ((3, "replay-capture"), (33, "replay")):
        want, expected = _launches(machine, run, "event", latency, dispatch,
                                   reports)
        got, actual = _launches(machine, run, "replay", latency, dispatch,
                                reports)
        np.testing.assert_array_equal(got, want)
        assert len(actual) == len(expected) >= 1
        for e, a in zip(expected, actual):
            assert a.engine == tag, a.label
            assert_reports_equal(e, a)
    stats = default_store().metrics["trace_store"]
    assert stats["refusals"] == stats["flagged_programs"] == 0


@pytest.mark.parametrize("dispatch", ["fifo", "round-robin"])
def test_bfs_refuses_only_its_racy_expand_launches(dispatch, reports):
    """Several warps set one next-frontier flag in a BFS expand launch:
    a benign race the certificate still refuses.  Every launch, refused
    or replayed, equals the event run."""

    def bfs(mode, latency):
        first = len(reports)
        dist, cycles = hmm_bfs(
            lambda: make_hmm(num_dmms=2, width=4, global_latency=latency,
                             mode=mode, dispatch=dispatch),
            GRAPH, 0, 16)
        return dist, cycles, reports[first:]

    admit(lambda: bfs("replay", 3))
    for latency in (3, 33):
        want, want_cycles, expected = bfs("event", latency)
        got, cycles, actual = bfs("replay", latency)
        np.testing.assert_array_equal(got, want)
        assert cycles == want_cycles
        assert len(actual) == len(expected)
        for e, a in zip(expected, actual):
            assert_reports_equal(e, a)
        refused = {a.label for a in actual if a.engine == "replay-refused"}
        assert refused and all(x.startswith("bfs-expand-") for x in refused)
        assert any(a.engine == "replay" for a in actual) == (latency == 33)
    stats = default_store().metrics["trace_store"]
    assert stats["refusals"] == stats["flagged_programs"] == 3 * len(refused)


def test_racy_histogram_is_refused_in_one_run(monkeypatch):
    """A racy capture rolls back and the launch runs on the event
    scheduler once: refused, counted once, and nothing stored."""
    runs = []
    real_run = Scheduler.run

    def counted_run(self, warps):
        runs.append(len(warps))
        return real_run(self, warps)

    monkeypatch.setattr(Scheduler, "run", counted_run)

    def histogram(mode):
        eng = make_hmm(num_dmms=2, width=8, global_latency=4, mode=mode)
        return hmm_histogram_racy(eng, BINS, 8, 64)

    want, expected = histogram("event")
    got, report = histogram("replay")
    assert len(runs) == 2
    assert report.engine == "replay-refused"
    assert_reports_equal(expected, report)
    np.testing.assert_array_equal(got, want)
    stats = default_store().metrics["trace_store"]
    assert stats["refusals"] == stats["flagged_programs"] == 1
    assert stats["captures"] == stats["entries_disk"] == 0
