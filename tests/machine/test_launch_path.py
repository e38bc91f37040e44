"""One launch path: every evaluator outcome on both engines.

``MachineEngine`` and ``HMMEngine`` launch through one function, which
picks the evaluator (event, batch, batch fallback, replay capture, hit
or refusal).  Whatever it picks, the report carries the matching engine
tag and the event run's numbers, and memory ends in the event run's
image.  The tests also pin the shared rollback guard: an abandoned
attempt leaves no stores behind and no undo log open; the replay
capture, which runs no scheduler and hands every failure (a race, the
capture cap, a deadlock, a bad address) back to the event run; and
:func:`reprice`: a replayed launch priced at another latency equals a
launch at that latency, and touches neither memory nor units.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from repro.errors import (
    AddressError,
    ConfigurationError,
    DeadlockError,
    KernelError,
    SpaceMismatchError,
)
from repro.machine import replay as replay_mod
from repro.machine.engine import reprice
from repro.machine.replay import (
    CompiledTrace,
    TraceCompiler,
    default_store,
    reset_default_store,
)
from repro.machine.scheduler import Scheduler
from repro.machine.trace import TraceRecorder

from conftest import admit, assert_reports_equal, make_dmm, make_hmm

NUM_THREADS = 16
#: ``b`` cells past the launch's threads, which no program touches.
UNTOUCHED = 8
RNG = np.random.default_rng(20130520)
A = RNG.standard_normal(NUM_THREADS)
#: ``b[:NUM_THREADS]`` after one ``_accumulate`` launch (pre-launch -5).
B_AFTER = -5.0 + A + 1.0


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_STORE_TRACE", raising=False)
    reset_default_store()
    yield
    reset_default_store()


def _accumulate(a, b, scratch):
    """``b[t] += a[t] + 1``, staged through shared memory on an HMM.

    Read-modify-write: stores an abandoned attempt failed to undo would
    be applied twice.
    """

    def prog(warp):
        vals = yield warp.read(a, warp.tids)
        if scratch is not None:
            s = scratch[warp.dmm_id]
            yield warp.write(s, warp.local_tids, vals)
            vals = yield warp.read(s, warp.local_tids)
        old = yield warp.read(b, warp.tids)
        yield warp.write(b, warp.tids, old + vals + 1.0)

    return prog


def _early_exit(a, b, scratch):
    """The other warps exit without the barrier warp 0 waits at: the
    schedule the batch engine refuses (see ``test_batch_equivalence.py``)."""

    def prog(warp):
        if warp.warp_id == 0:
            yield warp.barrier()
            vals = yield warp.read(a, warp.lanes)
            yield warp.write(b, warp.lanes, vals + 100.0)
        else:
            vals = yield warp.read(a, warp.lanes)
            yield warp.write(b, warp.lanes + 4, vals + 1.0)
            yield warp.read(b, warp.lanes + 4)

    return prog


def _early_exit_accumulate(a, b, scratch):
    """The early-exit schedule with ``_accumulate``'s read-modify-write
    stores on the exiting warps: a leaked batch store shows twice."""

    def prog(warp):
        if warp.warp_id == 0:
            yield warp.barrier()
            vals = yield warp.read(a, warp.lanes)
            yield warp.write(b, warp.lanes, vals + 100.0)
        else:
            vals = yield warp.read(a, warp.tids)
            old = yield warp.read(b, warp.tids)
            yield warp.write(b, warp.tids, old + vals + 1.0)

    return prog


def _racy(a, b, scratch):
    """Every warp read-modify-writes ``b``'s first lanes with no barrier
    in between: which warp's store lands last is up to the schedule."""

    def prog(warp):
        vals = yield warp.read(a, warp.tids)
        old = yield warp.read(b, warp.lanes)
        yield warp.write(b, warp.lanes, old + vals)

    return prog


def _mixed_barriers(a, b, scratch):
    """Warp 0 waits at a DMM barrier while the others wait at a device
    barrier: neither can ever be released."""

    def prog(warp):
        old = yield warp.read(b, warp.tids)
        yield warp.write(b, warp.tids, old + 1.0)
        yield warp.sync_dmm() if warp.warp_id == 0 else warp.barrier()

    return prog


def _bad_address(a, b, scratch):
    """Warp 1 reads past ``a`` after its read-modify-write of ``b``; the
    capture has run warps 0 and 1 to completion by then, the event run
    every warp's write."""

    def prog(warp):
        old = yield warp.read(b, warp.tids)
        yield warp.write(b, warp.tids, old + 1.0)
        if warp.warp_id == 1:
            yield warp.read(a, warp.tids + len(a))

    return prog


def _foreign_space(a, b, scratch):
    """Each warp then reads memory it cannot see: the other DMM's shared
    memory on an HMM, another machine's array on a flat one."""
    foreign = make_dmm().alloc(NUM_THREADS) if scratch is None else None

    def prog(warp):
        old = yield warp.read(b, warp.tids)
        yield warp.write(b, warp.tids, old + 1.0)
        array = scratch[1 - warp.dmm_id] if foreign is None else foreign
        yield warp.read(array, warp.local_tids)

    return prog


def _ranges(a, b, scratch):
    """Per warp: one read, then a fused read of 3 rounds and a fused
    write of 2 rounds to the same cells (the later round's value must
    land); 6 transactions per warp."""

    def prog(warp):
        yield warp.read(a, warp.tids)
        rows = np.vstack([warp.tids] * 3)
        vals = yield warp.read_range(a, rows, compute=2)
        yield warp.write_range(b, rows[:2], vals[:2] + [[1.0], [2.0]])

    return prog


def _build(kind, mode, latency=5):
    """A fresh engine with ``a``, a padded ``b`` and (HMM) shared scratch;
    ``latency`` is the flat unit's or the HMM global unit's."""
    b_init = np.full(NUM_THREADS + UNTOUCHED, -5.0)
    if kind == "flat":
        eng = make_dmm(mode=mode, latency=latency)
        return eng, eng.array_from(A, "a"), eng.array_from(b_init, "b"), None
    eng = make_hmm(mode=mode, global_latency=latency)
    a = eng.global_from(A, "a")
    b = eng.global_from(b_init, "b")
    return eng, a, b, eng.alloc_shared_all(NUM_THREADS, "s")


class Launch(NamedTuple):
    report: object
    #: ``b`` after the launch.
    b: np.ndarray
    #: Every memory space's cells after the launch.
    images: list


def _launch(kind, mode, make_prog=_accumulate, *, trace=None,
            latency=5, engine_out=None):
    """Launch ``make_prog``'s program on a fresh engine (appended to
    ``engine_out`` when given)."""
    eng, a, b, scratch = _build(kind, mode, latency)
    prog = make_prog(a, b, scratch)
    report = eng.launch(prog, NUM_THREADS, trace=trace)
    if engine_out is not None:
        engine_out.append(eng)
    return Launch(report, b.to_numpy(), [space.state() for space in eng.spaces])


def _assert_matches(expected: Launch, actual: Launch, tag: str) -> None:
    assert actual.report.engine == tag
    assert_reports_equal(expected.report, actual.report)
    assert len(actual.images) == len(expected.images)
    for want, got in zip(expected.images, actual.images):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["flat", "hmm"])
class TestLaunchOutcomes:
    """Each outcome equals the event run: tag, numbers, memory image."""

    def test_event(self, kind):
        run = _launch(kind, "event")
        assert run.report.engine == "event"
        np.testing.assert_array_equal(run.b[:NUM_THREADS], B_AFTER)
        if kind == "hmm":
            assert "shared[0]" in run.report.unit_stats

    def test_batch(self, kind):
        _assert_matches(_launch(kind, "event"), _launch(kind, "batch"),
                        "batch")

    @pytest.mark.parametrize("make_prog", [_early_exit, _early_exit_accumulate])
    def test_batch_fallback(self, kind, make_prog):
        _assert_matches(_launch(kind, "event", make_prog),
                        _launch(kind, "batch", make_prog),
                        "batch-fallback")

    def test_replay_capture_then_hit(self, kind):
        expected = _launch(kind, "event")
        admit(lambda: _launch(kind, "replay"))
        _assert_matches(expected, _launch(kind, "replay"), "replay-capture")
        _assert_matches(expected, _launch(kind, "replay"), "replay")
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 2 and stats["hits"] == 1

    def test_refusal(self, kind, monkeypatch):
        """A racy capture rolls back; the launch runs on the event
        scheduler once."""
        runs = []
        real_run = Scheduler.run

        def counted_run(self, warps):
            runs.append(len(warps))
            return real_run(self, warps)

        monkeypatch.setattr(Scheduler, "run", counted_run)
        expected = _launch(kind, "event", _racy)
        _assert_matches(expected, _launch(kind, "replay", _racy),
                        "replay-refused")
        assert len(runs) == 2  # the event launch and the refused one
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] == stats["flagged_programs"] == 1
        assert stats["captures"] == stats["entries_disk"] == 0

    def test_capture_overflow(self, kind, monkeypatch):
        expected = _launch(kind, "event")
        # Overflow on the last transaction, after other warps' stores.
        limit = expected.report.total_transactions() - 1
        monkeypatch.setattr(replay_mod, "_CAPTURE_LIMIT", limit)
        actual = _launch(kind, "replay")
        _assert_matches(expected, actual, "replay-refused")
        # The abandoned capture's stores were undone, not applied twice;
        # cells the program never touched keep their pre-launch values.
        np.testing.assert_array_equal(actual.b[:NUM_THREADS], B_AFTER)
        np.testing.assert_array_equal(actual.b[NUM_THREADS:],
                                      np.full(UNTOUCHED, -5.0))
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] == 1 and stats["captures"] == 0

    def test_recorder_in_replay_mode(self, kind):
        recorder = TraceRecorder()
        _assert_matches(_launch(kind, "event"),
                        _launch(kind, "replay", trace=recorder), "event")
        assert recorder.records
        assert default_store().metrics["trace_store.captures"] == 0


@pytest.fixture
def scheduler_runs(monkeypatch):
    """Every ``Scheduler.run`` from here on, as the launching engine's
    memory images at the run's start."""
    runs = []
    real_run = Scheduler.run

    def recorded_run(self, warps):
        engine = self._unit_for.__self__
        runs.append([space.state() for space in engine.spaces])
        return real_run(self, warps)

    monkeypatch.setattr(Scheduler, "run", recorded_run)
    return runs


@pytest.mark.parametrize("kind", ["flat", "hmm"])
class TestSchedulerFreeCapture:
    """A replay capture steps the warps without the event scheduler.
    A race-free one runs no ``Scheduler.run``; every other outcome rolls
    the capture back and runs the launch on the event scheduler once,
    so it ends exactly as an event launch does: same report, or same
    error, and the same memory image."""

    def test_race_free_capture_runs_no_scheduler(self, kind, scheduler_runs):
        expected = _launch(kind, "event")
        del scheduler_runs[:]
        _assert_matches(expected, _launch(kind, "replay"), "replay-capture")
        assert scheduler_runs == []

    def test_racy_capture_rolls_back_before_its_one_event_run(
        self, kind, scheduler_runs
    ):
        expected = _launch(kind, "event", _racy)
        eng, a, b, scratch = _build(kind, "replay")
        before = [space.state() for space in eng.spaces]
        del scheduler_runs[:]
        report = eng.launch(_racy(a, b, scratch), NUM_THREADS)
        assert report.engine == "replay-refused"
        assert_reports_equal(expected.report, report)
        assert len(scheduler_runs) == 1
        for want, got in zip(before, scheduler_runs[0]):
            np.testing.assert_array_equal(got, want)
        for want, space in zip(expected.images, eng.spaces):
            np.testing.assert_array_equal(space.state(), want)

    @pytest.mark.parametrize("make_prog, error", [
        (_mixed_barriers, DeadlockError),
        (_bad_address, AddressError),
        (_foreign_space, SpaceMismatchError),
    ], ids=["deadlock", "address", "space-mismatch"])
    def test_error_is_the_event_runs(self, kind, make_prog, error,
                                     scheduler_runs):
        ends = {}
        for mode in ("event", "replay"):
            eng, a, b, scratch = _build(kind, mode)
            with pytest.raises(error) as caught:
                eng.launch(make_prog(a, b, scratch), NUM_THREADS)
            assert all(space._undo is None for space in eng.spaces)
            # Every warp's read-modify-write of ``b`` landed once.
            np.testing.assert_array_equal(b.to_numpy()[:NUM_THREADS],
                                          np.full(NUM_THREADS, -4.0))
            ends[mode] = (str(caught.value),
                          [space.state() for space in eng.spaces])
        assert ends["replay"][0] == ends["event"][0]
        for want, got in zip(ends["event"][1], ends["replay"][1]):
            np.testing.assert_array_equal(got, want)
        assert len(scheduler_runs) == 2
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == stats["flagged_programs"] == 0

    @pytest.mark.parametrize("owner, name", [
        (CompiledTrace, "race_free"),
        (TraceCompiler, "compile"),
    ], ids=["race_free", "compile"])
    def test_defect_in_the_capture_propagates(self, kind, owner, name,
                                              monkeypatch, scheduler_runs):
        """An error of the capture's own code, past the warps' steps,
        is a defect: the launch raises it, no refusal is counted and no
        event run hides it."""

        def broken(*args, **kwargs):
            raise IndexError("defect")

        monkeypatch.setattr(owner, name, broken)
        eng, a, b, scratch = _build(kind, "replay")
        with pytest.raises(IndexError, match="defect"):
            eng.launch(_accumulate(a, b, scratch), NUM_THREADS)
        assert scheduler_runs == []
        assert all(space._undo is None for space in eng.spaces)
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] == stats["captures"] == 0

    def test_capture_cap_inside_a_fused_range(self, kind, monkeypatch):
        """The cap falls inside warp 3's fused write: a cap of exactly
        the launch's transactions captures, one fewer refuses."""
        expected = _launch(kind, "event", _ranges)
        total = expected.report.total_transactions()
        assert total == 6 * NUM_THREADS // 4
        for limit, tag in ((total - 1, "replay-refused"),
                           (total, "replay-capture")):
            monkeypatch.setattr(replay_mod, "_CAPTURE_LIMIT", limit)
            reset_default_store()
            _assert_matches(expected, _launch(kind, "replay", _ranges), tag)
            stats = default_store().metrics["trace_store"]
            assert stats["captures"] == (tag == "replay-capture")
            assert stats["refusals"] == (tag == "replay-refused")


@pytest.mark.parametrize("kind", ["flat", "hmm"])
@pytest.mark.parametrize("mode", ["batch", "replay"])
def test_failed_attempt_closes_undo_log(kind, mode):
    """A kernel error inside a batch attempt or a capture propagates and
    leaves no space logging its stores."""
    eng, a, b, _ = _build(kind, mode)

    def failing(warp):
        yield warp.write(b, warp.tids, 1.0)
        raise KernelError("boom")

    with pytest.raises(KernelError, match="boom"):
        eng.launch(failing, NUM_THREADS)
    assert all(space._undo is None for space in eng.spaces)


@pytest.mark.parametrize("kind", ["flat", "hmm"])
class TestReprice:
    """``reprice`` prices the last replayed launch's trace at another
    latency of the first unit (the flat unit, the HMM global unit)."""

    @pytest.mark.parametrize("first", ["replay-capture", "replay"])
    def test_equals_a_launch_at_that_latency(self, kind, first):
        if first == "replay":
            admit(lambda: _launch(kind, "replay"))
            _launch(kind, "replay")  # stores the trace the next one hits
        engines = []
        assert _launch(kind, "replay",
                       engine_out=engines).report.engine == first
        for latency in (1, 5, 9, 40):
            expected = _launch(kind, "event", latency=latency).report
            report = reprice(engines[0], latency)
            assert report.engine == "replay"
            assert_reports_equal(expected, report)
            assert report.label == expected.label
        # One lookup (the hit) or none (the capture); reprice adds none.
        stats = default_store().metrics["trace_store"]
        assert stats["hits"] == (1 if first == "replay" else 0)

    @pytest.mark.parametrize("first", ["replay-capture", "replay"])
    def test_touches_no_memory_and_no_unit(self, kind, first):
        if first == "replay":
            _launch(kind, "replay")
        engines = []
        _launch(kind, "replay", engine_out=engines)
        eng = engines[0]
        images = [space.state() for space in eng.spaces]
        units = [(u.latency, dataclasses.replace(u.stats)) for u in eng.units]
        for latency in (2, 64):
            reprice(eng, latency)
        for space, image in zip(eng.spaces, images):
            np.testing.assert_array_equal(space.state(), image)
        assert [(u.latency, u.stats) for u in eng.units] == units

    @pytest.mark.parametrize("mode, kwargs", [
        ("event", {}),
        ("batch", {}),
        ("batch", {"make_prog": _early_exit}),
        ("replay", {"make_prog": _racy}),
        ("replay", {"trace": "recorder"}),
    ], ids=["event", "batch", "batch-fallback", "refused", "recorder"])
    def test_none_after_a_launch_without_a_trace(self, kind, mode, kwargs):
        if kwargs.get("trace") == "recorder":
            kwargs = {"trace": TraceRecorder()}
        engines = []
        _launch(kind, mode, engine_out=engines, **kwargs)
        assert reprice(engines[0], 9) is None

    def test_none_after_an_overflowed_capture(self, kind, monkeypatch):
        limit = _launch(kind, "event").report.total_transactions() - 1
        monkeypatch.setattr(replay_mod, "_CAPTURE_LIMIT", limit)
        engines = []
        run = _launch(kind, "replay", engine_out=engines)
        assert run.report.engine == "replay-refused"
        assert reprice(engines[0], 9) is None

    def test_none_after_a_rejected_capture(self, kind):
        """A racy capture is not stored, so nothing is left to price."""
        engines = []
        run = _launch(kind, "replay", _racy, engine_out=engines)
        assert run.report.engine == "replay-refused"
        assert default_store().metrics["trace_store.flagged_programs"] == 1
        assert reprice(engines[0], 9) is None

    def test_a_new_launch_forgets_the_last_trace(self, kind):
        engines = []
        _launch(kind, "replay", engine_out=engines)
        eng, a, b, scratch = _build(kind, "replay")
        eng.launch(_accumulate(a, b, scratch), NUM_THREADS)
        assert reprice(eng, 9) is not None
        eng.launch(_accumulate(a, b, scratch), NUM_THREADS, mode="event")
        assert reprice(eng, 9) is None

    def test_rejects_latency_below_one(self, kind):
        engines = []
        _launch(kind, "replay", engine_out=engines)
        with pytest.raises(ConfigurationError, match="latency"):
            reprice(engines[0], 0)
