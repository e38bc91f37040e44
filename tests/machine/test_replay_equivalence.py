"""Replay-mode equivalence: trace-compiled re-costing must be invisible.

``mode="replay"`` promises *bit-identical* results to the event engine:
same cycles, same per-unit statistics, same memory effects — whether
the launch was freshly captured (``engine == "replay-capture"``) or
re-costed from a stored trace (``engine == "replay"``).  These tests pin
that promise across flat and hierarchical machines, latencies, dispatch
policies, and partial warps, plus every refusal path: racy captures,
unkeyable programs and capture overflow.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import DMM, HMM, UMM, HMMParams, MachineParams
from repro.errors import TraceOverflowError
from repro.core.kernels.histogram import hmm_histogram_racy
from repro.machine import replay as replay_mod
from repro.machine.engine import MachineEngine
from repro.machine.memory import MemorySpace
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import (
    CompiledTrace,
    TraceCompiler,
    default_store,
    derive_launch_key,
    reset_default_store,
)
from repro.machine.trace import TraceRecorder
from repro.params import MachineParams as MP

from conftest import admit, assert_reports_equal

RNG = np.random.default_rng(20130520)
X256 = RNG.standard_normal(256)
X64 = RNG.standard_normal(64)


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """Every test gets a private on-disk store and a fresh singleton."""
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_STORE_TRACE", raising=False)
    reset_default_store()
    yield
    reset_default_store()


class TestFlatEquivalence:
    """Flat DMM/UMM: capture and warm hits match the event engine."""

    @pytest.mark.parametrize("machine_cls", [DMM, UMM])
    @pytest.mark.parametrize("kernel", ["sum", "prefix_sums"])
    def test_capture_then_hits_across_latencies(self, machine_cls, kernel):
        baselines = {}
        for latency in (2, 5, 17):
            m = machine_cls(MachineParams(width=4, latency=latency))
            baselines[latency] = getattr(m, kernel)(X256, 32)

        def launch(latency):
            m = machine_cls(MachineParams(width=4, latency=latency),
                            mode="replay")
            return getattr(m, kernel)(X256, 32)

        admit(lambda: launch(2))
        for i, latency in enumerate((2, 5, 17)):
            value, report = launch(latency)
            exp_value, exp_report = baselines[latency]
            np.testing.assert_array_equal(np.asarray(value),
                                          np.asarray(exp_value))
            assert_reports_equal(exp_report, report)
            assert report.engine == ("replay-capture" if i == 0 else "replay")
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 2
        assert stats["hits"] == 2
        assert stats["flagged_programs"] == 0

    def test_convolution_matches(self):
        admit(lambda: DMM(MachineParams(width=4, latency=3),
                          mode="replay").convolve(X64[:8], X256, 32))
        for latency in (3, 9):
            ev = DMM(MachineParams(width=4, latency=latency)).convolve(
                X64[:8], X256, 32)
            rp = DMM(MachineParams(width=4, latency=latency),
                     mode="replay").convolve(X64[:8], X256, 32)
            np.testing.assert_array_equal(ev[0], rp[0])
            assert_reports_equal(ev[1], rp[1])
        assert default_store().metrics["trace_store.captures"] == 2

    def test_partial_warp_round_robin_dispatch(self):
        """37 threads (ragged last warp) under round-robin dispatch."""
        def build(mode):
            eng = MachineEngine(MP(width=4, latency=5), DMMBankPolicy(),
                                name="dmm", dispatch="round-robin", mode=mode)
            a = eng.array_from(X64, "a")
            out = eng.alloc(64, "out")

            def prog(warp):
                vals = yield warp.read(a, warp.tids)
                yield warp.write(out, warp.tids, vals * 2.0)

            return eng, out, prog

        eng_e, out_e, prog_e = build("event")
        expected = eng_e.launch(prog_e, 37)
        for attempt in range(2):
            eng_r, out_r, prog_r = build("replay")
            report = eng_r.launch(prog_r, 37)
            assert_reports_equal(expected, report)
            np.testing.assert_array_equal(out_r.to_numpy(), out_e.to_numpy())

    def test_memory_effects_restored_on_hit(self):
        """A replayed (not re-executed) launch still lands its writes."""
        def launch():
            return DMM(MachineParams(width=4, latency=5),
                       mode="replay").sum(X256, 32)

        admit(launch)
        results = []
        for _ in range(2):
            value, report = launch()
            results.append((value, report.engine))
        assert results[0][0] == results[1][0]
        assert results[0][1] == "replay-capture"
        assert results[1][1] == "replay"

    def test_user_trace_recorder_forces_event_run(self):
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        tr = TraceRecorder()
        _, report = m.sum(X64, 16, trace=tr)
        assert report.engine == "event"
        assert tr.records  # the recorder really observed a run
        assert default_store().metrics["trace_store.captures"] == 0


class TestHMMEquivalence:
    """Hierarchical machine: global + shared units, barriers, range ops."""

    @pytest.mark.parametrize("latency", [16, 128])
    def test_sum_matches_event(self, latency):
        params = HMMParams(num_dmms=8, width=16, global_latency=latency)
        ev = HMM(params).sum(X256, 64)
        rp = HMM(params, mode="replay").sum(X256, 64)
        assert rp[0] == ev[0]
        assert_reports_equal(ev[1], rp[1])

    def test_convolution_range_ops_warm_hit(self):
        x, y = X64[:8], X256
        params16 = HMMParams(num_dmms=4, width=8, global_latency=16)
        params128 = HMMParams(num_dmms=4, width=8, global_latency=128)
        ev16 = HMM(params16).convolve(x, y, 32)
        ev128 = HMM(params128).convolve(x, y, 32)
        admit(lambda: HMM(params16, mode="replay").convolve(x, y, 32))
        rp16 = HMM(params16, mode="replay").convolve(x, y, 32)
        rp128 = HMM(params128, mode="replay").convolve(x, y, 32)
        np.testing.assert_array_equal(ev16[0], rp16[0])
        np.testing.assert_array_equal(ev128[0], rp128[0])
        assert_reports_equal(ev16[1], rp16[1])
        assert_reports_equal(ev128[1], rp128[1])
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 2 and stats["hits"] == 1

    def test_batch_event_replay_agree(self):
        """The three engines are one cost model in three implementations."""
        params = HMMParams(num_dmms=4, width=8, global_latency=32)
        cycles = {
            mode: HMM(params, mode=mode).sum(X256, 64)[1].cycles
            for mode in ("event", "batch", "replay")
        }
        assert cycles["event"] == cycles["batch"] == cycles["replay"]


class TestRefusals:
    """Every unsound case must fall back to the event engine, correctly."""

    def test_non_oblivious_kernel_refused(self):
        """A kernel whose trace depends on the schedule (the racy
        histogram: warps read-modify-write shared bins) is refused, and
        the launch runs on the event engine after its capture rolls
        back."""
        params = HMMParams(num_dmms=4, width=8, global_latency=16)
        values = RNG.integers(0, 4, 64).astype(float)
        want, expected = hmm_histogram_racy(HMM(params).engine(), values,
                                            4, 64)
        got, report = hmm_histogram_racy(HMM(params, mode="replay").engine(),
                                         values, 4, 64)
        np.testing.assert_array_equal(got, want)
        assert_reports_equal(expected, report)
        assert report.engine == "replay-refused"
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] == stats["flagged_programs"] == 1
        assert stats["captures"] == 0

    def test_unkeyable_closure_refused(self):
        class Opaque:
            pass

        token = Opaque()
        eng = MachineEngine(MP(width=4, latency=5), DMMBankPolicy(),
                            name="dmm", mode="replay")
        a = eng.array_from(X64, "a")

        def prog(warp):
            _ = token  # closure the keyer cannot canonically hash
            yield warp.read(a, warp.tids)

        report = eng.launch(prog, 16)
        assert report.engine == "replay-refused"
        assert default_store().metrics["trace_store.refusals"] == 1

    def test_capture_overflow_falls_back(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "_CAPTURE_LIMIT", 4)
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        value, report = m.sum(X256, 16)
        assert report.engine == "replay-refused"
        assert value == pytest.approx(
            DMM(MachineParams(width=4, latency=5)).sum(X256, 16)[0])

    def test_trace_compiler_overflow_raises(self):
        """The cap counts a fused range's rounds, not its one op."""
        compiler = TraceCompiler(("mem",), max_transactions=3)
        compiler.memory(0, 0, np.arange(4), True)
        compiler.range(0, 0, np.zeros((2, 4), dtype=np.int64), True, 0)
        with pytest.raises(TraceOverflowError, match="3"):
            compiler.range(1, 0, np.zeros((1, 4), dtype=np.int64), False, 0)


class TestObliviousnessSelfCheck:
    """Soundness is per launch: new data is a new key, and each capture
    is certified race-free or refused on its own."""

    def _launch(self, mode, fill, latency=5):
        eng = MachineEngine(MP(width=4, latency=latency), DMMBankPolicy(),
                            name="dmm", mode=mode)
        a = eng.array_from(fill, "a")
        out = eng.alloc(16, "out")

        def sneaky(warp):
            vals = yield warp.read(a, warp.tids)
            # Data-dependent addressing: the values pick the cells.
            addrs = np.clip(vals.astype(np.int64), 0, 15)
            yield warp.write(out, addrs, 1.0)

        report = eng.launch(sneaky, 8)
        return report, out.to_numpy()

    def test_value_indexed_writer_is_certified_per_input(self):
        """On zeros both warps write ``out[0]``: refused.  On ``arange``
        every lane writes its own cell: captured, then replayed."""
        zeros, ramp = np.zeros(16), np.arange(16, dtype=float)
        admit(lambda: self._launch("replay", ramp))
        for fill, tags in ((zeros, ["replay-refused"] * 2),
                           (ramp, ["replay-capture", "replay"])):
            for latency, tag in zip((5, 17), tags):
                expected, want = self._launch("event", fill, latency)
                report, got = self._launch("replay", fill, latency)
                assert report.engine == tag
                assert_reports_equal(expected, report)
                np.testing.assert_array_equal(got, want)
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] == stats["flagged_programs"] == 2
        assert stats["captures"] == 2 and stats["entries_disk"] == 1

    def test_oblivious_program_not_flagged_by_new_data(self):
        for fill in (0.0, 7.0):
            m = DMM(MachineParams(width=4, latency=5), mode="replay")
            m.sum(np.full(64, fill), 16)
        stats = default_store().metrics["trace_store"]
        assert stats["flagged_programs"] == 0
        assert stats["captures"] == 2  # distinct data → distinct full keys


class TestTraceMemoryTier:
    """A capture waits on disk for its first lookup; an evicted trace
    is freed by reference counting alone."""

    def _sum(self, latency, values=X256):
        m = DMM(MachineParams(width=4, latency=latency), mode="replay",
                backend="python")
        return m.sum(values, 32)[1]

    def test_capture_enters_memory_on_first_lookup(self):
        admit(lambda: self._sum(5))
        assert self._sum(5).engine == "replay-capture"
        store = default_store()
        stats = store.metrics["trace_store"]
        assert (stats["entries_disk"], stats["entries_memory"]) == (1, 0)
        assert self._sum(9).engine == "replay"
        assert self._sum(13).engine == "replay"
        tiers = store.store_namespace.metrics
        assert tiers["store.trace.hits_disk"] == 1
        assert tiers["store.trace.hits_memory"] == 1
        assert store.metrics["trace_store.entries_memory"] == 1

    def test_memory_only_store_keeps_the_capture(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TRACE", "off")
        reset_default_store()
        admit(lambda: self._sum(5))
        assert self._sum(5).engine == "replay-capture"
        store = default_store()
        stats = store.metrics["trace_store"]
        assert (stats["entries_disk"], stats["entries_memory"]) == (0, 1)
        assert self._sum(9).engine == "replay"
        assert store.store_namespace.metrics["store.trace.hits_memory"] == 1

    def test_evicted_trace_is_freed_without_a_collection(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TRACE_LRU", "1")
        reset_default_store()
        store = default_store()
        namespace = store.store_namespace
        gc.collect()
        gc.disable()
        try:
            admit(lambda: self._sum(5))
            self._sum(5)
            self._sum(9)  # disk hit: decoded, priced, kept in memory
            key, = namespace.keys()
            ref = weakref.ref(namespace.get_memory(key))
            assert ref() is not None and ref()._evaluator is not None
            other = X256[::-1].copy()
            admit(lambda: self._sum(5, other))
            self._sum(5, other)
            assert self._sum(9, other).engine == "replay"  # evicts key
            assert namespace.get_memory(key) is None
            assert ref() is None
        finally:
            gc.enable()


class TestTraceStorePersistence:
    """Disk round-trips, cross-process sharing, and the off switch."""

    def test_disk_hit_after_singleton_reset(self):
        admit(lambda: DMM(MachineParams(width=4, latency=5),
                          mode="replay").sum(X256, 32))
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        m.sum(X256, 32)
        assert default_store().metrics["trace_store.entries_disk"] == 1
        reset_default_store()  # simulates a new process: memory LRU empty
        m2 = DMM(MachineParams(width=4, latency=9), mode="replay")
        _, report = m2.sum(X256, 32)
        assert report.engine == "replay"
        stats = default_store().metrics["trace_store"]
        hits_disk = default_store().store_namespace.metrics[
            "store.trace.hits_disk"]
        assert hits_disk == 1 and stats["captures"] == 0

    def test_store_off_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TRACE", "off")
        reset_default_store()
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        m.sum(X256, 32)
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 1 and stats["entries_disk"] == 0

    def test_compiled_trace_npz_roundtrip(self, tmp_path):
        admit(lambda: DMM(MachineParams(width=4, latency=5),
                          mode="replay").sum(X64, 16))
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        m.sum(X64, 16)
        store = default_store()
        (key, trace), = store.store_namespace.scan()
        codec = store.store_namespace.codec
        path = tmp_path / "t.npz"
        path.write_bytes(codec.encode(trace))
        with np.load(path) as npz:  # a plain .npz archive
            assert set(npz.files) == set(trace.to_payload())
        loaded = codec.decode(path.read_bytes())
        assert isinstance(loaded, CompiledTrace)
        for name, array in trace.to_payload().items():
            np.testing.assert_array_equal(loaded.to_payload()[name], array)
        assert loaded.race_free()
        ev = loaded.evaluator()
        for latency in (2, 31):
            want, _ = trace.evaluator().evaluate(
                latencies=[latency], policies=[DMMBankPolicy()],
                pipelined=[True], dispatch="fifo")
            got, _ = ev.evaluate(
                latencies=[latency], policies=[DMMBankPolicy()],
                pipelined=[True], dispatch="fifo")
            assert got.cycles == want.cycles


class TestLaunchKey:
    """The key covers the program and data; excludes replay-time knobs."""

    def _key(self, latency, data):
        eng = MachineEngine(MP(width=4, latency=latency), DMMBankPolicy(),
                            name="dmm")
        a = eng.array_from(data, "a")

        def prog(warp):
            yield warp.read(a, warp.tids)

        from repro.machine.engine import make_warp_contexts
        return derive_launch_key(
            prog, machine="flat", width=4,
            contexts=make_warp_contexts(16, 4),
            spaces=[eng.space], fingerprint="test")

    def test_latency_excluded_data_included(self):
        k1 = self._key(5, X64)
        k2 = self._key(50, X64)
        k3 = self._key(5, X64 + 1.0)
        assert k1 == k2
        assert k1 != k3
        assert len(k1) == 64 and int(k1, 16) >= 0

    def test_key_stable_across_runs(self):
        """Mutable library memo caches must not churn the key."""
        def launch():
            return HMM(HMMParams(num_dmms=8, width=16, global_latency=16),
                       mode="replay").sum(X256, 64)

        admit(launch)  # populates repro.machine.warp._FULL_MASKS etc.
        launch()
        m2 = HMM(HMMParams(num_dmms=8, width=16, global_latency=128),
                 mode="replay")
        _, report = m2.sum(X256, 64)
        assert report.engine == "replay"

    def test_key_hashes_the_cells_state_copies(self, monkeypatch):
        """The key hashes a view of the allocated cells: the bytes of
        :meth:`MemorySpace.state`, without its copy, so no key changes."""
        view = self._key(5, X64)
        monkeypatch.setattr(MemorySpace, "cells",
                            lambda space: space.state().tobytes())
        assert self._key(5, X64) == view

    def test_cells_is_a_read_only_view(self):
        eng = MachineEngine(MP(width=4, latency=5), DMMBankPolicy(),
                            name="dmm")
        eng.array_from(X64, "a")
        cells = eng.space.cells()
        assert np.shares_memory(cells, eng.space._cells)
        assert not cells.flags.writeable
        np.testing.assert_array_equal(cells, eng.space.state())


@pytest.fixture(params=["disk", "memory"])
def tier(request, monkeypatch):
    """The trace store with its disk tier, or memory-only."""
    if request.param == "memory":
        monkeypatch.setenv("REPRO_STORE_TRACE", "off")
    reset_default_store()
    return request.param


class TestTraceAdmission:
    """A trace is stored the second time its key is captured, in either
    tier: a launch captured once writes nothing."""

    def _sum(self, values=X256, latency=5):
        m = DMM(MachineParams(width=4, latency=latency), mode="replay")
        return m.sum(values, 32)[1]

    def _stored(self):
        """``(entries, puts)``: the tier's files or LRU entries, and
        store puts.  A disk hit also enters the LRU; that is no write."""
        store = default_store()
        stats = store.metrics["trace_store"]
        entries = stats["entries_disk" if store.store_namespace.persist
                        else "entries_memory"]
        return entries, store.store_namespace.metrics["store.trace.puts"]

    def test_first_capture_stores_nothing(self, tier):
        assert self._sum().engine == "replay-capture"
        assert self._stored() == (0, 0)
        assert default_store().metrics["trace_store.captures"] == 1
        if tier == "disk":
            assert not list(default_store().store_namespace.directory.glob("*.npz"))

    def test_second_capture_stores_one(self, tier):
        self._sum()
        assert self._sum(latency=9).engine == "replay-capture"
        assert self._stored() == (1, 1)
        files = list(default_store().store_namespace.directory.glob("*.npz"))
        assert len(files) == (tier == "disk")

    def test_hit_stores_nothing(self, tier):
        self._sum()
        self._sum()
        for latency in (9, 13):
            assert self._sum(latency=latency).engine == "replay"
        assert self._stored() == (1, 1)

    def test_first_captures_are_bounded_oldest_first(self, tier,
                                                     monkeypatch):
        monkeypatch.setattr(replay_mod, "_FIRST_CAPTURE_KEYS", 2)
        a, b, c = X256, X256 + 1.0, X256 + 2.0
        for values in (a, b, c):
            self._sum(values)
        assert self._stored() == (0, 0)
        self._sum(a)  # forgotten: a first capture again
        assert self._stored() == (0, 0)
        assert self._sum(c).engine == "replay-capture"
        assert self._stored() == (1, 1)
        assert self._sum(c).engine == "replay"

    def test_clear_forgets_first_captures(self, tier):
        self._sum()
        default_store().clear()
        self._sum()
        assert self._stored() == (0, 0)

    def test_cold_tune_certifies_and_prices_identically(self, tier):
        """A cold replay tune captures each launch once and stores only
        the verdicts' second captures; it prices and certifies as an
        event tune and as a warm replay tune do."""
        from repro.tuner import tune

        def run(mode):
            return tune("transpose", shape={"w": 4, "d": 2, "m": 8},
                        latencies=(3, 9), mode=mode, cache=False)

        cold = run("replay")
        assert cold.certificate == "conflict-free"
        stored = self._stored()[0]
        assert stored == len({str(cold.baseline.config),
                              str(cold.best.config)})
        warm = run("replay")
        event = run("event")
        for report in (warm, event):
            assert report.history == cold.history
            assert report.best.config == cold.best.config
            assert report.best.cycles == cold.best.cycles
            assert report.certificate == cold.certificate
            assert report.advice_after == cold.advice_after


class TestCaptureMemory:
    """A cold replay ``/v1/cost`` evaluation, as the service runs it on
    the native backend, allocates at most ``MEMORY_MULTIPLE`` times
    what the batch engine's does."""

    #: The ``cost-cold`` shapes whose replay peak is highest.
    WORST = [
        dict(kernel="sum", model="dmm", n=8192, k=0, p=1024, w=16, l=16,
             d=8, backend="native"),
        dict(kernel="convolution", model="hmm", n=1024, k=16, p=2048,
             w=16, l=8, d=8, backend="native"),
    ]
    MEMORY_MULTIPLE = 3

    @pytest.mark.parametrize("spec", WORST, ids=["dmm-sum", "hmm-conv"])
    def test_peak_within_a_multiple_of_batch(self, spec):
        from repro.native import native_available
        from repro.service.oracle import evaluate_point

        if not native_available():
            pytest.skip("no C compiler: the native backend is unavailable")

        def peak(mode, seed):
            tracemalloc.start()
            try:
                evaluate_point(dict(spec, mode=mode, seed=seed))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for mode in ("batch", "replay"):  # lazy imports and caches
            evaluate_point(dict(spec, mode=mode, seed=1))
        batch, replay = peak("batch", 2), peak("replay", 3)
        assert replay <= self.MEMORY_MULTIPLE * batch, (replay, batch)
