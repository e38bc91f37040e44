"""Replay-mode equivalence: trace-compiled re-costing must be invisible.

``mode="replay"`` promises *bit-identical* results to the event engine
for memory-oblivious kernels: same cycles, same per-unit statistics,
same memory effects — whether the launch was freshly captured
(``engine == "replay-capture"``) or re-costed from a stored trace
(``engine == "replay"``).  These tests pin that promise across flat and
hierarchical machines, latencies, dispatch policies, and partial warps,
plus every refusal path: non-oblivious kernels, unkeyable programs,
capture overflow, and the cross-input obliviousness self-check.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import DMM, HMM, UMM, HMMParams, MachineParams
from repro.errors import ConfigurationError, TraceOverflowError
from repro.machine.engine import MachineEngine
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import (
    CompiledTrace,
    TraceCompiler,
    default_store,
    derive_launch_key,
    is_replay_oblivious,
    non_oblivious,
    reset_default_store,
)
from repro.machine.trace import TraceRecorder
from repro.params import MachineParams as MP

from conftest import assert_reports_equal

RNG = np.random.default_rng(20130520)
X256 = RNG.standard_normal(256)
X64 = RNG.standard_normal(64)


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """Every test gets a private on-disk store and a fresh singleton."""
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_STORE_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_CAPTURE_LIMIT", raising=False)
    reset_default_store()
    yield
    reset_default_store()


class TestFlatEquivalence:
    """Flat DMM/UMM: capture run and warm hits match the event engine."""

    @pytest.mark.parametrize("machine_cls", [DMM, UMM])
    @pytest.mark.parametrize("kernel", ["sum", "prefix_sums"])
    def test_capture_then_hits_across_latencies(self, machine_cls, kernel):
        baselines = {}
        for latency in (2, 5, 17):
            m = machine_cls(MachineParams(width=4, latency=latency))
            baselines[latency] = getattr(m, kernel)(X256, 32)
        for i, latency in enumerate((2, 5, 17)):
            m = machine_cls(MachineParams(width=4, latency=latency),
                            mode="replay")
            value, report = getattr(m, kernel)(X256, 32)
            exp_value, exp_report = baselines[latency]
            np.testing.assert_array_equal(np.asarray(value),
                                          np.asarray(exp_value))
            assert_reports_equal(exp_report, report)
            assert report.engine == ("replay-capture" if i == 0 else "replay")
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 1
        assert stats["hits"] == 2
        assert stats["flagged_programs"] == 0

    def test_convolution_matches(self):
        for latency in (3, 9):
            ev = DMM(MachineParams(width=4, latency=latency)).convolve(
                X64[:8], X256, 32)
            rp = DMM(MachineParams(width=4, latency=latency),
                     mode="replay").convolve(X64[:8], X256, 32)
            np.testing.assert_array_equal(ev[0], rp[0])
            assert_reports_equal(ev[1], rp[1])
        assert default_store().metrics["trace_store.captures"] == 1

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
        results = []
        for _ in range(2):
            m = DMM(MachineParams(width=4, latency=5), mode="replay")
            value, report = m.sum(X256, 32)
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
        rp16 = HMM(params16, mode="replay").convolve(x, y, 32)
        rp128 = HMM(params128, mode="replay").convolve(x, y, 32)
        np.testing.assert_array_equal(ev16[0], rp16[0])
        np.testing.assert_array_equal(ev128[0], rp128[0])
        assert_reports_equal(ev16[1], rp16[1])
        assert_reports_equal(ev128[1], rp128[1])
        stats = default_store().metrics["trace_store"]
        assert stats["captures"] == 1 and stats["hits"] == 1

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
        m = HMM(HMMParams(num_dmms=4, width=8, global_latency=16),
                mode="replay")
        values = RNG.permutation(64).astype(float)
        out, report = m.sort(values, 32)
        np.testing.assert_array_equal(out, np.sort(values))
        assert report.engine == "replay-refused"
        stats = default_store().metrics["trace_store"]
        assert stats["refusals"] >= 1 and stats["captures"] == 0

    def test_non_oblivious_decorator(self):
        def looks_fine(warp):
            yield warp.barrier()

        assert is_replay_oblivious(looks_fine)
        assert not is_replay_oblivious(non_oblivious(looks_fine))

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
        monkeypatch.setenv("REPRO_TRACE_CAPTURE_LIMIT", "4")
        reset_default_store()
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        value, report = m.sum(X256, 16)
        assert report.engine == "replay-refused"
        assert value == pytest.approx(
            DMM(MachineParams(width=4, latency=5)).sum(X256, 16)[0])

    def test_malformed_capture_limit_is_a_configuration_error(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_CAPTURE_LIMIT", "lots")
        reset_default_store()
        m = DMM(MachineParams(width=4, latency=5), mode="replay")
        with pytest.raises(
            ConfigurationError,
            match=r"\$REPRO_TRACE_CAPTURE_LIMIT must be an integer, got 'lots'",
        ):
            m.sum(X64, 16)

    def test_trace_compiler_overflow_raises(self):
        eng = MachineEngine(MP(width=4, latency=5), DMMBankPolicy(),
                            name="dmm")
        a = eng.alloc(64, "a")
        compiler = TraceCompiler(("mem",), max_transactions=2)

        def prog(warp):
            for _ in range(4):
                yield warp.read(a, warp.tids)

        with pytest.raises(TraceOverflowError):
            eng.launch(prog, 4, trace=compiler)


class TestObliviousnessSelfCheck:
    """Same program + shape, different data, different trace → flagged."""

    def _build(self, mode):
        eng = MachineEngine(MP(width=4, latency=5), DMMBankPolicy(),
                            name="dmm", mode=mode)
        a = eng.array_from(np.zeros(16), "a")
        out = eng.alloc(16, "out")

        def sneaky(warp):
            vals = yield warp.read(a, warp.tids)
            # Data-dependent addressing: not declared non-oblivious.
            addrs = np.clip(vals.astype(np.int64), 0, 15)
            yield warp.write(out, addrs, 1.0)

        return eng, a, sneaky

    def test_flagged_after_divergent_captures(self):
        eng, a, sneaky = self._build("replay")
        a.set(np.zeros(16))
        r1 = eng.launch(sneaky, 8)
        assert r1.engine == "replay-capture"
        a.set(np.arange(16, dtype=float))
        r2 = eng.launch(sneaky, 8)  # different addresses → flag
        a.set(np.zeros(16))
        r3 = eng.launch(sneaky, 8)
        assert r3.engine == "replay-refused"
        stats = default_store().metrics["trace_store"]
        assert stats["flagged_programs"] == 1
        assert stats["entries_memory"] == 0  # flagged traces evicted

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
            self._sum(5)
            self._sum(9)  # disk hit: decoded, priced, kept in memory
            key, = namespace.keys()
            ref = weakref.ref(namespace.get_memory(key))
            assert ref() is not None and ref()._evaluator is not None
            other = X256[::-1].copy()
            self._sum(5, other)
            assert self._sum(9, other).engine == "replay"  # evicts key
            assert namespace.get_memory(key) is None
            assert ref() is None
        finally:
            gc.enable()


class TestTraceStorePersistence:
    """Disk round-trips, cross-process sharing, and the off switch."""

    def test_disk_hit_after_singleton_reset(self):
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
        assert loaded.signature() == trace.signature()
        assert loaded.meta["machine"] == trace.meta["machine"]
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
        assert k1.full == k2.full
        assert k1.struct == k3.struct
        assert k1.full != k3.full

    def test_key_stable_across_runs(self):
        """Mutable library memo caches must not churn the struct key."""
        m = HMM(HMMParams(num_dmms=8, width=16, global_latency=16),
                mode="replay")
        m.sum(X256, 64)  # populates repro.machine.warp._FULL_MASKS etc.
        m2 = HMM(HMMParams(num_dmms=8, width=16, global_latency=128),
                 mode="replay")
        _, report = m2.sum(X256, 64)
        assert report.engine == "replay"
