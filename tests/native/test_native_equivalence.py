"""Bit-identity of the native backend against the Python loops.

The native backend's contract is *exact* equivalence: same cycles,
same per-unit statistics, same memory images, for both the batch
engine's three hot scans and the replay evaluator's heap loop, across
machines, dispatch policies, latencies, and partial warps.
"""

import numpy as np
import pytest

from conftest import admit, assert_reports_equal, make_dmm, make_hmm, make_umm
from repro import DMM, HMM, UMM, HMMParams, MachineParams
from repro.machine.policy import DMMBankPolicy, IdealPolicy, UMMGroupPolicy
from repro.machine.replay import (
    ReplayCostEvaluator,
    default_store,
    reset_default_store,
)
from repro.metrics import PROCESS
from repro.native import native_available, native_kernels, reset_native

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on this host"
)

RNG = np.random.default_rng(20130520)
X1024 = RNG.standard_normal(1024)
X256 = RNG.standard_normal(256)


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reset_default_store()
    reset_native()
    yield
    reset_default_store()
    reset_native()


class TestBatchEquivalence:
    """mode="batch" with backend="native" matches backend="python"."""

    @pytest.mark.parametrize("machine_cls", [DMM, UMM])
    @pytest.mark.parametrize("kernel", ["sum", "prefix_sums"])
    def test_flat_kernels(self, machine_cls, kernel):
        # 512 threads / width 16 = 32 warps, enough to clear the
        # scalar small-queue cutoff so the native scans actually run.
        params = MachineParams(width=16, latency=16)
        vp, rp = getattr(
            machine_cls(params, mode="batch", backend="python"), kernel
        )(X1024, 512)
        before = PROCESS["native.native_calls"]
        vn, rn = getattr(
            machine_cls(params, mode="batch", backend="native"), kernel
        )(X1024, 512)
        assert PROCESS["native.native_calls"] > before
        np.testing.assert_array_equal(np.asarray(vp), np.asarray(vn))
        assert_reports_equal(rp, rn)

    def test_hmm_sum_and_convolution(self):
        params = HMMParams(num_dmms=4, width=8, global_latency=32,
                           shared_latency=2)
        for call in (
            lambda m: m.sum(X1024, 128),
            lambda m: m.convolve(X256[:16], X1024, 128),
        ):
            vp, rp = call(HMM(params, mode="batch", backend="python"))
            vn, rn = call(HMM(params, mode="batch", backend="native"))
            np.testing.assert_array_equal(np.asarray(vp), np.asarray(vn))
            assert_reports_equal(rp, rn)

    def test_matches_event_engine(self):
        """Native batch stays equivalent to the exact event scheduler."""
        params = MachineParams(width=8, latency=24)
        ve, re_ = DMM(params, mode="event").prefix_sums(X1024, 64)
        vn, rn = DMM(params, mode="batch", backend="native").prefix_sums(
            X1024, 64
        )
        np.testing.assert_array_equal(np.asarray(ve), np.asarray(vn))
        assert rn.cycles == re_.cycles
        assert rn.unit_stats["mem"] == re_.unit_stats["mem"]

    def test_partial_warps_and_memory_image(self):
        """37 threads (ragged last warp): results and the full memory
        image must match the python backend exactly."""
        outs = {}
        for backend in ("python", "native"):
            eng = make_dmm(width=4, latency=7, mode="batch", backend=backend)
            a = eng.array_from(X256[:64], "a")
            out = eng.alloc(64, "out")

            def prog(warp):
                vals = yield warp.read(a, warp.tids)
                yield warp.write(out, warp.tids, vals * 3.0)
                vals = yield warp.read(out, warp.tids)
                yield warp.write(out, warp.tids, vals + 1.0)

            report = eng.launch(prog, 37)
            outs[backend] = (report, out.to_numpy())
        rp, mem_p = outs["python"]
        rn, mem_n = outs["native"]
        assert_reports_equal(rp, rn)
        np.testing.assert_array_equal(mem_p, mem_n)

    def test_env_default_backend(self, monkeypatch):
        """$REPRO_BACKEND=native is picked up by backend=None engines."""
        monkeypatch.setenv("REPRO_BACKEND", "native")
        eng = make_umm(width=8, latency=12, mode="batch")
        assert eng.backend == "native"
        PROCESS.reset()
        vp, rp = UMM(MachineParams(width=8, latency=12), mode="batch",
                     backend="python").sum(X1024, 128)
        vn, rn = UMM(MachineParams(width=8, latency=12),
                     mode="batch").sum(X1024, 128)
        assert PROCESS["native.native_calls"] > 0
        assert vp == vn
        assert_reports_equal(rp, rn)


def _capture_hmm_trace():
    """Capture one HMM trace (barriers + multi-unit) and return it."""
    params = HMMParams(num_dmms=2, width=4, global_latency=9,
                       shared_latency=2)
    admit(lambda: HMM(params, mode="replay").sum(X256, 32))
    HMM(params, mode="replay").sum(X256, 32)
    (_, trace), = default_store().store_namespace.scan()
    return trace


class TestReplayEquivalence:
    """The native replay pricer is bit-identical to the Python loop."""

    def test_evaluator_sweep(self):
        trace = _capture_hmm_trace()
        names = trace.meta["unit_names"]
        n = len(names)
        policy_sets = [
            [DMMBankPolicy()] * n,
            [UMMGroupPolicy()] * n,
            [IdealPolicy()] * n,
            [UMMGroupPolicy(), *([DMMBankPolicy()] * (n - 1))],
        ]
        for dispatch in ("fifo", "round-robin"):
            for lats in ([3] * n, [17] * n, list(range(2, 2 + n))):
                for policies in policy_sets:
                    for pips in ([True] * n, [False] * n):
                        ev_p = ReplayCostEvaluator(trace, backend="python")
                        ev_n = ReplayCostEvaluator(trace, backend="native")
                        rp, sp = ev_p.evaluate(
                            latencies=lats, policies=policies,
                            pipelined=pips, dispatch=dispatch,
                        )
                        before = PROCESS["native.native_calls"]
                        rn, sn = ev_n.evaluate(
                            latencies=lats, policies=policies,
                            pipelined=pips, dispatch=dispatch,
                        )
                        assert PROCESS["native.native_calls"] > before
                        assert rp == rn
                        assert sp == sn

    def test_per_call_backend_override(self):
        trace = _capture_hmm_trace()
        n = len(trace.meta["unit_names"])
        ev = ReplayCostEvaluator(trace, backend="python")
        kw = dict(latencies=[5] * n, policies=[DMMBankPolicy()] * n,
                  pipelined=[True] * n)
        rp, sp = ev.evaluate(**kw)
        rn, sn = ev.evaluate(backend="native", **kw)
        assert rp == rn
        assert sp == sn

    def test_repeated_pricings_of_one_evaluator(self):
        """One native evaluator binds its buffers once and re-prices at
        many latencies, dispatch orders and policy sets; every call
        matches the python backend and reaches the native kernel."""
        trace = _capture_hmm_trace()
        n = len(trace.meta["unit_names"])
        ev_n = ReplayCostEvaluator(trace, backend="native")
        ev_p = ReplayCostEvaluator(trace, backend="python")
        for _ in range(2):
            for policy in (DMMBankPolicy(), UMMGroupPolicy()):
                for dispatch in ("round-robin", "fifo"):
                    for l in (2, 9, 300):
                        kw = dict(latencies=[l] + [2] * (n - 1),
                                  policies=[policy] * n,
                                  pipelined=[True] * n, dispatch=dispatch)
                        before = PROCESS["native.native_calls"]
                        rn, sn = ev_n.evaluate(**kw)
                        assert PROCESS["native.native_calls"] > before
                        assert (rn, sn) == ev_p.evaluate(**kw)

    def test_concurrent_pricings_of_one_evaluator(self):
        """The kernel releases the GIL: threads sharing one evaluator's
        bound buffers must each get their own latency's answer."""
        import sys
        import threading

        trace = _capture_hmm_trace()
        n = len(trace.meta["unit_names"])
        ev_n = ReplayCostEvaluator(trace, backend="native")
        ev_p = ReplayCostEvaluator(trace, backend="python")

        def kw(l):
            return dict(latencies=[l] * n, policies=[DMMBankPolicy()] * n,
                        pipelined=[True] * n, dispatch="round-robin")

        lats = list(range(2, 10))
        expected = {l: ev_p.evaluate(**kw(l)) for l in lats}
        mismatches, errors = [], []

        def worker(l):
            try:
                for _ in range(100):
                    if ev_n.evaluate(**kw(l)) != expected[l]:
                        mismatches.append(l)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(l,))
                       for l in lats]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert mismatches == []

    @pytest.mark.parametrize("bad", ["dtype", "layout"])
    def test_bad_buffer_raises_on_first_pricing(self, bad):
        trace = _capture_hmm_trace()
        n = len(trace.meta["unit_names"])
        ev = ReplayCostEvaluator(trace, backend="native")
        # The stream buffers are the trace's per-warp decode.
        streams = trace.streams()
        if bad == "dtype":
            streams.ops = streams.ops.astype(np.int32)
            match = "stream_ops.*dtype int64"
        else:
            streams.off = np.repeat(streams.off, 2)[::2]
            match = "stream_off.*C-contiguous"
        kw = dict(latencies=[5] * n, policies=[DMMBankPolicy()] * n,
                  pipelined=[True] * n)
        with pytest.raises(TypeError, match=match):
            ev.evaluate(**kw)

    def test_replay_launch_end_to_end(self):
        """Full replay hits under $REPRO_BACKEND=native return the same
        report and memory as python-backend hits."""
        params = HMMParams(num_dmms=2, width=4, global_latency=9,
                           shared_latency=2)
        results = {}
        for backend in ("python", "native"):
            reset_default_store()
            admit(lambda: HMM(params, mode="replay",
                              backend=backend).sum(X256, 32))
            m = HMM(params, mode="replay", backend=backend)
            m.sum(X256, 32)  # capture
            results[backend] = HMM(
                params, mode="replay", backend=backend
            ).sum(X256, 32)  # hit: re-priced from the stored trace
        vp, rp = results["python"]
        vn, rn = results["native"]
        assert rp.engine == rn.engine == "replay"
        assert vp == vn
        assert_reports_equal(rp, rn)

    def test_flat_replay_partial_warp_round_robin(self):
        from repro.machine.engine import MachineEngine
        from repro.params import MachineParams as MP

        def run(backend):
            reset_default_store()
            reports = []
            for _ in range(2):
                eng = MachineEngine(
                    MP(width=4, latency=5), DMMBankPolicy(), name="dmm",
                    dispatch="round-robin", mode="replay", backend=backend,
                )
                a = eng.array_from(X256[:64], "a")
                out = eng.alloc(64, "out")

                def prog(warp):
                    vals = yield warp.read(a, warp.tids)
                    yield warp.write(out, warp.tids, vals * 2.0)

                reports.append((eng.launch(prog, 37), out.to_numpy()))
            return reports

        py = run("python")
        nat = run("native")
        assert nat[1][0].engine == "replay"
        for (rp, mem_p), (rn, mem_n) in zip(py, nat):
            assert rp.cycles == rn.cycles
            assert rp.barrier_releases == rn.barrier_releases
            np.testing.assert_array_equal(mem_p, mem_n)


@pytest.mark.parametrize("width", [1, 3, 4, 6, 16, 32])
@pytest.mark.parametrize("policy", [DMMBankPolicy(), UMMGroupPolicy()],
                         ids=["dmm", "umm"])
def test_slot_count_kernel_equals_the_python_policy(policy, width):
    """Bank and group counts agree with the policies' numpy code at
    power-of-two widths (shift and mask) and others (division)."""
    rng = np.random.default_rng(width)
    lists = [rng.integers(0, 140, size=rng.integers(1, 40))
             for _ in range(50)]
    offsets = np.cumsum([0] + [a.size for a in lists]).astype(np.int64)
    out = np.zeros(len(lists), dtype=np.int64)
    code = 0 if isinstance(policy, DMMBankPolicy) else 1
    kernel = native_kernels()["repro_slot_counts"]
    assert kernel(len(lists), np.arange(len(lists), dtype=np.int64),
                  offsets, np.concatenate(lists).astype(np.int64), width,
                  code, out) == 0
    assert out.tolist() == policy.slot_counts(lists, width).tolist()
