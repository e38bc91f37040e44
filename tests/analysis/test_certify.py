"""The machine-checked obliviousness / conflict-freedom pass."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.analysis.certify import (
    certify_launch,
    conflict_violations,
    trace_signature,
)
from repro.machine.hmm import HMMEngine
from repro.machine.trace import TraceRecorder
from repro.params import HMMParams
from repro.core.kernels.conflict_free import flat_cf_sort
from repro.core.kernels.hmm_sum import hmm_sum
from repro.core.kernels.merge import flat_merge
from repro.core.kernels.sorting import flat_bitonic_sort

from conftest import make_dmm


class TestTraceSignature:
    def test_same_stream_same_digest(self, rng):
        vals = rng.normal(size=64)
        sigs = []
        for _ in range(2):
            trace = TraceRecorder()
            flat_cf_sort(make_dmm(), vals.copy(), 16, trace=trace)
            sigs.append(trace_signature(trace))
        assert sigs[0] == sigs[1]

    def test_data_independence_for_oblivious_kernel(self, rng):
        """Distinct inputs, identical access stream."""
        sigs = []
        for _ in range(2):
            trace = TraceRecorder()
            flat_cf_sort(make_dmm(), rng.normal(size=64), 16, trace=trace)
            sigs.append(trace_signature(trace))
        assert sigs[0] == sigs[1]

    def test_data_dependence_detected(self, rng):
        """Merge-path splits depend on the data: digests diverge."""
        sigs = []
        for _ in range(2):
            a = np.sort(rng.normal(size=48))
            b = np.sort(rng.normal(size=16))
            trace = TraceRecorder()
            flat_merge(make_dmm(), a, b, 16, trace=trace)
            sigs.append(trace_signature(trace))
        assert sigs[0] != sigs[1]

    def test_latency_invariance(self, rng):
        """Timing is excluded: same kernel at different l, same digest."""
        vals = rng.normal(size=64)
        sigs = []
        for l in (2, 37):
            trace = TraceRecorder()
            flat_cf_sort(make_dmm(latency=l), vals.copy(), 16, trace=trace)
            sigs.append(trace_signature(trace))
        assert sigs[0] == sigs[1]

    def test_dispatch_and_latency_invariance_with_barriers(self, rng):
        """One HMM sum launch (DMM and device barriers): the barrier
        release order shifts with dispatch and latency, the signature
        does not."""
        vals = rng.normal(size=4096)
        sigs = set()
        for dispatch in ("fifo", "round-robin"):
            for l in (2, 300):
                engine = HMMEngine(
                    HMMParams(num_dmms=8, width=16, global_latency=l),
                    dispatch=dispatch)
                trace = TraceRecorder()
                hmm_sum(engine, vals, 256, trace=trace)
                assert trace.arrivals
                sigs.add(trace_signature(trace))
        assert len(sigs) == 1

    def test_barrier_placement_changes_digest(self):
        """Same transactions, barrier moved: a different stream."""

        def signature(barrier_first: bool) -> str:
            eng = make_dmm(width=4)
            a = eng.alloc(32, "a")
            b = eng.alloc(32, "b")

            def program(warp):
                v = yield warp.read(a, warp.tids)
                if barrier_first:
                    yield warp.barrier()
                yield warp.write(b, warp.tids, v)
                if not barrier_first:
                    yield warp.barrier()

            trace = TraceRecorder()
            eng.launch(program, 16, trace=trace)
            return trace_signature(trace)

        assert signature(True) != signature(False)


class TestConflictViolations:
    def _trace_for(self, stride, w=8):
        eng = make_dmm(width=w)
        a = eng.alloc(1024, "a")
        trace = TraceRecorder()

        def program(warp):
            yield warp.read(a, warp.tids * stride)

        eng.launch(program, w, trace=trace)
        return trace

    def test_clean_stride_has_no_violations(self):
        excess, viol = conflict_violations(self._trace_for(1), 8)
        assert excess == 0 and viol == []

    def test_bank_conflict_is_flagged(self):
        # stride = w: all 8 addresses land in bank 0 -> 8 slots, floor 1.
        excess, viol = conflict_violations(self._trace_for(8), 8)
        assert excess == 7
        assert len(viol) == 1
        v = viol[0]
        assert v.slots == 8 and v.min_slots == 1 and v.excess == 7
        assert "avoidable excess 7" in v.describe()

    def test_excess_matches_unit_stats(self, rng):
        eng = make_dmm(width=8)
        trace = TraceRecorder()
        _, report = flat_bitonic_sort(eng, rng.normal(size=256), 32,
                                      trace=trace)
        excess, _ = conflict_violations(trace, 8)
        assert excess == sum(
            s.excess_slots for s in report.unit_stats.values())

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            conflict_violations(TraceRecorder(), 0)


class TestCertifyLaunch:
    def test_certifies_conflict_free_oblivious_kernel(self):
        def run(rng, trace):
            flat_cf_sort(make_dmm(width=8), rng.standard_normal(64), 16,
                         trace=trace)

        report = certify_launch(run, width=8)
        assert report.certified
        assert report.oblivious and report.conflict_free
        assert report.runs == 3
        assert len(set(report.signatures)) == 1
        assert report.transactions > 0
        assert "CERTIFIED" in report.describe()

    def test_refuses_conflicted_oblivious_kernel(self):
        def run(rng, trace):
            flat_bitonic_sort(make_dmm(width=8), rng.standard_normal(256),
                              32, trace=trace)

        report = certify_launch(run, width=8)
        assert report.oblivious
        assert not report.conflict_free
        assert not report.certified
        assert report.avoidable_excess_slots > 0
        assert report.violations
        assert "REFUSED" in report.describe()

    def test_refuses_non_oblivious_kernel(self):
        def run(rng, trace):
            a = np.sort(rng.standard_normal(48))
            b = np.sort(rng.standard_normal(16))
            flat_merge(make_dmm(width=8), a, b, 16, trace=trace)

        report = certify_launch(run, width=8)
        assert not report.oblivious
        assert not report.certified
        assert len(set(report.signatures)) > 1

    def test_needs_two_runs(self):
        with pytest.raises(ConfigurationError):
            certify_launch(lambda rng, trace: None, width=8, runs=1)

    def test_deterministic_in_seed(self):
        def run(rng, trace):
            flat_cf_sort(make_dmm(), rng.standard_normal(32), 8,
                         trace=trace)

        a = certify_launch(run, width=4, seed=7)
        b = certify_launch(run, width=4, seed=7)
        assert a == b
