"""Pins on the replay-eligibility registry (PR 9).

The conflict-free suite is deliberately *absent* from
``NON_OBLIVIOUS_MODULES`` — its kernels are data-oblivious by
construction, so replay may cache and re-price their traces.  The naive
sorting / merge modules stay listed (they share modules with
data-dependent kernels).  This file pins both directions so adding a
kernel module flips eligibility only as an explicit decision, and
backs the registry with the machine-checked certificate pass.
"""

import numpy as np
import pytest

from repro.analysis.certify import certify_launch
from repro.machine.replay import (
    NON_OBLIVIOUS_MODULES,
    default_store,
    is_replay_oblivious,
    reset_default_store,
)
from repro.core.kernels.conflict_free import (
    cf_bitonic_merge_kernel,
    cf_bitonic_sort_kernel,
    flat_cf_permutation,
    flat_cf_sort,
    oblivious_permutation_kernel,
)
from repro.core.kernels.merge import flat_merge
from repro.core.kernels.sorting import flat_bitonic_sort

from conftest import make_dmm


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    reset_default_store()
    yield
    reset_default_store()


class TestRegistryPin:
    def test_registry_contents(self):
        """Exact pin: changing the refusal set is a reviewed decision."""
        assert NON_OBLIVIOUS_MODULES == frozenset({
            "repro.core.kernels.bfs",
            "repro.core.kernels.compaction",
            "repro.core.kernels.histogram",
            "repro.core.kernels.merge",
            "repro.core.kernels.permutation",
            "repro.core.kernels.sorting",
            "repro.core.kernels.spmv",
            "repro.tuner.datadep",
        })

    def test_conflict_free_module_not_listed(self):
        assert ("repro.core.kernels.conflict_free"
                not in NON_OBLIVIOUS_MODULES)

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
            assert is_replay_oblivious(program), program

    def test_naive_module_programs_refused(self):
        from repro.core.kernels.sorting import bitonic_sort_kernel

        eng = make_dmm()
        a = eng.alloc(8, "a")
        assert not is_replay_oblivious(bitonic_sort_kernel(a, 8))


class TestReplayBehavior:
    def test_cf_sort_captures_then_replays(self, rng):
        vals = rng.normal(size=64)
        cycles = {}
        for l in (3, 17):
            eng = make_dmm(width=8, latency=l, mode="replay")
            out, report = flat_cf_sort(eng, vals, 16)
            assert np.allclose(out, np.sort(vals))
            assert report.engine in ("replay-capture", "replay")
            cycles[l] = report.cycles
            # Event-mode ground truth at the same latency.
            _, event = flat_cf_sort(make_dmm(width=8, latency=l), vals, 16)
            assert report.cycles == event.cycles
        stats = default_store().stats()
        assert stats.captures == 1
        assert stats.hits >= 1
        assert stats.refusals == 0

    def test_cf_permutation_schedule_lives_in_the_key(self, rng):
        """Both schedules of the same permutation replay separately:
        the round schedule is launch-closure data, so each layout gets
        its own trace."""
        n, w = 64, 8
        vals = rng.normal(size=n)
        perm = rng.permutation(n).astype(np.int64)
        for schedule in ("naive", "conflict-free"):
            for _ in range(2):
                eng = make_dmm(width=w, latency=5, mode="replay")
                out, report = flat_cf_permutation(eng, vals, perm, 16,
                                                  schedule=schedule)
                assert np.allclose(out[perm], vals)
                assert report.engine in ("replay-capture", "replay")
        stats = default_store().stats()
        assert stats.captures == 2  # one per schedule
        assert stats.hits == 2
        assert stats.refusals == 0

    def test_naive_kernels_fall_back_to_event(self, rng):
        vals = rng.normal(size=64)
        eng = make_dmm(width=8, latency=5, mode="replay")
        out, report = flat_bitonic_sort(eng, vals, 16)
        assert np.allclose(out, np.sort(vals))
        assert report.engine == "replay-refused"

        a = np.sort(rng.normal(size=48))
        b = np.sort(rng.normal(size=16))
        eng = make_dmm(width=8, latency=5, mode="replay")
        out, report = flat_merge(eng, a, b, 16)
        assert np.allclose(out, np.sort(np.concatenate([a, b])))
        assert report.engine == "replay-refused"

        stats = default_store().stats()
        assert stats.refusals == 2
        assert stats.captures == 0

    def test_registry_presumption_backed_by_certificate(self):
        """The module-level presumption ('not listed => oblivious') is
        not taken on faith: the certificate pass re-proves it from the
        recorded transactions."""

        def run(rng, trace):
            flat_cf_sort(make_dmm(width=8), rng.standard_normal(64), 16,
                         trace=trace)

        assert certify_launch(run, width=8).certified
