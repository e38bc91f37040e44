"""Machine-checking the tuner's ``conflict-free`` certificates (PR 9).

The demo tasks that claim ``conflict_certificate`` promise that their
winning configuration admits zero avoidable conflicted transactions and
that the claim is oblivious (input-independent).  This file discharges
the promise two ways: end-to-end through :func:`repro.tuner.tune`
(the search must terminate on the certificate), and directly through
the trace-level pass in :mod:`repro.analysis.certify` — the
"machine-checked, not author-asserted" half the demos docstring points
at.
"""

import numpy as np
import pytest

from repro.analysis.certify import certify_launch
from repro.machine.engine import MachineEngine
from repro.machine.policy import DMMBankPolicy
from repro.machine.replay import reset_default_store
from repro.params import MachineParams
from repro.tuner import TASKS, get_task, tune
from repro.core.kernels.conflict_free import (
    flat_cf_sort,
    generalized_permutation_schedule,
    oblivious_permutation_kernel,
)


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_STORE_TUNE_DIR", str(tmp_path / "tune_cache"))
    reset_default_store()
    yield
    reset_default_store()


SORT_SHAPE = {"w": 8, "n": 128}
PERM_SHAPE = {"w": 8, "n": 128}


class TestSortTask:
    def test_tuner_certifies_conflict_free_network(self):
        report = tune("sort", shape=SORT_SHAPE, latencies=(4,))
        assert report.best.config["network"] == "conflict-free"
        assert report.certificate == "conflict-free"
        assert report.certified
        assert report.improvement > 1.0
        assert report.equivalent
        # Never more work than the (tiny) space; the early-exit path
        # itself is pinned by the transpose tests in test_tuner.py.
        assert report.evaluations <= get_task("sort").space(SORT_SHAPE).size

    def test_task_is_replay_backed(self):
        report = tune("sort", shape=SORT_SHAPE, latencies=(4,),
                      mode="auto")
        assert report.mode == "replay"
        # The conflict-free winner rides the replay engine; so does the
        # naive baseline, whose launches are race-free too.
        assert report.best.extra["engine"].startswith("replay")
        assert report.baseline.extra["engine"].startswith("replay")


class TestMachineCheckedCertificates:
    """certify_launch re-proves each task's certificate claim."""

    def test_all_certificate_tasks_declare_obliviousness(self):
        claimants = [t for t in TASKS.values() if t.conflict_certificate]
        assert {t.name for t in claimants} >= {"sort", "permutation"}
        # No task declares obliviousness any more (``auto`` is replay
        # for every task); the tests below prove it for each claimant
        # from its recorded transactions.

    def test_sort_winner_certified(self):
        w, n = SORT_SHAPE["w"], SORT_SHAPE["n"]
        params = MachineParams(width=w, latency=4)

        def run(rng, trace):
            eng = MachineEngine(params, DMMBankPolicy(), name="dmm")
            flat_cf_sort(eng, rng.standard_normal(n), min(4 * w, n),
                         fused=False, trace=trace)

        report = certify_launch(run, width=w)
        assert report.certified, report.describe()

    def test_permutation_winner_certified(self):
        w, n = PERM_SHAPE["w"], PERM_SHAPE["n"]
        params = MachineParams(width=w, latency=4)
        i = np.arange(n, dtype=np.int64)
        perm = (i % w) * (n // w) + i // w  # the task's adversarial target
        sched = generalized_permutation_schedule(perm, w)

        def run(rng, trace):
            eng = MachineEngine(params, DMMBankPolicy(), name="dmm")
            a = eng.array_from(rng.standard_normal(n), "a")
            b = eng.alloc(n, "b")
            eng.launch(oblivious_permutation_kernel(a, b, perm, sched),
                       min(8 * w, n), trace=trace)

        report = certify_launch(run, width=w)
        assert report.certified, report.describe()

    def test_naive_baseline_fails_the_same_check(self):
        """The check has teeth: the conflicted baseline is refused."""
        from repro.core.kernels.sorting import flat_bitonic_sort

        w, n = SORT_SHAPE["w"], SORT_SHAPE["n"]
        params = MachineParams(width=w, latency=4)

        def run(rng, trace):
            eng = MachineEngine(params, DMMBankPolicy(), name="dmm")
            flat_bitonic_sort(eng, rng.standard_normal(n), min(4 * w, n),
                              trace=trace)

        report = certify_launch(run, width=w)
        assert report.oblivious
        assert not report.certified
        assert report.avoidable_excess_slots > 0
