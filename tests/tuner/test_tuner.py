"""End-to-end autotuner: demo tasks, certificates, modes, CLI."""

import json

import numpy as np
import pytest

from repro.analysis.advisor import diagnose
from repro.errors import ConfigurationError
from repro.machine.batch import BatchCostEngine
from repro.machine.replay import default_store, reset_default_store
from repro.tuner import TASKS, get_task, resolve_tune_mode, tune
from repro.tuner.__main__ import main as tuner_main
from repro.tuner.demos import run_config
from repro.tuner.tuner import _advice_dict

from conftest import admit

#: Small transpose shape: 4 tiles of 4x4, 12-point layout space.
SHAPE = {"w": 4, "d": 2, "m": 8}
LATS = (3, 9)


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Private trace store and tune cache per test."""
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_STORE_TUNE_DIR", str(tmp_path / "tune_cache"))
    reset_default_store()
    yield
    reset_default_store()


def tune_transpose(**kw):
    kw.setdefault("shape", SHAPE)
    kw.setdefault("latencies", LATS)
    return tune("transpose", **kw)


class TestTranspose:
    def test_finds_conflict_free_layout(self):
        report = tune_transpose()
        # The acceptance property: the seeded stride-w conflict is
        # real, and the tuner removes every avoidable DMM slot.
        assert report.baseline.extra["shared_excess_slots"] > 0
        assert report.best.extra["shared_excess_slots"] == 0
        assert report.best.config["pad"] == 1 or report.best.config["skew"] > 0
        assert report.best.cost < report.baseline.cost
        assert report.improvement > 1.0
        assert report.certificate == "conflict-free"
        assert report.certified

    def test_transformed_kernel_output_identical(self):
        """The tuned layout changes where tile cells live, not what the
        kernel computes: bitwise-identical transpose output."""
        report = tune_transpose()
        task = get_task("transpose")
        base_out, _, _ = task.run(report.baseline.config, SHAPE, LATS[0],
                                  "batch")
        best_out, _, _ = task.run(report.best.config, SHAPE, LATS[0],
                                  "batch")
        assert np.array_equal(base_out, best_out)
        # And it really is the transpose of the input matrix.
        from repro.tuner.demos import _transpose_matrix

        assert np.array_equal(best_out, _transpose_matrix(SHAPE).T)
        assert report.equivalent

    def test_replay_and_event_costs_agree(self):
        by_mode = {m: tune_transpose(mode=m, cache=False)
                   for m in ("replay", "event", "batch")}
        costs = {m: r.best.cost for m, r in by_mode.items()}
        assert len(set(costs.values())) == 1, costs
        assert len({r.best.cycles[str(LATS[0])]
                    for r in by_mode.values()}) == 1
        # Replay actually engaged (capture on first sight of a layout).
        assert by_mode["replay"].best.extra["engine"].startswith("replay")

    def test_advice_verdicts_flip(self):
        report = tune_transpose()
        before = report.advice_before
        after = report.advice_after
        assert any("shared" in f for f in before["findings"])
        shared = [u for name, u in after["units"].items()
                  if name.startswith("shared")]
        assert shared
        assert all(u["efficiency"] == 1.0 for u in shared)

    def test_history_and_report_dict(self):
        report = tune_transpose()
        assert report.history[0][0] == {"pad": 0, "skew": 0}  # baseline first
        assert report.evaluations == len(report.history)
        d = report.to_dict()
        json.dumps(d)  # wire-safe
        assert d["task"] == "transpose"
        assert d["certificate"] == "conflict-free"
        assert d["best"]["config"] == report.best.config
        text = report.render()
        assert "certified optimal early" in text
        assert "outputs equivalent: yes" in text


class TestCertificates:
    def test_early_exit_skips_rest_of_space(self):
        # Greedy from the conflicted baseline steps straight into a
        # conflict-free neighbour; the certificate must stop the search
        # well before the 12-config space is exhausted.
        report = tune_transpose(strategy="greedy", seed=0)
        assert report.certificate == "conflict-free"
        space = get_task("transpose").space(SHAPE)
        assert report.evaluations < space.size

    def test_sum_has_lower_bound_certificate_path(self):
        task = get_task("sum")
        shape = task.shape({"n": 256})
        assert task.lower_bound(shape, 4) is not None
        report = tune("sum", shape={"n": 256}, latencies=(4,))
        # Raising p toward p >= lw must beat the p=16 baseline.
        assert report.best.config["p"] > report.baseline.config["p"]
        assert report.improvement > 1.0
        assert report.equivalent  # same sum, any occupancy
        if report.certificate is not None:
            assert report.certificate == "lower-bound"

    def test_occupancy_task_never_conflict_certified(self):
        # Every sum candidate is conflict-free; stopping on that would
        # freeze the baseline. The task must not claim the certificate.
        assert not get_task("sum").conflict_certificate
        report = tune("sum", shape={"n": 256}, latencies=(4,))
        assert report.certificate != "conflict-free"


class TestModesAndFallback:
    def test_auto_mode_resolution(self):
        # "auto" is replay for every task: a launch whose capture is
        # not race-free runs on the event engine instead.
        assert resolve_tune_mode("auto") == "replay"
        assert resolve_tune_mode("event") == "event"
        assert resolve_tune_mode("batch") == "batch"

    def test_gather_replays_when_forced_and_stays_correct(self):
        shape = {"n": 64}
        forced = tune("gather", shape=shape, latencies=(4,), mode="replay")
        auto = tune("gather", shape=shape, latencies=(4,), mode="auto")
        # Each gather launch is race-free, so a replay search replays
        # it, and "auto" is replay too.  The costs agree.
        assert forced.best.extra["engine"].startswith("replay")
        assert auto.mode == "replay"
        assert forced.best.cost == auto.best.cost
        assert forced.best.config == auto.best.config

    def test_permutation_conflict_free_schedule_wins(self):
        report = tune("permutation", shape={"n": 128}, latencies=(8,))
        assert report.best.config["schedule"] == "conflict-free"
        assert report.improvement > 1.0
        assert report.equivalent
        assert report.certificate == "conflict-free"


#: Small shapes for every demo task (transpose uses ``SHAPE``).
TASK_SHAPES = {
    "transpose": SHAPE,
    "sum": {"n": 256},
    "sort": {"n": 128},
    "permutation": {"n": 128},
    "gather": {"n": 64},
}


class TestVerdicts:
    """The before/after verdicts run in the search's mode at the grid's
    largest latency, and agree with batch launches of the same configs."""

    @pytest.mark.parametrize("lats", [(3, 9), (40, 2)])
    @pytest.mark.parametrize("task_name", sorted(TASK_SHAPES))
    def test_verdicts_match_batch_launches(self, task_name, lats):
        report = tune(task_name, shape=TASK_SHAPES[task_name],
                      latencies=lats, cache=False)
        task = get_task(task_name)
        shape = task.shape(TASK_SHAPES[task_name])
        base_out, base_rep, params = task.run(
            report.baseline.config, shape, max(lats), "batch")
        best_out, best_rep, _ = task.run(
            report.best.config, shape, max(lats), "batch")
        assert report.advice_before == _advice_dict(diagnose(base_rep, params))
        assert report.advice_after == _advice_dict(diagnose(best_rep, params))
        assert report.equivalent == bool(np.allclose(base_out, best_out))

    def test_verdict_latency_ignores_grid_order(self):
        down = tune_transpose(latencies=(64, 4), cache=False)
        up = tune_transpose(latencies=(4, 64), cache=False)
        assert down.advice_before == up.advice_before
        assert down.advice_after == up.advice_after

    @pytest.mark.parametrize("task_name", ["transpose", "sort", "permutation"])
    def test_replay_tune_runs_no_batch_and_verdicts_capture_nothing(
            self, task_name, monkeypatch):
        def batch_run(*args, **kwargs):
            raise AssertionError("a replay-mode tune ran the batch engine")

        monkeypatch.setattr(BatchCostEngine, "run", batch_run)

        def run():
            return tune(task_name, shape=TASK_SHAPES[task_name],
                        latencies=LATS, mode="replay", cache=False)

        admit(run)
        store = default_store()
        stored = store.metrics["trace_store.entries_disk"]
        before = dict(store.metrics["trace_store"])
        report = run()
        stats = {name: count - before[name] for name, count
                 in store.metrics["trace_store"].items()
                 if name in ("captures", "hits", "refusals",
                             "flagged_programs")}

        evaluated = [config for config, _ in report.history]
        # One capture per evaluated launch (every one is race-free)
        # the admitting tune did not store; dispatch is priced, not
        # keyed, so it shares its launch's trace.
        launches = {json.dumps({k: v for k, v in c.items()
                                if k != "dispatch"}, sort_keys=True)
                    for c in evaluated}
        assert evaluated
        assert stats["captures"] == len(launches) - stored
        if task_name == "transpose":
            assert stats["captures"] == report.evaluations - stored

        # Each verdict launch is a hit; neither captures.
        assert stats["refusals"] == stats["flagged_programs"] == 0
        # Each configuration is looked up once, at its first latency,
        # and re-priced at the others without a lookup.
        assert stats["hits"] == len(evaluated) - stats["captures"] + 2


class TestValidation:
    def test_rejects_duplicate_latencies(self):
        # Cycles are reported per latency; a repeated one would be
        # costed twice but counted once in the objective.
        with pytest.raises(ConfigurationError, match="distinct"):
            tune("transpose", latencies=[4, 4])

    def test_rejects_unknowns(self):
        with pytest.raises(ConfigurationError):
            tune("fft")
        with pytest.raises(ConfigurationError):
            tune("transpose", strategy="gradient-descent")
        with pytest.raises(ConfigurationError):
            tune("transpose", latencies=(0,))
        with pytest.raises(ConfigurationError):
            tune("transpose", shape={"k": 3})
        with pytest.raises(ConfigurationError):
            get_task("transpose").shape({"m": 0})

    def test_budget_is_respected(self):
        report = tune_transpose(strategy="random", budget=3, seed=1)
        assert report.evaluations <= 3

    def test_cache_reuse_gives_identical_report(self):
        first = tune_transpose()
        second = tune_transpose()
        assert second.best.config == first.best.config
        assert second.best.cost == first.best.cost
        assert second.history == first.history


class TestCLI:
    def test_list(self, capsys):
        assert tuner_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in TASKS:
            assert name in out

    def test_tune_text(self, capsys):
        rc = tuner_main([
            "transpose", "--shape", "w=4", "d=2", "m=8",
            "--latencies", "3", "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tune transpose" in out
        assert "certified optimal early" in out

    def test_tune_json(self, capsys):
        rc = tuner_main([
            "transpose", "--shape", "w=4", "d=2", "m=8",
            "--latencies", "3", "--json", "--no-cache",
            "--strategy", "greedy", "--budget", "6",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "transpose"
        assert payload["best"]["extra"]["shared_excess_slots"] == 0

    def test_bad_shape_is_error_exit(self, capsys):
        rc = tuner_main([
            "permutation", "--shape", "n=7", "--no-cache", "--latencies", "4",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
