"""One launch per candidate: ``TuneTask.run_grid`` against separate runs.

The grid runner launches a configuration once and re-prices the
replayed trace at the grid's other latencies; every other launch
(event, batch, refused, rejected) is followed by a full launch.  Either
way its reports must equal one :meth:`TuneTask.run` per latency, on a
trace store of the same history: cycles, unit statistics, engine tag
and output.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.executor import SweepExecutor, describe_measure, point_key
from repro.machine.engine import MachineEngine
from repro.machine.policy import UMMGroupPolicy
from repro.machine.replay import default_store, reset_default_store
from repro.params import MachineParams
from repro.tuner import TASKS, measure_candidate, resolve_tune_mode, tune
from repro.tuner.demos import TuneTask, run_config
from repro.tuner.space import Axis, ParamSpace

from conftest import admit, assert_reports_equal

#: Small shapes for every demo task.
TASK_SHAPES = {
    "transpose": {"w": 4, "d": 2, "m": 8},
    "sum": {"n": 256},
    "sort": {"n": 128},
    "permutation": {"n": 128},
    "gather": {"n": 64},
}
GRIDS = [(3, 9), (40, 2), (7,)]


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    """Call to point the process trace store at a new empty directory."""
    stores = itertools.count()

    def fresh():
        monkeypatch.setenv("REPRO_STORE_TRACE_DIR",
                           str(tmp_path / f"traces{next(stores)}"))
        reset_default_store()

    fresh()
    yield fresh
    reset_default_store()


def _assert_runs_equal(expected, actual):
    assert len(actual) == len(expected)
    for (want_out, want), (got_out, got) in zip(expected, actual):
        assert got.engine == want.engine
        assert_reports_equal(want, got)
        np.testing.assert_array_equal(got_out, want_out)


def test_shapes_cover_every_task():
    assert set(TASK_SHAPES) == set(TASKS)


@pytest.mark.parametrize("lats", GRIDS, ids=str)
@pytest.mark.parametrize("mode", ["auto", "replay", "event", "batch"])
@pytest.mark.parametrize("task_name", sorted(TASK_SHAPES))
def test_grid_equals_separate_runs(task_name, mode, lats, fresh_store):
    task = TASKS[task_name]
    shape = task.shape(TASK_SHAPES[task_name])
    run_mode = resolve_tune_mode(mode)
    configs = list(task.space(shape).grid())

    def launch_each_config():
        return [task.run(c, shape, lats[0], run_mode) for c in configs]

    admit(launch_each_config)
    grid = [task.run_grid(c, shape, lats, run_mode) for c in configs]
    fresh_store()
    admit(launch_each_config)
    separate = [
        [task.run(c, shape, l, run_mode)[:2] for l in lats] for c in configs
    ]
    assert len(grid) == len(separate) == task.space(shape).size > 1
    for expected, actual in zip(separate, grid):
        _assert_runs_equal(expected, actual)


def test_replay_grid_keys_each_launch_once(fresh_store):
    task = TASKS["transpose"]
    shape = task.shape(TASK_SHAPES["transpose"])
    runs = task.run_grid(task.baseline(shape), shape, (3, 9, 27), "replay")
    assert [r.engine for _, r in runs] == ["replay-capture", "replay",
                                           "replay"]
    stats = default_store().metrics["trace_store"]
    assert (stats["captures"], stats["hits"], stats["misses"]) == (1, 0, 1)


def _run_racy(config, shape, l, mode):
    """Every warp writes its values to ``b``'s first ``w`` cells: which
    store lands last is up to the schedule; ``config["data"]`` seeds
    the input."""
    n, w = shape["n"], shape["w"]
    engine = MachineEngine(MachineParams(width=w, latency=l),
                           UMMGroupPolicy(), name="umm", mode=mode)
    values = np.random.default_rng(config["data"]).standard_normal(n)
    a = engine.array_from(values, "a")
    b = engine.alloc(n, "b")

    def prog(warp):
        vals = yield warp.read(a, warp.tids)
        yield warp.write(b, warp.lanes, vals)

    report = engine.launch(prog, n, label="racy")
    return b.to_numpy(), report, engine


#: Every launch races: the certificate refuses it.
RACY = TuneTask(
    name="racy",
    summary="every warp writes one block",
    default_shape={"w": 4, "n": 16},
    space_fn=lambda shape: ParamSpace([Axis("data", (0, 1))]),
    baseline_fn=lambda shape: {"data": 0},
    run_fn=_run_racy,
)


def test_rejected_capture_refuses_the_rest_like_separate_runs(fresh_store):
    task, lats = RACY, (3, 9, 27)
    shape = task.shape()
    configs = [{"data": 0}, {"data": 1}]

    grid = [task.run_grid(c, shape, lats, "replay") for c in configs]
    # No racy capture is stored, so each latency is a full launch whose
    # capture is refused again.
    for runs in grid:
        assert [r.engine for _, r in runs] == ["replay-refused"] * len(lats)
    stats = default_store().metrics["trace_store"]
    assert stats["flagged_programs"] == stats["refusals"] == 2 * len(lats)
    assert stats["captures"] == 0
    fresh_store()
    separate = [[task.run(c, shape, l, "replay")[:2] for l in lats]
                for c in configs]
    for expected, actual in zip(separate, grid):
        _assert_runs_equal(expected, actual)


class TestMeasureCandidate:
    def test_equals_run_config_per_latency(self, fresh_store):
        point = {"task": "sum", "config": {"p": 32, "dispatch": "fifo"},
                 "shape": TASKS["sum"].shape(TASK_SHAPES["sum"]),
                 "mode": "replay"}
        lats = (3, 9, 27)
        grouped = measure_candidate([dict(point, l=l) for l in lats])
        fresh_store()
        admit(lambda: run_config(point["task"], point["config"],
                                 point["shape"], lats[0], point["mode"]))
        separate = [run_config(point["task"], point["config"],
                               point["shape"], l, point["mode"])
                    for l in lats]
        assert grouped == separate

    def test_tune_cache_keys_are_the_per_point_keys(self, tmp_path,
                                                    fresh_store):
        lats = (3, 9)
        ex = SweepExecutor(cache=True, cache_dir=tmp_path / "tune",
                           namespace="tune")
        report = tune("transpose", shape=TASK_SHAPES["transpose"],
                      latencies=lats, executor=ex)
        shape = TASKS["transpose"].shape(TASK_SHAPES["transpose"])
        desc = describe_measure(measure_candidate)
        expected = {
            point_key(desc, {"task": "transpose", "config": config,
                             "shape": shape, "l": l, "mode": report.mode},
                      mode=report.mode, fingerprint=ex.fingerprint)
            for config, _ in report.history for l in lats
        }
        stored = {key for key, _ in ex.cache.store_namespace.scan()}
        assert stored == expected
        assert ex.metrics["cache.misses"] == len(expected)
        assert ex.metrics["cache.hits"] == 0
