"""Launch keys and result-cache keys: pinned digests, the memoized
keyer held to a plain walk, and the tuner's shared inputs.

Keying a launch derives most of its bytes from facts that never change
between launches (a code object's bytecode and constants, a dataclass's
field names, the JSON before a result-cache point), so the keyers make
each once.  The digests below were computed before those memos existed
under a fixed fingerprint: a store written then must still hit.
``launch_keys_ref`` keeps the walk the memos replaced; the memoized
walk must feed the same bytes and refuse the same programs.
"""

import dataclasses
import enum
import functools
import hashlib
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.executor as executor_mod
import repro.machine.engine as engine_mod
import repro.machine.hmm as hmm_mod
from repro.analysis.executor import SweepExecutor, describe_measure, point_key
from repro.analysis.terms import Params
from repro.experiments.table1 import (
    conv_launch_report,
    sum_launch_report,
    sum_task,
)
from repro.machine import replay
from repro.machine.engine import make_warp_contexts
from repro.machine.replay import derive_launch_key, reset_default_store
from repro.service.oracle import CostOracle, evaluate_points
from repro.service.protocol import parse_cost_request
from repro.tuner import TASKS, measure_candidate, tune
from repro.tuner import demos

from conftest import admit, make_dmm
from launch_keys_ref import program_digests, value_digests

FP = "golden-fingerprint"

#: ``derive_launch_key`` digests under :data:`FP`.
HMM_SUM = "64aa9406792b560eecf3fa925c89e6604af0b3e31eb4201225e52bfb13a81337"
TRANSPOSE_PAD1 = \
    "8366d42ad866ded93466dfd58bc945bfdb46026b28b612abe64716c6ee3c6ce2"
DMM_CONVOLUTION = \
    "19f0a4f5a39927fba39d350206283e07979330ca4a7538b128de6e98a89853d7"
UMM_SUM = "526acbfb7d6cffff11bbfd6f1f335a892b7cab513eca41f010eecaac07b51951"

#: Result-cache keys of served ``/v1/cost`` specs, under :data:`FP`.
SPEC_KEYS = {
    ("sum", "dmm"):
        "cba112f7b8d2d142c55cfdee5221051cd0e6d84cc0d4f0728edf34992fe062cf",
    ("sum", "umm"):
        "0c8836539d63389d65fb73672e0dddc8b4045385864c9e8754c835cf284fd305",
    ("sum", "hmm"):
        "e8523f5cac1e4351ce7575cea3b27c268426091f3d0e79d58edfff772da71d7e",
    ("convolution", "dmm"):
        "d7e3ca0727907630a7c9c7cc8299c6f86478c0f13c67f8c3be9dc76927db7535",
    ("convolution", "umm"):
        "13cf2870c4762ef043bd829798ed203e5657405fe1e507efd114f131568029f6",
    ("convolution", "hmm"):
        "bea48dafed676dc7fcd0bd8fe9a0c6b32fc0c8d05f9bc711b4301658989d765a",
}
TUNE_POINT = "8f697508c9093c005121d1138b9b8a77be61c4287ab10541de4d6e06f6a706e8"
PARAMS_POINT = \
    "bf7406a28f29f7f337ab858f656d2cdfc0b76fe2909be662dc3e8e6733c1f336"

#: sha256 of each task's canonical ``tune(...).to_dict()`` (without
#: ``search_seconds``) at :data:`TUNE_SHAPES`, latencies (3, 40), on an
#: empty trace store.
TUNE_REPORTS = {
    "transpose":
        "3fe80664783fbd5c7f9813c4f0349ab40ce701d74903c27017e105ca29b0f334",
    "sum": "71f4fce5fd4c2511b5b18a0911edc1af058a5f6497b28e9123e6012b42205ac3",
    "sort": "c70cc2d10a246e65992ff76642069691893fdc13db647a6885ab8df87592161f",
    "permutation":
        "41fd9c2bf984c11a30e149c71339b8ed0eb0200045fdf7c7945031ec31b4d428",
    "gather":
        "26170e30255809053e29160a5050ce68704396f3a98633ff34bfbc437ee2ccfb",
}
TUNE_SHAPES = {
    "transpose": {"w": 4, "d": 2, "m": 8},
    "sum": {"n": 256},
    "sort": {"n": 128},
    "permutation": {"n": 128},
    "gather": {"n": 64},
}


@pytest.fixture(autouse=True)
def _fresh_trace_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / "traces"))
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture
def launch_keys(monkeypatch):
    """Call with a function: the launch keys it derives, in order,
    under :data:`FP`."""
    real = replay.derive_launch_key

    def keys_of(fn):
        seen = []

        def recording(program, **kwargs):
            seen.append(real(program, **{**kwargs, "fingerprint": FP}))
            return seen[-1]

        monkeypatch.setattr(replay, "derive_launch_key", recording)
        try:
            fn()
        finally:
            monkeypatch.setattr(replay, "derive_launch_key", real)
        return seen
    return keys_of


@pytest.fixture
def launched(monkeypatch):
    """Every program launched from here on, in launch order."""
    programs = []
    run_launch = engine_mod.run_launch

    def recording(engine, program, *args, **kwargs):
        programs.append(program)
        return run_launch(engine, program, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "run_launch", recording)
    monkeypatch.setattr(hmm_mod, "run_launch", recording)
    return programs


def _spec(kernel: str, model: str) -> dict:
    body = {"kernel": kernel, "model": model, "n": 1024, "p": 64, "w": 16,
            "l": 32, "seed": 7}
    if kernel == "convolution":
        body["k"] = 8
    if model == "hmm":
        body["d"] = 4
    spec = parse_cost_request(body)
    spec.pop("backend")
    return spec


class TestGoldenDigests:
    def test_hmm_sum(self, launch_keys):
        q = Params(n=4096, p=256, w=16, l=64, d=8)
        assert launch_keys(lambda: sum_launch_report(
            q, model="hmm", seed=1, mode="replay")) == [HMM_SUM]

    def test_transpose_candidate(self, launch_keys):
        task = TASKS["transpose"]
        assert launch_keys(lambda: task.run(
            {"pad": 1, "skew": 0}, task.shape(), 8, "replay")) \
            == [TRANSPOSE_PAD1]

    def test_dmm_convolution(self, launch_keys):
        q = Params(n=256, k=16, p=64, w=8, l=5)
        assert launch_keys(lambda: conv_launch_report(
            q, model="dmm", seed=1, mode="replay")) == [DMM_CONVOLUTION]

    def test_umm_sum(self, launch_keys):
        q = Params(n=512, p=64, w=8, l=5)
        assert launch_keys(lambda: sum_launch_report(
            q, model="umm", seed=1, mode="replay")) == [UMM_SUM]

    def test_keys_survive_a_warm_memo(self, launch_keys):
        task = TASKS["transpose"]
        for _ in range(3):
            assert launch_keys(lambda: task.run(
                {"pad": 1, "skew": 0}, task.shape(), 8, "replay")) \
                == [TRANSPOSE_PAD1]

    @pytest.mark.parametrize("kernel, model", sorted(SPEC_KEYS))
    def test_spec_keys(self, kernel, model, tmp_path, monkeypatch):
        spec = _spec(kernel, model)
        want = SPEC_KEYS[kernel, model]
        assert point_key(describe_measure(evaluate_points), spec, mode=None,
                         fingerprint=FP) == want
        monkeypatch.setattr(executor_mod, "repro_fingerprint", lambda: FP)
        oracle = CostOracle(cache_dir=tmp_path / "sweep")
        try:
            assert oracle.spec_store_keys([spec]) == [("sweep", want)]
        finally:
            oracle.close()

    def test_tune_point(self):
        point = {"task": "transpose", "config": {"pad": 1, "skew": 0},
                 "shape": TASKS["transpose"].shape(), "l": 8,
                 "mode": "replay"}
        assert point_key(describe_measure(measure_candidate), point,
                         mode="replay", fingerprint=FP) == TUNE_POINT

    def test_params_point_as_a_run_stores_it(self, tmp_path):
        measure = functools.partial(sum_task, model="hmm", seed=3,
                                    mode="batch")
        q = Params(n=2048, p=128, w=16, l=64, d=4)
        assert point_key(describe_measure(measure), q, mode="batch",
                         fingerprint=FP) == PARAMS_POINT
        ex = SweepExecutor(cache_dir=tmp_path / "sweep", fingerprint=FP)
        ex.run(measure, [q], mode="batch")
        assert [key for key, _ in ex.cache.store_namespace.scan()] \
            == [PARAMS_POINT]

    def test_grouped_run_keys_each_point(self, tmp_path):
        def measure(points):
            return [q["l"] for q in points]

        points = [{"l": l, "n": 4} for l in (3, 5)]
        ex = SweepExecutor(cache_dir=tmp_path / "sweep", fingerprint=FP)
        rows = ex.run(measure, points, mode="m", axis="l")
        assert [row.cycles for row in rows] == [3, 5]
        desc = describe_measure(measure)
        assert {key for key, _ in ex.cache.store_namespace.scan()} == {
            point_key(desc, q, mode="m", fingerprint=FP) for q in points}


# ---------------------------------------------------------------------------
# The memoized walk against the reference walk.
# ---------------------------------------------------------------------------

class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Leaf:
    x: int
    label: str = ""


@dataclasses.dataclass
class Node:
    left: object
    right: object


def _add(a, b=0, *, c=1):
    return a + b + c


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.binary(max_size=4),
    st.floats(allow_nan=False),
    st.sampled_from([np.int64(3), np.float32(1.5), np.bool_(True),
                     np.float64(2.0)]),
    st.sampled_from(list(Color)),
    st.integers(0, 5).map(range),
)
arrays = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda xs: np.asarray(xs, dtype=np.int64))
values = st.recursive(
    st.one_of(scalars, arrays),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.frozensets(st.integers(-5, 5), max_size=3),
        st.sets(st.text(max_size=2), max_size=3),
        st.builds(Leaf, st.integers(), st.text(max_size=3)),
        st.builds(Node, inner, inner),
        st.builds(lambda a, b: functools.partial(_add, a, c=b), inner, inner),
    ),
    max_leaves=12,
)


def _nested(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


class TestReferenceWalk:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_drawn_values(self, value):
        memoized, reference = value_digests(value)
        assert memoized == reference

    @settings(max_examples=50, deadline=None)
    @given(values, st.integers(0, 18))
    def test_drawn_values_at_depth(self, value, depth):
        memoized, reference = value_digests(value, depth)
        assert memoized == reference

    @pytest.mark.parametrize("name", sorted(TUNE_SHAPES))
    def test_tuner_tasks(self, name, launched):
        task = TASKS[name]
        shape = task.shape(TUNE_SHAPES[name])
        for config in task.space(shape).grid():
            task.run(config, shape, 5, "event")
        assert launched
        for program in launched:
            memoized, reference = program_digests(program)
            assert memoized == reference is not None

    def test_constants_nested_near_the_depth_limit(self):
        # A function whose constant is 13 tuples deep needs 14 levels
        # below its own depth; each list around it adds one.
        namespace = {}
        exec("def deep():\n    return " + "(" * 13 + "1" + ",)" * 13,
             namespace)
        deep = namespace["deep"]
        refused = []
        for levels in range(4):
            memoized, reference = value_digests(_nested(deep, levels))
            assert memoized == reference
            refused.append(memoized is None)
        assert refused == [False, False, True, True]

    def test_too_deep_value_still_refuses_after_warm_memo(self):
        contexts = make_warp_contexts(4, 4)
        space = make_dmm().space

        def key_of(value):
            def kernel(ctx):
                yield ctx.read(value, ctx.tids)
            return derive_launch_key(
                kernel, machine="flat", width=4, contexts=contexts,
                spaces=[space], fingerprint=FP)

        assert key_of(_nested(1, 3)) is not None
        assert key_of(_nested(1, replay._MAX_KEY_DEPTH)) is None
        assert key_of(_nested(1, 3)) is not None

    def test_unkeyable_closure_still_refuses_after_warm_memo(self):
        contexts = make_warp_contexts(4, 4)
        space = make_dmm().space

        def key_of(value):
            def kernel(ctx):
                yield ctx.read(value, ctx.tids)
            return derive_launch_key(
                kernel, machine="flat", width=4, contexts=contexts,
                spaces=[space], fingerprint=FP)

        assert key_of(Leaf(1)) is not None
        assert key_of(threading.Lock()) is None
        assert key_of(object()) is None
        assert key_of(Leaf(1)) is not None

    def test_unkeyable_constant_refuses(self):
        def uses_ellipsis(ctx):
            yield ...

        memoized, reference = program_digests(uses_ellipsis)
        assert memoized is None and reference is None
        assert program_digests(uses_ellipsis)[0] is None


# ---------------------------------------------------------------------------
# A bound method keys the instance it is bound to.
# ---------------------------------------------------------------------------

class Strider:
    def __init__(self, stride: int) -> None:
        self.stride = stride

    def index_of(self, tids):
        return tids * self.stride


@dataclasses.dataclass(frozen=True)
class DataStrider:
    stride: int

    def index_of(self, tids):
        return tids * self.stride


def _strided_launch(strider, mode: str):
    """DMM w=16, l=5: lane j writes ``a[index_of(j)] + 1`` to ``b[j]``."""
    eng = make_dmm(width=16, latency=5, mode=mode)
    a = eng.array_from(np.arange(64.0), "a")
    b = eng.alloc(16, "b")
    index_of = strider.index_of

    def kernel(ctx):
        vals = yield ctx.read(a, index_of(ctx.tids))
        yield ctx.write(b, ctx.tids, vals + 1)

    report = eng.launch(kernel, 16)
    return report, b.to_numpy()[:4]


class TestBoundMethods:
    def test_event_reference(self):
        assert _strided_launch(Strider(1), "event")[0].cycles == 10
        assert _strided_launch(Strider(4), "event")[0].cycles == 13

    def test_instance_state_is_not_replayed_from_another_instance(self):
        admit(lambda: _strided_launch(Strider(1), "replay"))
        _strided_launch(Strider(1), "replay")
        report, out = _strided_launch(Strider(4), "replay")
        assert report.engine != "replay"
        assert report.cycles == 13
        np.testing.assert_array_equal(out, [1, 5, 9, 13])

    def test_plain_instance_refuses(self):
        report, _ = _strided_launch(Strider(1), "replay")
        assert report.engine == "replay-refused"

    def test_dataclass_instance_keys_its_fields(self):
        admit(lambda: _strided_launch(DataStrider(1), "replay"))
        _strided_launch(DataStrider(1), "replay")
        assert _strided_launch(DataStrider(1), "replay")[0].engine == "replay"
        report, out = _strided_launch(DataStrider(4), "replay")
        assert report.engine == "replay-capture"
        assert report.cycles == 13
        np.testing.assert_array_equal(out, [1, 5, 9, 13])

    def test_module_builtins_key_by_name(self):
        h = hashlib.sha256()
        replay._feed_function(h, len, set())
        assert h.hexdigest() == hashlib.sha256(b"builtins.len;").hexdigest()

    def test_builtin_bound_to_a_value_keys_it(self):
        one, two = [1], [2]
        assert value_digests(one.append)[0] != value_digests(two.append)[0]
        assert value_digests(one.append)[0] == value_digests([1].append)[0]


# ---------------------------------------------------------------------------
# The tuner draws each shape's inputs once.
# ---------------------------------------------------------------------------

class TestTuneInputs:
    def test_inputs_are_read_only_and_shared(self):
        shape = TASKS["transpose"].shape()
        matrix = demos._transpose_matrix(shape)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        assert demos._transpose_matrix(dict(shape)) is matrix

    def test_draw_order_is_kept(self):
        shape = TASKS["gather"].shape()
        values, targets = demos._inputs(demos._draw_gather, shape)
        rng = demos._rng(shape)
        np.testing.assert_array_equal(values, rng.standard_normal(shape["n"]))
        np.testing.assert_array_equal(targets, rng.permutation(shape["n"]))
        m = TASKS["transpose"].shape()["m"]
        np.testing.assert_array_equal(
            demos._transpose_matrix(TASKS["transpose"].shape()),
            demos._rng(TASKS["transpose"].shape()).standard_normal((m, m)))

    @pytest.mark.parametrize("name", sorted(TUNE_REPORTS))
    def test_tune_reports_are_unchanged(self, name):
        report = tune(name, shape=TUNE_SHAPES[name], latencies=(3, 40),
                      cache=False).to_dict()
        report.pop("search_seconds", None)
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == TUNE_REPORTS[name]
