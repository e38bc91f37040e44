"""Differential property test of replay's per-launch race certificate.

Hypothesis draws small warp programs: random lane addresses and masks,
reads and writes (some addressed through the values just read, every
write carrying them), fused ``read_range``/``write_range`` steps of up
to three rounds (a range's rounds may write one cell again, and within
a round several lanes may write it), partial warps, DMM-scope and
device-scope barriers, compute steps and warps that stop early, on the
DMM, the UMM and the HMM.  For each:

* the certificate (``"replay-capture"`` vs ``"replay-refused"``) agrees
  with :meth:`~repro.machine.trace.TraceRecorder.detect_races` on an
  event run;
* a certified launch, replayed from the store or re-priced, equals an
  event run at every latency in ``LATENCIES`` under FIFO and
  round-robin dispatch: cycles, every ``UnitStats``, memory image;
* a racy launch is refused, equals the event run, and stores nothing.

The capture steps warps barrier to barrier without the scheduler, so
two more properties hold it to event runs under every dispatch and
with pipelining off:

* its certificate equals ``detect_races() == []`` on an event run;
* the capture launch's own report and memory image equal that event
  run's.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.engine import MachineEngine, reprice
from repro.machine import replay as replay_mod
from repro.machine.hmm import HMMEngine
from repro.machine.policy import DMMBankPolicy, UMMGroupPolicy
from repro.machine.replay import default_store, reset_default_store
from repro.machine.trace import TraceRecorder
from repro.params import HMMParams, MachineParams

from conftest import assert_reports_equal

#: Cells of each array a program addresses.
CELLS = 8
#: Latencies of the flat unit / the HMM global unit checked per launch.
LATENCIES = (2, 9, 64)
#: Lanes per warp; the HMM has two DMMs.
WIDTH = 4
MAX_WARPS = 4


# ---------------------------------------------------------------------------
# The program model: one step list shared by every warp, so barriers
# match; each warp draws its own lanes for each memory step and may stop
# early.
# ---------------------------------------------------------------------------

def _mem_step():
    return st.fixed_dictionaries({
        "op": st.just("mem"),
        "write": st.lists(st.booleans(), min_size=MAX_WARPS,
                          max_size=MAX_WARPS),
        "shared": st.booleans(),
        "indirect": st.booleans(),
        "addrs": st.lists(
            st.lists(st.integers(0, CELLS - 1), min_size=WIDTH,
                     max_size=WIDTH),
            min_size=MAX_WARPS, max_size=MAX_WARPS),
        "masks": st.lists(
            st.lists(st.booleans(), min_size=WIDTH, max_size=WIDTH),
            min_size=MAX_WARPS, max_size=MAX_WARPS),
    })


#: Most rounds of a drawn fused range.
MAX_ROUNDS = 3


def _range_step():
    return st.fixed_dictionaries({
        "op": st.just("range"),
        "write": st.lists(st.booleans(), min_size=MAX_WARPS,
                          max_size=MAX_WARPS),
        "shared": st.booleans(),
        "indirect": st.booleans(),
        "rounds": st.integers(1, MAX_ROUNDS),
        "compute": st.integers(0, 2),
        "addrs": st.lists(
            st.lists(
                st.lists(st.integers(0, CELLS - 1), min_size=WIDTH,
                         max_size=WIDTH),
                min_size=MAX_ROUNDS, max_size=MAX_ROUNDS),
            min_size=MAX_WARPS, max_size=MAX_WARPS),
    })


STEPS = st.lists(
    st.one_of(
        _mem_step(),
        _range_step(),
        st.fixed_dictionaries({"op": st.just("compute"),
                               "cycles": st.integers(1, 3)}),
        st.just({"op": "sync_dmm"}),
        st.just({"op": "barrier"}),
    ),
    min_size=1, max_size=7,
)

CASES = st.fixed_dictionaries({
    "machine": st.sampled_from(["dmm", "umm", "hmm"]),
    "threads": st.integers(1, MAX_WARPS * WIDTH),
    "steps": STEPS,
    "stops": st.lists(st.integers(0, 7), min_size=MAX_WARPS,
                      max_size=MAX_WARPS),
    "init": st.lists(st.integers(0, CELLS - 1), min_size=CELLS,
                     max_size=CELLS),
})


def _program(case, flat, shared):
    """The warp program of ``case`` over ``flat`` (global) and
    ``shared`` (per DMM; ``flat`` again on a flat machine)."""
    steps, stops = case["steps"], case["stops"]

    def program(warp):
        me = warp.warp_id
        last = np.zeros(warp.num_lanes)
        for i, step in enumerate(steps[:stops[me]] if stops[me] else steps):
            op = step["op"]
            if op == "compute":
                yield warp.compute(step["cycles"])
            elif op == "sync_dmm":
                yield warp.sync_dmm()
            elif op == "barrier":
                yield warp.barrier()
            elif op == "range":
                array = shared[warp.dmm_id] if step["shared"] else flat
                rows = np.asarray(
                    step["addrs"][me][:step["rounds"]])[:, :warp.num_lanes]
                if step["indirect"]:
                    rows = (rows + last.astype(np.int64)) % CELLS
                if step["write"][me]:
                    # Each round and each lane writes its own value, so
                    # the image shows which round and lane won a cell.
                    rounds, lanes = rows.shape
                    values = (last + 10.0 * me + i
                              + 100.0 * np.arange(rounds)[:, None]
                              + 0.25 * np.arange(lanes))
                    yield warp.write_range(array, rows, values,
                                           compute=step["compute"])
                else:
                    got = yield warp.read_range(array, rows,
                                                compute=step["compute"])
                    last = got.sum(axis=0)
            else:
                array = shared[warp.dmm_id] if step["shared"] else flat
                addrs = np.asarray(step["addrs"][me][:warp.num_lanes])
                if step["indirect"]:
                    addrs = (addrs + last.astype(np.int64)) % CELLS
                mask = np.asarray(step["masks"][me][:warp.num_lanes])
                if step["write"][me]:
                    # The values written carry the last values read, so a
                    # read that saw another store shows in the image.
                    yield warp.write(array, addrs, last + 10.0 * me + i,
                                     mask=mask)
                else:
                    last = yield warp.read(array, addrs, mask=mask)

    return program


def _launch(case, mode, latency, dispatch="fifo", trace=None,
            pipelined=True):
    """One launch of ``case`` on a fresh engine:
    ``(report, memory image, engine)``."""
    init = np.asarray(case["init"], dtype=float)
    if case["machine"] == "hmm":
        eng = HMMEngine(HMMParams(num_dmms=2, width=WIDTH,
                                  global_latency=latency, shared_latency=2),
                        dispatch=dispatch, mode=mode, pipelined=pipelined)
        flat = eng.global_from(init, "g")
        shared = eng.alloc_shared_all(CELLS, "s")
    else:
        policy = DMMBankPolicy() if case["machine"] == "dmm" \
            else UMMGroupPolicy()
        eng = MachineEngine(MachineParams(width=WIDTH, latency=latency),
                            policy, dispatch=dispatch, mode=mode,
                            pipelined=pipelined)
        flat = eng.array_from(init, "g")
        shared = [flat]
    report = eng.launch(_program(case, flat, shared), case["threads"],
                        trace=trace)
    return report, [space.state() for space in eng.spaces], eng


def _assert_same(expected, actual):
    assert_reports_equal(expected[0], actual[0])
    for want, got in zip(expected[1], actual[1]):
        np.testing.assert_array_equal(got, want)


def check(case):
    """The differential property for one drawn program."""
    with mock.patch.dict(os.environ, {"REPRO_STORE_TRACE": "off"}):
        reset_default_store()
        try:
            recorder = TraceRecorder()
            event = _launch(case, "event", LATENCIES[0], trace=recorder)
            capture = _launch(case, "replay", LATENCIES[0])
            race_free = recorder.detect_races() == []
            assert capture[0].engine == (
                "replay-capture" if race_free else "replay-refused")
            _assert_same(event, capture)
            stats = default_store().metrics["trace_store"]
            if not race_free:
                assert stats["flagged_programs"] == 1
                assert stats["captures"] == stats["entries_memory"] == 0
                assert reprice(capture[2], LATENCIES[1]) is None
                return
            # The first capture stored nothing; the second stores it.
            assert stats["entries_memory"] == 0
            again = _launch(case, "replay", LATENCIES[0])
            assert again[0].engine == "replay-capture"
            assert default_store().metrics["trace_store.entries_memory"] == 1
            for dispatch in ("fifo", "round-robin"):
                for latency in LATENCIES:
                    expected = _launch(case, "event", latency, dispatch)
                    replayed = _launch(case, "replay", latency, dispatch)
                    assert replayed[0].engine == "replay"
                    _assert_same(expected, replayed)
                    if dispatch == "fifo":
                        assert_reports_equal(
                            expected[0], reprice(capture[2], latency))
            assert default_store().metrics["trace_store.flagged_programs"] == 0
        finally:
            reset_default_store()


@settings(max_examples=150, deadline=None)
@given(case=CASES)
def test_certificate_agrees_with_event_runs(case):
    check(case)


def _capture_vs_event(case, dispatch, pipelined):
    """An event run with a race recorder and a capture launch of
    ``case`` on an empty store: ``(event, capture, race_free)``."""
    with mock.patch.dict(os.environ, {"REPRO_STORE_TRACE": "off"}):
        reset_default_store()
        try:
            recorder = TraceRecorder()
            event = _launch(case, "event", LATENCIES[1], dispatch,
                            trace=recorder, pipelined=pipelined)
            capture = _launch(case, "replay", LATENCIES[1], dispatch,
                              pipelined=pipelined)
            return event, capture, recorder.detect_races() == []
        finally:
            reset_default_store()


@settings(max_examples=100, deadline=None)
@given(case=CASES, dispatch=st.sampled_from(["fifo", "round-robin"]),
       pipelined=st.booleans())
def test_scheduler_free_certificate_equals_event_race_detection(
    case, dispatch, pipelined
):
    event, capture, race_free = _capture_vs_event(case, dispatch, pipelined)
    assert capture[0].engine == (
        "replay-capture" if race_free else "replay-refused")


@settings(max_examples=100, deadline=None)
@given(case=CASES, dispatch=st.sampled_from(["fifo", "round-robin"]),
       pipelined=st.booleans())
def test_capture_launch_equals_event_run(case, dispatch, pipelined):
    event, capture, _ = _capture_vs_event(case, dispatch, pipelined)
    _assert_same(event, capture)


def _read_step(masks):
    return {"op": "mem", "write": [False] * MAX_WARPS, "shared": False,
            "indirect": False, "addrs": [[0] * WIDTH] * MAX_WARPS,
            "masks": masks}


NONE, LAST = [False] * WIDTH, [False] * (WIDTH - 1) + [True]

#: Shrunk counterexample: warp 0's first read is fully masked.  It costs
#: nothing, but under round-robin it takes a dispatch turn, which a
#: trace without it priced differently.
MASKED_TURN = {
    "machine": "dmm", "threads": 8,
    "steps": [_read_step([NONE, LAST, NONE, NONE]),
              _read_step([LAST, LAST, NONE, NONE])],
    "stops": [0] * MAX_WARPS, "init": [0] * CELLS,
}


@pytest.mark.parametrize("backend", ["python", "native"])
def test_fully_masked_op_takes_a_round_robin_turn(backend, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    check(MASKED_TURN)


def _mem(writers, addrs):
    """A memory step: warps in ``writers`` write, the others read; warp
    ``i`` addresses ``addrs[i]`` with every lane."""
    return {"op": "mem", "write": [i in writers for i in range(MAX_WARPS)],
            "shared": False, "indirect": False, "addrs": addrs,
            "masks": [[True] * WIDTH] * MAX_WARPS}


def _range(writers, rows):
    """A fused range step: warps in ``writers`` write, the others read;
    warp ``i`` addresses the rounds ``rows[i]``."""
    return {"op": "range", "write": [i in writers for i in range(MAX_WARPS)],
            "shared": False, "indirect": False, "rounds": len(rows[0]),
            "compute": 1, "addrs": rows}


CELL7 = [7] * WIDTH

#: Warp 1 writes cells 4-7; after a device barrier warp 0 reads them and
#: writes what it read to cells 0-3.  Race-free only because of the
#: barrier: a capture that let warp 0 past it before warp 1's store
#: would write stale values.
BARRIER_HANDOFF = {
    "machine": "dmm", "threads": 2 * WIDTH, "stops": [0] * MAX_WARPS,
    "init": list(range(CELLS)),
    "steps": [_mem({1}, [[0] * WIDTH, [4, 5, 6, 7], CELL7, CELL7]),
              {"op": "barrier"},
              _mem(set(), [[4, 5, 6, 7], CELL7, CELL7, CELL7]),
              _mem({0}, [[0, 1, 2, 3], CELL7, CELL7, CELL7])],
}


@pytest.mark.parametrize("dispatch", ["fifo", "round-robin"])
def test_capture_reads_what_a_barrier_published(dispatch):
    event, capture, race_free = _capture_vs_event(
        BARRIER_HANDOFF, dispatch, True)
    assert race_free and capture[0].engine == "replay-capture"
    _assert_same(event, capture)


# ---------------------------------------------------------------------------
# Named certificate cases.  The certificate sorts only the lanes of
# written cells, unit by unit; each case pins one way that can go wrong.
# On the HMM, warps 0-1 run on DMM 0 and warps 2-3 on DMM 1.
# ---------------------------------------------------------------------------

def _shared(step):
    return dict(step, shared=True)


ALL = [[0, 1, 2, 3]] * MAX_WARPS
OWN = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 3], [4, 5, 6, 7]]
CELL3, CELL5, CELL6 = [3] * WIDTH, [5] * WIDTH, [6] * WIDTH
WARPS = {"threads": MAX_WARPS * WIDTH, "stops": [0] * MAX_WARPS,
         "init": list(range(CELLS))}

NAMED = {
    # Every warp reads the same cells of every unit: nothing to sort.
    "no-write": (True, dict(WARPS, machine="hmm", steps=[
        _mem(set(), ALL), _shared(_mem(set(), ALL)),
        {"op": "barrier"}, _mem(set(), ALL)])),
    # Each warp writes its own shared cells; on the global unit warp 0
    # (DMM 0) writes cell 7 while warp 3 (DMM 1) reads it.
    "global-only": (False, dict(WARPS, machine="hmm", steps=[
        _shared(_mem({0, 1, 2, 3}, OWN)), _shared(_mem(set(), OWN)),
        _mem({0}, [CELL7, CELL3, CELL3, CELL7])])),
    # Epoch 0: warp 0 writes cell 5; epoch 1: warp 1 reads it, ordered
    # by the barrier; epoch 2: warp 0 writes cell 6 as warp 1 reads it.
    "later-epoch": (False, dict(WARPS, machine="dmm", steps=[
        _mem({0}, [CELL5, CELL3, CELL3, CELL3]), {"op": "barrier"},
        _mem(set(), [CELL3, CELL5, CELL3, CELL3]), {"op": "barrier"},
        _mem({0}, [CELL6, CELL6, CELL3, CELL3])])),
    # Warp 1 (DMM 0) writes cell 5; after a DMM barrier, which orders
    # only DMM 0's warps, warps 0 (DMM 0) and 2 (DMM 1) read it.
    "two-dmms-read": (False, dict(WARPS, machine="hmm", steps=[
        _mem({1}, [CELL3, CELL5, CELL3, CELL3]), {"op": "sync_dmm"},
        _mem(set(), [CELL5, CELL3, CELL5, CELL3])])),
    # The same reads after a device barrier: ordered, race-free.
    "two-dmms-read-after-barrier": (True, dict(WARPS, machine="hmm", steps=[
        _mem({1}, [CELL3, CELL5, CELL3, CELL3]), {"op": "barrier"},
        _mem(set(), [CELL5, CELL3, CELL5, CELL3])])),
    # Warp 0's fused write stores cells 5 and 6 from two lanes each in
    # round 0 and both again in round 1, cell 5 from two lanes: the
    # lowest lane of the last round wins.  After a device barrier warp 1
    # reads them.  One warp rewriting its own cells is no race.
    "range-rewrites-a-cell": (True, dict(WARPS, machine="dmm", steps=[
        _range({0}, [[[5, 5, 6, 6], [7, 6, 5, 5]]] + [[CELL3, CELL3]] * 3),
        {"op": "barrier"},
        _mem(set(), [CELL3, [5, 6, 7, 5], CELL3, CELL3])])),
    # Warps 1-3 read cell 5 in round 1 of their fused reads, in the
    # epoch in which round 1 of warp 0's fused write stores it.
    "range-races-a-read": (False, dict(WARPS, machine="dmm", steps=[
        _range({0}, [[[6, 6, 6, 6], [5, 6, 7, 7]]] + [[CELL3, CELL5]] * 3)])),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_certificate_case(name):
    """The certificate equals ``detect_races`` on an event run."""
    want, case = NAMED[name]
    event, capture, race_free = _capture_vs_event(case, "fifo", True)
    assert race_free is want
    assert capture[0].engine == (
        "replay-capture" if want else "replay-refused")
    _assert_same(event, capture)


@pytest.mark.parametrize("backend", ["python", "native"])
def test_a_range_rewriting_a_cell_replays(backend, monkeypatch):
    """Captured, stored and replayed under both dispatch orders, the
    fused range leaves the event run's image and prices."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    check(NAMED["range-rewrites-a-cell"][1])


def test_a_key_past_62_bits_refuses_replay(monkeypatch):
    """A race-free capture whose packed certificate key would not fit
    is refused, not flagged, and runs on the event scheduler."""
    monkeypatch.setattr(replay_mod, "_PACKED_KEY_LIMIT", 0)
    case = NAMED["two-dmms-read-after-barrier"][1]
    with mock.patch.dict(os.environ, {"REPRO_STORE_TRACE": "off"}):
        reset_default_store()
        try:
            event = _launch(case, "event", LATENCIES[1])
            capture = _launch(case, "replay", LATENCIES[1])
            stats = default_store().metrics["trace_store"]
        finally:
            reset_default_store()
    assert capture[0].engine == "replay-refused"
    assert stats["refusals"] == 1
    assert stats["flagged_programs"] == stats["captures"] == 0
    _assert_same(event, capture)
