"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.machine.engine import MachineEngine
from repro.machine.hmm import HMMEngine
from repro.machine.policy import DMMBankPolicy, UMMGroupPolicy
from repro.machine.replay import reset_default_store
from repro.params import HMMParams, MachineParams


@pytest.fixture(scope="session", autouse=True)
def _session_store_root(tmp_path_factory):
    """Tests that name no store directory share one per session, not
    the checkout's: a default-mode service request replays, and the
    trace store's contents decide a response's engine tag."""
    if "REPRO_STORE_DIR" in os.environ:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_STORE_DIR", str(tmp_path_factory.mktemp("store")))
        reset_default_store()
        yield
    reset_default_store()


@pytest.fixture(autouse=True)
def _launch_keys_match_reference(request, monkeypatch):
    """Every program a tests/machine test launches keys as the plain
    reference walk of ``launch_keys_ref`` does, whatever the mode."""
    if request.node.path.parent.name != "machine":
        yield
        return
    import repro.machine.engine as engine_mod
    import repro.machine.hmm as hmm_mod
    from launch_keys_ref import program_digests

    differing = []
    run_launch = engine_mod.run_launch

    def checked(engine, program, *args, **kwargs):
        memoized, reference = program_digests(program)
        if memoized != reference:
            differing.append(program)
        return run_launch(engine, program, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "run_launch", checked)
    monkeypatch.setattr(hmm_mod, "run_launch", checked)
    yield
    assert not differing, f"launch keys differ from the reference: {differing}"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(20130520)  # IPDPSW 2013


def make_dmm(width: int = 4, latency: int = 5, **kw) -> MachineEngine:
    """A fresh flat DMM engine."""
    return MachineEngine(
        MachineParams(width=width, latency=latency), DMMBankPolicy(), name="dmm", **kw
    )


def make_umm(width: int = 4, latency: int = 5, **kw) -> MachineEngine:
    """A fresh flat UMM engine."""
    return MachineEngine(
        MachineParams(width=width, latency=latency), UMMGroupPolicy(), name="umm", **kw
    )


def make_hmm(
    num_dmms: int = 2,
    width: int = 4,
    global_latency: int = 5,
    shared_latency: int = 1,
    **kw,
) -> HMMEngine:
    """A fresh HMM engine."""
    return HMMEngine(
        HMMParams(
            num_dmms=num_dmms,
            width=width,
            global_latency=global_latency,
            shared_latency=shared_latency,
        ),
        **kw,
    )


def admit(launch):
    """Make ``launch()`` once, so the trace store has seen its key.

    The store keeps a capture the second time its key is captured.  A
    test that expects a launch's capture to be stored, and later
    launches to hit it, first makes the same launch through here.  The
    admitting launch is itself a capture: it counts one capture and one
    store miss.  Returns what ``launch`` returns.
    """
    return launch()


def assert_reports_equal(expected, actual) -> None:
    """Two launch reports agree on every number (not on the engine tag)."""
    assert actual.cycles == expected.cycles
    assert actual.num_threads == expected.num_threads
    assert actual.num_warps == expected.num_warps
    assert actual.compute_ops == expected.compute_ops
    assert actual.compute_cycles == expected.compute_cycles
    assert actual.barrier_releases == expected.barrier_releases
    assert set(actual.unit_stats) == set(expected.unit_stats)
    for name, stats in expected.unit_stats.items():
        assert actual.unit_stats[name] == stats, name
