"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.engine import MachineEngine
from repro.machine.hmm import HMMEngine
from repro.machine.policy import DMMBankPolicy, UMMGroupPolicy
from repro.params import HMMParams, MachineParams


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
