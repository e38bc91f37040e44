"""Demo tuning tasks: named, self-contained tunable kernel launches.

A :class:`TuneTask` bundles everything the tuner needs to optimize one
kernel: the tunable :class:`~repro.tuner.space.ParamSpace`, the
baseline configuration, a runner that builds a fresh engine and
executes the kernel under a candidate configuration, and (where the
model provides one) an analytic certificate — a Table II lower bound or
the conflict-free slot count — that lets the search stop early.
:meth:`TuneTask.run_grid` costs one configuration over a latency grid
with one launch where replay keeps its trace, re-pricing that trace at
the other latencies.

Runners are deterministic: input data derives from a seeded RNG keyed
by the task shape, so every candidate (and every worker process) costs
the identical launch, which is what keys the sweep cache and the replay
trace store correctly.

Tasks:

* ``transpose`` — the classic: a tiled HMM transpose whose shared tile
  is addressed at natural stride ``w`` (a ``w``-way bank conflict).
  Axes: per-tile padding and skew.  Oblivious, so replay-backed.
* ``sum`` — flat UMM sum; axes: thread count ``p`` (the ``p >= lw``
  occupancy rule) and warp dispatch policy.  Oblivious.
* ``sort`` — flat DMM bitonic sort; axes: network (naive strided vs the
  Sitchinava-Weichert conflict-free block layout, transaction-for-
  transaction identical) and dispatch.  The conflict-free network is
  oblivious and replay-backed; naive candidates come from the
  replay-refusing ``sorting`` module and fall back to the event engine.
* ``permutation`` — flat DMM offline permutation with a
  bank-adversarial target; axes: round schedule (naive vs conflict-free
  matching) and dispatch.  The schedule is *offline* — part of the
  launch closure, hashed into the LaunchKey — so both schedules are
  replay-backed through the oblivious kernel in
  :mod:`repro.core.kernels.conflict_free`.
* ``gather`` — data-dependent gather through an index array; axis:
  thread count.  Registered in the replay refusal registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.lower_bounds import sum_lower_bound
from repro.analysis.terms import Params
from repro.core.kernels.conflict_free import (
    flat_cf_sort,
    generalized_naive_schedule,
    generalized_permutation_schedule,
    oblivious_permutation_kernel,
)
from repro.core.kernels.sorting import flat_bitonic_sort
from repro.core.machines import run_flat_sum
from repro.errors import ConfigurationError
from repro.machine.engine import MachineEngine, launch_grid
from repro.machine.hmm import HMMEngine
from repro.machine.policy import DMMBankPolicy, UMMGroupPolicy
from repro.machine.report import RunReport
from repro.params import HMMParams, MachineParams
from repro.tuner.datadep import gather_kernel
from repro.tuner.kernels import tile_transpose_kernel
from repro.tuner.space import Axis, ParamSpace
from repro.tuner.transforms import Pad, Skew, compose, wrap

__all__ = ["TuneTask", "TASKS", "get_task", "run_config", "summarize_report"]

_SEED = 20130520


@dataclass(frozen=True)
class TuneTask:
    """One named tunable kernel launch."""

    name: str
    summary: str
    #: Memory-access oblivious — ``mode="replay"`` is sound.
    oblivious: bool
    default_shape: dict
    space_fn: Callable[[dict], ParamSpace]
    baseline_fn: Callable[[dict], dict]
    #: ``(config, shape, l, mode) -> (output, report, engine)``: builds
    #: a fresh engine and makes exactly one launch on it.
    run_fn: Callable
    #: Optional Table II bound at ``(shape, l)`` — enables certified
    #: early exit when a measured candidate reaches it.
    lower_bound_fn: Callable[[dict, int], float] | None = None
    #: A conflict-free run certifies the search done.  Only sound when
    #: the axes change the layout/schedule but not the transaction
    #: count (transpose, permutation, sort) — an occupancy search can
    #: be conflict-free at every point and still improve.  The claim
    #: itself is machine-checked, not author-asserted: the trace-level
    #: pass in :mod:`repro.analysis.certify` replays each certified
    #: kernel over distinct random inputs and verifies identical access
    #: streams and zero avoidable conflicted transactions (see
    #: ``tests/tuner/test_certified_tasks.py``).
    conflict_certificate: bool = False

    def space(self, shape: dict) -> ParamSpace:
        return self.space_fn(shape)

    def baseline(self, shape: dict) -> dict:
        return self.baseline_fn(shape)

    def run(self, config: dict, shape: dict, l: int, mode: str):
        """One launch at latency ``l``: ``(output, report, params)``."""
        out, report, engine = self.run_fn(config, shape, l, mode)
        return out, report, engine.params

    def run_grid(
        self, config: dict, shape: dict, lats, mode: str,
    ) -> list[tuple[np.ndarray, RunReport]]:
        """``(output, report)`` at each latency of ``lats``.

        Equal to one :meth:`run` per latency, through
        :func:`~repro.machine.engine.launch_grid`: a replayed or
        captured launch is re-priced at the next latency instead of
        being built, keyed and looked up again.
        """
        return launch_grid(
            lambda l: self.run_fn(config, shape, l, mode), lats)

    def lower_bound(self, shape: dict, l: int) -> float | None:
        if self.lower_bound_fn is None:
            return None
        return self.lower_bound_fn(shape, l)

    def shape(self, overrides: dict | None = None) -> dict:
        """The default shape with validated overrides applied."""
        shape = dict(self.default_shape)
        for key, value in (overrides or {}).items():
            if key not in shape:
                raise ConfigurationError(
                    f"task {self.name!r} has no shape key {key!r} "
                    f"(have {sorted(shape)})"
                )
            shape[key] = int(value)
            if shape[key] < 1:
                raise ConfigurationError(f"shape {key} must be >= 1")
        return shape


def _rng(shape: dict) -> np.random.Generator:
    return np.random.default_rng(
        [_SEED] + [int(shape[k]) for k in sorted(shape)])


# ---------------------------------------------------------------------------
# transpose: padding/skew search on the conflicted tiled transpose.
# ---------------------------------------------------------------------------

def _transpose_space(shape: dict) -> ParamSpace:
    return ParamSpace([
        Axis("pad", (0, 1, 2, 3)),
        Axis("skew", tuple(range(min(3, shape["w"])))),
    ])


def _transpose_matrix(shape: dict) -> np.ndarray:
    m = shape["m"]
    return _rng(shape).standard_normal((m, m))


def _run_transpose(config: dict, shape: dict, l: int, mode: str):
    w, d, m = shape["w"], shape["d"], shape["m"]
    engine = HMMEngine(
        HMMParams(num_dmms=d, width=w, global_latency=l), mode=mode)
    av = _transpose_matrix(shape)
    a = engine.global_from(av.ravel(), "tune.A")
    b = engine.alloc_global(m * m, "tune.B")
    layout = compose(Skew(w, config["skew"]), Pad(w, config["pad"]))
    tiles = [
        wrap(engine.alloc_shared(i, layout.physical_size(w * w), "tune.tile"),
             layout, w * w, "tune.tile")
        for i in range(d)
    ]
    report = engine.launch(
        tile_transpose_kernel(a, b, m, tiles, d), d * w,
        label="tune-transpose")
    return b.to_numpy().reshape(m, m), report, engine


# ---------------------------------------------------------------------------
# sum: occupancy (p >= lw) and dispatch on the flat UMM sum.
# ---------------------------------------------------------------------------

def _sum_space(shape: dict) -> ParamSpace:
    n = shape["n"]
    ps = tuple(p for p in (16, 32, 64, 128, 256, 512) if p <= n)
    return ParamSpace([
        Axis("p", ps),
        Axis("dispatch", ("fifo", "round-robin")),
    ])


def _run_sum(config: dict, shape: dict, l: int, mode: str):
    w, n = shape["w"], shape["n"]
    engine = MachineEngine(MachineParams(width=w, latency=l), UMMGroupPolicy(),
                           name="umm", dispatch=config["dispatch"], mode=mode)
    values = _rng(shape).standard_normal(n)
    total, report = run_flat_sum(engine, values, config["p"])
    return np.asarray([total]), report, engine


def _sum_lower_bound(shape: dict, l: int) -> float:
    space = _sum_space(shape)
    return min(
        sum_lower_bound(
            "dmm", Params(n=shape["n"], p=p, w=shape["w"], l=l))
        for p in space.axis("p").values
    )


# ---------------------------------------------------------------------------
# sort: naive strided vs conflict-free block-layout bitonic network.
# ---------------------------------------------------------------------------

def _sort_space(shape: dict) -> ParamSpace:
    return ParamSpace([
        Axis("network", ("naive", "conflict-free")),
        Axis("dispatch", ("fifo", "round-robin")),
    ])


def _run_sort(config: dict, shape: dict, l: int, mode: str):
    w, n = shape["w"], shape["n"]
    engine = MachineEngine(MachineParams(width=w, latency=l), DMMBankPolicy(),
                           name="dmm", dispatch=config["dispatch"], mode=mode)
    values = _rng(shape).standard_normal(n)
    p = min(4 * w, n)
    if config["network"] == "naive":
        out, report = flat_bitonic_sort(engine, values, p)
    else:
        # fused=False: transaction-for-transaction identical to the
        # naive network (what makes the conflict certificate sound);
        # the fused burst variant is benchmarked separately.
        out, report = flat_cf_sort(engine, values, p, fused=False)
    return out, report, engine


# ---------------------------------------------------------------------------
# permutation: naive vs conflict-free round schedule on a flat DMM.
# The offline schedule is launch-closure data, so both variants are
# replay-backed through the oblivious kernel.
# ---------------------------------------------------------------------------

def _adversarial_perm(shape: dict) -> np.ndarray:
    """A transpose-style permutation whose naive rounds are one-bank."""
    n, w = shape["n"], shape["w"]
    if n % w:
        raise ConfigurationError(f"n={n} must be a multiple of w={w}")
    i = np.arange(n, dtype=np.int64)
    return (i % w) * (n // w) + i // w


def _permutation_space(shape: dict) -> ParamSpace:
    return ParamSpace([
        Axis("schedule", ("naive", "conflict-free")),
        Axis("dispatch", ("fifo", "round-robin")),
    ])


def _run_permutation(config: dict, shape: dict, l: int, mode: str):
    w, n = shape["w"], shape["n"]
    engine = MachineEngine(MachineParams(width=w, latency=l), DMMBankPolicy(),
                           name="dmm", dispatch=config["dispatch"], mode=mode)
    values = _rng(shape).standard_normal(n)
    perm = _adversarial_perm(shape)
    if config["schedule"] == "naive":
        schedule = generalized_naive_schedule(n, w)
    else:
        schedule = generalized_permutation_schedule(perm, w)
    a = engine.array_from(values, "tune.a")
    b = engine.alloc(n, "tune.b")
    report = engine.launch(
        oblivious_permutation_kernel(a, b, perm, schedule), min(8 * w, n),
        label="tune-permutation")
    return b.to_numpy(), report, engine


# ---------------------------------------------------------------------------
# gather: data-dependent addressing (replay must refuse).
# ---------------------------------------------------------------------------

def _gather_space(shape: dict) -> ParamSpace:
    n = shape["n"]
    return ParamSpace([
        Axis("p", tuple(p for p in (16, 32, 64, 128) if p <= n)),
    ])


def _run_gather(config: dict, shape: dict, l: int, mode: str):
    w, n = shape["w"], shape["n"]
    engine = MachineEngine(MachineParams(width=w, latency=l), UMMGroupPolicy(),
                           name="umm", mode=mode)
    rng = _rng(shape)
    values = rng.standard_normal(n)
    targets = rng.permutation(n)
    idx = engine.array_from(targets.astype(np.float64), "tune.idx")
    a = engine.array_from(values, "tune.in")
    out = engine.alloc(n, "tune.out")
    report = engine.launch(
        gather_kernel(idx, a, out, n), config["p"], label="tune-gather")
    return out.to_numpy(), report, engine


TASKS: dict[str, TuneTask] = {
    "transpose": TuneTask(
        name="transpose",
        summary="tiled HMM transpose; search per-tile padding and skew",
        oblivious=True,
        default_shape={"w": 8, "d": 4, "m": 32},
        space_fn=_transpose_space,
        baseline_fn=lambda shape: {"pad": 0, "skew": 0},
        run_fn=_run_transpose,
        conflict_certificate=True,
    ),
    "sum": TuneTask(
        name="sum",
        summary="flat UMM sum; search thread count and dispatch",
        oblivious=True,
        default_shape={"w": 8, "n": 2048},
        space_fn=_sum_space,
        baseline_fn=lambda shape: {
            "p": _sum_space(shape).axis("p").values[0], "dispatch": "fifo"},
        run_fn=_run_sum,
        lower_bound_fn=_sum_lower_bound,
    ),
    "sort": TuneTask(
        name="sort",
        summary="flat DMM bitonic sort; search network layout and dispatch",
        oblivious=True,
        default_shape={"w": 8, "n": 256},
        space_fn=_sort_space,
        baseline_fn=lambda shape: {"network": "naive", "dispatch": "fifo"},
        run_fn=_run_sort,
        conflict_certificate=True,
    ),
    "permutation": TuneTask(
        name="permutation",
        summary="flat DMM offline permutation; search round schedule "
        "and dispatch (replay-backed)",
        oblivious=True,
        default_shape={"w": 8, "n": 512},
        space_fn=_permutation_space,
        baseline_fn=lambda shape: {"schedule": "naive", "dispatch": "fifo"},
        run_fn=_run_permutation,
        conflict_certificate=True,
    ),
    "gather": TuneTask(
        name="gather",
        summary="data-dependent gather; search thread count",
        oblivious=False,
        default_shape={"w": 8, "n": 512},
        space_fn=_gather_space,
        baseline_fn=lambda shape: {"p": _gather_space(shape).axis("p").values[0]},
        run_fn=_run_gather,
    ),
}


def get_task(name: str) -> TuneTask:
    if name not in TASKS:
        raise ConfigurationError(
            f"unknown tune task {name!r} (choices: {sorted(TASKS)})")
    return TASKS[name]


def summarize_report(report: RunReport) -> dict:
    """The per-candidate extras recorded next to the cycle count."""
    excess = sum(s.excess_slots for s in report.unit_stats.values())
    shared = [s for name, s in report.unit_stats.items()
              if name.startswith("shared")]
    return {
        "engine": report.engine,
        "slots": report.total_slots(),
        "excess_slots": excess,
        "shared_slots": sum(s.slots for s in shared),
        "shared_excess_slots": sum(s.excess_slots for s in shared),
        "conflict_free": report.conflict_free(),
    }


def run_config(
    task_name: str, config: dict, shape: dict, l: int, mode: str,
) -> tuple[int, dict]:
    """Cost one candidate: ``(cycles, extras)``.  Module-level and fed
    by JSON-able arguments so :class:`SweepExecutor` workers can call it
    and cache it."""
    task = get_task(task_name)
    _, report, _ = task.run(config, shape, l, mode)
    return report.cycles, summarize_report(report)
