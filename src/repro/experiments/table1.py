"""Table I reproduction driver.

Measures the sum and the direct convolution on every model across a
parameter grid, fits the Table I closed forms, and reports the results
as structured data plus a rendered text report.

The sweeps route through :class:`repro.analysis.executor.SweepExecutor`:
``jobs=`` shards the grid across worker processes, ``cache=`` memoizes
the deterministic per-point measurements on disk, and ``mode="batch"``
(the default) evaluates each launch on the vectorized fast path with
automatic per-point fallback to the event engine (recorded in each
point's ``extra["engine"]``).  Cycle counts are identical across modes
and job counts.

A point's inputs (:func:`point_rng`) depend on the kernel, the seed and
the launch shape but not on the latency ``l``, so every latency of one
shape launches on the same memory pre-state.
:func:`sum_launch_reports` / :func:`conv_launch_reports` price such a
latency grid from one launch under ``mode="replay"``: the first point
is captured (or hit) and its trace re-priced at the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.analysis.costmodel import CONV_FORMULAS, SUM_FORMULAS
from repro.analysis.executor import SweepExecutor, SweepProgress
from repro.analysis.fitting import FitResult, fit_terms
from repro.analysis.terms import Params
from repro.core.kernels.hmm_conv import hmm_convolution
from repro.core.kernels.hmm_sum import hmm_sum
from repro.core.machines import (
    DMM,
    HMM,
    UMM,
    run_flat_convolution,
    run_flat_sum,
)
from repro.core.pram import PRAM
from repro.core.sequential import SequentialMachine
from repro.machine.engine import launch_grid
from repro.params import HMMParams, MachineParams

__all__ = [
    "Table1Result",
    "reproduce_table1",
    "measure_sum",
    "measure_convolution",
    "sum_task",
    "conv_task",
    "sum_launch_report",
    "conv_launch_report",
    "sum_launch_reports",
    "conv_launch_reports",
    "task_result",
]

#: Default sweep grids (simulator-friendly scale of the paper's regime).
SUM_GRID = tuple(
    dict(n=n, p=p, w=16, l=l, d=8)
    for n in (1 << 10, 1 << 12, 1 << 13)
    for p in (64, 256, 1024)
    for l in (16, 128)
)
CONV_GRID = tuple(
    dict(n=n, k=k, p=p, w=16, l=l, d=8)
    for n, k in ((1 << 9, 8), (1 << 10, 16))
    for p in (128, 512, 2048)
    for l in (8, 64)
)

MODELS = ("sequential", "pram", "dmm", "umm", "hmm")

#: Formula used per model for the convolution fit (the HMM is fitted
#: against the unconditional Theorem 9 form).
CONV_FORMULA_KEY = {
    "sequential": "sequential",
    "pram": "pram",
    "dmm": "dmm",
    "umm": "umm",
    "hmm": "hmm_general",
}


def _engine(model: str, q: dict, mode: str, backend: "str | None"):
    """A fresh engine of machine ``model`` at grid point ``q``."""
    if model in ("dmm", "umm"):
        machine = (DMM if model == "dmm" else UMM)(
            MachineParams(width=q["w"], latency=q["l"]), mode=mode,
            backend=backend)
    elif model == "hmm":
        machine = HMM(
            HMMParams(num_dmms=q["d"], width=q["w"], global_latency=q["l"]),
            mode=mode,
            backend=backend,
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    return machine.engine()


def _sum_launch(model: str, q: dict, values: np.ndarray, mode: str,
                backend: "str | None" = None):
    """One sum at ``q``: ``(total, report, engine)``; the sequential and
    PRAM models have no engine (``None``)."""
    if model == "sequential":
        return None, SequentialMachine().sum(values), None
    if model == "pram":
        return None, PRAM(q["p"]).sum(values), None
    engine = _engine(model, q, mode, backend)
    run = hmm_sum if model == "hmm" else run_flat_sum
    total, report = run(engine, values, q["p"])
    return total, report, engine


def _conv_launch(model: str, q: dict, x: np.ndarray, y: np.ndarray,
                 mode: str, backend: "str | None" = None):
    """One convolution at ``q``: ``(z, report, engine)``, as
    :func:`_sum_launch`."""
    if model == "sequential":
        return None, SequentialMachine().convolution(x, y), None
    if model == "pram":
        return None, PRAM(q["p"]).convolution(x, y), None
    engine = _engine(model, q, mode, backend)
    run = hmm_convolution if model == "hmm" else run_flat_convolution
    z, report = run(engine, x, y, q["p"])
    return z, report, engine


def measure_sum(
    model: str, q: dict, values: np.ndarray, *, mode: str = "event"
) -> int:
    """Time units to sum ``values`` on ``model`` at grid point ``q``."""
    return _sum_launch(model, q, values, mode)[1].cycles


def measure_convolution(
    model: str, q: dict, x: np.ndarray, y: np.ndarray, *, mode: str = "event"
) -> int:
    """Time units to convolve ``x`` with ``y`` on ``model`` at ``q``."""
    return _conv_launch(model, q, x, y, mode)[1].cycles


def point_rng(seed: int, kind: str, q: Params) -> np.random.Generator:
    """Per-point input stream: a function of the kernel, the seed and the
    launch shape ``(n, k, p, w, d)``.

    It depends neither on sweep order and job count (parallel and
    serial sweeps see byte-identical inputs) nor on the latency ``l``:
    every latency of one shape launches on the same inputs, so a
    latency sweep prices one launch (see :func:`sum_launch_reports`).
    The Table I kernels are memory-oblivious, so no cycle count depends
    on the input values.
    """
    material = f"{kind}:{seed}:{q.n}:{q.k}:{q.p}:{q.w}:{q.d}"
    digest = hashlib.sha256(material.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _as_grid_dict(q: Params) -> dict:
    return dict(n=q.n, k=q.k, p=q.p, w=q.w, l=q.l, d=q.d)


def _grid_reports(launch, qs: Sequence[Params]) -> list:
    """``launch``'s reports at points ``qs`` that differ only in ``l``,
    through :func:`~repro.machine.engine.launch_grid`."""
    first = qs[0]
    for q in qs[1:]:
        if replace(q, l=first.l) != first:
            raise ValueError(
                f"grouped Table I points must differ only in l: "
                f"{first} vs {q}")
    return [report for _, report in launch_grid(
        lambda l: launch(_as_grid_dict(replace(first, l=l))),
        [q.l for q in qs])]


def sum_launch_reports(
    qs: Sequence[Params], *, model: str, seed: int = 20130520,
    mode: str = "batch", backend: "str | None" = None,
) -> list:
    """The run reports of Table I sum points ``qs``, which differ only
    in the latency ``l``.

    One launch where replay keeps its trace: the first point is
    launched and the trace it priced or captured is re-priced at the
    others (:func:`~repro.machine.engine.launch_grid`).  Equal, report
    for report, to one :func:`sum_launch_report` per point.
    """
    values = point_rng(seed, "sum", qs[0]).normal(size=qs[0].n)
    return _grid_reports(
        lambda q: _sum_launch(model, q, values, mode, backend), qs)


def conv_launch_reports(
    qs: Sequence[Params], *, model: str, seed: int = 20130520,
    mode: str = "batch", backend: "str | None" = None,
) -> list:
    """:func:`sum_launch_reports` for the direct convolution."""
    rng = point_rng(seed, "conv", qs[0])
    x = rng.normal(size=qs[0].k)
    y = rng.normal(size=qs[0].n + qs[0].k - 1)
    return _grid_reports(
        lambda q: _conv_launch(model, q, x, y, mode, backend), qs)


def sum_launch_report(
    q: Params, *, model: str, seed: int = 20130520, mode: str = "batch",
    backend: "str | None" = None,
):
    """The full :class:`~repro.machine.report.RunReport` of one Table I
    sum point — same deterministic inputs as :func:`sum_task`, so the
    advisor (and the serving layer) diagnose exactly what was measured."""
    return sum_launch_reports([q], model=model, seed=seed, mode=mode,
                              backend=backend)[0]


def conv_launch_report(
    q: Params, *, model: str, seed: int = 20130520, mode: str = "batch",
    backend: "str | None" = None,
):
    """The full run report of one Table I convolution point."""
    return conv_launch_reports([q], model=model, seed=seed, mode=mode,
                               backend=backend)[0]


def task_result(report) -> tuple[int, dict]:
    """A Table I measurement: ``(cycles, {"engine": tag})``; the
    sequential and PRAM models report ``"exact"``."""
    return report.cycles, {"engine": getattr(report, "engine", "exact")}


def sum_task(
    q: Params, *, model: str, seed: int, mode: str = "batch",
    backend: "str | None" = None,
) -> tuple[int, dict]:
    """Self-contained Table I sum measurement at one grid point.

    Module-level and scalar-parameterized so the sweep executor can ship
    it to worker processes and key the result cache on it.
    """
    return task_result(sum_launch_report(q, model=model, seed=seed,
                                         mode=mode, backend=backend))


def conv_task(
    q: Params, *, model: str, seed: int, mode: str = "batch",
    backend: "str | None" = None,
) -> tuple[int, dict]:
    """Self-contained Table I convolution measurement at one grid point."""
    return task_result(conv_launch_report(q, model=model, seed=seed,
                                          mode=mode, backend=backend))


@dataclass(frozen=True)
class Table1Result:
    """Fits for every model on both problems."""

    sum_fits: dict[str, FitResult]
    conv_fits: dict[str, FitResult]
    sum_points: list[Params]
    conv_points: list[Params]
    sum_measured: dict[str, list[int]]
    conv_measured: dict[str, list[int]]

    def render(self) -> str:
        lines = ["Table I reproduction: measured vs closed forms", ""]
        lines.append("-- Sum --")
        for model in MODELS:
            lines.append(
                f"{model:>11}: {SUM_FORMULAS[model].text():<36} "
                f"{self.sum_fits[model].describe()}"
            )
        lines.append("")
        lines.append("-- Direct convolution --")
        for model in MODELS:
            formula = CONV_FORMULAS[CONV_FORMULA_KEY[model]]
            lines.append(
                f"{model:>11}: {formula.text():<36} "
                f"{self.conv_fits[model].describe()}"
            )
        return "\n".join(lines)

    def all_shapes_hold(self, min_r2: float = 0.97, max_coef: float = 12.0) -> bool:
        """The reproduction criterion of EXPERIMENTS.md."""
        for fit in (*self.sum_fits.values(), *self.conv_fits.values()):
            if fit.r_squared < min_r2:
                return False
            if any(c > max_coef for c in fit.coefficients):
                return False
        return True


def reproduce_table1(
    seed: int = 20130520,
    *,
    jobs: int | str = 1,
    cache: bool = False,
    cache_dir=None,
    mode: str = "batch",
    progress: "Callable[[SweepProgress], None] | None" = None,
) -> Table1Result:
    """Run the full Table I sweep on every model and fit the formulas.

    ``jobs``/``cache``/``mode`` configure the sweep executor; results
    (cycle counts, fits, point order) are identical for every setting.
    """
    executor = SweepExecutor(
        jobs=jobs, cache=cache, cache_dir=cache_dir, progress=progress
    )

    sum_points = [Params(**q) for q in SUM_GRID]
    sum_measured = {
        model: [
            pt.cycles
            for pt in executor.run(
                partial(sum_task, model=model, seed=seed, mode=mode),
                sum_points,
                mode=mode,
                label=f"table1/sum/{model}",
            )
        ]
        for model in MODELS
    }
    sum_fits = {
        model: fit_terms(SUM_FORMULAS[model], sum_points, sum_measured[model])
        for model in MODELS
    }

    conv_points = [Params(**q) for q in CONV_GRID]
    conv_measured = {
        model: [
            pt.cycles
            for pt in executor.run(
                partial(conv_task, model=model, seed=seed, mode=mode),
                conv_points,
                mode=mode,
                label=f"table1/conv/{model}",
            )
        ]
        for model in MODELS
    }
    conv_fits = {
        model: fit_terms(
            CONV_FORMULAS[CONV_FORMULA_KEY[model]], conv_points,
            conv_measured[model],
        )
        for model in MODELS
    }
    return Table1Result(
        sum_fits=sum_fits,
        conv_fits=conv_fits,
        sum_points=sum_points,
        conv_points=conv_points,
        sum_measured=sum_measured,
        conv_measured=conv_measured,
    )
