"""The autotuner orchestrator.

:func:`tune` searches a demo task's parameter space for the
configuration minimizing modeled time units, summed over a latency
grid.  Mechanics:

* **Costing** — every ``(configuration, latency)`` pair becomes one
  JSON-able point fanned out over a
  :class:`~repro.analysis.executor.SweepExecutor` (parallel workers +
  persistent result cache in the unified store's ``tune`` namespace,
  default ``benchmarks/.store/tune``).
* **Replay** — for oblivious tasks the default mode is ``"replay"``:
  each candidate layout is captured once and re-priced from its trace
  at every other latency, which is what makes wide searches cheap.
  Non-oblivious tasks (see :data:`repro.machine.replay.NON_OBLIVIOUS_MODULES`)
  fall back to the batch engine.
* **Early exit** — the search stops as soon as a candidate is
  *certified*: its run was conflict-free (no unit issued an avoidable
  slot) or its cost reached the task's Table II lower bound from
  :mod:`repro.analysis.lower_bounds`.
* **Verdicts** — the returned :class:`TuneReport` carries before/after
  :func:`repro.analysis.advisor.diagnose` advice, an output-equivalence
  flag, and the full evaluation history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.advisor import Advice, diagnose
from repro.analysis.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.machine.engine import resolve_mode
from repro.tuner.demos import TuneTask, get_task, run_config
from repro.tuner.search import STRATEGIES, make_strategy

__all__ = [
    "DEFAULT_LATENCIES",
    "resolve_tune_mode",
    "measure_candidate",
    "CandidateResult",
    "TuneReport",
    "tune",
]

#: Latency grid a candidate is costed over (objective = sum of cycles).
DEFAULT_LATENCIES = (4, 16, 64)

def resolve_tune_mode(task: TuneTask, mode: str) -> str:
    """``"auto"`` becomes replay for oblivious tasks, batch otherwise."""
    if mode == "auto":
        return "replay" if task.oblivious else "batch"
    return resolve_mode(mode)


def measure_candidate(point: dict) -> tuple[int, dict]:
    """Cost one ``(task, config, shape, latency, mode)`` point.

    Module-level (picklable) and fed a JSON-able dict, so it can run in
    :class:`SweepExecutor` workers and key the on-disk result cache.
    """
    return run_config(point["task"], point["config"], point["shape"],
                      point["l"], point["mode"])


@dataclass(frozen=True)
class CandidateResult:
    """One configuration costed over the whole latency grid."""

    config: dict
    #: Objective: total cycles across the latency grid.
    cost: float
    #: Per-latency cycle counts, keyed by ``str(l)``.
    cycles: dict
    #: Slot accounting from the first grid point (latency-independent).
    extra: dict

    def to_dict(self) -> dict:
        return {"config": dict(self.config), "cost": self.cost,
                "cycles": dict(self.cycles), "extra": dict(self.extra)}


def _advice_dict(advice: Advice) -> dict:
    return {
        "regime": advice.regime.value,
        "occupancy_ratio": round(advice.occupancy_ratio, 4),
        "findings": list(advice.findings),
        "units": {
            name: {
                "transactions": d.transactions,
                "slots": d.slots,
                "efficiency": round(d.efficiency, 4),
                "requests_per_slot": round(d.requests_per_slot, 4),
            }
            for name, d in advice.units.items()
        },
    }


@dataclass(frozen=True)
class TuneReport:
    """Everything :func:`tune` learned about one task."""

    task: str
    strategy: str
    mode: str
    shape: dict
    latencies: tuple
    baseline: CandidateResult
    best: CandidateResult
    #: ``baseline.cost / best.cost`` (1.0 = no improvement found).
    improvement: float
    evaluations: int
    search_seconds: float
    #: The search stopped on an analytic certificate ("conflict-free",
    #: "lower-bound") rather than exhausting its budget; else ``None``.
    certificate: str | None
    #: Baseline and best produce (numerically) identical outputs.
    equivalent: bool
    advice_before: dict
    advice_after: dict
    #: ``(config, cost)`` in evaluation order.
    history: tuple

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "strategy": self.strategy,
            "mode": self.mode,
            "shape": dict(self.shape),
            "latencies": list(self.latencies),
            "baseline": self.baseline.to_dict(),
            "best": self.best.to_dict(),
            "improvement": round(self.improvement, 4),
            "evaluations": self.evaluations,
            "search_seconds": round(self.search_seconds, 6),
            "certificate": self.certificate,
            "certified": self.certified,
            "equivalent": self.equivalent,
            "advice_before": self.advice_before,
            "advice_after": self.advice_after,
            "history": [
                {"config": dict(c), "cost": cost} for c, cost in self.history
            ],
        }

    def render(self) -> str:
        lines = [
            f"tune {self.task}: {self.strategy} search over "
            f"{self.evaluations} configurations ({self.mode} mode, "
            f"{self.search_seconds:.2f}s)",
            f"  baseline {self.baseline.config}: {self.baseline.cost:.0f} "
            "time units",
            f"  best     {self.best.config}: {self.best.cost:.0f} "
            f"time units  ({self.improvement:.2f}x)",
        ]
        if self.certificate:
            lines.append(f"  certified optimal early: {self.certificate}")
        lines.append(
            "  outputs equivalent: " + ("yes" if self.equivalent else "NO"))
        lines.append(
            f"  before: {self.advice_before['regime']}, "
            f"after: {self.advice_after['regime']}")
        for finding in self.advice_after["findings"]:
            lines.append(f"  - {finding}")
        return "\n".join(lines)


def _certificate_for(task: TuneTask, result: CandidateResult,
                     bound: float | None) -> str | None:
    if task.conflict_certificate and result.extra.get("conflict_free"):
        return "conflict-free"
    if bound is not None and result.cost <= bound:
        return "lower-bound"
    return None


def tune(
    task_name: str,
    *,
    shape: dict | None = None,
    latencies=None,
    strategy: str = "exhaustive",
    budget: int | None = None,
    mode: str = "auto",
    seed: int = 0,
    jobs: int | str = 1,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    executor: SweepExecutor | None = None,
    progress=None,
) -> TuneReport:
    """Search ``task_name``'s parameter space; return a :class:`TuneReport`.

    ``shape`` overrides the task's default problem shape; ``latencies``
    sets the grid the objective sums over; ``budget`` caps the number of
    configurations evaluated (baseline included).  A caller-provided
    ``executor`` is reused and left open (the service path); otherwise a
    private one is built from ``jobs``/``cache``/``cache_dir``.
    """
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r} "
            f"(choices: {list(STRATEGIES)})")
    task = get_task(task_name)
    shape = task.shape(shape)
    lats = tuple(int(l) for l in (latencies or DEFAULT_LATENCIES))
    if not lats or any(l < 1 for l in lats):
        raise ConfigurationError(f"latencies must be >= 1, got {lats}")
    run_mode = resolve_tune_mode(task, mode)

    space = task.space(shape)
    baseline_config = space.validate(task.baseline(shape))
    search = make_strategy(strategy, space, budget=budget, seed=seed,
                           start=baseline_config)
    try:
        bounds = [task.lower_bound(shape, l) for l in lats]
        total_bound = sum(bounds) if None not in bounds else None
    except ConfigurationError:
        total_bound = None

    own_executor = executor is None
    ex = executor if executor is not None else SweepExecutor(
        jobs=jobs, cache=cache, cache_dir=cache_dir,
        progress=progress, namespace="tune",
    )

    history: list[tuple[dict, float]] = []
    certificate: str | None = None
    t0 = time.perf_counter()

    def evaluate(configs: list[dict]) -> list[CandidateResult]:
        points = [
            {"task": task.name, "config": c, "shape": shape,
             "l": l, "mode": run_mode}
            for c in configs for l in lats
        ]
        rows = ex.run(measure_candidate, points, mode=run_mode,
                      label=f"tune:{task.name}")
        out = []
        for i, c in enumerate(configs):
            chunk = rows[i * len(lats):(i + 1) * len(lats)]
            cycles = {str(l): row.cycles for l, row in zip(lats, chunk)}
            out.append(CandidateResult(
                config=c, cost=float(sum(cycles.values())),
                cycles=cycles, extra=dict(chunk[0].extra)))
        return out

    try:
        baseline = evaluate([baseline_config])[0]
        search.observe(baseline.config, baseline.cost)
        history.append((baseline.config, baseline.cost))
        best = baseline
        certificate = _certificate_for(task, best, total_bound)

        while certificate is None:
            batch = search.propose()
            if not batch:
                break
            for result in evaluate(batch):
                search.observe(result.config, result.cost)
                history.append((result.config, result.cost))
                if result.cost < best.cost:
                    best = result
                certificate = certificate or _certificate_for(
                    task, result, total_bound)
            # Re-check after the whole batch so the certified candidate
            # also had the chance to become the incumbent.
            if certificate is not None:
                break
    finally:
        if own_executor:
            ex.close()
    search_seconds = time.perf_counter() - t0

    # Before/after verdicts + output equivalence on the exact engine
    # (largest latency of the grid, batch mode for speed).
    verdict_l = lats[-1]
    base_out, base_report, params = task.run(
        baseline.config, shape, verdict_l, "batch")
    best_out, best_report, _ = task.run(best.config, shape, verdict_l, "batch")
    equivalent = bool(np.allclose(np.asarray(base_out), np.asarray(best_out)))

    return TuneReport(
        task=task.name,
        strategy=strategy,
        mode=run_mode,
        shape=shape,
        latencies=lats,
        baseline=baseline,
        best=best,
        improvement=(baseline.cost / best.cost) if best.cost else 1.0,
        evaluations=search.evaluations,
        search_seconds=search_seconds,
        certificate=certificate,
        equivalent=equivalent,
        advice_before=_advice_dict(diagnose(base_report, params)),
        advice_after=_advice_dict(diagnose(best_report, params)),
        history=tuple(history),
    )
