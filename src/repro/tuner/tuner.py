"""The autotuner orchestrator.

:func:`tune` searches a demo task's parameter space for the
configuration minimizing modeled time units, summed over a latency
grid.  Mechanics:

* **Costing** — every ``(configuration, latency)`` pair becomes one
  JSON-able point fanned out over a
  :class:`~repro.analysis.executor.SweepExecutor` (parallel workers +
  persistent result cache in the unified store's ``tune`` namespace,
  default ``benchmarks/.store/tune``).  The executor groups a
  configuration's uncached latencies (``axis="l"``) into one
  :func:`measure_candidate` call.
* **Replay** — ``"auto"`` is ``"replay"`` for every task: each
  candidate layout is built, keyed and looked up (or captured) once,
  at its first uncached latency, and its trace is re-priced at the
  others (:meth:`~repro.tuner.demos.TuneTask.run_grid`), which is what
  makes wide searches cheap.  A launch whose capture is race-free
  replays; the others run on the event engine.
* **Early exit** — the search stops as soon as a candidate is
  *certified*: its run was conflict-free (no unit issued an avoidable
  slot) or its cost reached the task's Table II lower bound from
  :mod:`repro.analysis.lower_bounds`.
* **Verdicts** — the returned :class:`TuneReport` carries before/after
  :func:`repro.analysis.advisor.diagnose` advice, an output-equivalence
  flag, and the full evaluation history.  The two verdict launches
  (baseline and winner) run in the search's mode at the grid's largest
  latency.  Under replay they are trace-store hits re-priced at that
  latency, or, in a cold search, second captures that store the trace.
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
from repro.tuner.demos import TuneTask, get_task, summarize_report
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

def resolve_tune_mode(mode: str) -> str:
    """``"auto"`` becomes replay; any other mode resolves as an engine's."""
    if mode == "auto":
        return "replay"
    return resolve_mode(mode)


def measure_candidate(points: list[dict]) -> list[tuple[int, dict]]:
    """Cost one candidate at the latency of each of ``points``.

    Each point is a JSON-able ``(task, config, shape, l, mode)`` dict;
    they agree on everything but ``l`` (the executor groups them with
    ``axis="l"``).  Module-level (picklable), so it can run in
    :class:`SweepExecutor` workers and key the on-disk result cache.
    """
    first = points[0]
    runs = get_task(first["task"]).run_grid(
        first["config"], first["shape"], [q["l"] for q in points],
        first["mode"])
    return [(report.cycles, summarize_report(report)) for _, report in runs]


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
    sets the grid the objective sums over (distinct values, or
    :class:`ConfigurationError`); ``budget`` caps the number of
    configurations evaluated (baseline included).  The before/after
    verdicts run the baseline and the winner once more, in the
    search's mode, at the grid's largest latency.  A caller-provided
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
    if len(set(lats)) != len(lats):
        # Per-latency cycles are keyed by latency: a repeat would be
        # costed again but counted once in the objective.
        raise ConfigurationError(f"latencies must be distinct, got {lats}")
    run_mode = resolve_tune_mode(mode)

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
                      label=f"tune:{task.name}", axis="l")
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

    # Before/after verdicts + output equivalence at the grid's largest
    # latency, in the search's mode: under replay both launches are
    # trace-store hits or captures (bit-identical to an event run) or,
    # where replay refuses, event runs.
    verdict_l = max(lats)
    base_out, base_report, params = task.run(
        baseline.config, shape, verdict_l, run_mode)
    best_out, best_report, _ = task.run(
        best.config, shape, verdict_l, run_mode)
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
