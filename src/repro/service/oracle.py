"""The in-process evaluation core behind the serving layer.

A :class:`CostOracle` owns one
:class:`~repro.analysis.executor.SweepExecutor` — and through it the
persistent on-disk result cache and (optionally) a reusable worker
pool — and turns validated protocol specs into responses.  The server's
micro-batcher hands it whole windows of unique specs; direct callers
(the CLI ``query`` path, tests, benchmarks) can use it without any HTTP
in between, which is what the service's golden-equivalence guarantee is
tested against: a served answer is bit-identical to the in-process one
because it *is* the in-process one.

:func:`evaluate_points` is the single measure function: module-level
and picklable, so the executor can ship it to worker processes and key
the result cache on it.  The executor hands it the missing specs of one
request that differ only in ``l`` (``axis="l"``), and it prices them
from one launch where replay keeps the trace.  The spec dict (see
:mod:`repro.service.protocol`) is the cache's parameter point — kernel,
model, mode, and seed included — so ``/v1/cost`` and ``/v1/sweep``
share hits whenever their specs match.  The offline drivers share the
executor, the store, each point's inputs and bit-identical cycles, but
not result-cache entries: they key other measure functions
(``sum_task``/``conv_task`` partials over ``Params``), and the measure
function is part of the key.  :func:`evaluate_point` is the same
measure for one spec.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from repro.analysis.advisor import diagnose
from repro.analysis.executor import (
    SweepExecutor,
    SweepPoint,
    _point_material,
    describe_measure,
    point_keyer,
)
from repro.analysis.terms import Params
from repro.experiments.table1 import (
    conv_launch_report,
    conv_launch_reports,
    sum_launch_report,
    sum_launch_reports,
    task_result,
)
# The single-point Table I tasks stay attributes of this module (perfbench's
# span layer wraps them); the oracle itself measures through
# evaluate_points.
from repro.experiments.table1 import conv_task, sum_task  # noqa: F401
from repro.params import HMMParams, MachineParams

__all__ = ["CostOracle", "evaluate_point", "evaluate_points"]


def _params_of(spec: Mapping) -> Params:
    return Params(n=spec["n"], k=spec["k"], p=spec["p"], w=spec["w"],
                  l=spec["l"], d=spec["d"])


def _spec_backend(spec: Mapping) -> "str | None":
    """Engine ``backend=`` for a spec: ``"auto"`` defers to the server's
    environment (``None`` → ``$REPRO_BACKEND``)."""
    backend = spec.get("backend", "auto")
    return None if backend == "auto" else backend


def evaluate_points(specs: Sequence[Mapping]) -> list[tuple[int, dict]]:
    """Oracle measurements of specs that differ only in ``l``.

    The Table I task named by the specs, on the experiment drivers'
    code path, so a served cycle count matches a direct
    :func:`repro.experiments.table1.sum_task` / ``conv_task`` call for
    the same inputs exactly.  Inputs do not depend on ``l``, so under
    replay the first spec is launched and its trace re-priced at the
    other latencies (:func:`~repro.experiments.table1.sum_launch_reports`).
    """
    first = specs[0]
    rest = {k: v for k, v in first.items() if k != "l"}
    for spec in specs[1:]:
        if {k: v for k, v in spec.items() if k != "l"} != rest:
            raise ValueError(
                f"grouped specs must differ only in l: {first} vs {spec}")
    launch = (sum_launch_reports if first["kernel"] == "sum"
              else conv_launch_reports)
    reports = launch([_params_of(s) for s in specs], model=first["model"],
                     seed=first["seed"], mode=first["mode"],
                     backend=_spec_backend(first))
    return [task_result(report) for report in reports]


def evaluate_point(spec: Mapping) -> tuple[int, dict]:
    """One oracle measurement: :func:`evaluate_points` of one spec."""
    return evaluate_points([spec])[0]


def _machine_params(spec: Mapping) -> "MachineParams | HMMParams":
    if spec["model"] == "hmm":
        return HMMParams(num_dmms=spec["d"], width=spec["w"],
                         global_latency=spec["l"])
    return MachineParams(width=spec["w"], latency=spec["l"])


class CostOracle:
    """Evaluate cost queries against the shared executor + cache.

    Thread-safe: the server calls :meth:`evaluate_batch` /
    :meth:`run_sweep` from worker threads (via ``run_in_executor``), and
    a lock serializes access to the underlying executor.
    :meth:`cached_cost` runs beside them without that lock: it only
    reads the cache's memory tier, which the store guards itself.

    Parameters mirror :class:`~repro.analysis.executor.SweepExecutor`;
    ``jobs`` > 1 shards large batches/sweeps over a worker pool that is
    kept alive between calls (``keep_pool``), so a serving process pays
    pool startup once, not per batch.
    """

    def __init__(
        self,
        *,
        jobs: "int | str" = 1,
        cache: bool = True,
        cache_dir=None,
    ) -> None:
        self.executor = SweepExecutor(jobs=jobs, cache=cache,
                                      cache_dir=cache_dir, keep_pool=True)
        #: The result cache's ``cache.*`` counters: the server reports
        #: them, and sweep and tune responses carry their deltas.
        self.metrics = self.executor.metrics
        self._lock = threading.Lock()
        # The executor's key of an oracle point, with the measure, mode
        # and fingerprint hashed once.
        self._key_of = point_keyer(describe_measure(evaluate_points),
                                   mode=None,
                                   fingerprint=self.executor.fingerprint)

    # -- evaluation --------------------------------------------------------
    def _run(self, specs: list[dict], label: str) -> list[SweepPoint]:
        with self._lock:
            return self.executor.run(evaluate_points, specs, label=label,
                                     axis="l")

    def evaluate_batch(self, specs: Iterable[Mapping]) -> list[dict]:
        """Evaluate unique specs (one micro-batch) into response bodies."""
        specs = [self._strip_auto_backend(s) for s in specs]
        points = self._run(specs, "service/cost")
        return [self._cost_body(spec, pt) for spec, pt in zip(specs, points)]

    def cached_cost(self, spec: Mapping) -> dict | None:
        """:meth:`evaluate_batch`'s body for one spec whose result the
        cache's memory tier holds, else ``None``.

        Reads no disk, evaluates nothing and never waits on the batch
        in progress, so the event loop calls it ahead of the batcher.
        A hit counts as the batched lookup would; a miss counts nothing,
        and the :meth:`evaluate_batch` it goes on to counts it once.
        """
        cache = self.executor.cache
        if cache is None:
            return None
        spec = self._strip_auto_backend(spec)
        found = cache.get_memory(self._store_key(spec))
        if found is None:
            return None
        cycles, extra = found
        return self._cost_body(spec, SweepPoint(spec, cycles, extra))

    def run_sweep(self, meta: Mapping, specs: list[dict]) -> dict:
        """Evaluate an expanded ``/v1/sweep`` grid into one response."""
        before = dict(self.metrics.counts)
        specs = [self._strip_auto_backend(s) for s in specs]
        points = self._run(specs, "service/sweep")
        return {
            **{k: meta[k] for k in ("kernel", "model", "mode", "seed")},
            "points": [
                {
                    "params": self._point_params(spec),
                    "cycles": pt.cycles,
                    "engine": pt.extra.get("engine", "exact"),
                }
                for spec, pt in zip(specs, points)
            ],
            "cache": self._cache_delta(before),
        }

    def advise(self, spec: Mapping) -> dict:
        """Run the spec once with full reporting and diagnose the launch."""
        q = _params_of(spec)
        launch = (sum_launch_report if spec["kernel"] == "sum"
                  else conv_launch_report)
        with self._lock:
            report = launch(q, model=spec["model"], seed=spec["seed"],
                            mode=spec["mode"], backend=_spec_backend(spec))
        advice = diagnose(report, _machine_params(spec))
        return {
            "kernel": spec["kernel"],
            "model": spec["model"],
            "params": self._point_params(spec),
            "cycles": report.cycles,
            "engine": report.engine,
            "regime": advice.regime.value,
            "occupancy_ratio": advice.occupancy_ratio,
            "units": {
                name: {
                    "transactions": unit.transactions,
                    "slots": unit.slots,
                    "efficiency": unit.efficiency,
                    "requests_per_slot": unit.requests_per_slot,
                }
                for name, unit in advice.units.items()
            },
            "findings": list(advice.findings),
            "rendered": advice.render(),
        }

    def tune_spec(self, spec: Mapping) -> dict:
        """Run an autotune job (``POST /v1/tune``) on the shared executor.

        The tuner fans candidate evaluations out over the oracle's own
        :class:`SweepExecutor`, so tune traffic shares the worker pool,
        the admission-controlled thread, and the persistent result
        cache with cost/sweep traffic.  Library-level
        :class:`~repro.errors.ConfigurationError` (an impossible shape
        for the task, say) is reported as a protocol error → HTTP 400.
        """
        from repro.errors import ConfigurationError
        from repro.service.protocol import ProtocolError
        from repro.tuner import tune

        before = dict(self.metrics.counts)
        try:
            with self._lock:
                report = tune(
                    spec["task"],
                    shape=spec["shape"] or None,
                    latencies=spec["latencies"],
                    strategy=spec["strategy"],
                    budget=spec["budget"],
                    mode=spec["mode"],
                    seed=spec["seed"],
                    executor=self.executor,
                )
        except ConfigurationError as exc:
            raise ProtocolError(str(exc), code="invalid_param") from exc
        body = report.to_dict()
        # Served responses are deterministic functions of the request
        # (the cluster relies on this for byte-identical relay); the
        # search's wall-clock is operational detail, not an answer.
        body.pop("search_seconds", None)
        return {**body, "cache": self._cache_delta(before)}

    # -- cluster support ---------------------------------------------------
    def store_namespaces(self) -> dict:
        """``{name: Namespace}`` of the stores this oracle writes into.

        What a cluster shard exposes for warm push/pull; empty when
        caching is off.
        """
        cache = self.executor.cache
        if cache is None:
            return {}
        ns = cache.store_namespace
        return {ns.name: ns}

    def spec_store_keys(self, specs: Iterable[Mapping]) -> list[tuple[str, str]]:
        """``(namespace, key)`` store identities for cost/sweep specs.

        Exactly the keys :meth:`evaluate_batch` / :meth:`run_sweep`
        read or write for these specs — same measure description, same
        auto-backend stripping, same fingerprint — so a shard can name
        the artifacts behind a request without re-evaluating anything.
        """
        cache = self.executor.cache
        if cache is None:
            return []
        return [(cache.namespace, self._store_key(self._strip_auto_backend(s)))
                for s in specs]

    def _store_key(self, spec: Mapping) -> str:
        """The executor's cache key for an auto-backend-stripped spec."""
        return self._key_of(_point_material(spec))

    # -- observability / lifecycle ----------------------------------------
    def _cache_delta(self, before: dict) -> dict:
        counts = self.metrics.counts
        return {name: counts[f"cache.{name}"] - before[f"cache.{name}"]
                for name in ("hits", "misses")}

    def close(self) -> None:
        """Release the executor's retained worker pool, if any."""
        self.executor.close()

    # -- response shaping ---------------------------------------------------
    @staticmethod
    def _strip_auto_backend(spec: Mapping) -> dict:
        """Drop ``backend: "auto"`` before the executor keys its cache.

        Backends return bit-identical cycles, so the default choice must
        not perturb cache identity (entries written before the backend
        field existed keep hitting); an *explicit* backend stays in the
        spec and keys separately, which is merely redundant.
        """
        spec = dict(spec)
        if spec.get("backend", "auto") == "auto":
            spec.pop("backend", None)
        return spec

    @staticmethod
    def _point_params(spec: Mapping) -> dict:
        return {name: spec[name] for name in ("n", "k", "p", "w", "l", "d")}

    @classmethod
    def _cost_body(cls, spec: Mapping, point: SweepPoint) -> dict:
        return {
            "kernel": spec["kernel"],
            "model": spec["model"],
            "mode": spec["mode"],
            "seed": spec["seed"],
            "params": cls._point_params(spec),
            "cycles": point.cycles,
            "engine": point.extra.get("engine", "exact"),
        }
