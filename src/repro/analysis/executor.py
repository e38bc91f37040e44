"""Sharded, cached, resumable parameter-sweep execution.

The reproduction's wall-clock cost lives in its sweeps: hundreds of
independent, deterministic simulator launches per table or figure.
:class:`SweepExecutor` turns one of those sweeps into parallel, cached
work:

* **Sharding** — the point grid is chunked across a
  ``concurrent.futures.ProcessPoolExecutor`` (workers =
  ``min(points, cpu_count)`` under ``jobs="auto"``).  ``jobs=1``
  degrades to the plain in-process loop, so exceptions and determinism
  stay byte-identical with the historical serial path.
* **Memoization** — results persist in the ``sweep`` namespace of the
  unified artifact store (:mod:`repro.store`;
  ``benchmarks/.store/sweep/`` by default), keyed by a content hash of
  *(measure-fn qualified name + bound scalars, the parameter point, the
  engine mode, the repro version fingerprint)*.  A new package version
  changes the fingerprint and silently invalidates old entries;
  ``REPRO_STORE_SWEEP=off`` is the escape hatch (see docs/STORAGE.md).
  Lookups are per point.  A run writes its new records with one store
  call when it returns (one segment file, see docs/STORAGE.md); a long
  run also writes at the first unit boundary after each second or so
  of measuring, so a sweep that stops early keeps what it measured.
* **Progress** — a pluggable callback receives
  :class:`SweepProgress` snapshots (points done/total, cache hits, ETA,
  per-shard timings) so CLIs can print live status.

Results come back as :class:`SweepPoint` rows in grid order regardless
of ``jobs``; a sweep is *resumable* because the points it already wrote
to the cache are skipped on the next run.

* **Grouping** — ``run(..., axis="l")`` measures the missing points
  that agree on every field but ``l`` in one ``measure`` call (the
  tuner costs one candidate's latency grid from one launch); keys and
  lookups stay per point, and the records join the run's one write.

Measure callables used with ``jobs > 1`` must be picklable: a
module-level function, or ``functools.partial`` of one binding scalar
keyword arguments.  Anything non-scalar bound into the callable is
hashed by type/shape only — give such sweeps distinct functions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.metrics import Registry, hit_rate
from repro.store import ArtifactStore
from repro.store import config as _store_config
from repro.store.config import repro_fingerprint

__all__ = [
    "SweepPoint",
    "SweepProgress",
    "ResultCache",
    "SweepExecutor",
    "repro_fingerprint",
    "resolve_jobs",
]

_SCALARS = (bool, int, float, str, type(None))

#: Seconds of measuring after which a run writes the records it holds,
#: at the next unit boundary, instead of waiting until it returns.
_WRITE_EVERY_S = 1.0


@dataclass(frozen=True)
class SweepPoint:
    """One sweep measurement."""

    #: The parameter point, as given to the sweep (a
    #: :class:`repro.analysis.terms.Params` or a plain mapping).
    params: Any
    #: Measured simulator time units.
    cycles: int
    #: Optional extra metrics (transactions, slots, engine tag, ...).
    extra: dict


@dataclass(frozen=True)
class SweepProgress:
    """Snapshot handed to the progress callback after every shard."""

    #: Display label of the sweep ("" when none was given).
    label: str
    #: Total points in the grid.
    total: int
    #: Points resolved so far (cache hits + live measurements).
    done: int
    #: Points answered from the persistent cache.
    cache_hits: int
    #: Seconds since the sweep started.
    elapsed_s: float
    #: Estimated seconds until the remaining live points finish.
    eta_s: float
    #: ``(points, seconds)`` of each completed shard of live work.
    shard_timings: tuple[tuple[int, float], ...] = ()

    def describe(self) -> str:
        return (
            f"{self.label or 'sweep'}: {self.done}/{self.total} points "
            f"({self.cache_hits} cached) in {self.elapsed_s:.2f}s"
            + (f", eta {self.eta_s:.1f}s" if self.done < self.total else "")
        )


def resolve_jobs(jobs: int | str, num_points: int) -> int:
    """Worker-process count for a sweep of ``num_points`` live points.

    ``"auto"`` (or 0) means every usable CPU; the result is always
    clamped to ``min(points, cpus)`` and at least 1.
    """
    if jobs in ("auto", 0, None):
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs}")
    return max(1, min(jobs, num_points)) if num_points else 1


# ---------------------------------------------------------------------------
# Cache keys.
# ---------------------------------------------------------------------------

def _bound_value(value: Any) -> Any:
    """Stable, JSON-able stand-in for a value bound into a partial."""
    if isinstance(value, _SCALARS):
        return value
    tobytes = getattr(value, "tobytes", None)
    if callable(tobytes):  # numpy arrays and friends
        digest = hashlib.sha256(tobytes()).hexdigest()[:16]
        return f"{type(value).__name__}:{getattr(value, 'shape', '')}:{digest}"
    return f"{type(value).__module__}.{type(value).__qualname__}"


def describe_measure(measure: Callable) -> dict:
    """Identity of a measure callable for cache keying: the underlying
    function's qualified name plus any arguments bound via partial."""
    bound: dict[str, Any] = {}
    func = measure
    while isinstance(func, functools.partial):
        for k, v in (func.keywords or {}).items():
            bound.setdefault(k, _bound_value(v))
        if func.args:
            bound.setdefault("*args", [_bound_value(v) for v in func.args])
        func = func.func
    name = (
        getattr(func, "__module__", "?") + ":"
        + getattr(func, "__qualname__", repr(func))
    )
    return {"fn": name, "bound": bound}


def _point_material(point: Any) -> Any:
    if type(point) is dict:
        return {str(k): point[k] for k in sorted(point, key=str)}
    if dataclasses.is_dataclass(point) and not isinstance(point, type):
        return dict(sorted(dataclasses.asdict(point).items()))
    if isinstance(point, Mapping):
        return {str(k): point[k] for k in sorted(point, key=str)}
    return point


def point_keyer(
    measure_desc: dict, *, mode: str | None, fingerprint: str
) -> Callable[[Any], str]:
    """:func:`point_key` for one ``(measure, mode, fingerprint)``, as a
    function of a point's material (:func:`_point_material`).

    A key hashes the canonical JSON ``{"fingerprint", "measure",
    "mode", "point"}``, whose keys sort in that order, so every byte
    before the point is fixed: it is hashed once, and each key finishes
    a copy of that state with the point's JSON.
    """
    head = json.dumps({"fingerprint": fingerprint, "measure": measure_desc,
                       "mode": mode}, sort_keys=True, default=str)
    state = hashlib.sha256(f'{head[:-1]}, "point": '.encode())

    def key(material: Any) -> str:
        h = state.copy()
        h.update(f"{json.dumps(material, sort_keys=True, default=str)}}}"
                 .encode())
        return h.hexdigest()
    return key


def point_key(
    measure_desc: dict, point: Any, *, mode: str | None, fingerprint: str
) -> str:
    """Content hash identifying one measurement."""
    return point_keyer(measure_desc, mode=mode, fingerprint=fingerprint)(
        _point_material(point))


# ---------------------------------------------------------------------------
# The persistent cache.
# ---------------------------------------------------------------------------

def _cache_metrics() -> Registry:
    """A sweep cache's ``cache.hits`` / ``cache.misses`` /
    ``cache.hit_rate`` (all zero while caching is off)."""
    metrics = Registry()
    metrics.declare("cache.hits", "cache.misses")
    metrics.set("cache.hit_rate", lambda: hit_rate(
        metrics["cache.hits"], metrics["cache.misses"]))
    return metrics


class ResultCache:
    """Persistent measurement cache: one store namespace of canonical
    JSON records (:mod:`repro.store`), each in its own integrity
    envelope; :meth:`put_many` files a batch as one segment file.

    Each entry is one ``{"key", "fingerprint", "cycles", "extra"}``
    record.  A corrupt or truncated entry is quarantined by the store
    and simply recomputed; a well-framed record without integer cycles
    is dropped, counted as a miss, and replaced by the recomputation.
    Only the parent process writes — workers just return values.

    :attr:`metrics` counts this cache's lookups; the namespace's
    registry also reports ``store.<ns>.fingerprints.current`` /
    ``.stale``, its entries written under this fingerprint and under
    older ones.
    """

    def __init__(
        self,
        directory: Path,
        fingerprint: str,
        *,
        namespace: str = "sweep",
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.namespace = namespace
        self._ns = ArtifactStore().namespace(
            namespace, "json", directory=self.directory
        )
        self._ns.metrics.set(f"store.{namespace}.fingerprints",
                             self._fingerprints)
        self.metrics = _cache_metrics()

    @property
    def store_namespace(self):
        """The underlying :class:`repro.store.Namespace` (counters,
        pinning, quarantine live there)."""
        return self._ns

    def get(self, key: str) -> tuple[int, dict] | None:
        payload = self._ns.get(key)
        found = _record(payload)
        if found is None:
            if payload is not None:
                # Malformed record: drop it so the recomputation's
                # put() replaces it instead of skipping an existing key.
                self._ns.delete(key)
            self.metrics.inc("cache.misses")
            return None
        self.metrics.inc("cache.hits")
        return found

    def get_memory(self, key: str) -> tuple[int, dict] | None:
        """:meth:`get` from the store's memory tier alone.

        Never touches disk, so an event loop may call it.  A hit counts
        exactly what :meth:`get` counts; a miss counts nothing here and
        leaves a malformed record in place, so the :meth:`get` that
        follows counts the miss once and drops the record.
        """
        found = _record(self._ns.get_memory(key))
        if found is not None:
            self.metrics.inc("cache.hits")
        return found

    def put(self, key: str, cycles: int, extra: dict) -> None:
        self.put_many([(key, cycles, extra)])

    def put_many(self, records: "Iterable[tuple[str, int, dict]]") -> None:
        """Store ``(key, cycles, extra)`` records with one store write;
        keys already stored are kept."""
        self._ns.put_many(
            [(key, {"key": key, "fingerprint": self.fingerprint,
                    "cycles": int(cycles), "extra": _jsonable_extra(extra)})
             for key, cycles, extra in records],
            skip_existing=True)

    def clear(self) -> int:
        """Delete every stored record; returns how many were removed."""
        return self._ns.clear()

    def _fingerprints(self) -> dict:
        current = stale = 0
        for _key, payload in self._ns.scan():
            fp = payload.get("fingerprint", "") \
                if isinstance(payload, dict) else ""
            if fp == self.fingerprint:
                current += 1
            else:
                stale += 1
        return {"current": current, "stale": stale}


def _record(payload: Any) -> tuple[int, dict] | None:
    """``(cycles, extra)`` of a stored record, ``None`` when malformed."""
    if isinstance(payload, dict):
        try:
            return int(payload["cycles"]), dict(payload.get("extra", {}))
        except (ValueError, KeyError, TypeError):
            pass
    return None


def _jsonable_extra(extra: dict) -> dict:
    out: dict[str, Any] = {}
    for k, v in extra.items():
        if isinstance(v, _SCALARS):
            out[str(k)] = v
        else:
            try:
                out[str(k)] = float(v)
            except (TypeError, ValueError):
                out[str(k)] = str(v)
    return out


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

def _normalize(out: Any) -> tuple[int, dict]:
    if isinstance(out, tuple):
        cycles, extra = out
        return int(cycles), dict(extra)
    return int(out), {}


def _measure_unit(measure: Callable, unit: list, grouped: bool) -> list:
    """Results of one unit of work: a lone point, or (``grouped``) the
    points ``measure`` takes together as a list."""
    if not grouped:
        return [_normalize(measure(unit[0]))]
    results = list(measure(unit))
    if len(results) != len(unit):
        raise ValueError(
            f"a grouped measure returned {len(results)} results for "
            f"{len(unit)} points"
        )
    return [_normalize(r) for r in results]


def _measure_chunk(measure: Callable, chunk: list, grouped: bool
                   ) -> tuple[float, list]:
    """Worker body: measure one shard of work units, timing the whole
    shard; returns one result list per unit."""
    start = time.perf_counter()
    results = [_measure_unit(measure, unit, grouped) for unit in chunk]
    return time.perf_counter() - start, results


def _chunked(units: list, jobs: int) -> list[list]:
    """Split live work into ~4 shards per worker (amortizes pickling
    while keeping the pool balanced); at least one unit per shard."""
    target = max(1, -(-len(units) // (jobs * 4)))
    return [units[i:i + target] for i in range(0, len(units), target)]


def _work_units(pts: list, materials: list, missing: list[int],
                axis: str | None) -> list[list[int]]:
    """The missing points' indices as units of work, in grid order:
    one per point, or one per group of points that agree on every
    field but ``axis`` (``materials`` holds each point's
    :func:`_point_material`)."""
    if axis is None:
        return [[i] for i in missing]
    groups: dict[str, list[int]] = {}
    for i in missing:
        material = materials[i]
        if not isinstance(material, dict) or axis not in material:
            raise ValueError(f"point {pts[i]!r} has no field {axis!r}")
        rest = {k: v for k, v in material.items() if k != axis}
        blob = json.dumps(rest, sort_keys=True, default=str)
        groups.setdefault(blob, []).append(i)
    return list(groups.values())


class SweepExecutor:
    """Runs parameter sweeps sharded over processes with a persistent
    result cache.  See the module docstring for the full contract.

    Parameters
    ----------
    jobs:
        Worker processes: an int, or ``"auto"`` for
        ``min(points, cpu_count)``.  ``1`` (default) keeps the
        historical in-process loop.
    cache:
        Enable the persistent result cache.  Overridden globally by
        ``REPRO_STORE=off`` / ``REPRO_STORE_<NS>=off``.
    cache_dir:
        Cache directory (default: the namespace's directory,
        ``REPRO_STORE_<NS>_DIR`` or ``<store root>/<namespace>``).
    namespace:
        Store namespace the cache lives in (default ``"sweep"``; the
        tuner passes ``"tune"``).
    fingerprint:
        Cache-invalidation token (default: :func:`repro_fingerprint`).
    progress:
        Optional callback receiving :class:`SweepProgress` snapshots.
    keep_pool:
        Retain the worker-process pool between :meth:`run` calls instead
        of forking a fresh one per sweep.  Long-lived callers (the
        serving layer, repeated driver runs) pay pool startup once;
        release it with :meth:`close` (or use the executor as a context
        manager).  Default off: one-shot sweeps keep the historical
        spawn-per-run behavior.
    """

    def __init__(
        self,
        jobs: int | str = 1,
        cache: bool = True,
        cache_dir: str | Path | None = None,
        fingerprint: str | None = None,
        progress: Callable[[SweepProgress], None] | None = None,
        keep_pool: bool = False,
        namespace: str = "sweep",
    ) -> None:
        self.jobs = jobs
        self.fingerprint = fingerprint or repro_fingerprint()
        self.progress = progress
        self.keep_pool = keep_pool
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self.cache: ResultCache | None = None
        if cache and _store_config.namespace_allowed(namespace):
            directory = (
                Path(cache_dir) if cache_dir is not None
                else _store_config.namespace_dir(namespace)
            )
            self.cache = ResultCache(
                directory, self.fingerprint, namespace=namespace
            )
        #: The cache's ``cache.*`` counters (zeros without a cache).
        self.metrics = (self.cache.metrics if self.cache is not None
                        else _cache_metrics())

    # -- pool reuse ---------------------------------------------------------
    def _acquire_pool(self, jobs: int) -> tuple[ProcessPoolExecutor, int, bool]:
        """``(pool, workers, transient)`` for a parallel run.

        Under ``keep_pool`` the retained pool is reused (growing it if a
        later sweep needs more workers); otherwise a transient pool is
        returned and the caller shuts it down.
        """
        if not self.keep_pool:
            return ProcessPoolExecutor(max_workers=jobs), jobs, True
        if self._pool is None or self._pool_workers < jobs:
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = ProcessPoolExecutor(max_workers=jobs)
            self._pool_workers = jobs
        return self._pool, self._pool_workers, False

    def close(self) -> None:
        """Shut down the retained worker pool (no-op without one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache management ---------------------------------------------------
    def clear(self) -> int:
        """Drop every cached result; returns the removed record count."""
        return self.cache.clear() if self.cache else 0

    # -- the sweep ----------------------------------------------------------
    def run(
        self,
        measure: Callable[[Any], "int | tuple[int, dict]"],
        points: Iterable[Any],
        *,
        mode: str | None = None,
        label: str | None = None,
        axis: str | None = None,
    ) -> list[SweepPoint]:
        """Measure every point, returning rows in grid order.

        ``measure`` returns the cycle count, optionally paired with an
        extra-metrics dict.  Exceptions propagate — a failing point is a
        bug, not data.  ``mode`` names the engine mode baked into
        ``measure`` and participates in the cache key; ``label`` is
        display-only (progress reporting).

        With ``axis`` (a field of every point), the missing points that
        agree on every other field form one group: ``measure`` is called
        once per group with the group's points as a list, in grid order,
        and returns one result per point.  A group is one unit of work
        for the worker pool.  Cache keys and lookups stay per point,
        exactly as without ``axis``.

        The new measurements are written to the cache with one store
        call (one segment file) when the run returns, and at the first
        unit boundary after about a second of measuring since the last
        write.  The final write happens even when a point raises, so
        the points measured before the error stay cached.
        """
        pts = list(points)
        total = len(pts)
        start = time.perf_counter()
        results: list[SweepPoint | None] = [None] * total
        keys: list[str | None] = [None] * total
        missing: list[int] = []
        cache_hits = 0
        grouped = axis is not None
        materials = ([_point_material(q) for q in pts]
                     if self.cache is not None or grouped else [])

        if self.cache is not None:
            key_of = point_keyer(describe_measure(measure), mode=mode,
                                 fingerprint=self.fingerprint)
            for i, q in enumerate(pts):
                key = keys[i] = key_of(materials[i])
                found = self.cache.get(key)
                if found is None:
                    missing.append(i)
                else:
                    cycles, extra = found
                    results[i] = SweepPoint(params=q, cycles=cycles,
                                            extra=dict(extra))
                    cache_hits += 1
        else:
            missing = list(range(total))

        timings: list[tuple[int, float]] = []
        done = cache_hits
        self._emit(label, total, done, cache_hits, start, timings)

        units = _work_units(pts, materials, missing, axis)
        unwritten: list[tuple[str, int, dict]] = []
        written_at = time.perf_counter()

        def write() -> None:
            nonlocal written_at
            if unwritten:
                self.cache.put_many(unwritten)  # type: ignore[union-attr]
                unwritten.clear()
            written_at = time.perf_counter()

        def record(unit: list[int], measured: list, seconds: float) -> None:
            nonlocal done
            timings.append((len(unit), seconds))
            for i, (cycles, extra) in zip(unit, measured):
                results[i] = SweepPoint(params=pts[i], cycles=cycles,
                                        extra=extra)
                if keys[i] is not None:
                    unwritten.append((keys[i], cycles, extra))
            done += len(unit)
            if time.perf_counter() - written_at >= _WRITE_EVERY_S:
                write()
            self._emit(label, total, done, cache_hits, start, timings)

        jobs = resolve_jobs(self.jobs, len(units))
        try:
            if units and jobs <= 1:
                for unit in units:
                    t0 = time.perf_counter()
                    measured = _measure_unit(
                        measure, [pts[i] for i in unit], grouped)
                    record(unit, measured, time.perf_counter() - t0)
            elif units:
                self._run_pool(measure, pts, units, grouped, jobs, record)
        finally:
            write()
        return results  # type: ignore[return-value]  # all slots filled

    # -- internals ----------------------------------------------------------
    def _run_pool(self, measure: Callable, pts: list, units: list[list[int]],
                  grouped: bool, jobs: int, record: Callable) -> None:
        """Measure ``units`` on the worker pool, handing each finished
        shard's results to ``record`` as they arrive."""
        pool, workers, transient = self._acquire_pool(jobs)
        shards = _chunked(units, workers)
        try:
            futures = {
                pool.submit(_measure_chunk, measure,
                            [[pts[i] for i in unit] for unit in shard],
                            grouped): shard
                for shard in shards
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for fut in finished:
                    shard = futures[fut]
                    seconds, measured = fut.result()  # reraises
                    record([i for unit in shard for i in unit],
                           [r for rows in measured for r in rows],
                           seconds)
        finally:
            if transient:
                pool.shutdown()

    def _emit(
        self,
        label: str | None,
        total: int,
        done: int,
        cache_hits: int,
        start: float,
        timings: list[tuple[int, float]],
    ) -> None:
        if self.progress is None:
            return
        elapsed = time.perf_counter() - start
        live_done = done - cache_hits
        live_total = total - cache_hits
        eta = (
            elapsed / live_done * (live_total - live_done)
            if live_done else 0.0
        )
        self.progress(SweepProgress(
            label=label or "",
            total=total,
            done=done,
            cache_hits=cache_hits,
            elapsed_s=elapsed,
            eta_s=eta,
            shard_timings=tuple(timings),
        ))
