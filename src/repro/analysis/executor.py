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
* **Progress** — a pluggable callback receives
  :class:`SweepProgress` snapshots (points done/total, cache hits, ETA,
  per-shard timings) so CLIs can print live status.

Results come back as :class:`SweepPoint` rows in grid order regardless
of ``jobs``; a sweep is *resumable* because any prefix of points already
in the cache is skipped on the next run.

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

from repro.store import ArtifactStore
from repro.store import config as _store_config

__all__ = [
    "SweepPoint",
    "SweepProgress",
    "CacheStats",
    "ResultCache",
    "SweepExecutor",
    "repro_fingerprint",
    "resolve_jobs",
]

#: Overrides the version fingerprint (useful for tests); it governs
#: cache invalidation for every store namespace.
FINGERPRINT_ENV = "REPRO_SWEEP_FINGERPRINT"

_SCALARS = (bool, int, float, str, type(None))


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


@dataclass(frozen=True)
class CacheStats:
    """On-disk contents plus this session's hit/miss counters."""

    #: Entries on disk usable under the current fingerprint.
    entries: int
    #: Entries on disk written under an older fingerprint (dead weight
    #: until ``clear()``).
    stale_entries: int
    #: Number of on-disk entry files (historically: shard files).
    shards: int
    #: Total bytes of the entry files.
    size_bytes: int
    #: Lookups answered from the cache this session.
    hits: int
    #: Lookups that fell through to a live measurement this session.
    misses: int

    def describe(self) -> str:
        return (
            f"sweep cache: {self.entries} entries ({self.stale_entries} stale) "
            f"in {self.shards} files, {self.size_bytes} bytes; "
            f"session: {self.hits} hits / {self.misses} misses"
        )


def repro_fingerprint() -> str:
    """The cache-invalidation fingerprint: the repro version (or the
    ``REPRO_SWEEP_FINGERPRINT`` override)."""
    env = os.environ.get(FINGERPRINT_ENV)
    if env:
        return env
    from repro import __version__  # deferred: repro imports this module

    return f"repro-{__version__}"


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
    if dataclasses.is_dataclass(point) and not isinstance(point, type):
        return dict(sorted(dataclasses.asdict(point).items()))
    if isinstance(point, Mapping):
        return {str(k): point[k] for k in sorted(point, key=str)}
    return point


def point_key(
    measure_desc: dict, point: Any, *, mode: str | None, fingerprint: str
) -> str:
    """Content hash identifying one measurement."""
    material = {
        "measure": measure_desc,
        "point": _point_material(point),
        "mode": mode,
        "fingerprint": fingerprint,
    }
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The persistent cache.
# ---------------------------------------------------------------------------

class ResultCache:
    """Persistent measurement cache: one store namespace of canonical
    JSON entries (:mod:`repro.store`), one entry file per key.

    Each entry is one ``{"key", "fingerprint", "cycles", "extra"}``
    record.  A corrupt or truncated entry is quarantined by the store
    and simply recomputed.  Only the parent process writes — workers
    just return values.
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
        self.hits = 0
        self.misses = 0

    @property
    def store_namespace(self):
        """The underlying :class:`repro.store.Namespace` (counters,
        pinning, quarantine live there)."""
        return self._ns

    def get(self, key: str) -> tuple[int, dict] | None:
        payload = self._ns.get(key)
        found: tuple[int, dict] | None = None
        if isinstance(payload, dict):
            try:
                found = (int(payload["cycles"]),
                         dict(payload.get("extra", {})))
            except (ValueError, KeyError, TypeError):
                found = None  # malformed record: recompute instead
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return found

    def put(self, key: str, cycles: int, extra: dict) -> None:
        entry = {
            "key": key,
            "fingerprint": self.fingerprint,
            "cycles": int(cycles),
            "extra": _jsonable_extra(extra),
        }
        self._ns.put(key, entry, skip_existing=True)

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        return self._ns.clear()

    def stats(self) -> CacheStats:
        disk = self._ns.stats()
        entries = stale = 0
        for _key, payload in self._ns.scan():
            fp = payload.get("fingerprint", "") \
                if isinstance(payload, dict) else ""
            if fp == self.fingerprint:
                entries += 1
            else:
                stale += 1
        return CacheStats(
            entries=entries,
            stale_entries=stale,
            shards=disk.entries_disk,
            size_bytes=disk.disk_bytes,
            hits=self.hits,
            misses=self.misses,
        )


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


def _measure_chunk(measure: Callable, chunk: list) -> tuple[float, list]:
    """Worker body: measure one shard of points, timing the whole shard."""
    start = time.perf_counter()
    results = [_normalize(measure(q)) for q in chunk]
    return time.perf_counter() - start, results


def _chunked(indices: list[int], jobs: int) -> list[list[int]]:
    """Split live work into ~4 shards per worker (amortizes pickling
    while keeping the pool balanced); at least one point per shard."""
    target = max(1, -(-len(indices) // (jobs * 4)))
    return [indices[i:i + target] for i in range(0, len(indices), target)]


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
        """Drop every cached result; returns removed entry-file count."""
        return self.cache.clear() if self.cache else 0

    def stats(self) -> CacheStats:
        """Cache contents and this session's hit/miss counters."""
        if self.cache:
            return self.cache.stats()
        return CacheStats(0, 0, 0, 0, 0, 0)

    # -- the sweep ----------------------------------------------------------
    def run(
        self,
        measure: Callable[[Any], "int | tuple[int, dict]"],
        points: Iterable[Any],
        *,
        mode: str | None = None,
        label: str | None = None,
    ) -> list[SweepPoint]:
        """Measure every point, returning rows in grid order.

        ``measure`` returns the cycle count, optionally paired with an
        extra-metrics dict.  Exceptions propagate — a failing point is a
        bug, not data.  ``mode`` names the engine mode baked into
        ``measure`` and participates in the cache key; ``label`` is
        display-only (progress reporting).
        """
        pts = list(points)
        total = len(pts)
        start = time.perf_counter()
        results: list[SweepPoint | None] = [None] * total
        keys: list[str | None] = [None] * total
        missing: list[int] = []
        cache_hits = 0

        if self.cache is not None:
            desc = describe_measure(measure)
            for i, q in enumerate(pts):
                key = point_key(
                    desc, q, mode=mode, fingerprint=self.fingerprint
                )
                keys[i] = key
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

        jobs = resolve_jobs(self.jobs, len(missing))
        if missing and jobs <= 1:
            for i in missing:
                t0 = time.perf_counter()
                cycles, extra = _normalize(measure(pts[i]))
                timings.append((1, time.perf_counter() - t0))
                results[i] = SweepPoint(params=pts[i], cycles=cycles,
                                        extra=extra)
                self._store(keys[i], cycles, extra)
                done += 1
                self._emit(label, total, done, cache_hits, start, timings)
        elif missing:
            pool, workers, transient = self._acquire_pool(jobs)
            shards = _chunked(missing, workers)
            try:
                futures = {
                    pool.submit(_measure_chunk, measure,
                                [pts[i] for i in shard]): shard
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
                        timings.append((len(shard), seconds))
                        for i, (cycles, extra) in zip(shard, measured):
                            results[i] = SweepPoint(params=pts[i],
                                                    cycles=cycles,
                                                    extra=extra)
                            self._store(keys[i], cycles, extra)
                        done += len(shard)
                        self._emit(label, total, done, cache_hits, start,
                                   timings)
            finally:
                if transient:
                    pool.shutdown()
        return results  # type: ignore[return-value]  # all slots filled

    # -- internals ----------------------------------------------------------
    def _store(self, key: str | None, cycles: int, extra: dict) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, cycles, extra)

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
