"""Metrics time series: fixed-size rings sampled from live snapshots.

A :class:`MetricsRecorder` periodically calls a ``source`` callable (a
metrics ``snapshot()`` — the service's, the router's, anything that
returns a JSON-able dict), flattens every numeric leaf to a dotted
path (``cache.hit_rate``, ``batches.mean_size``,
``store.sweep.hits_local`` ...), and appends each to a
:class:`RingSeries` of bounded length.  Resolution and retention are
knobs; the clock is injectable, so a test drives sampling with
:class:`~repro.service.clock.ManualClock` and gets bit-identical
series every run.

Recorded history persists through the unified artifact store under the
``telemetry`` namespace (one JSON artifact per recorder name, key =
``content_key({"telemetry": name})``), so a restarted process can show
what happened before it was restarted, and dashboards can be rebuilt
offline from the store alone.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping

from repro.service.clock import Clock

__all__ = ["RingSeries", "MetricsRecorder", "flatten_numeric",
           "telemetry_store_key"]

#: Ceiling on distinct series one recorder tracks; snapshot paths past
#: it are ignored (stable: the first ``max_series`` observed win).
DEFAULT_MAX_SERIES = 512


def flatten_numeric(
    snapshot: Mapping, prefix: str = "",
    out: "dict[str, float] | None" = None,
) -> dict[str, float]:
    """Numeric leaves of a nested dict as ``{"a.b.c": value}``.

    Booleans and strings are skipped (they are states, not series);
    lists are skipped too — a snapshot that wants a list graphed should
    expose it as separate keyed leaves.
    """
    if out is None:
        out = {}
    for name, value in snapshot.items():
        path = f"{prefix}.{name}" if prefix else str(name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, Mapping):
            flatten_numeric(value, path, out)
    return out


def telemetry_store_key(name: str) -> str:
    """The store key one recorder's history persists under."""
    from repro.store import content_key

    return content_key({"telemetry": name})


class RingSeries:
    """One metric's last-``capacity`` samples: ``(t, value)`` pairs."""

    __slots__ = ("times", "values")

    def __init__(self, capacity: int) -> None:
        self.times: deque[float] = deque(maxlen=capacity)
        self.values: deque[float] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> "float | None":
        return self.values[-1] if self.values else None

    def as_dict(self) -> dict:
        """JSON-able form (what :meth:`MetricsRecorder.persist` writes)."""
        return {"t": [round(t, 3) for t in self.times],
                "v": list(self.values)}


class MetricsRecorder:
    """Sample one snapshot source into ring-buffer time series.

    Parameters
    ----------
    source:
        Zero-arg callable returning a JSON-able dict (e.g.
        a server's ``Registry.snapshot``).  Exceptions are counted, never
        propagated — a broken gauge must not kill the sampling loop.
    resolution_s, retention:
        Sample cadence and per-series ring length; history spans
        ``resolution_s * retention`` seconds.
    clock:
        Injectable time source; :meth:`run` sleeps on it.
    bus:
        Optional :class:`~repro.telemetry.events.EventBus`; every
        sample emits a compact ``sample`` event on it (the streaming
        heartbeat dashboards ride).
    store_space:
        Optional store :class:`~repro.store.Namespace` (conventionally
        the ``telemetry`` namespace) that :meth:`persist` writes to.
    name:
        Identity of this recorder's persisted artifact.
    """

    def __init__(
        self,
        source: Callable[[], Mapping],
        *,
        resolution_s: float = 1.0,
        retention: int = 300,
        clock: "Clock | None" = None,
        bus=None,
        store_space=None,
        name: str = "service",
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        if resolution_s <= 0:
            raise ValueError(f"resolution_s must be > 0, got {resolution_s}")
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.source = source
        self.resolution_s = resolution_s
        self.retention = retention
        self.clock = clock or Clock()
        self.bus = bus
        self.store_space = store_space
        self.name = name
        self.max_series = max_series
        self.samples = 0
        self.source_errors = 0
        self._series: dict[str, RingSeries] = {}
        self._stopped = False

    # -- sampling ----------------------------------------------------------
    def sample(self) -> dict[str, float]:
        """Take one sample now; returns the flattened leaves recorded."""
        now = self.clock.monotonic()
        try:
            snapshot = dict(self.source())
        except Exception:  # noqa: BLE001 - a gauge must not kill sampling
            self.source_errors += 1
            return {}
        leaves = flatten_numeric(snapshot)
        for path, value in leaves.items():
            series = self._series.get(path)
            if series is None:
                if len(self._series) >= self.max_series:
                    continue
                series = self._series[path] = RingSeries(self.retention)
            series.append(now, value)
        self.samples += 1
        if self.bus is not None:
            self.bus.emit("sample", t=round(now, 3),
                          series=len(self._series), n=self.samples)
        return leaves

    async def run(self) -> None:
        """Sample every ``resolution_s`` until :meth:`stop` (or cancel)."""
        while not self._stopped:
            await self.clock.sleep(self.resolution_s)
            if self._stopped:
                break
            self.sample()

    def stop(self) -> None:
        self._stopped = True

    # -- readout -----------------------------------------------------------
    def series_names(self) -> list[str]:
        return sorted(self._series)

    def series(self, path: str) -> "RingSeries | None":
        return self._series.get(path)

    def values(self, path: str) -> list[float]:
        """The retained values of one series (empty when unknown)."""
        series = self._series.get(path)
        return list(series.values) if series is not None else []

    def snapshot(self) -> dict:
        """JSON-able summary for ``/metrics`` → ``telemetry``."""
        return {
            "samples": self.samples,
            "series": len(self._series),
            "resolution_s": self.resolution_s,
            "retention": self.retention,
            "source_errors": self.source_errors,
            "persisted": self.store_space is not None,
        }

    # -- persistence -------------------------------------------------------
    def persist(self) -> "str | None":
        """Write the retained history to the store; returns the key.

        No-op (returns ``None``) when no store namespace was wired.
        """
        if self.store_space is None:
            return None
        key = telemetry_store_key(self.name)
        artifact = {
            "name": self.name,
            "resolution_s": self.resolution_s,
            "retention": self.retention,
            "samples": self.samples,
            "series": {path: s.as_dict()
                       for path, s in sorted(self._series.items())},
        }
        self.store_space.put(key, artifact)
        return key

    @staticmethod
    def load(store_space, name: str) -> "dict | None":
        """Read one persisted history back (``None`` when absent)."""
        return store_space.get(telemetry_store_key(name))

    def restore(self) -> bool:
        """Preload history persisted by a previous run of this name.

        Appends the stored points in front of live sampling so a
        restarted process keeps its graphs.  Returns ``True`` when
        something was restored.
        """
        if self.store_space is None:
            return False
        artifact = self.load(self.store_space, self.name)
        if not isinstance(artifact, dict):
            return False
        for path, data in artifact.get("series", {}).items():
            if len(self._series) >= self.max_series:
                break
            series = self._series.setdefault(path, RingSeries(self.retention))
            for t, v in zip(data.get("t", []), data.get("v", [])):
                series.append(float(t), float(v))
        return True
