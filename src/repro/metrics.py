"""One metrics registry: counters, gauges and the latency histogram.

Every number ``GET /metrics`` reports lives in a :class:`Registry`
under a stable dotted name (``batches.count``,
``store.sweep.hits_memory``, ``native.native_calls``), and
:meth:`Registry.snapshot` renders those names as the nested JSON body.
A registry is scoped like the thing it counts:

* one per server and one per router;
* :data:`PROCESS` for the per-process ``store`` and ``native`` sections;
* one per store :class:`~repro.store.Namespace`, sweep
  :class:`~repro.analysis.executor.ResultCache` and replay
  :class:`~repro.machine.replay.TraceStore`, so a caller sees exactly
  its own traffic.  A namespace's registry has its store's registry
  (by default :data:`PROCESS`) as its parent: every count lands in both.

A gauge is a value, or a zero-argument callable read at snapshot time.
A gauge whose value is a dict merges it at its name (at the root when
the name is empty); that is how a server's registry mounts the
per-process sections and its oracle's cache counters.

Counting is thread-safe: a server counts from its event loop, its
oracle's thread and the threads that serve store pushes and pulls, and
servers that share a process share :data:`PROCESS`.  Labelled families
are plain ``Counter`` objects for the event-loop thread alone.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Any

__all__ = ["Histogram", "Registry", "PROCESS", "hit_rate"]


def hit_rate(hits: int, misses: int) -> float:
    """``hits / (hits + misses)`` to 4 places; 0.0 before any lookup."""
    lookups = hits + misses
    return round(hits / lookups, 4) if lookups else 0.0


class Histogram:
    """Last-``capacity`` latency samples, in seconds, with quantiles.

    Accurate for the steady state and constant-memory forever.
    """

    def __init__(self, capacity: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def snapshot(self) -> dict:
        ordered = sorted(self._samples)

        def ms(q: float) -> float:
            if not ordered:
                return 0.0
            index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
            return round(ordered[index] * 1e3, 3)

        return {
            "count": self.count,
            "p50_ms": ms(0.50),
            "p95_ms": ms(0.95),
            "max_ms": ms(1.0),
        }


class Registry:
    """Counters, gauges, labelled counter families and histograms.

    ``registry[name]`` reads a counter, a gauge, or any leaf or subtree
    of :meth:`snapshot` by dotted path; an unknown name is a
    ``KeyError``.  ``parent``, and its own parent in turn, receives
    every :meth:`inc` and :meth:`declare` under the same name.
    """

    def __init__(self, parent: "Registry | None" = None) -> None:
        #: This registry, then its parent, its parent's parent, ...
        self._chain: list[Registry] = [self]
        if parent is not None:
            self._chain += parent._chain
        #: Every counter, by name.
        self.counts: dict[str, int] = {}
        self._layout: dict = {}  # counter names, nested by their parts
        self._gauges: dict[str, Any] = {}
        # One lock per chain root, so one increment takes one lock.
        self._lock = parent._lock if parent is not None \
            else threading.Lock()

    # -- counting ------------------------------------------------------------
    def _add(self, name: str) -> None:
        """Create counter ``name`` at 0; call with the lock held."""
        *path, leaf = name.split(".")
        node = self._layout
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = name
        self.counts[name] = 0

    def declare(self, *names: str) -> None:
        """Report ``names`` as 0 until they are first counted."""
        with self._lock:
            for registry in self._chain:
                for name in names:
                    if name not in registry.counts:
                        registry._add(name)

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            for registry in self._chain:
                if name not in registry.counts:
                    registry._add(name)
                registry.counts[name] += amount

    def set(self, name: str, value: Any) -> None:
        """Set a gauge: a value, or a callable read at snapshot time."""
        self._gauges[name] = value

    def labeled(self, name: str) -> Counter:
        """A new counter family under ``name``, keyed by label.

        A tuple label nests one level per element, so a family keyed by
        ``(route, status)`` renders as ``{route: {status: n}}``.  Labels
        may contain dots (routes, shard URLs).
        """
        family: Counter = Counter()
        self.set(name, lambda: _nest(family))
        return family

    def histogram(self, name: str) -> Histogram:
        """A new latency histogram under ``name``."""
        histogram = Histogram()
        self.set(name, histogram.snapshot)
        return histogram

    def __getitem__(self, name: str) -> Any:
        if name in self.counts:
            return self.counts[name]
        gauge = self._gauges.get(name)
        if gauge is not None and not callable(gauge):
            return gauge
        node = self.snapshot(name)
        for part in name.split("."):
            node = node[part]
        return node

    def children(self, prefix: str) -> list[str]:
        """The next dotted part of every counter name under ``prefix``."""
        with self._lock:
            node = self._layout
            for part in prefix.split("."):
                node = node.get(part, {})
            return list(node)

    def reset(self) -> None:
        """Drop every counter (tests); gauges stay registered."""
        with self._lock:
            self.counts.clear()
            self._layout.clear()

    # -- readout -------------------------------------------------------------
    def snapshot(self, prefix: str = "") -> dict:
        """The JSON-able tree of the names under ``prefix`` (every name
        by default), plus the dict gauges that may hold it; no other
        gauge is read."""
        def wanted(name: str) -> bool:
            return not name or name == prefix \
                or name.startswith(prefix + ".") \
                or prefix.startswith(name + ".")

        tree: dict = {}
        with self._lock:
            node = self._layout
            for part in prefix.split(".") if prefix else ():
                node = node.get(part) if isinstance(node, dict) else None
            if isinstance(node, dict):
                _place(tree, prefix, _fill(node, self.counts))
            elif node is not None:
                _place(tree, prefix, self.counts[node])
        for name, gauge in self._gauges.items():
            if not prefix or wanted(name):
                _place(tree, name, gauge() if callable(gauge) else gauge)
        return tree


def _nest(family: Counter) -> dict:
    nested: dict = {}
    for label, count in sorted(family.items()):
        *outer, last = label if isinstance(label, tuple) else (label,)
        node = nested
        for part in outer:
            node = node.setdefault(str(part), {})
        node[str(last)] = count
    return nested


def _fill(layout: dict, counts: dict) -> dict:
    return {key: counts[sub] if type(sub) is str else _fill(sub, counts)
            for key, sub in layout.items()}


def _place(tree: dict, name: str, value: Any) -> None:
    """Put ``value`` at dotted ``name``; a dict merges into what is there."""
    parts = name.split(".") if name else []
    if isinstance(value, dict):
        for part in parts:
            tree = tree.setdefault(part, {})
        _merge(tree, value)
        return
    for part in parts[:-1]:
        tree = tree.setdefault(part, {})
    tree[parts[-1]] = value


def _merge(tree: dict, value: dict) -> None:
    for key, item in value.items():
        node = tree.get(key)
        if isinstance(item, dict) and isinstance(node, dict):
            _merge(node, item)
        else:
            tree[key] = item


#: The per-process registry: the ``store`` and ``native`` sections.
PROCESS = Registry()
