"""Metric names, units and the arithmetic that fills them.

The metric names, units and directions are ``BENCHMARK.json``'s,
beside this directory.  Counts come from ``/metrics`` deltas around the
timed phase; ``FIXED_COUNTS`` are the ones a workload's request list
fixes, which must repeat exactly between runs of one seed.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@functools.cache
def spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


def metric_table(kind: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: (m["unit"], m["better"]) for m in spec()[kind]}

#: Counts a seed's request list fixes; a run whose values differ from
#: another run of the same seed is flagged.
FIXED_COUNTS = (
    "count.requests", "count.points", "count.sweep_cache.misses",
    "count.trace.captures", "count.trace.refusals", "count.trace.flags",
    "count.native.calls", "count.store.sweep.puts", "count.store.trace.puts",
    "native.fallbacks",
)

#: ``/metrics`` leaf -> count name.
_DELTAS = {
    "cache.hits": "count.sweep_cache.hits",
    "cache.misses": "count.sweep_cache.misses",
    "trace_store.hits": "count.trace.hits",
    "trace_store.captures": "count.trace.captures",
    "trace_store.refusals": "count.trace.refusals",
    "trace_store.flagged_programs": "count.trace.flags",
    "native.native_calls": "count.native.calls",
    "native.python_fallbacks": "native.fallbacks",
    "batches.count": "count.batcher.batches",
    "batches.requests": "batcher.requests",
    "batches.coalesced": "count.batcher.coalesced",
    "store.sweep.puts": "count.store.sweep.puts",
    "store.sweep.bytes_written": "count.store.sweep.bytes",
    "store.sweep.hits_memory": "store.sweep.hits_memory",
    "store.sweep.hits": "store.sweep.hits",
    "store.sweep.misses": "store.sweep.misses",
    "store.trace.puts": "count.store.trace.puts",
    "store.trace.bytes_written": "count.store.trace.bytes",
}


def min_samples(q: float) -> int:
    """Fewest samples that leave ten beyond the ``q`` quantile."""
    return math.ceil(10 / (1 - q) - 1e-9)


def percentile(samples: list[float], q: float) -> float:
    """The ``q`` quantile (linear between order statistics).

    Raises ``ValueError`` when fewer than ten samples lie beyond it.
    """
    if len(samples) < min_samples(q):
        raise ValueError(f"p{round(q * 100)} needs at least {min_samples(q)} "
                         f"samples, got {len(samples)}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _leaves(tree: dict, prefix: str = "") -> dict[str, float]:
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_leaves(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = value
    return out


def metric_deltas(before: dict, after: dict) -> dict[str, float]:
    """Named count deltas between two ``/metrics`` snapshots."""
    b, a = _leaves(before), _leaves(after)
    return {name: a.get(leaf, 0) - b.get(leaf, 0)
            for leaf, name in _DELTAS.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(deltas: dict, flagged: int, points: int, engines,
                 certificates, checked: int, requests: int
                 ) -> dict[str, float]:
    """Per-layer values that come from counts, not spans.

    ``flagged`` is the number of programs the trace store has flagged
    non-oblivious by the end of the timed phase (a state, not a delta).
    """
    d = deltas
    trace_lookups = d["count.trace.hits"] + d["count.trace.captures"] \
        + d["count.trace.refusals"]
    batch_launches = engines["batch"] + engines["batch-fallback"]
    out = {
        "service.batcher.mean_batch":
            ratio(d["batcher.requests"], d["count.batcher.batches"]),
        "service.batcher.coalesced_ratio":
            ratio(d["count.batcher.coalesced"], d["batcher.requests"]),
        "analysis.executor.cache_hit_ratio": ratio(
            d["count.sweep_cache.hits"],
            d["count.sweep_cache.hits"] + d["count.sweep_cache.misses"]),
        "store.sweep.memory_hit_ratio": ratio(
            d["store.sweep.hits_memory"],
            d["store.sweep.hits"] + d["store.sweep.misses"]),
        "store.sweep.bytes_written_per_point":
            ratio(d["count.store.sweep.bytes"], points),
        "store.trace.bytes_written_per_point":
            ratio(d["count.store.trace.bytes"], points),
        "machine.batch.fallback_ratio":
            ratio(engines["batch-fallback"], batch_launches),
        "machine.replay.hit_ratio":
            ratio(d["count.trace.hits"], trace_lookups),
        "machine.replay.refusal_ratio":
            ratio(d["count.trace.refusals"], trace_lookups),
        "machine.replay.flagged_programs": flagged,
        "native.calls_per_point": ratio(d["count.native.calls"], points),
        "count.requests": requests,
        "count.points": points,
        "count.checked_claims": checked,
        "count.tune.certified": sum(n for c, n in certificates.items()
                                    if c != "none"),
    }
    for name in metric_table("per_layer"):
        if name.startswith("count.engine."):
            out[name] = engines[name[len("count.engine."):]]
        elif name in d:
            out[name] = d[name]
    return out
