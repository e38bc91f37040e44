"""Golden schema of the service's ``GET /metrics`` body.

Dashboards, ``tools/bench_report.py`` and the outside-in benchmark read
``/metrics`` leaves by dotted path, so a renamed or dropped counter
breaks them silently.  This test pins the full set of leaf paths after
one request to each evaluation route; ``metrics_schema.txt`` beside it
is the checked-in list.  A deliberate schema change edits that file in
the same commit.
"""

from pathlib import Path

import pytest

from repro.machine.replay import reset_default_store
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer
from repro.store import reset_store_metrics

GOLDEN = Path(__file__).with_name("metrics_schema.txt")

#: Leaves the benchmark harness (``perfbench/``) reads.
BENCHMARK_LEAVES = {
    *(f"native.{name}" for name in (
        "default_backend", "available", "native_calls", "python_fallbacks")),
    *(f"trace_store.{name}" for name in (
        "hits", "captures", "refusals", "flagged_programs")),
    "cache.hits", "cache.misses",
    "batches.count", "batches.requests", "batches.coalesced",
    *(f"store.{ns}.{name}" for ns in ("sweep", "trace") for name in (
        "puts", "bytes_written", "hits", "hits_memory", "misses")),
}


def leaf_paths(tree: dict, prefix: str = "") -> list[str]:
    """Dotted paths of every non-dict value (and of empty dicts)."""
    paths = []
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            paths.extend(leaf_paths(value, path + "."))
        else:
            paths.append(path)
    return paths


@pytest.fixture()
def metrics_body(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_BACKEND", "python")
    reset_store_metrics()
    reset_default_store()
    try:
        # A sampling period longer than the test keeps the event counts
        # (``telemetry.events.by_type``) free of timer-driven samples.
        with BackgroundServer(telemetry_resolution_s=3600.0) as srv, \
                ServiceClient(srv.url) as client:
            client.cost("sum", "hmm", {"n": 1024, "p": 64, "l": 16})
            client.sweep("sum", "hmm", {"n": 256, "p": 32, "l": [4, 8]},
                         mode="replay")
            client.tune("transpose", shape={"w": 4, "d": 2, "m": 8},
                        latencies=[3, 9])
            yield client.metrics()
    finally:
        reset_default_store()
        reset_store_metrics()


def test_metrics_leaf_paths_match_golden(metrics_body):
    expected = GOLDEN.read_text().split()
    actual = sorted(leaf_paths(metrics_body))
    missing = sorted(set(expected) - set(actual))
    added = sorted(set(actual) - set(expected))
    assert actual == expected, (
        f"/metrics schema drifted from {GOLDEN.name}: "
        f"missing {missing}, added {added}"
    )


def test_golden_keeps_every_benchmark_leaf():
    expected = set(GOLDEN.read_text().split())
    assert BENCHMARK_LEAVES <= expected, sorted(BENCHMARK_LEAVES - expected)
