"""Golden schema of the service's ``GET /metrics`` body.

Dashboards, ``tools/bench_report.py`` and the outside-in benchmark read
``/metrics`` leaves by dotted path, so a renamed or dropped counter
breaks them silently.  These tests pin the full set of leaf paths after
one request to each evaluation route, and the integer values of those
leaves; ``metrics_schema.txt`` and ``metrics_counts.txt`` beside this
file are the checked-in lists.  A deliberate schema or counting change
edits them in the same commit.
"""

from pathlib import Path

import pytest

from repro.machine.replay import reset_default_store
from repro.metrics import PROCESS
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer

GOLDEN = Path(__file__).with_name("metrics_schema.txt")
COUNTS = Path(__file__).with_name("metrics_counts.txt")

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


def leaves(tree: dict, prefix: str = "") -> dict:
    """Every non-dict value (and every empty dict) by dotted path."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            out.update(leaves(value, path + "."))
        else:
            out[path] = value
    return out


def pinned(path: str, value) -> bool:
    """Integer leaves, except those that vary between runs or hosts:
    uptime and latency follow the clock, and byte counts follow the
    numpy build's compression output."""
    name = path.rsplit(".", 1)[-1]
    return (isinstance(value, int) and not isinstance(value, bool)
            and path != "uptime_s" and not path.startswith("latency.")
            and not name.startswith("bytes_") and name != "size_bytes")


@pytest.fixture()
def metrics_body(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_BACKEND", "python")
    PROCESS.reset()
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
        PROCESS.reset()


def test_metrics_leaf_paths_match_golden(metrics_body):
    expected = GOLDEN.read_text().split()
    actual = sorted(leaves(metrics_body))
    missing = sorted(set(expected) - set(actual))
    added = sorted(set(actual) - set(expected))
    assert actual == expected, (
        f"/metrics schema drifted from {GOLDEN.name}: "
        f"missing {missing}, added {added}"
    )


def test_metrics_counts_match_golden(metrics_body):
    expected = dict(line.split() for line in COUNTS.read_text().splitlines())
    actual = {path: str(value)
              for path, value in leaves(metrics_body).items()
              if pinned(path, value)}
    drifted = {path: (expected.get(path), actual.get(path))
               for path in sorted(set(expected) | set(actual))
               if expected.get(path) != actual.get(path)}
    assert not drifted, (
        f"/metrics counts drifted from {COUNTS.name} (expected, actual): "
        f"{drifted}"
    )


def test_golden_keeps_every_benchmark_leaf():
    expected = set(GOLDEN.read_text().split())
    assert BENCHMARK_LEAVES <= expected, sorted(BENCHMARK_LEAVES - expected)
