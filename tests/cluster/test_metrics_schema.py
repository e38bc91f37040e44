"""Golden schema of the router's ``GET /metrics`` body.

The router's body nests every shard's ``/metrics`` under ``shards``
and its own ring counters under ``cluster``.  This test pins the set of
leaf paths after a fixed request sequence on a 2-shard ring;
``metrics_schema.txt`` beside it is the checked-in list.  Shard URLs
(dotted hosts, ephemeral ports) become ``<shard>``, so the list is the
union over both shards.  Health probes and event multiplexing are
slowed past the test's length, so their timer-driven requests and
events cannot add leaves.
"""

from pathlib import Path

import pytest

from repro.cluster.supervisor import BackgroundCluster
from repro.machine.replay import reset_default_store
from repro.metrics import PROCESS
from repro.service.client import ServiceClient

from tests.service.test_metrics_schema import leaves

GOLDEN = Path(__file__).with_name("metrics_schema.txt")


@pytest.fixture()
def router_body(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_BACKEND", "python")
    PROCESS.reset()
    reset_default_store()
    try:
        with BackgroundCluster(
            num_shards=2, cache_root=tmp_path / "ring",
            server_kwargs={"telemetry_resolution_s": 3600.0},
            telemetry_resolution_s=3600.0, health_interval_s=3600.0,
            multiplex=False,
        ) as cluster:
            # One direct probe per shard: whichever shard the ring picks
            # for the routed requests, every shard has served one.
            for url in cluster.shard_urls:
                with ServiceClient(url) as shard:
                    shard.healthz()
            with ServiceClient(cluster.url) as client:
                client.cost("sum", "hmm", {"n": 1024, "p": 64, "l": 16})
                client.sweep("sum", "hmm", {"n": 256, "p": 32, "l": [4, 8]},
                             mode="replay")
                client.tune("transpose", shape={"w": 4, "d": 2, "m": 8},
                            latencies=[3, 9])
                body = client.metrics()
            yield body, cluster.shard_urls
    finally:
        reset_default_store()
        PROCESS.reset()


def test_router_metrics_leaf_paths_match_golden(router_body):
    body, urls = router_body
    actual = set()
    for path in leaves(body):
        for url in urls:
            path = path.replace(url, "<shard>")
        actual.add(path)
    expected = set(GOLDEN.read_text().split())
    assert actual == expected, (
        f"router /metrics schema drifted from {GOLDEN.name}: "
        f"missing {sorted(expected - actual)}, "
        f"added {sorted(actual - expected)}"
    )
