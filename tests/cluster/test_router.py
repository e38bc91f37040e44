"""Router behaviour over a live thread-based ring: routing, failure
handling, drain, and metrics aggregation."""

import pytest

from repro.cluster.supervisor import BackgroundCluster, BackgroundRouter
from repro.service.client import ServiceClient, Unavailable

from tests.cluster.util import poll_until, raw_request

COST = {"kernel": "sum", "model": "hmm", "n": 4096, "p": 64}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("ring-caches")
    with BackgroundCluster(num_shards=3, cache_root=root) as ring:
        yield ring


class TestRouting:
    def test_cost_round_trip(self, cluster):
        body = ServiceClient(cluster.url).cost("sum", "hmm",
                                               {"n": 4096, "p": 64})
        assert body["cycles"] > 0
        assert body["params"]["n"] == 4096

    def test_same_spec_lands_on_same_shard(self, cluster):
        client = ServiceClient(cluster.url)
        before = client.metrics()["cluster"]["router"]["forwards"]
        for _ in range(4):
            client.cost("sum", "hmm", {"n": 8192, "p": 128})
        after = client.metrics()["cluster"]["router"]["forwards"]
        grew = [url for url in after
                if after[url] - before.get(url, 0) >= 4]
        assert len(grew) == 1  # all four hit one owner (cold key)

    def test_equivalent_specs_share_an_owner(self, cluster):
        """Defaulted fields are canonicalized before routing."""
        client = ServiceClient(cluster.url)
        before = client.metrics()["cluster"]["router"]["forwards"]
        # Same spec, one spelled with explicit defaults.
        client.cost("sum", "hmm", {"n": 16384, "p": 64})
        client.cost("sum", "hmm", {"n": 16384, "p": 64, "w": 16, "l": 16,
                                   "d": 8}, mode="batch")
        after = client.metrics()["cluster"]["router"]["forwards"]
        grew = [url for url in after if after[url] - before.get(url, 0) >= 2]
        assert len(grew) == 1

    def test_unknown_route_is_404(self, cluster):
        status, body = raw_request(cluster.url, "GET", "/v1/nonsense")
        assert status == 404
        assert b"not_found" in body

    def test_unknown_paths_count_as_one_route(self, cluster):
        for i in range(3):
            assert raw_request(cluster.url, "GET", f"/junk-{i}")[0] == 404
        router = ServiceClient(cluster.url).metrics()["cluster"]["router"]
        requests = router["requests"]
        assert not [route for route in requests if route.startswith("/junk")]
        assert requests["other"]["404"] >= 3

    def test_wrong_method_is_405(self, cluster):
        status, body = raw_request(cluster.url, "GET", "/v1/cost")
        assert status == 405
        assert b"method_not_allowed" in body

    def test_shard_400_is_relayed(self, cluster):
        bad = {"kernel": "sum", "model": "hmm", "n": 4096, "p": 64, "w": 5}
        status, body = raw_request(cluster.url, "POST", "/v1/cost", bad)
        assert status == 400
        assert b"power of two" in body

    def test_healthz_lists_shards(self, cluster):
        body = ServiceClient(cluster.url).healthz()
        assert body["status"] == "ok"
        assert sorted(body["shards"]) == sorted(cluster.shard_urls)
        assert set(body["shards"].values()) == {"up"}

    def test_metrics_aggregates_ring_and_shards(self, cluster):
        body = ServiceClient(cluster.url).metrics()
        ring = body["cluster"]["ring"]
        assert sorted(ring["shards"]) == sorted(cluster.shard_urls)
        assert abs(sum(ring["ownership"].values()) - 1.0) < 1e-3
        assert set(body["shards"]) == set(cluster.shard_urls)
        for shard_body in body["shards"].values():
            assert "requests_total" in shard_body  # full service snapshot
        assert "hot" in body["cluster"]
        assert "warming" in body["cluster"]


class TestFailureHandling:
    def test_dead_shard_reroutes_without_client_visible_error(self):
        # The long health interval keeps the probe loop out of the
        # race: only the failed forward itself may mark the shard down,
        # so the passive path (mark + reroute) is what gets asserted.
        with BackgroundCluster(num_shards=3,
                               health_interval_s=60.0) as ring:
            client = ServiceClient(ring.url)
            answers = {}
            for n in (1024, 2048, 4096, 8192, 16384, 32768):
                answers[n] = client.cost("sum", "hmm",
                                         {"n": n, "p": 64})["cycles"]
            # Kill a shard that demonstrably owns at least one of the
            # specs, so re-requesting them must hit the dead socket.
            forwards = client.metrics()["cluster"]["router"]["forwards"]
            victim = max(forwards, key=forwards.get)
            dead = ring.stop_shard(ring.shard_urls.index(victim))
            # Every spec — including those owned by the dead shard —
            # still answers, with identical cycles.
            for n, cycles in answers.items():
                assert client.cost("sum", "hmm",
                                   {"n": n, "p": 64})["cycles"] == cycles
            metrics = client.metrics()
            router = metrics["cluster"]["router"]
            assert metrics["cluster"]["ring"]["alive"][dead] is False
            assert router["shard_failures"] >= 1
            assert router["reroutes"] >= 1

    def test_all_shards_dead_gives_503_with_retry_after(self):
        # Ports from the ephemeral range with nothing listening.
        bogus = ["http://127.0.0.1:9", "http://127.0.0.1:13"]
        with BackgroundRouter(bogus, health_interval_s=30.0) as fr:
            status, body = raw_request(fr.url, "POST", "/v1/cost", COST)
            assert status == 503
            assert b"no_live_shard" in body
            client = ServiceClient(fr.url, retries=1, backoff_s=0.0,
                                   sleep=lambda s: None)
            with pytest.raises(Unavailable):
                client.cost("sum", "hmm", {"n": 1024, "p": 64})

    def test_draining_router_rejects_with_503(self):
        with BackgroundCluster(num_shards=1) as ring:
            client = ServiceClient(ring.url)
            assert client.healthz()["status"] == "ok"
        # After exit the router thread is gone; nothing to assert beyond
        # a clean teardown (no hang, no exception).

    def test_manual_clock_health_loop_recovers_restarted_shard(self):
        # Deterministic down→up round trip: the *failed forward* marks
        # the shard down (passive path, no clock involved), then only
        # the health loop — driven by explicit ManualClock advances,
        # never wall time — may bring the restarted shard back.
        import asyncio
        from urllib.parse import urlsplit

        from repro.service.clock import ManualClock
        from repro.service.server import BackgroundServer

        clock = ManualClock()
        shard = BackgroundServer(cache=False)
        shard.__enter__()
        url, port = shard.url, urlsplit(shard.url).port
        replacement = None
        try:
            with BackgroundRouter([url], health_interval_s=5.0,
                                  clock=clock, multiplex=False) as fr:
                client = ServiceClient(fr.url, retries=0)
                baseline = client.cost("sum", "hmm",
                                       {"n": 1024, "p": 64})["cycles"]
                shard.stop()
                status, body = raw_request(fr.url, "POST", "/v1/cost", COST)
                assert status == 503
                assert b"no_live_shard" in body
                assert client.healthz()["shards"][url] == "down"

                replacement = BackgroundServer(cache=False, port=port)
                replacement.__enter__()
                assert replacement.url == url
                # Still down: no wall time passes for the health loop.
                assert client.healthz()["shards"][url] == "down"

                def tick() -> bool:
                    # Fire the next health-probe timer inside the
                    # router's loop; the probe itself is a real network
                    # round trip, so poll for its verdict to land.
                    asyncio.run_coroutine_threadsafe(
                        clock.advance(5.0), fr._loop).result(30)
                    return client.healthz()["shards"][url] == "up"

                assert poll_until(tick, timeout_s=20.0)
                assert client.cost("sum", "hmm",
                                   {"n": 1024, "p": 64})["cycles"] == baseline
        finally:
            if replacement is not None:
                replacement.stop()
            shard.stop()

    def test_health_loop_marks_recovery(self):
        with BackgroundCluster(num_shards=2,
                               health_interval_s=0.1) as ring:
            client = ServiceClient(ring.url)
            dead = ring.stop_shard(1)
            # Trigger passive marking with one request, then wait for
            # the health loop to keep it dead (no flapping back).
            client.cost("sum", "hmm", {"n": 1024, "p": 64})
            seen = poll_until(
                lambda: client.healthz()["shards"][dead] == "down",
                timeout_s=10.0,
            )
            assert seen


class TestStoreRoutes:
    def test_store_pull_unknown_key_404_through_router(self, cluster):
        status, body = raw_request(
            cluster.url, "GET",
            "/v1/store/pull?namespace=sweep&key=" + "0" * 64,
        )
        assert status == 404
        assert b"not_found" in body

    def test_store_push_bad_base64_relays_400(self, cluster):
        payload = {"namespace": "sweep", "key": "abc123", "entry": "@@@"}
        status, body = raw_request(cluster.url, "POST", "/v1/store/push",
                                   payload)
        assert status == 400
        assert b"base64" in body
