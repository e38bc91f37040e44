"""``/v1/cost`` memory-tier hits are answered on the event loop.

A spec whose result the sweep cache's memory tier holds is answered
before the micro-batcher: no batching window, no worker thread.  These
tests pin what that path must keep from the batched one: the body
bytes, the cache and store counts (``hits_remote`` included), the 503
while draining, and the batcher as the only reader of the disk tier and
the only place a malformed record is dropped and recomputed.
"""

import asyncio
import base64
import json

import pytest

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.clock import ManualClock
from repro.service.oracle import CostOracle
from repro.service.protocol import parse_cost_request
from repro.service.server import (
    WARM_PEERS_HEADER,
    BackgroundServer,
    ServiceServer,
)

from tests.cluster.util import raw_request
from tests.service.test_server import _raw_request

SPEC = {"kernel": "sum", "model": "hmm", "n": 1024, "p": 64, "l": 16}
PARAMS = {"n": 1024, "p": 64, "l": 16}


def sweep_ns(srv: BackgroundServer):
    """The server's sweep-cache namespace (its own counters)."""
    return srv.server.oracle.executor.cache.store_namespace


def store_key(srv: BackgroundServer, payload: dict) -> str:
    oracle = srv.server.oracle
    return oracle.spec_store_keys([parse_cost_request(payload)])[0][1]


def counts(srv: BackgroundServer) -> dict:
    with ServiceClient(srv.url) as client:
        body = client.metrics()
    sweep = sweep_ns(srv).metrics
    return {
        "batches": body["batches"]["count"],
        "bypassed": body["batches"]["bypassed"],
        "hits": body["cache"]["hits"],
        "misses": body["cache"]["misses"],
        **{name: sweep[f"store.sweep.{name}"] for name in (
            "hits_memory", "hits_disk", "hits_remote")},
    }


class TestHitPath:
    def test_hit_is_byte_identical_and_skips_the_batcher(self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            batched = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            before = counts(srv)
            hit = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            after = counts(srv)
        assert batched[0] == 200
        assert hit == batched
        assert before["batches"] == after["batches"] == 1
        assert after["bypassed"] == before["bypassed"] + 1 == 1
        # Counted as the batched lookup counts a memory hit, no more.
        assert after["hits"] == before["hits"] + 1
        assert after["hits_memory"] == before["hits_memory"] + 1
        assert after["misses"] == before["misses"]

    def test_hit_completes_without_the_clock_advancing(self, tmp_path):
        async def main():
            clock = ManualClock()
            server = ServiceServer(CostOracle(cache_dir=tmp_path / "cache"),
                                   clock=clock, telemetry=False)
            await server.start()
            try:
                client = AsyncServiceClient(server.url, retries=0)
                miss = asyncio.ensure_future(
                    client.cost("sum", "hmm", PARAMS))
                while server.batcher.pending == 0:
                    await asyncio.sleep(0.005)
                # The miss waits out the batching window.
                await clock.advance(server.batcher.max_wait_s)
                first = await asyncio.wait_for(miss, timeout=60)
                now = clock.monotonic()
                hit = await asyncio.wait_for(
                    client.cost("sum", "hmm", PARAMS), timeout=10)
                assert clock.monotonic() == now
                assert hit == first
                metrics = await client.metrics()
                assert metrics["batches"]["count"] == 1
                assert metrics["batches"]["bypassed"] == 1
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_hit_while_draining_gets_503(self, tmp_path):
        async def main():
            server = ServiceServer(CostOracle(cache_dir=tmp_path / "cache"),
                                   max_wait_s=0.0, telemetry=False)
            await server.start()
            try:
                client = AsyncServiceClient(server.url, retries=0)
                await client.cost("sum", "hmm", PARAMS)
                await client.cost("sum", "hmm", PARAMS)  # a hit
                await server.batcher.drain()
                status, headers, body = await _raw_request(
                    server.host, server.port, "POST", "/v1/cost", SPEC)
                assert status == 503
                assert body["error"]["code"] == "draining"
                assert int(headers["retry-after"]) >= 1
                metrics = await client.metrics()
                assert metrics["drained_rejects"] == 1
                assert metrics["batches"]["bypassed"] == 1
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_disk_only_entry_goes_through_the_batcher_once(self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            computed = raw_request(srv.url, "POST", "/v1/cost", SPEC)
        # A fresh server on the same store: the entry is on disk only.
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            promoted = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            first = counts(srv)
            hit = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            second = counts(srv)
        assert computed == promoted == hit
        assert first["batches"] == 1 and first["bypassed"] == 0
        assert first["hits_disk"] == 1 and first["hits"] == 1
        assert first["misses"] == 0 and first["hits_memory"] == 0
        assert second["batches"] == 1 and second["bypassed"] == 1
        assert second["hits_memory"] == 1 and second["hits_disk"] == 1

    def test_malformed_memory_record_is_recomputed_by_the_batcher(
            self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            good = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            key = store_key(srv, SPEC)
            ns = sweep_ns(srv)
            ns.put(key, {"key": key, "cycles": "garbled"})
            before = counts(srv)
            recomputed = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            after = counts(srv)
            # The batcher's put replaced the record: the next one hits.
            assert ns.get_memory(key)["cycles"] == json.loads(good[1])[
                "cycles"]
            hit = raw_request(srv.url, "POST", "/v1/cost", SPEC)
            last = counts(srv)
        assert recomputed == good == hit
        assert after["batches"] == before["batches"] + 1
        assert after["bypassed"] == before["bypassed"] == 0
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert last["bypassed"] == 1

    def test_warm_pushed_key_counts_hits_remote(self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path / "a") as a, \
                BackgroundServer(cache_dir=tmp_path / "b") as b:
            computed = raw_request(a.url, "POST", "/v1/cost", SPEC)
            key = store_key(a, SPEC)
            blob = sweep_ns(a).get_framed(key)
            with ServiceClient(b.url) as client:
                reply = client._request("POST", "/v1/store/push", {
                    "namespace": "sweep", "key": key,
                    "entry": base64.b64encode(blob).decode("ascii"),
                })
            assert reply["result"] == "stored"
            served = raw_request(b.url, "POST", "/v1/cost", SPEC)
            pushed = counts(b)
        assert served == computed
        assert pushed["batches"] == 0 and pushed["bypassed"] == 1
        assert pushed["hits_memory"] == 1 and pushed["hits_remote"] == 1
        assert pushed["hits"] == 1 and pushed["misses"] == 0


class TestWarmPushKeys:
    """Store keys for warm pushes are derived only for hot requests."""

    @pytest.fixture()
    def derived(self, monkeypatch):
        calls = []
        real = CostOracle.spec_store_keys

        def spy(self, specs):
            calls.append(len(specs))
            return real(self, specs)

        monkeypatch.setattr(CostOracle, "spec_store_keys", spy)
        return calls

    def test_no_keys_without_peers(self, tmp_path, derived):
        sweep = {"kernel": "sum", "model": "hmm",
                 "axes": {"n": [512], "p": [32], "l": [4, 8]}}
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            for _ in range(2):  # a miss, then a hit
                assert raw_request(srv.url, "POST", "/v1/cost", SPEC)[0] \
                    == 200
            assert raw_request(srv.url, "POST", "/v1/sweep", sweep)[0] == 200
        assert derived == []

    def test_keys_for_named_peers(self, tmp_path, derived):
        # Nothing listens on the peer: the push fails, counted, unseen.
        peer = {WARM_PEERS_HEADER: "http://127.0.0.1:9"}
        with BackgroundServer(cache_dir=tmp_path / "cache") as srv:
            for _ in range(2):
                assert raw_request(srv.url, "POST", "/v1/cost", SPEC,
                                   headers=peer)[0] == 200
        assert derived == [1, 1]
