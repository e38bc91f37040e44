"""End-to-end server tests over real sockets on an ephemeral port.

Covers the golden-equivalence guarantee (served answers are
bit-identical to direct in-process evaluation), structured 400 bodies,
admission control (429 + Retry-After at the queue bound), graceful
drain (in-flight requests complete), metrics, and a SIGTERM subprocess
smoke test.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.analysis.terms import Params
from repro.experiments.table1 import conv_task, sum_task
from repro.machine.replay import reset_default_store
from repro.metrics import Registry
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.protocol import DEFAULT_SEED
from repro.service.server import BackgroundServer, ServiceServer

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    # A private trace store: a replay answer's engine tag depends on
    # what the process captured before.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_STORE_TRACE_DIR",
                  str(tmp_path_factory.mktemp("traces")))
        reset_default_store()
        with BackgroundServer(cache=False) as srv:
            yield srv
        reset_default_store()


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as c:
        yield c


async def _raw_request(host, port, method, path, payload=None):
    """A bare HTTP exchange: (status, headers, body) with no retries."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = await reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, json.loads(raw) if raw else None
    finally:
        writer.close()


class TestGoldenEquivalence:
    def test_cost_sum_matches_direct_call(self, client):
        body = client.cost("sum", "hmm", {"n": 1024, "p": 64, "l": 128})
        q = Params(n=1024, k=1, p=64, w=16, l=128, d=8)
        cycles, extra = sum_task(q, model="hmm", seed=DEFAULT_SEED,
                                 mode="replay")
        assert body["cycles"] == cycles
        assert body["engine"] == extra["engine"]

    def test_cost_convolution_matches_direct_call(self, client):
        body = client.cost("convolution", "umm",
                           {"n": 512, "k": 8, "p": 128, "l": 8},
                           mode="event", seed=7)
        q = Params(n=512, k=8, p=128, w=16, l=8, d=8)
        cycles, extra = conv_task(q, model="umm", seed=7, mode="event")
        assert body["cycles"] == cycles
        assert body["engine"] == extra["engine"]

    def test_sweep_matches_per_point_direct_calls(self, client):
        body = client.sweep("sum", "dmm", {"n": [512, 1024], "p": 64,
                                           "l": [16, 32]})
        assert len(body["points"]) == 4
        for pt in body["points"]:
            p = pt["params"]
            q = Params(n=p["n"], k=1, p=p["p"], w=p["w"], l=p["l"], d=p["d"])
            cycles, _ = sum_task(q, model="dmm", seed=DEFAULT_SEED,
                                 mode="batch")
            assert pt["cycles"] == cycles

    def test_advise_reports_measured_cycles(self, client):
        body = client.advise("sum", "hmm", {"n": 1024, "p": 64})
        q = Params(n=1024, k=1, p=64, w=16, l=16, d=8)
        cycles, _ = sum_task(q, model="hmm", seed=DEFAULT_SEED, mode="batch")
        assert body["cycles"] == cycles
        assert body["regime"] in ("latency-bound", "bandwidth-bound",
                                  "compute-bound")
        assert "mem" in body["units"] or body["units"]
        assert isinstance(body["rendered"], str)


class TestErrorSurface:
    def test_validation_error_is_structured_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.cost("sum", "hmm", {"n": 1024, "p": 64, "w": 5})
        assert err.value.status == 400
        assert err.value.code == "invalid_param"
        assert err.value.field == "w"
        assert "power of two" in str(err.value)

    def test_unknown_route_404(self, server):
        status, _, body = asyncio.run(_raw_request(
            server.server.host, server.server.port, "GET", "/v2/cost"))
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_paths_count_as_one_route(self, server, client):
        # Clients choose paths; counting each as its own label would let
        # them grow /metrics (and the recorder's series) without bound.
        for i in range(3):
            status, _, _ = asyncio.run(_raw_request(
                server.server.host, server.server.port, "GET", f"/junk-{i}"))
            assert status == 404
        requests = client.metrics()["requests"]
        assert not [route for route in requests if route.startswith("/junk")]
        assert requests["other"]["404"] >= 3

    def test_wrong_method_405(self, server):
        status, _, body = asyncio.run(_raw_request(
            server.server.host, server.server.port, "GET", "/v1/cost"))
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_bad_json_400(self, server):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.server.host, server.server.port)
            writer.write(b"POST /v1/cost HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 9\r\nConnection: close\r\n\r\n"
                         b"not json!")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            return status

        assert asyncio.run(go()) == 400

    def test_healthz_ok(self, client):
        body = client.healthz()
        assert body["status"] == "ok"


class _GatedOracle:
    """Stub oracle: evaluation blocks until the test releases the gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0

    def cached_cost(self, spec):
        return None  # every request goes through the batcher

    def evaluate_batch(self, specs):
        self.calls += 1
        assert self.gate.wait(timeout=30), "test never released the gate"
        return [{"cycles": 1, "spec": dict(s)} for s in specs]

    def run_sweep(self, meta, specs):  # pragma: no cover - not used here
        raise AssertionError("sweep not expected")

    def advise(self, spec):  # pragma: no cover - not used here
        raise AssertionError("advise not expected")

    metrics = Registry()

    def close(self):
        pass


class _GatedSweepOracle(_GatedOracle):
    """Stub oracle whose sweeps block until the test releases the gate."""

    def run_sweep(self, meta, specs):
        self.calls += 1
        assert self.gate.wait(timeout=30), "test never released the gate"
        return {"points": len(specs)}


class TestOverloadAndDrain:
    def test_queue_bound_gives_429_with_retry_after(self):
        async def main():
            oracle = _GatedOracle()
            server = ServiceServer(oracle, max_batch_size=1, max_wait_s=0.0,
                                   max_queue=2)
            await server.start()
            try:
                c = AsyncServiceClient(server.url)
                blocked = [
                    asyncio.ensure_future(
                        c.cost("sum", "hmm", {"n": 1 << (9 + i), "p": 64}))
                    for i in range(2)
                ]
                # Give the two admitted requests time to fill the queue.
                while server.batcher.pending < 2:
                    await asyncio.sleep(0.01)
                status, headers, body = await _raw_request(
                    server.host, server.port, "POST", "/v1/cost",
                    {"kernel": "sum", "model": "hmm", "n": 4096, "p": 64},
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert body["error"]["code"] == "overloaded"
                metrics = await c.metrics()
                assert metrics["rejected"] == 1
                assert metrics["queue"]["bound"] == 2
                oracle.gate.set()
                results = await asyncio.gather(*blocked)
                assert all(r["cycles"] == 1 for r in results)
            finally:
                oracle.gate.set()
                await server.shutdown()

        asyncio.run(main())

    def test_drain_completes_in_flight_then_rejects(self):
        async def main():
            oracle = _GatedOracle()
            server = ServiceServer(oracle, max_batch_size=4, max_wait_s=0.0)
            await server.start()
            c = AsyncServiceClient(server.url, retries=0)
            in_flight = asyncio.ensure_future(
                c.cost("sum", "hmm", {"n": 1024, "p": 64}))
            while oracle.calls == 0:
                await asyncio.sleep(0.01)
            shutdown = asyncio.ensure_future(server.shutdown())
            await asyncio.sleep(0.05)
            assert not shutdown.done()  # still waiting on in-flight work
            oracle.gate.set()
            await shutdown
            result = await in_flight  # the admitted request completed
            assert result["cycles"] == 1
            # The listener is closed: new connections fail outright.
            with pytest.raises(Exception):
                await _raw_request(server.host, server.port, "GET", "/healthz")

        asyncio.run(main())


    def test_drain_completes_in_flight_sweep(self):
        # The drain waits for every route's in-flight requests, not only
        # for the batcher's: a sweep runs outside it.
        async def main():
            oracle = _GatedSweepOracle()
            server = ServiceServer(oracle, telemetry=False)
            await server.start()
            try:
                c = AsyncServiceClient(server.url, retries=0)
                in_flight = asyncio.ensure_future(
                    c.sweep("sum", "hmm", {"n": 1024, "p": 64, "l": [4, 8]}))
                while oracle.calls == 0:
                    await asyncio.sleep(0.01)
                shutdown = asyncio.ensure_future(server.shutdown())
                await asyncio.sleep(0.05)
                assert not shutdown.done()  # still waiting on the sweep
                oracle.gate.set()
                await shutdown
                assert await in_flight == {"points": 2}
            finally:
                oracle.gate.set()

        asyncio.run(main())


    def test_poll_during_drain_answers_at_once(self):
        # A keep-alive client's long-poll that arrives while the drain
        # waits on another request must not hold it open for its timeout.
        async def main():
            oracle = _GatedSweepOracle()
            server = ServiceServer(oracle, telemetry=False)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                c = AsyncServiceClient(server.url, retries=0)
                sweep = asyncio.ensure_future(
                    c.sweep("sum", "hmm", {"n": 1024, "p": 64, "l": [4]}))
                while oracle.calls == 0:
                    await asyncio.sleep(0.01)
                shutdown = asyncio.ensure_future(server.shutdown())
                await asyncio.sleep(0.05)
                writer.write(b"GET /v1/events?mode=poll&from=1000&timeout=30"
                             b" HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), 5)
                writer.close()
                oracle.gate.set()
                await asyncio.wait_for(shutdown, 5)
                assert await sweep == {"points": 1}
                return int(status_line.split()[1])
            finally:
                oracle.gate.set()

        assert asyncio.run(main()) == 200


class TestMetrics:
    def test_metrics_shape_and_counts(self, client):
        client.cost("sum", "dmm", {"n": 512, "p": 64})
        m = client.metrics()
        assert m["requests_total"] >= 1
        assert m["requests"]["/v1/cost"]["200"] >= 1
        assert m["batches"]["count"] >= 1
        assert m["batches"]["unique_points"] >= 1
        assert m["queue"]["depth"] == 0
        assert set(m["cache"]) == {"hits", "misses", "hit_rate"}
        assert m["latency"]["count"] >= 1
        assert m["latency"]["p95_ms"] >= m["latency"]["p50_ms"] >= 0


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--no-cache"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line
            url = line.split("listening on ", 1)[1].split()[0]
            with ServiceClient(url) as c:
                assert c.healthz()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestQueryCli:
    def test_query_cost_accepts_every_protocol_mode(
            self, tmp_path, monkeypatch, capsys):
        from repro.machine.replay import reset_default_store
        from repro.service.__main__ import main

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        reset_default_store()
        try:
            with BackgroundServer(cache=False, telemetry=False) as srv:
                for mode in ("batch", "event", "replay"):
                    assert main(["query", "cost", "--url", srv.url,
                                 "--mode", mode, "--n", "256",
                                 "--p", "32"]) == 0
                    body = json.loads(capsys.readouterr().out)
                    assert body["mode"] == mode
        finally:
            reset_default_store()

    def test_each_query_closes_its_client(self, monkeypatch, capsys):
        from repro.service.__main__ import main

        closes = []
        close = ServiceClient.close

        def spy(client):
            closes.append(client)
            close(client)

        monkeypatch.setattr(ServiceClient, "close", spy)
        with BackgroundServer(cache=False, telemetry=False) as srv:
            queries = [
                (["healthz"], 0),
                (["metrics"], 0),
                (["cost", "--n", "256", "--p", "32"], 0),
                # A 400 answer: the client still closes.
                (["cost", "--n", "256", "--p", "0"], 1),
            ]
            for args, status in queries:
                assert main(["query", *args[:1], "--url", srv.url,
                             *args[1:]]) == status
        capsys.readouterr()
        assert len(closes) == len(queries)
        assert len({id(c) for c in closes}) == len(queries)
