"""The HTTP framing both front doors and the clients share.

Client side, the exchange behind the asyncio client and the router's
relay: one deadline bounds the whole response read, and malformed
response framing is a broken transport.  Server side, the request
reader behind the shard server and the router: a malformed
``Content-Length`` gets a 400, never a dropped connection."""

import asyncio
import json
import socket
import time

import pytest

from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import BackgroundRouter
from repro.service.client import AsyncServiceClient, Unavailable
from repro.service.http import MalformedResponse, exchange
from repro.service.server import BackgroundServer

#: Responses whose framing no client can read.
MALFORMED = {
    "no-status-code": b"garbage\r\n\r\n",
    "non-numeric-code": b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    "non-numeric-length": b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
    "negative-length": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
}


async def answering_peer(reply: bytes):
    """A listener that reads each request (head and body), sends
    ``reply`` and closes; returns ``(server, port, requests_seen)``."""
    seen = []

    async def handle(reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            for line in head.split(b"\r\n"):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    await reader.readexactly(int(value))
            seen.append(head)
            writer.write(reply)
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], seen


async def _stalling_peer(reply: bytes):
    """A listener that reads one request head, sends ``reply`` and then
    neither sends nor closes."""

    async def handle(reader, writer):
        try:
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            await asyncio.sleep(30)
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestResponseDeadline:
    @pytest.mark.parametrize("reply", [
        b"",
        b"HTTP/1.1 200 OK\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
    ], ids=["before-status", "in-headers", "in-body"])
    def test_exchange_times_out_wherever_the_peer_stalls(self, reply):
        async def main():
            server, port = await _stalling_peer(reply)
            started = time.monotonic()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(exchange(
                        "127.0.0.1", port, "GET", "/healthz",
                        timeout=0.3), 5)
            finally:
                server.close()
            return time.monotonic() - started

        assert asyncio.run(main()) < 2

    def test_client_gives_up_at_its_timeout(self):
        async def main():
            server, port = await _stalling_peer(b"HTTP/1.1 200 OK\r\n")
            client = AsyncServiceClient(f"http://127.0.0.1:{port}",
                                        timeout=0.5, retries=0)
            started = time.monotonic()
            try:
                with pytest.raises(Unavailable):
                    await asyncio.wait_for(client.healthz(), 5)
            finally:
                server.close()
            return time.monotonic() - started

        assert asyncio.run(main()) < 2


@pytest.mark.parametrize("reply", MALFORMED.values(), ids=MALFORMED.keys())
class TestMalformedResponse:
    def test_exchange_raises_a_connection_error(self, reply):
        async def main():
            server, port, _ = await answering_peer(reply)
            try:
                with pytest.raises(MalformedResponse):
                    await exchange("127.0.0.1", port, "GET", "/healthz",
                                   timeout=5)
            finally:
                server.close()

        assert issubclass(MalformedResponse, ConnectionError)
        asyncio.run(main())

    def test_client_retries_then_gives_up(self, reply):
        async def main():
            server, port, seen = await answering_peer(reply)
            client = AsyncServiceClient(f"http://127.0.0.1:{port}",
                                        timeout=5, retries=1, backoff_s=0.0)
            try:
                with pytest.raises(Unavailable):
                    await client.healthz()
            finally:
                server.close()
            return len(seen)

        assert asyncio.run(main()) == 2


def test_router_reroutes_past_a_shard_answering_garbage():
    good_body = b'{"ok": true}'
    good_reply = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                  % len(good_body)) + good_body

    async def main():
        bad, bad_port, bad_seen = await answering_peer(
            MALFORMED["no-status-code"])
        good, good_port, good_seen = await answering_peer(good_reply)
        bad_url = f"http://127.0.0.1:{bad_port}"
        router = ClusterRouter(
            [bad_url, f"http://127.0.0.1:{good_port}"],
            multiplex=False, health_interval_s=3600.0)
        # A tune request whose ring owner is the garbage shard.
        payload = next(
            body for body in ({"task": "transpose", "seed": s}
                              for s in range(256))
            if router.ring.owners(
                "/v1/tune:" + json.dumps(body, sort_keys=True))[0] == bad_url)
        await router.start()
        try:
            answer = await exchange(
                "127.0.0.1", router.port, "POST", "/v1/tune",
                json.dumps(payload).encode(), timeout=10)
        finally:
            await router.shutdown()
            bad.close()
            good.close()
        return answer, router.metrics, len(bad_seen), len(good_seen)

    (status, _, raw), metrics, bad_seen, good_seen = asyncio.run(main())
    assert (status, raw) == (200, good_body)
    assert (bad_seen, good_seen) == (1, 1)
    assert metrics["shard_failures"] == 1
    assert metrics["reroutes"] == 1


#: ``Content-Length`` values that are not ASCII digits, each of which
#: ``int()`` alone would accept or turn into a negative read size.
BAD_LENGTHS = {
    "negative": "-1",
    "signed": "+2",
    "underscore": "1_0",
    "non-ascii-digit": "\u00b2",
    "word": "abc",
}


def _post_with_length(url: str, length: str) -> bytes:
    """Everything a front door sends back to one ``POST /v1/cost`` whose
    ``Content-Length`` header is ``length``, up to the close."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            b"POST /v1/cost HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + length.encode("latin-1") + b"\r\n\r\n{}")
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def _assert_bad_content_length(reply: bytes) -> None:
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    assert json.loads(body)["error"]["code"] == "bad_content_length"


@pytest.mark.parametrize("length", BAD_LENGTHS.values(),
                         ids=BAD_LENGTHS.keys())
class TestRequestContentLength:
    def test_server_answers_400(self, length):
        with BackgroundServer(cache=False, telemetry=False) as srv:
            _assert_bad_content_length(_post_with_length(srv.url, length))

    def test_router_answers_400(self, length):
        # The request is rejected while it is read, before any routing:
        # no shard needs to be up.
        with BackgroundRouter(["http://127.0.0.1:9"],
                              health_interval_s=3600.0) as router:
            _assert_bad_content_length(_post_with_length(router.url, length))
