"""The client-side exchange behind the asyncio client and the router's
relay: one deadline bounds the whole response read."""

import asyncio
import time

import pytest

from repro.service.client import AsyncServiceClient, Unavailable
from repro.service.http import exchange


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
