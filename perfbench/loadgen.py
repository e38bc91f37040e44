"""Closed-loop HTTP/1.1 load over keep-alive connections.

One asyncio thread drives every connection.  Connection ``i`` of ``c``
sends requests ``i, i + c, i + 2c, ...`` of the run's list, each only
after the previous reply arrived, and never retries: a transport error
ends that connection's share and every request it had left counts as
failed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from workloads import Request

TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one request got back."""

    index: int
    status: int
    body: "dict | None"
    #: Wall time at the generator, send to full response.
    seconds: float
    error: str = ""
    #: ``time.monotonic_ns()`` at send.
    start_ns: int = 0


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, host: str) -> None:
        self.reader, self.writer, self.host = reader, writer, host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def send(self, method: str, path: str, blob: bytes = b""
                   ) -> "tuple[int, dict | None]":
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(blob)}\r\n\r\n").encode()
        self.writer.write(head + blob)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else None)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _drive(conn: Connection, share: list[tuple[int, Request]],
                 out: list[Outcome]) -> None:
    for pos, (index, req) in enumerate(share):
        start_ns = time.monotonic_ns()
        start = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                conn.send(req.method, req.path, req.blob), TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            out.append(Outcome(index, 0, None,
                               time.perf_counter() - start, error, start_ns))
            out.extend(Outcome(i, 0, None, 0.0, "connection lost")
                       for i, _ in share[pos + 1:])
            return
        out.append(Outcome(index, status, body, time.perf_counter() - start,
                           start_ns=start_ns))


async def run_closed_loop(conns: list[Connection], requests: list[Request]
                          ) -> tuple[list[Outcome], float]:
    """Send ``requests`` over ``conns``; ``(outcomes by index, wall s)``."""
    outcomes: list[Outcome] = []
    shares = [[(i, r) for i, r in enumerate(requests)][c::len(conns)]
              for c in range(len(conns))]
    start = time.perf_counter()
    await asyncio.gather(*(_drive(conn, share, outcomes)
                           for conn, share in zip(conns, shares)))
    wall = time.perf_counter() - start
    outcomes.sort(key=lambda o: o.index)
    return outcomes, wall
