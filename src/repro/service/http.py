"""Minimal HTTP/1.1 framing shared by the service server, the cluster
router and the asyncio client.

One strict, bounded request reader (:func:`read_request`) and one
writer (:func:`write_response`) for the server side, which the shard
server and the cluster router share through
:class:`~repro.service.server.FrontDoor`; one client-side exchange
(:func:`exchange`) behind both the router's relay and
:class:`~repro.service.client.AsyncServiceClient`.  Stdlib only, JSON
bodies only.

:class:`HttpError` is the internal "abort this request with status X"
exception both servers raise; :func:`error_body` builds the structured
JSON error bodies the protocol layer documents.  A peer whose response
framing is malformed raises :class:`MalformedResponse`, a
:class:`ConnectionError`, so callers treat it like any broken
transport (the client retries, the router reroutes).
"""

from __future__ import annotations

import asyncio
import json

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "REASONS",
    "HttpError",
    "MalformedResponse",
    "error_body",
    "exchange",
    "read_request",
    "write_response",
]

MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 64

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable", 504: "Gateway Timeout",
}


class HttpError(Exception):
    """Internal: abort the request with this status/body."""

    def __init__(self, status: int, body: dict,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(body.get("error", {}).get("message", str(status)))
        self.status = status
        self.body = body
        self.headers = headers or {}


class MalformedResponse(ConnectionError):
    """A peer answered with a malformed status line or Content-Length."""


def error_body(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


async def read_request(reader: asyncio.StreamReader):
    """One request: ``(method, target, version, headers, payload, raw)``.

    ``payload`` is the JSON-decoded body (``None`` when empty) and
    ``raw`` the undecoded body bytes (what a router forwards verbatim).
    Returns ``None`` on a cleanly closed connection; raises
    :class:`HttpError` on malformed framing.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not request_line:
        return None
    try:
        method, target, http_version = request_line.decode("ascii").split()
    except ValueError:
        raise HttpError(
            400, error_body("bad_request_line", "malformed HTTP request line")
        ) from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(
            400, error_body("too_many_headers", "too many header lines")
        )
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise HttpError(
            400, error_body("bad_content_length",
                            f"invalid Content-Length {length_raw!r}")
        ) from None
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, error_body("body_too_large",
                            f"body exceeds {MAX_BODY_BYTES} bytes")
        )
    payload = None
    raw = b""
    if length:
        raw = await reader.readexactly(length)
        try:
            payload = json.loads(raw)
        except ValueError:
            raise HttpError(
                400, error_body("bad_json", "body is not valid JSON")
            ) from None
    return method, target, http_version, headers, payload, raw


async def write_response(
    writer: asyncio.StreamWriter, status: int, body: "dict | bytes",
    extra_headers: dict[str, str], keep_alive: bool,
) -> None:
    """Serialize and send one response.

    ``body`` is either a dict (canonical ``sort_keys`` JSON — the
    service's native path) or pre-serialized bytes (the router's relay
    path, which must forward a shard's body byte-identically).
    """
    blob = body if isinstance(body, (bytes, bytearray)) \
        else json.dumps(body, sort_keys=True).encode()
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(blob)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + bytes(blob))
    await writer.drain()


async def exchange(
    host: str, port: int, method: str, target: str, body: bytes = b"", *,
    headers: "dict[str, str] | None" = None, timeout: float,
    connect_timeout: "float | None" = None,
) -> "tuple[int, dict[str, str], bytes]":
    """One request on a fresh connection: ``(status, headers, raw)``.

    ``headers`` are extra request headers.  The response headers come
    back lower-cased and ``raw`` is the undecoded body (what the router
    relays verbatim).  The whole response read (status line,
    headers, body) shares one deadline of ``timeout`` seconds.  The
    connect is bounded only when ``connect_timeout`` is given: a
    ``wait_for`` that finishes as its task is cancelled returns instead
    of re-raising (Python 3.11), so long-lived callers that are stopped
    by cancellation connect without one.
    """
    connect = asyncio.open_connection(host, port)
    if connect_timeout is not None:
        connect = asyncio.wait_for(connect, connect_timeout)
    reader, writer = await connect
    try:
        head = [
            f"{method} {target} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in (headers or {}).items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()
        return await asyncio.wait_for(_read_response(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_response(
    reader: asyncio.StreamReader,
) -> "tuple[int, dict[str, str], bytes]":
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("peer closed before responding")
    fields = status_line.split(maxsplit=2)
    if len(fields) < 2 or not fields[1].isdigit():
        raise MalformedResponse(f"malformed status line {status_line[:80]!r}")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise MalformedResponse(f"invalid Content-Length {length!r}")
    raw = await reader.readexactly(int(length))
    return int(fields[1]), headers, raw
