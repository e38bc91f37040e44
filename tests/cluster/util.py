"""Shared helpers for cluster tests: raw-byte HTTP, metric polling."""

import json
import socket
import time
from urllib.parse import urlsplit


def raw_request(url: str, method: str, target: str, payload=None,
                timeout: float = 60.0, headers: "dict | None" = None):
    """One HTTP request over a bare socket; returns (status, body_bytes).

    Byte-level on purpose: the golden-equivalence guarantee is about the
    exact bytes a client reads, so no JSON decode happens here.
    """
    split = urlsplit(url)
    body = b"" if payload is None else json.dumps(payload).encode()
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    with socket.create_connection((split.hostname, split.port),
                                  timeout=timeout) as sock:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {split.hostname}:{split.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        )
        sock.sendall(head.encode() + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    status_line, _, rest = data.partition(b"\r\n")
    _, _, body_bytes = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), body_bytes


def poll_until(predicate, timeout_s: float = 20.0, interval_s: float = 0.1):
    """Poll ``predicate`` until truthy; returns its value or ``None``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return None
