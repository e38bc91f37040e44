"""Clients for the cost service: sync (``http.client``) and asyncio.

Both speak the same JSON protocol as the server and implement the same
retry discipline: on ``429``/``503``, on connection failure
(refused/reset/timeout), and on a garbage or truncated response body
they back off and retry up to ``retries`` times, honouring the server's
``Retry-After`` header when present and falling back to capped
exponential backoff otherwise.  Anything else non-2xx raises
:class:`ServiceError` immediately with the server's structured error
body attached.  The cluster router leans on this path: killing a shard
mid-request surfaces as exactly these errors, and the retry (plus the
router's reroute) is what keeps shard death invisible to callers.

The sleep functions are injectable so retry behaviour is tested with a
fake transport and zero real waiting (see ``tests/service``).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from typing import Any, Callable, Mapping
from urllib.parse import urlencode, urlsplit

from repro.service.http import exchange

__all__ = ["ServiceClient", "AsyncServiceClient", "ServiceError", "Unavailable"]


class ServiceError(Exception):
    """Non-retryable error response from the service."""

    def __init__(self, status: int, body: Any) -> None:
        detail = body.get("error", {}) if isinstance(body, dict) else {}
        message = detail.get("message") or str(body)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body
        self.code = detail.get("code")
        self.field = detail.get("field")


class Unavailable(ServiceError):
    """Retries exhausted against 429/503 or connection failures."""


def _retry_delay(response_headers: Mapping[str, str] | None,
                 attempt: int, backoff_s: float) -> float:
    """Server's Retry-After if sane, else capped exponential backoff."""
    if response_headers:
        retry_after = response_headers.get("retry-after")
        if retry_after is not None:
            try:
                return max(0.0, float(retry_after))
            except ValueError:
                pass
    return min(backoff_s * (2 ** attempt), 10.0)


class _Endpoints:
    """The protocol's endpoint methods, shared by both clients.

    Each builds its request and returns ``self._request(...)``: the
    decoded body from :class:`ServiceClient`, a coroutine to await from
    :class:`AsyncServiceClient`.
    """

    def cost(self, kernel: str, model: str, params: Mapping[str, int],
             **options: Any):
        """``POST /v1/cost`` — one spec, micro-batched server side."""
        return self._request("POST", "/v1/cost",
                             {"kernel": kernel, "model": model,
                              **dict(params), **options})

    def sweep(self, kernel: str, model: str, grid: Mapping[str, Any],
              **options: Any):
        """``POST /v1/sweep`` — scalars plus list-valued axes in ``grid``."""
        payload: dict[str, Any] = {"kernel": kernel, "model": model}
        axes: dict[str, list] = {}
        for name, value in dict(grid).items():
            if isinstance(value, (list, tuple)):
                axes[name] = list(value)
            else:
                payload[name] = value
        payload.update(options)
        payload["axes"] = axes
        return self._request("POST", "/v1/sweep", payload)

    def advise(self, kernel: str, model: str, params: Mapping[str, int],
               **options: Any):
        """``GET /v1/advise`` — launch diagnosis for one spec."""
        spec = {"kernel": kernel, "model": model, **dict(params), **options}
        return self._request("GET", "/v1/advise?" + urlencode(spec))

    def tune(self, task: str, **options: Any):
        """``POST /v1/tune`` — autotune a demo task server-side.

        ``options`` are the body fields of the tune protocol: strategy,
        budget, mode, seed, latencies, shape.
        """
        return self._request("POST", "/v1/tune", {"task": task, **options})

    def healthz(self):
        return self._request("GET", "/healthz")

    def metrics(self):
        return self._request("GET", "/metrics")

    def events(self, *, from_seq: int = 0, timeout_s: float = 0.0,
               limit: "int | None" = None):
        """``GET /v1/events?mode=poll`` — one long-poll round.

        Returns ``{"events", "next_from", "last_seq", "dropped"}``;
        pass ``next_from`` back as ``from_seq`` to resume.  For the
        live SSE stream use :func:`repro.telemetry.sse_events`.
        """
        query = {"mode": "poll", "from": int(from_seq),
                 "timeout": f"{timeout_s:g}"}
        if limit is not None:
            query["limit"] = int(limit)
        return self._request("GET", "/v1/events?" + urlencode(query))

    def store_keys(self):
        """``GET /v1/store/keys`` — per-namespace key inventory."""
        return self._request("GET", "/v1/store/keys")

    def ring_add(self, url: str):
        """``POST /v1/ring/add`` (router only) — join a shard."""
        return self._request("POST", "/v1/ring/add", {"url": url})

    def ring_drain(self, url: str):
        """``POST /v1/ring/drain`` (router only) — decommission a shard."""
        return self._request("POST", "/v1/ring/drain", {"url": url})


class ServiceClient(_Endpoints):
    """Blocking client with reconnect + Retry-After-aware retries.

    >>> client = ServiceClient("http://127.0.0.1:8787")    # doctest: +SKIP
    >>> client.cost("sum", "hmm", {"n": 1024, "p": 64})    # doctest: +SKIP
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 120.0,
        retries: int = 4,
        backoff_s: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ---------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _once(self, method: str, path: str,
              payload: Any) -> tuple[int, dict[str, str], Any]:
        conn = self._connection()
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, OSError, http.client.HTTPException):
            self.close()
            raise
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        parsed = json.loads(raw) if raw else None
        return response.status, response_headers, parsed

    def _request(self, method: str, path: str, payload: Any = None) -> Any:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                status, headers, body = self._once(method, path, payload)
            except (ConnectionError, OSError, http.client.HTTPException,
                    ValueError) as exc:
                # ValueError: the peer died mid-response and we read a
                # truncated/garbage JSON body.  The connection can no
                # longer be trusted, so reconnect before retrying, same
                # as for refused/reset.
                self.close()
                last_error = exc
                if attempt < self.retries:
                    self._sleep(_retry_delay(None, attempt, self.backoff_s))
                continue
            if status in (429, 503):
                last_error = ServiceError(status, body)
                if attempt < self.retries:
                    self._sleep(_retry_delay(headers, attempt, self.backoff_s))
                continue
            if status >= 400:
                raise ServiceError(status, body)
            return body
        raise Unavailable(0, {"error": {
            "code": "unavailable",
            "message": f"gave up after {self.retries + 1} attempts: {last_error}",
        }})


class AsyncServiceClient(_Endpoints):
    """Asyncio client: one connection per request, same retry discipline.

    Used by the closed-loop load generator, where hundreds of logical
    clients multiplex on one event loop.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 120.0,
        retries: int = 4,
        backoff_s: float = 0.25,
        sleep: "Callable[[float], Any] | None" = None,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self._sleep = sleep or asyncio.sleep

    async def _once(self, method: str, path: str,
                    payload: Any) -> tuple[int, dict[str, str], Any]:
        body = b"" if payload is None else json.dumps(payload).encode()
        status, headers, raw = await exchange(
            self.host, self.port, method, path, body, timeout=self.timeout)
        return status, headers, json.loads(raw) if raw else None

    async def _request(self, method: str, path: str,
                       payload: Any = None) -> Any:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                status, headers, body = await self._once(method, path, payload)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                last_error = exc
                if attempt < self.retries:
                    await self._sleep(_retry_delay(None, attempt, self.backoff_s))
                continue
            if status in (429, 503):
                last_error = ServiceError(status, body)
                if attempt < self.retries:
                    await self._sleep(
                        _retry_delay(headers, attempt, self.backoff_s)
                    )
                continue
            if status >= 400:
                raise ServiceError(status, body)
            return body
        raise Unavailable(0, {"error": {
            "code": "unavailable",
            "message": f"gave up after {self.retries + 1} attempts: {last_error}",
        }})
