"""The asyncio JSON-over-HTTP front door of the cost oracle.

Stdlib only: a small, strict HTTP/1.1 handler on ``asyncio.start_server``
(keep-alive supported, bodies bounded) routing to

========================  ==================================================
``POST /v1/cost``         one cost query — answered on the event loop when
                          the result cache's memory tier holds it, else
                          coalesced and micro-batched through
                          :class:`~repro.service.batcher.MicroBatcher`
``POST /v1/sweep``        a parameter grid — routed whole through the
                          shared :class:`~repro.service.oracle.CostOracle`
                          executor (and its persistent cache)
``GET /v1/advise``        run one spec with full reporting and return
                          :func:`repro.analysis.advisor.diagnose` output
``POST /v1/store/push``   accept a framed store entry from a cluster
                          peer (cache warming); the PR 6 integrity
                          envelope is re-verified before anything is
                          stored
``GET /v1/store/pull``    serve a framed store entry to a peer
``GET /v1/store/keys``    list the store keys this process serves, per
                          namespace (the ring-drain handoff inventory)
``GET /v1/events``        the live telemetry feed — SSE stream by
                          default, ``?mode=poll`` long-poll fallback;
                          resumable via ``?from=<seq>`` (docs/TELEMETRY.md)
``GET /healthz``          liveness + drain state
``GET /metrics``          JSON counters (requests, batch sizes, cache hit
                          rate, queue depth, latency quantiles): the
                          snapshot of the server's
                          :class:`~repro.metrics.Registry`
========================  ==================================================

Failure surface: malformed input → ``400`` with a structured body
(:class:`~repro.service.protocol.ProtocolError`); queue full → ``429``
with ``Retry-After``; draining → ``503`` with ``Retry-After``; request
deadline exceeded → ``504``.  On SIGTERM the server stops accepting,
lets in-flight requests on every route complete, drains the batcher,
then exits — the ``serve`` CLI wires the signal handlers.

The listener itself is :class:`FrontDoor`, which the cluster router
(:mod:`repro.cluster.router`) shares: one keep-alive loop, route rule,
event feed, drain and thread runner (:class:`BackgroundLoop`) for both.
It lives in this module because the layer spans of ``perfbench``
patch ``read_request``, ``write_response`` and the ``parse_*`` names
here, so the loop must call them through this module's globals.
"""

from __future__ import annotations

import asyncio
import base64
import signal
import threading
from typing import Any, Awaitable, Callable, NamedTuple
from urllib.parse import parse_qsl, urlsplit

from repro.machine.replay import default_store
from repro.metrics import PROCESS, Registry
from repro.service.batcher import MicroBatcher, Overloaded, RequestTimeout
from repro.service.clock import Clock
from repro.service.http import (
    HttpError,
    error_body,
    read_request,
    write_response,
)
from repro.service.oracle import CostOracle
from repro.service.protocol import (
    ProtocolError,
    parse_advise_request,
    parse_cost_request,
    parse_events_query,
    parse_store_pull,
    parse_store_push,
    parse_sweep_request,
    parse_tune_request,
    spec_key,
)
from repro.telemetry.events import DEFAULT_CAPACITY, EventBus
from repro.telemetry.series import MetricsRecorder
from repro.telemetry.stream import stream_over_http

__all__ = [
    "FrontDoor", "Request", "ServiceServer", "BackgroundLoop",
    "BackgroundServer", "WARM_PEERS_HEADER",
]

#: Request header the cluster router sets on hot-key traffic: a
#: comma-separated list of replica base URLs this shard should warm
#: (push freshly touched store entries to) after answering.
WARM_PEERS_HEADER = "x-repro-warm-peers"

#: Bound on the remembered (peer, namespace, key) push dedupe set.
_MAX_PUSH_MEMORY = 65536


class Request(NamedTuple):
    """One parsed request, as a route handler receives it."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    payload: Any
    raw: bytes


#: A route handler: returns a body (served as ``200``) or a
#: ``(status, body, headers)`` tuple; raises ``HttpError`` or
#: ``ProtocolError`` (``400``) to refuse.
Handler = Callable[[Request], Awaitable[Any]]


class FrontDoor:
    """One HTTP listener: keep-alive loop, route table, event feed, drain.

    The shard server and the cluster router are both front doors.  A
    subclass passes its route table ``{(method, path): handler}``;
    ``GET /v1/events`` (long-poll here, SSE in the connection loop) is
    added for it.  An unknown path answers ``404``, a known path with
    another method ``405``; requests are counted under
    ``requests.<path>.<status>``, with every path outside the table
    counted as ``other``.  :meth:`shutdown` emits the ``<kind>.drain``
    sentinel, ends open streams, closes the listener, waits (up to 30 s)
    for in-flight requests, then runs the subclass's :meth:`_drain`.
    """

    #: Prefix of the lifecycle events (``server.drain``, ...).
    kind = "server"

    def __init__(
        self, routes: "dict[tuple[str, str], Handler]", *,
        host: str, port: int, clock: "Clock | None",
        metrics: "Registry | None", event_capacity: int,
    ) -> None:
        self.host = host
        self.port = port
        self.clock = clock or Clock()
        self.metrics = m = metrics if metrics is not None else Registry()
        started = self.clock.monotonic()
        m.set("uptime_s",
              lambda: round(self.clock.monotonic() - started, 3))
        #: (route, status) -> count, e.g. ("/v1/cost", 200) -> 41.
        self._requests = m.labeled("requests")
        m.set("requests_total", lambda: sum(self._requests.values()))
        self.events = EventBus(capacity=event_capacity, clock=self.clock)
        self.routes = {("GET", "/v1/events"): self._route_events, **routes}
        self._paths = {path for _, path in self.routes}
        self._server: asyncio.Server | None = None
        self._shutdown_started = False
        self._stopped = asyncio.Event()
        self._stream_stop = asyncio.Event()
        self._stream_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (CLI path; main thread only)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown())
            )

    @property
    def draining(self) -> bool:
        return self._shutdown_started

    async def shutdown(self) -> None:
        """Stop accepting, let in-flight requests finish, then drain."""
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        # Emit the drain sentinel BEFORE closing anything: it is the
        # last event streaming consumers receive, and setting the stop
        # flag right after guarantees open SSE handlers deliver it and
        # close cleanly instead of parking on a heartbeat.
        self.events.emit(f"{self.kind}.drain", port=self.port)
        self._stream_stop.set()
        if self._stream_tasks:
            await asyncio.wait(self._stream_tasks, timeout=5)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=30)
        except asyncio.TimeoutError:
            pass
        await self._drain()
        self._stopped.set()

    async def _drain(self) -> None:
        """Subclass hook: release what the front door's owner holds."""

    # -- HTTP --------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await read_request(reader)
                except HttpError as exc:
                    # Framing error: answer and drop the connection (we
                    # can no longer trust the stream position).
                    await write_response(
                        writer, exc.status, exc.body, exc.headers, False
                    )
                    break
                if parsed is None:
                    break
                method, target, http_version, headers, payload, raw = parsed
                split = urlsplit(target)
                path = split.path
                query = dict(parse_qsl(split.query))
                if method == "GET" and path == "/v1/events" \
                        and query.get("mode", "sse") == "sse":
                    # SSE is the one response with no Content-Length:
                    # stream directly and close, bypassing write_response,
                    # keep-alive and the in-flight count (a stream must
                    # not hold the drain open).
                    await self._stream_events(writer, query)
                    break
                request = Request(method, target, path, query, headers,
                                  payload, raw)
                started = self.clock.monotonic()
                self._inflight += 1
                self._idle.clear()
                try:
                    status, body, extra_headers = await self._dispatch(
                        request)
                except HttpError as exc:
                    status, body, extra_headers = \
                        exc.status, exc.body, exc.headers
                except Exception as exc:  # noqa: BLE001 - last resort
                    status = 500
                    body = error_body("internal",
                                      f"{type(exc).__name__}: {exc}")
                    extra_headers = {}
                finally:
                    self._inflight -= 1
                    if not self._inflight:
                        self._idle.set()
                self._observe(path if path in self._paths else "other",
                              status, self.clock.monotonic() - started)
                keep_alive = (
                    not self._shutdown_started
                    and http_version != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                await write_response(
                    writer, status, body, extra_headers, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels idle keep-alive handlers; not an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> tuple:
        """Route one request: ``(status, body, headers)``."""
        handler = self.routes.get((request.method, request.path))
        if handler is None:
            if request.path in self._paths:
                raise HttpError(405, error_body(
                    "method_not_allowed",
                    f"{request.method} not supported on {request.path}"))
            raise HttpError(404, error_body(
                "not_found", f"no route {request.path}"))
        try:
            result = await handler(request)
        except ProtocolError as exc:
            raise HttpError(400, exc.body()) from None
        return result if isinstance(result, tuple) else (200, result, {})

    def _observe(self, route: str, status: int, seconds: float) -> None:
        self._requests[(route, status)] += 1

    # -- the event feed ----------------------------------------------------
    async def _route_events(self, request: Request) -> dict:
        """The ``?mode=poll`` long-poll arm of the event feed; it does not
        wait while draining, so a poll cannot hold the drain open."""
        opts = parse_events_query(request.query)
        events = await self.events.wait_since(
            opts["from_seq"], 0.0 if self.draining else opts["timeout_s"],
            opts["limit"],
        )
        return self.events.poll_body(opts["from_seq"], events)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        """The SSE arm: stream until drain, client loss, or ``limit``."""
        try:
            opts = parse_events_query(query)
        except ProtocolError as exc:
            self._observe("/v1/events", 400, 0.0)
            await write_response(writer, 400, exc.body(), {}, False)
            return
        self._observe("/v1/events", 200, 0.0)
        heartbeat_s = min(opts["timeout_s"], 10.0) or 10.0
        task = asyncio.current_task()
        if task is not None:
            self._stream_tasks.add(task)
        try:
            await stream_over_http(
                writer, self.events,
                from_seq=opts["from_seq"],
                stop=self._stream_stop,
                heartbeat_s=heartbeat_s,
                max_events=opts["limit"],
            )
        except (ConnectionError, OSError):
            pass  # consumer went away; a normal way to end a stream
        finally:
            if task is not None:
                self._stream_tasks.discard(task)


class ServiceServer(FrontDoor):
    """One serving process: listener + micro-batcher + oracle.

    Parameters
    ----------
    oracle:
        The evaluation core; a default (cached, jobs=1) one is built
        when omitted.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_batch_size, max_wait_s, max_queue, timeout_s:
        Micro-batcher knobs — see
        :class:`~repro.service.batcher.MicroBatcher`.
    coalesce:
        When ``False``, identical concurrent specs are *not* deduplicated
        — every request costs one evaluation.  Only useful as the
        baseline in benchmarks; leave on in production.
    clock, metrics:
        Injection points for deterministic tests.  ``metrics`` is the
        server's :class:`~repro.metrics.Registry`; its snapshot is the
        ``/metrics`` body, and it mounts the oracle's ``cache``
        counters, the process's ``trace_store`` (the default trace
        store), ``store`` and ``native`` sections.
    telemetry, telemetry_resolution_s, telemetry_retention:
        The live telemetry subsystem (event bus + metrics recorder,
        see :mod:`repro.telemetry`).  ``telemetry=False`` disables the
        background sampler — ``/v1/events`` still answers, the feed is
        just lifecycle-only.
    telemetry_persist:
        Persist the recorded time series to the store's ``telemetry``
        namespace on shutdown (and restore on start).  Off by default
        so tests and ad-hoc servers leave no artifacts behind; the
        ``serve`` CLI turns it on.
    event_capacity:
        Event ring size (resume window of ``/v1/events``).
    """

    def __init__(
        self,
        oracle: CostOracle | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        max_queue: int = 256,
        timeout_s: float = 60.0,
        coalesce: bool = True,
        clock: Clock | None = None,
        metrics: Registry | None = None,
        telemetry: bool = True,
        telemetry_resolution_s: float = 1.0,
        telemetry_retention: int = 300,
        telemetry_persist: bool = False,
        event_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        super().__init__(
            {
                ("POST", "/v1/cost"): self._route_cost,
                ("POST", "/v1/sweep"): self._route_sweep,
                ("POST", "/v1/tune"): self._route_tune,
                ("GET", "/v1/advise"): self._route_advise,
                ("POST", "/v1/store/push"): self._route_store_push,
                ("GET", "/v1/store/pull"): self._route_store_pull,
                ("GET", "/v1/store/keys"): self._route_store_keys,
                ("GET", "/healthz"): self._route_healthz,
                ("GET", "/metrics"): self._route_metrics,
            },
            host=host, port=port, clock=clock, metrics=metrics,
            event_capacity=event_capacity,
        )
        self.coalesce = coalesce
        m = self.metrics
        self._latency = m.histogram("latency")
        # /v1/cost requests answered from the memory tier, ahead of the
        # batcher (the batcher counts the rest under ``batches.*``).
        m.declare("batches.bypassed")
        # Cluster cache warming (see docs/CLUSTER.md).  Sender side:
        # framed entries pushed to replica peers; receiver side: pushes
        # accepted/deduplicated/rejected by the envelope check.
        m.declare(*(f"warming.{name}" for name in (
            "pushes_sent", "push_failures", "push_rejected",
            "received_stored", "received_duplicates", "received_rejected")))
        m.set("warming.pending", lambda: len(self._warm_tasks))
        self.oracle = oracle if oracle is not None else CostOracle()
        # Mounted at the root: this server's oracle's ``cache``, and the
        # process's default ``trace_store``, ``store`` and ``native``.
        m.set("", lambda: {**self.oracle.metrics.snapshot(),
                           **default_store().metrics.snapshot(),
                           **PROCESS.snapshot()})
        self.batcher = MicroBatcher(
            self._evaluate_batch,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            max_queue=max_queue,
            timeout_s=timeout_s,
            clock=self.clock,
            metrics=self.metrics,
        )
        # Cluster warming: the stores this process can push/pull framed
        # entries for, with recent-put tracking on so a computing shard
        # knows what it just wrote (tune artifacts especially).  Oracle
        # doubles in tests may not implement the cluster hooks.
        spaces_of = getattr(self.oracle, "store_namespaces", dict)
        self._warm_spaces: dict = dict(spaces_of())
        try:
            trace_ns = default_store().store_namespace
            self._warm_spaces.setdefault(trace_ns.name, trace_ns)
        except Exception:  # noqa: BLE001 - trace store is optional here
            pass
        for space in self._warm_spaces.values():
            space.track_recent_puts()
        self._warm_tasks: set[asyncio.Task] = set()
        self._pushed: set[tuple[str, str, str]] = set()
        # Telemetry: the front door's event bus always exists (lifecycle
        # events are nearly free and /v1/events must answer); the
        # sampling recorder only when enabled.
        self.recorder: MetricsRecorder | None = None
        self._recorder_task: asyncio.Task | None = None
        if telemetry:
            store_space = None
            if telemetry_persist:
                from repro.store import ArtifactStore

                store_space = ArtifactStore().namespace("telemetry")
                # Serve it like the other stores: listed by
                # /v1/store/keys and handed off on a ring drain.
                store_space.track_recent_puts()
                self._warm_spaces.setdefault("telemetry", store_space)
            self.recorder = MetricsRecorder(
                self.metrics.snapshot,
                resolution_s=telemetry_resolution_s,
                retention=telemetry_retention,
                clock=self.clock,
                bus=self.events,
                store_space=store_space,
                name="service",
            )
        m.set("telemetry", lambda: {
            "events": self.events.snapshot(),
            **({"recorder": self.recorder.snapshot()}
               if self.recorder is not None else {}),
        })

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the batcher, bind the listener, start the recorder."""
        await self.batcher.start()
        await super().start()
        if self.recorder is not None:
            if self.recorder.store_space is not None:
                self.recorder.restore()
            self._recorder_task = asyncio.ensure_future(self.recorder.run())
        self.events.emit("server.start", host=self.host, port=self.port)

    async def _drain(self) -> None:
        """After in-flight requests: the batcher, warm pushes, telemetry,
        then the oracle."""
        await self.batcher.drain()
        if self._warm_tasks:
            await asyncio.gather(*self._warm_tasks, return_exceptions=True)
        if self._recorder_task is not None:
            self.recorder.stop()
            self._recorder_task.cancel()
            try:
                await self._recorder_task
            except asyncio.CancelledError:
                pass
        if self.recorder is not None:
            try:
                self.recorder.persist()
            except Exception:  # noqa: BLE001 - telemetry must not block exit
                pass
        self.oracle.close()

    # -- evaluation glue ---------------------------------------------------
    async def _evaluate_batch(self, specs: list) -> list:
        """Batcher hook: run one window in a worker thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.oracle.evaluate_batch, specs
        )

    # -- routing -----------------------------------------------------------
    async def _dispatch(self, request: Request) -> tuple:
        try:
            return await super()._dispatch(request)
        except Overloaded as exc:
            status = 503 if exc.draining else 429
            code = "draining" if exc.draining else "overloaded"
            raise HttpError(
                status, error_body(code, str(exc)),
                {"Retry-After": str(max(1, round(exc.retry_after)))},
            ) from None
        except RequestTimeout as exc:  # counted by the batcher
            raise HttpError(504, error_body("timeout", str(exc))) from None

    async def _route_cost(self, request: Request) -> dict:
        spec = parse_cost_request(request.payload)
        # A memory-tier hit is answered here, without waiting for a
        # batching window or a worker thread; misses (and every request
        # while draining, which submit() refuses) go to the batcher.
        body = None if self.batcher.draining \
            else self.oracle.cached_cost(spec)
        if body is None:
            key = spec_key(spec) if self.coalesce else None
            body = await self.batcher.submit(spec, key=key)
        else:
            self.metrics.inc("batches.bypassed")
        self._maybe_warm_push(request.headers, [spec])
        return body

    async def _route_sweep(self, request: Request) -> dict:
        meta, specs = parse_sweep_request(request.payload)
        if self.batcher.draining:
            raise Overloaded(self.batcher.retry_after(), draining=True)
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(
            None, self.oracle.run_sweep, meta, specs
        )
        self._maybe_warm_push(request.headers, specs)
        return body

    async def _route_tune(self, request: Request) -> dict:
        spec = parse_tune_request(request.payload)
        if self.batcher.draining:
            raise Overloaded(self.batcher.retry_after(), draining=True)
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, self.oracle.tune_spec, spec)
        # Tune artifact keys aren't derivable from the request alone;
        # the recent-put log drained by _maybe_warm_push covers them.
        self._maybe_warm_push(request.headers)
        return body

    async def _route_advise(self, request: Request) -> dict:
        spec = parse_advise_request(request.query)
        if self.batcher.draining:
            raise Overloaded(self.batcher.retry_after(), draining=True)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.oracle.advise, spec)

    async def _route_store_push(self, request: Request) -> dict:
        namespace, key, blob = parse_store_push(request.payload)
        space = self._warm_spaces.get(namespace)
        if space is None:
            raise ProtocolError(
                f"namespace {namespace!r} is not served here",
                field="namespace", code="unknown_namespace",
            )
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None, lambda: space.put_framed(key, blob)
        )
        if result == "rejected":
            self.metrics.inc("warming.received_rejected")
            raise HttpError(400, error_body(
                "integrity",
                f"pushed entry for {namespace}/{key} failed the envelope check",
            ))
        if result == "duplicate":
            self.metrics.inc("warming.received_duplicates")
        else:
            self.metrics.inc("warming.received_stored")
        return {"namespace": namespace, "key": key, "result": result}

    async def _route_store_pull(self, request: Request) -> dict:
        namespace, key = parse_store_pull(request.query)
        space = self._warm_spaces.get(namespace)
        if space is None:
            raise ProtocolError(
                f"namespace {namespace!r} is not served here",
                field="namespace", code="unknown_namespace",
            )
        loop = asyncio.get_running_loop()
        blob = await loop.run_in_executor(None, space.get_framed, key)
        if blob is None:
            raise HttpError(404, error_body(
                "not_found", f"no entry {namespace}/{key}"
            ))
        return {
            "namespace": namespace,
            "key": key,
            "entry": base64.b64encode(blob).decode("ascii"),
        }

    async def _route_store_keys(self, request: Request) -> dict:
        """Inventory of every store entry this process serves, per
        namespace — what a ring drain hands off before decommission."""
        spaces = dict(self._warm_spaces)
        loop = asyncio.get_running_loop()

        def collect() -> dict:
            return {name: sorted(space.keys())
                    for name, space in spaces.items()}

        return {"namespaces": await loop.run_in_executor(None, collect)}

    async def _route_healthz(self, request: Request) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "pending": self.batcher.pending,
        }

    async def _route_metrics(self, request: Request) -> dict:
        return self.metrics.snapshot()

    def _observe(self, route: str, status: int, seconds: float) -> None:
        super()._observe(route, status, seconds)
        if route == "/v1/cost" and status == 200:
            self._latency.observe(seconds)

    # -- cluster cache warming ---------------------------------------------
    def _spec_keys(self, specs: list) -> list[tuple[str, str]]:
        keys_of = getattr(self.oracle, "spec_store_keys", None)
        return keys_of(specs) if keys_of is not None else []

    def _maybe_warm_push(
        self, headers: dict[str, str], specs: list = (),
    ) -> None:
        """Push store entries behind this request to replica peers.

        Runs only when the router marked the request hot by naming
        peers in :data:`WARM_PEERS_HEADER`.  What gets pushed: the
        store keys of the request's ``specs`` (known even on a cache
        hit, which matters right after promotion; derived only when
        peers are named) plus everything the process wrote since the
        last drain (tune/trace artifacts whose keys only the executor
        knows).  Fire-and-forget: failures are counted, never surfaced
        to the client.
        """
        raw = headers.get(WARM_PEERS_HEADER, "")
        peers = [p.strip() for p in raw.split(",") if p.strip()]
        recent = [(name, key) for name, space in self._warm_spaces.items()
                  for key in space.drain_recent_puts()]
        if not peers:
            return
        # A computed spec's store key is in the recent-put log too: push
        # each entry once.
        entries = dict.fromkeys(self._spec_keys(specs) + recent)
        if not entries:
            return
        batch = [
            (peer, name, key)
            for peer in peers
            for name, key in entries
            if (peer, name, key) not in self._pushed
        ]
        if not batch:
            return
        if len(self._pushed) + len(batch) > _MAX_PUSH_MEMORY:
            self._pushed.clear()
        self._pushed.update(batch)
        task = asyncio.ensure_future(self._push_entries(batch))
        self._warm_tasks.add(task)
        task.add_done_callback(self._warm_tasks.discard)

    async def _push_entries(
        self, batch: list[tuple[str, str, str]]
    ) -> None:
        from repro.service.client import ServiceError, Unavailable

        loop = asyncio.get_running_loop()
        framed: dict[tuple[str, str], bytes] = {}
        sent = failed = 0
        for peer, name, key in batch:
            blob = framed.get((name, key))
            if blob is None:
                space = self._warm_spaces[name]
                blob = await loop.run_in_executor(None, space.get_framed, key)
                framed[(name, key)] = blob = blob or b""
            if not blob:
                continue
            body = {
                "namespace": name,
                "key": key,
                "entry": base64.b64encode(blob).decode("ascii"),
            }
            try:
                await self._warm_client(peer)._request(
                    "POST", "/v1/store/push", body
                )
                self.metrics.inc("warming.pushes_sent")
                sent += 1
            except Unavailable:
                self.metrics.inc("warming.push_failures")
                failed += 1
            except ServiceError:
                self.metrics.inc("warming.push_rejected")
                failed += 1
            except (ConnectionError, OSError, asyncio.TimeoutError):
                self.metrics.inc("warming.push_failures")
                failed += 1
        if sent or failed:
            self.events.emit(
                "warm.push",
                peers=len({peer for peer, _, _ in batch}),
                sent=sent, failed=failed,
            )

    def _warm_client(self, peer: str):
        from repro.service.client import AsyncServiceClient

        return AsyncServiceClient(peer, timeout=10.0, retries=1,
                                  backoff_s=0.05)


class BackgroundLoop:
    """A :class:`FrontDoor` on its own thread and event loop.

    ``build()`` runs on that loop and returns the front door to start.
    For tests, benchmarks and runnable docs: enter the context manager,
    talk to :attr:`url` with any client, exit to drain and stop.
    """

    def __init__(self, build: Callable[[], FrontDoor]) -> None:
        self._build = build
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self.door: FrontDoor | None = None
        self.url = ""

    def __enter__(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True,
            name=f"repro-{type(self).__name__}")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.door = self._build()
            await self.door.start()
            self.url = self.door.url
        except BaseException as exc:  # surface to the entering thread
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.door.shutdown()

    def stop(self) -> None:
        """Drain and stop the front door; joins the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        self._thread = None


class BackgroundServer(BackgroundLoop):
    """A :class:`ServiceServer` (with its own :class:`CostOracle`) on a
    :class:`BackgroundLoop`.

    >>> from repro.service import BackgroundServer, ServiceClient
    >>> with BackgroundServer(cache=False) as srv:          # doctest: +SKIP
    ...     ServiceClient(srv.url).healthz()["status"]
    'ok'
    """

    def __init__(self, *, jobs: "int | str" = 1, cache: bool = True,
                 cache_dir=None, **server_kwargs) -> None:
        super().__init__(lambda: ServiceServer(
            CostOracle(jobs=jobs, cache=cache, cache_dir=cache_dir),
            **server_kwargs))

    @property
    def server(self) -> "ServiceServer | None":
        return self.door
