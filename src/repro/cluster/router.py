"""The cluster's front door: consistent-hash routing over live shards.

One asyncio process that owns no oracle at all — it parses just enough
of each request to derive a routing key, picks the owner shard from the
:class:`~repro.cluster.ring.HashRing`, and relays the shard's response
body **byte-for-byte** (the shard serialized it canonically; the router
never re-encodes), which is what makes cluster responses provably
identical to a single-process service.

Routing keys
------------
``POST /v1/cost`` and ``GET /v1/advise`` route on the canonical
:func:`~repro.service.protocol.spec_key` of the parsed spec, so two
requests that differ only in defaulted fields land on the same shard
and share its cache.  ``/v1/sweep`` and ``/v1/tune`` route on the
canonical JSON of the whole payload.  ``/v1/store/push``/``pull`` route
on the store key.  A request the router cannot parse is forwarded to
any live shard, whose authoritative 400 is relayed unchanged.

Hot keys and replication
------------------------
A sliding-window sketch (:class:`~repro.cluster.hotkeys.HotKeyTracker`)
tracks per-key traffic.  A promoted (hot) key is served by the first
``replicas`` shards of its ring succession list, round-robin; requests
forwarded for a hot key carry the
:data:`~repro.service.server.WARM_PEERS_HEADER` naming the sibling
replicas, so whichever shard computes the artifact pushes the framed
store entry to the others (see ``ServiceServer._maybe_warm_push``).

Failure handling
----------------
A health loop probes every shard's ``/healthz``; a forward that fails
at the transport level marks the shard dead *passively* and reroutes to
the next candidate in ring order (then to any live shard — every shard
can compute every answer, ownership is a cache-locality optimization,
not a correctness constraint).  Oracle requests are deterministic and
idempotent, so rerouting a request that died mid-flight is safe.  Only
when no shard at all is live does the router answer
``503 + Retry-After`` — and the client's retry/backoff (see
:mod:`repro.service.client`) rides out the gap.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from urllib.parse import urlsplit

from repro.cluster.hotkeys import HotKeyTracker
from repro.cluster.ring import HashRing
from repro.service.clock import Clock
from repro.service.http import HttpError, error_body, exchange
from repro.service.protocol import (
    ProtocolError,
    parse_advise_request,
    parse_cost_request,
    parse_ring_change,
    spec_key,
)
from repro.service.server import WARM_PEERS_HEADER, FrontDoor, Request
from repro.telemetry.events import DEFAULT_CAPACITY
from repro.telemetry.series import MetricsRecorder

__all__ = ["ClusterRouter"]

#: Transport failures that mean "this shard is unreachable/dead now".
_SHARD_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError,
                 asyncio.IncompleteReadError)

#: Response headers the router relays from the shard to the client.
_RELAYED_HEADERS = ("retry-after",)

#: The routes a shard answers and the router forwards.
_FORWARDED_ROUTES = (
    ("POST", "/v1/cost"), ("POST", "/v1/sweep"), ("POST", "/v1/tune"),
    ("GET", "/v1/advise"), ("POST", "/v1/store/push"),
    ("GET", "/v1/store/pull"),
)


class ClusterRouter(FrontDoor):
    """Route requests onto a fixed set of shard URLs.

    Parameters
    ----------
    shard_urls:
        The worker ring, e.g. ``["http://127.0.0.1:9001", ...]``.  The
        set is fixed for the router's lifetime; liveness within it is
        dynamic.
    replicas:
        Owner-list length for *hot* keys (cold keys always have exactly
        one serving owner).  Clamped to the ring size.
    vnodes:
        Virtual nodes per shard on the hash ring.
    hot_window_s, hot_top_k, hot_min_count:
        Hot-key sketch knobs — see
        :class:`~repro.cluster.hotkeys.HotKeyTracker`.
    health_interval_s, connect_timeout_s, request_timeout_s:
        Probe cadence and per-forward timeouts.
    multiplex, poll_timeout_s:
        When ``multiplex`` is on (default) the router long-polls every
        shard's ``/v1/events`` and re-emits each event on its own bus
        (tagged with ``shard``/``shard_seq``), so one stream shows the
        whole cluster.  ``poll_timeout_s`` is the per-round wait.
    telemetry_resolution_s, telemetry_retention, event_capacity:
        Router-side metrics recorder and event-ring knobs (see
        :mod:`repro.telemetry`).
    """

    #: Lifecycle events are ``router.start`` / ``router.drain``.
    kind = "router"

    def __init__(
        self,
        shard_urls: list[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 2,
        vnodes: int = 64,
        hot_window_s: float = 10.0,
        hot_top_k: int = 8,
        hot_min_count: int = 16,
        health_interval_s: float = 0.5,
        connect_timeout_s: float = 2.0,
        request_timeout_s: float = 120.0,
        clock: "Clock | None" = None,
        multiplex: bool = True,
        poll_timeout_s: float = 2.0,
        telemetry_resolution_s: float = 1.0,
        telemetry_retention: int = 300,
        event_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if not shard_urls:
            raise ValueError("a cluster needs at least one shard URL")
        #: Ring-level counters, rendered under ``/metrics`` → ``cluster``
        #: → ``router``; ``requests`` counts (path, status) as seen by
        #: *clients* of the router.
        super().__init__(
            {
                ("GET", "/healthz"): self._route_healthz,
                ("GET", "/metrics"): self._route_metrics,
                ("POST", "/v1/ring/add"): self._route_ring_add,
                ("POST", "/v1/ring/drain"): self._route_ring_drain,
                **dict.fromkeys(_FORWARDED_ROUTES, self._route_forward),
            },
            host=host, port=port, clock=clock, metrics=None,
            event_capacity=event_capacity,
        )
        self.ring = HashRing(shard_urls, vnodes=vnodes)
        self._replicas_target = max(1, replicas)
        self.replicas = max(1, min(replicas, len(self.ring.shards)))
        self.hotkeys = HotKeyTracker(
            window_s=hot_window_s, buckets=10, top_k=hot_top_k,
            min_count=hot_min_count, clock=self.clock,
        )
        m = self.metrics
        #: shard url -> requests forwarded there (attempts that got a
        #: response, successful or not).
        self._forwards = m.labeled("forwards")
        m.declare(
            "reroutes",            # forward attempts moved to another shard
            "shard_failures",      # transport errors talking to shards
            "no_live_shard_503",   # every candidate was down
            "hot_spread",          # hot-key requests sent to a non-primary
            "warm_headers_set",    # forwards that carried warm peers
            "health_transitions",
            "ring_adds", "ring_drains",  # live membership changes
            "handoff_pushed",      # entries relayed during drains
            "handoff_failures",
        )
        self.health_interval_s = health_interval_s
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._alive: dict[str, bool] = {url: True for url in self.ring.shards}
        self._rr: Counter = Counter()      # hot key -> round-robin cursor
        self._hot_cache: list[str] = []
        self._hot_cache_at = -1.0
        self._health_task: asyncio.Task | None = None
        # Telemetry: the router's own bus carries its lifecycle +
        # routing events, and (with multiplex on) every shard's feed,
        # re-emitted in arrival order under router-assigned seqs.
        self.multiplex = multiplex
        self.poll_timeout_s = poll_timeout_s
        self.recorder = MetricsRecorder(
            self.metrics.snapshot,
            resolution_s=telemetry_resolution_s,
            retention=telemetry_retention,
            clock=self.clock,
            bus=self.events,
            name="router",
        )
        self._recorder_task: asyncio.Task | None = None
        self._mux_tasks: dict[str, asyncio.Task] = {}
        self._hot_prev: frozenset = frozenset()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._recorder_task = asyncio.ensure_future(self.recorder.run())
        if self.multiplex:
            for url in self.ring.shards:
                self._start_multiplex(url)
        self.events.emit("router.start", port=self.port,
                         shards=len(self.ring.shards))

    async def _drain(self) -> None:
        """After in-flight relays: stop probing, sampling and muxing."""
        background = [self._health_task, self._recorder_task,
                      *self._mux_tasks.values()]
        self._mux_tasks = {}
        for task in background:
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- liveness ----------------------------------------------------------
    def alive_shards(self) -> list[str]:
        return [url for url in self.ring.shards if self._alive[url]]

    def _mark(self, url: str, alive: bool) -> None:
        if url not in self._alive:
            return  # drained from the ring while a probe was in flight
        if self._alive[url] != alive:
            self._alive[url] = alive
            self.metrics.inc("health_transitions")
            self.events.emit("shard.up" if alive else "shard.down", shard=url)

    async def _health_loop(self) -> None:
        from repro.service.client import AsyncServiceClient

        while True:
            await self.clock.sleep(self.health_interval_s)
            for url in list(self.ring.shards):
                if url not in self._alive:
                    continue  # drained while this round was running
                client = AsyncServiceClient(
                    url, timeout=self.connect_timeout_s, retries=0,
                )
                try:
                    body = await asyncio.wait_for(
                        client.healthz(), self.connect_timeout_s * 2
                    )
                    self._mark(url, body.get("status") in ("ok", "draining"))
                except Exception:  # noqa: BLE001 - any failure = down
                    self._mark(url, False)

    # -- routing -----------------------------------------------------------
    async def _dispatch(self, request: Request) -> tuple:
        if self.draining:
            raise HttpError(
                503, error_body("draining", "cluster is draining"),
                {"Retry-After": "1"},
            )
        return await super()._dispatch(request)

    def _routing_key(self, request: Request) -> "str | None":
        """Canonical routing key, or ``None`` for unroutable requests
        (those go to any live shard, which renders the authoritative
        error)."""
        path, payload, query = request.path, request.payload, request.query
        try:
            if path == "/v1/cost":
                return "spec:" + spec_key(parse_cost_request(payload))
            if path == "/v1/advise":
                return "spec:" + spec_key(parse_advise_request(query))
            if path in ("/v1/sweep", "/v1/tune"):
                material = json.dumps(payload, sort_keys=True)
                return f"{path}:{material}"
            if path == "/v1/store/push" and isinstance(payload, dict):
                return f"store:{payload.get('namespace')}:{payload.get('key')}"
            if path == "/v1/store/pull":
                return f"store:{query.get('namespace')}:{query.get('key')}"
        except ProtocolError:
            return None
        except (TypeError, ValueError):
            return None
        return None

    def _hot_set(self) -> list[str]:
        """The promoted keys, recomputed at most once per window bucket."""
        now = self.clock.monotonic()
        if now - self._hot_cache_at >= self.hotkeys._bucket_s:
            self._hot_cache = self.hotkeys.hot_keys()
            self._hot_cache_at = now
            current = frozenset(self._hot_cache)
            for key in sorted(current - self._hot_prev):
                self.events.emit("hotkey.promote", key=key)
            for key in sorted(self._hot_prev - current):
                self.events.emit("hotkey.demote", key=key)
            self._hot_prev = current
        return self._hot_cache

    def _candidates(self, key: "str | None") -> tuple[list[str], list[str]]:
        """(try-order, warm-peers) for one request.

        Try-order: the serving owner first (round-robin over replicas
        for hot keys), then the remaining ring succession, then every
        other live shard as a last resort.  Warm-peers: the hot-key
        replica set minus the serving owner (empty for cold keys).
        """
        alive = self.alive_shards()
        if key is None:
            return alive, []
        is_alive = self._alive.__getitem__
        hot = key in self._hot_set()
        if hot:
            owners = self.ring.owners(key, self.replicas, alive=is_alive)
        else:
            owners = self.ring.owners(key, 1, alive=is_alive)
        warm_peers: list[str] = []
        order = list(owners)
        if hot and len(owners) > 1:
            cursor = self._rr[key]
            self._rr[key] = cursor + 1
            primary = owners[cursor % len(owners)]
            if primary != owners[0]:
                self.metrics.inc("hot_spread")
            order = [primary] + [u for u in owners if u != primary]
            warm_peers = [u for u in owners if u != primary]
        order += [u for u in alive if u not in order]
        return order, warm_peers

    async def _route_forward(
        self, request: Request,
    ) -> "tuple[int, bytes, dict[str, str]]":
        """Relay one request to its owner (or the next live candidate)
        and return the shard's status, raw body and relayed headers."""
        path = request.path
        key = self._routing_key(request)
        if key is not None and path not in ("/v1/store/push",
                                            "/v1/store/pull"):
            self.hotkeys.observe(key)
        order, warm_peers = self._candidates(key)
        for index, url in enumerate(order):
            if index > 0:
                self.metrics.inc("reroutes")
                self.events.emit("reroute", path=path, shard=url)
            extra_request_headers = {}
            peers = [p for p in warm_peers if p != url]
            if peers:
                extra_request_headers[WARM_PEERS_HEADER] = ",".join(peers)
            split = urlsplit(url)
            try:
                status, headers, body = await exchange(
                    split.hostname, split.port or 80, request.method,
                    request.target, request.raw,
                    headers=extra_request_headers,
                    timeout=self.request_timeout_s,
                    connect_timeout=self.connect_timeout_s,
                )
            except _SHARD_ERRORS:
                self.metrics.inc("shard_failures")
                self._mark(url, False)
                continue
            self._forwards[url] += 1
            if peers:
                self.metrics.inc("warm_headers_set")
            relay = {
                name.title(): value
                for name, value in headers.items()
                if name in _RELAYED_HEADERS
            }
            return status, body, relay
        self.metrics.inc("no_live_shard_503")
        raise HttpError(
            503,
            error_body("no_live_shard",
                       f"no live shard can serve {path} right now"),
            {"Retry-After": "1"},
        )

    # -- telemetry ---------------------------------------------------------
    def _start_multiplex(self, url: str) -> None:
        if url in self._mux_tasks:
            return
        self._mux_tasks[url] = asyncio.ensure_future(
            self._multiplex_shard(url)
        )

    async def _multiplex_shard(self, url: str) -> None:
        """Long-poll one shard's feed forever, re-emitting every event.

        Re-emitted events keep their original ``type`` and ``data`` and
        gain ``shard`` (the source URL) and ``shard_seq`` (the shard's
        own sequence id); the router's bus assigns the cluster-wide
        ``seq``.  A shard outage just pauses its arm of the mux — the
        cursor survives, and the shard's retained ring backfills the gap
        on reconnect (its ``dropped`` counter says if any was lost).
        """
        from repro.service.client import AsyncServiceClient

        client = AsyncServiceClient(
            url, timeout=self.request_timeout_s, retries=0,
        )
        cursor = 0
        while True:
            try:
                body = await client.events(
                    from_seq=cursor, timeout_s=self.poll_timeout_s,
                )
            except Exception:  # noqa: BLE001 - shard down/booting; retry
                await self.clock.sleep(max(self.health_interval_s, 0.2))
                continue
            for event in body.get("events", []):
                data = dict(event.get("data", {}))
                data["shard"] = url
                data["shard_seq"] = event.get("seq")
                self.events.emit(event.get("type", "shard.event"), **data)
            cursor = body.get("next_from", cursor)

    # -- live membership ---------------------------------------------------
    async def _route_ring_add(self, request: Request) -> dict:
        """``POST /v1/ring/add`` — join a running shard to the ring."""
        url = parse_ring_change(request.payload)
        if url in self.ring.shards:
            return {"added": False, "reason": "already_member",
                    "shards": list(self.ring.shards)}
        from repro.service.client import AsyncServiceClient

        client = AsyncServiceClient(
            url, timeout=self.connect_timeout_s, retries=0,
        )
        try:
            body = await asyncio.wait_for(
                client.healthz(), self.connect_timeout_s * 2
            )
            healthy = body.get("status") == "ok"
        except Exception:  # noqa: BLE001 - unreachable = not joinable
            healthy = False
        if not healthy:
            raise HttpError(400, error_body(
                "shard_unreachable",
                f"{url} did not answer /healthz with status ok",
            ))
        self.ring.add(url)
        self._alive[url] = True
        self.replicas = max(
            1, min(self._replicas_target, len(self.ring.shards))
        )
        if self.multiplex:
            self._start_multiplex(url)
        self.metrics.inc("ring_adds")
        self.events.emit("ring.add", shard=url,
                         shards=len(self.ring.shards))
        return {
            "added": True,
            "shard": url,
            "shards": list(self.ring.shards),
            "ownership": {u: round(frac, 4)
                          for u, frac in self.ring.ownership().items()},
        }

    async def _route_ring_drain(self, request: Request) -> dict:
        """``POST /v1/ring/drain`` — planned decommission of one shard.

        The shard leaves the ring *first* (no new traffic routes to it),
        then its store entries are handed off to their new owners over
        the pull→push relay while the shard is still up, then its mux
        arm and liveness entry go away.  The caller shuts the process
        down afterwards; in-flight requests it is still serving finish
        normally.
        """
        url = parse_ring_change(request.payload)
        if url not in self.ring.shards:
            raise HttpError(404, error_body(
                "unknown_shard", f"{url} is not a ring member"))
        if len(self.ring.shards) == 1:
            raise HttpError(400, error_body(
                "last_shard", "cannot drain the only shard in the ring"))
        self.ring.remove(url)
        self.replicas = max(
            1, min(self._replicas_target, len(self.ring.shards))
        )
        handoff = await self._handoff(url)
        task = self._mux_tasks.pop(url, None)
        if task is not None:
            task.cancel()
        self._alive.pop(url, None)
        self.metrics.inc("ring_drains")
        self.events.emit("ring.drain", shard=url,
                         shards=len(self.ring.shards), **handoff)
        return {
            "drained": True,
            "shard": url,
            "handoff": handoff,
            "shards": list(self.ring.shards),
        }

    async def _handoff(self, url: str) -> dict:
        """Relay a leaving shard's store entries to their new owners.

        Pull→push over the existing warming endpoints, entry by entry;
        the receiver re-verifies the integrity envelope, so a corrupt
        relay is rejected, never stored.  ``skipped`` counts entries a
        server refused (oversized, rejected envelope, vanished between
        inventory and pull); ``failed`` counts transport losses.
        """
        from repro.service.client import (
            AsyncServiceClient,
            ServiceError,
            Unavailable,
        )

        counters = {"keys": 0, "pushed": 0, "skipped": 0, "failed": 0}
        source = AsyncServiceClient(
            url, timeout=self.request_timeout_s, retries=0,
        )
        try:
            inventory = await source.store_keys()
        except Exception:  # noqa: BLE001 - source gone: nothing to move
            counters["failed"] += 1
            self.metrics.inc("handoff_failures")
            return counters

        def is_alive(u: str) -> bool:
            return self._alive.get(u, False)

        targets: dict[str, AsyncServiceClient] = {}
        for namespace, keys in sorted(
                inventory.get("namespaces", {}).items()):
            for key in keys:
                counters["keys"] += 1
                owners = self.ring.owners(
                    f"store:{namespace}:{key}", 1, alive=is_alive,
                )
                if not owners:
                    counters["failed"] += 1
                    self.metrics.inc("handoff_failures")
                    continue
                target = targets.setdefault(owners[0], AsyncServiceClient(
                    owners[0], timeout=self.request_timeout_s, retries=1,
                ))
                try:
                    entry = await source._request(
                        "GET",
                        f"/v1/store/pull?namespace={namespace}&key={key}",
                    )
                    await target._request("POST", "/v1/store/push", {
                        "namespace": namespace,
                        "key": key,
                        "entry": entry["entry"],
                    })
                    counters["pushed"] += 1
                    self.metrics.inc("handoff_pushed")
                except (ServiceError,) as exc:
                    if isinstance(exc, Unavailable):
                        counters["failed"] += 1
                        self.metrics.inc("handoff_failures")
                    else:
                        counters["skipped"] += 1
                except Exception:  # noqa: BLE001 - transport loss
                    counters["failed"] += 1
                    self.metrics.inc("handoff_failures")
        return counters

    # -- local endpoints ---------------------------------------------------
    async def _route_healthz(self, request: Request) -> dict:
        alive = self._alive
        return {
            "status": "draining" if self.draining else (
                "ok" if any(alive.values()) else "degraded"
            ),
            "shards": {url: ("up" if alive[url] else "down")
                       for url in self.ring.shards},
            "replicas": self.replicas,
        }

    async def _route_metrics(self, request: Request) -> dict:
        from repro.service.client import AsyncServiceClient

        async def shard_metrics(url: str):
            if not self._alive[url]:
                return url, {"error": "down"}
            try:
                client = AsyncServiceClient(
                    url, timeout=self.connect_timeout_s, retries=0,
                )
                return url, await asyncio.wait_for(
                    client.metrics(), self.connect_timeout_s * 4
                )
            except Exception as exc:  # noqa: BLE001 - report, don't fail
                return url, {"error": f"{type(exc).__name__}: {exc}"}

        gathered = await asyncio.gather(
            *(shard_metrics(url) for url in self.ring.shards)
        )
        shards = dict(gathered)
        warm_hits = 0
        warm_pushes = 0
        for body in shards.values():
            store = body.get("store") if isinstance(body, dict) else None
            if isinstance(store, dict):
                warm_hits += sum(
                    ns.get("hits_remote", 0) for ns in store.values()
                    if isinstance(ns, dict)
                )
            warming = body.get("warming") if isinstance(body, dict) else None
            if isinstance(warming, dict):
                warm_pushes += warming.get("pushes_sent", 0)
        return {
            "cluster": {
                "router": self.metrics.snapshot(),
                "ring": {
                    "shards": list(self.ring.shards),
                    "alive": dict(self._alive),
                    "ownership": {
                        url: round(frac, 4)
                        for url, frac in self.ring.ownership().items()
                    },
                    "replicas": self.replicas,
                    "vnodes": self.ring.vnodes,
                },
                "hot": self.hotkeys.snapshot(),
                "warming": {
                    "pushes_sent_total": warm_pushes,
                    "hits_remote_total": warm_hits,
                },
                "events": self.events.snapshot(),
                "telemetry": self.recorder.snapshot(),
            },
            "shards": shards,
        }
