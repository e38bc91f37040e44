#!/usr/bin/env python
"""CI smoke for the live telemetry subsystem.

Boots an in-process 2-shard ring with multiplexed telemetry, then
checks the subsystem's externally visible guarantees end to end:

1. **Ordered stream** — after a short zipfian drive the router's
   ``/v1/events`` feed holds at least 20 events with strictly
   contiguous sequence numbers, resume-from-seq returns exactly the
   tail (no duplicates, no gaps), and the SSE transport yields
   byte-for-byte the same events as the long-poll transport.
2. **Dashboard** — the terminal dashboard renders the live cluster
   (shard table, hot keys, event feed) without placeholder values.
3. **Live membership** — while the load generator keeps driving the
   ring, a freshly spawned shard joins via ``POST /v1/ring/add`` and an
   original shard is decommissioned via ``POST /v1/ring/drain``; the
   run must finish with **zero** client-visible errors and the drain's
   hot-artifact handoff must report no failures.

Run from the repository root::

    PYTHONPATH=src python tools/telemetry_smoke.py

Exits non-zero on the first violated guarantee.  The pytest suite
(``tests/telemetry``) covers the same contracts in finer grain.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

MIN_EVENTS = 20


def poll_until(predicate, *, timeout_s: float = 15.0,
               interval_s: float = 0.1):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise TimeoutError(f"condition not met within {timeout_s}s")


def drain_events(client) -> list[dict]:
    """Every event currently buffered on the router, in seq order."""
    events: list[dict] = []
    cursor = 0
    while True:
        body = client.events(from_seq=cursor, timeout_s=0.0)
        if not body["events"]:
            return events
        events.extend(body["events"])
        cursor = body["next_from"]


def main() -> int:  # noqa: C901 - one linear smoke script
    t0 = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="repro-telemetry-smoke-")
    os.environ["REPRO_STORE_DIR"] = os.path.join(tmp, "store")

    from repro.cluster import BackgroundCluster
    from repro.service.client import ServiceClient
    from repro.service.loadgen import drive_url
    from repro.telemetry import sse_events
    from repro.viz import render_dashboard

    with BackgroundCluster(
        2, cache_root=os.path.join(tmp, "cache"),
        server_kwargs={"telemetry_resolution_s": 0.2},
        multiplex=True, telemetry_resolution_s=0.2,
        health_interval_s=0.5,
    ) as cluster:
        client = ServiceClient(cluster.url, retries=2)
        print(f"2-shard ring with telemetry behind {cluster.url}")

        # -- phase 1: ordered stream + resume + SSE/poll agreement -----
        client.sweep("sum", "hmm", {"p": 64, "n": [512, 1024], "l": [16]})
        result = drive_url(cluster.url, duration=2.0, clients=8, seed=7)
        assert result.errors == 0, result.errors
        events = poll_until(
            lambda: (lambda evs: evs if len(evs) >= MIN_EVENTS else None)(
                drain_events(client)))
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs))), seqs
        types = {e["type"] for e in events}
        assert {"server.start", "router.start", "sample"} <= types, types
        mid = seqs[len(seqs) // 2]
        resumed = client.events(from_seq=mid, timeout_s=0.0)["events"]
        assert resumed == [e for e in events if e["seq"] > mid], "resume"
        streamed = list(sse_events(cluster.url, from_seq=0, limit=5))
        assert streamed == events[:5], "SSE != poll"
        print(f"phase 1 ok: {len(events)} events, contiguous seqs "
              f"{seqs[0]}..{seqs[-1]}, resume@{mid} exact, "
              f"SSE==poll on the head")

        # -- phase 2: the dashboard renders the live ring --------------
        board = render_dashboard(client.metrics(), source=cluster.url,
                                 events=events[-6:])
        print("\n" + board + "\n")
        for needle in [*cluster.shard_urls, "shard", "events"]:
            assert needle in board, f"dashboard lacks {needle!r}"
        print("phase 2 ok: dashboard shows every shard + the event feed")

        # -- phase 3: add + drain under load, zero visible errors ------
        spawned = cluster.add_shard()
        victim = cluster.shard_urls[0]
        handoff: dict = {}

        def membership() -> None:
            added = client.ring_add(spawned)
            assert added["added"] is True, added
            poll_until(lambda: ServiceClient(cluster.url).metrics()
                       ["cluster"]["ring"]["alive"].get(spawned))
            time.sleep(0.5)  # let some traffic land on the new shard
            handoff.update(client.ring_drain(victim))

        under_load = drive_url(cluster.url, duration=6.0, clients=8,
                               seed=11, mid_run=membership, mid_run_at=0.25)
        assert under_load.errors == 0, under_load.errors
        assert handoff.get("drained") is True, handoff
        counters = handoff["handoff"]
        assert counters["failed"] == 0, counters
        assert counters["keys"] >= 1 and counters["pushed"] >= 1, counters

        body = client.metrics()["cluster"]
        ring, router = body["ring"], body["router"]
        assert spawned in ring["shards"] and victim not in ring["shards"]
        assert router["ring_adds"] >= 1 and router["ring_drains"] >= 1
        final_types = {e["type"] for e in drain_events(client)}
        assert {"ring.add", "ring.drain"} <= final_types, final_types
        print(f"phase 3 ok: {under_load.requests} requests through "
              f"add+drain with 0 errors; handoff keys={counters['keys']} "
              f"pushed={counters['pushed']} skipped={counters['skipped']} "
              f"failed=0")

    print(f"telemetry smoke ok ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
