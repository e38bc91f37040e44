"""repro.cluster — a sharded cost-oracle cluster over ``repro.service``.

The service layer made one process production-shaped (batching,
backpressure, caching); this package scales it out with plain stdlib
machinery, applying the HMM paper's memory-hierarchy discipline at the
service tier: partition the key space, replicate the hot set, tolerate
the tail.

* :mod:`repro.cluster.ring` — consistent hashing with virtual nodes:
  every spec key maps to an ordered list of owner shards, and a dead
  shard's ranges fall to its ring successors with no re-mapping of the
  rest of the key space.
* :mod:`repro.cluster.hotkeys` — a sliding-window frequency sketch that
  promotes the top-K hottest keys (the Zipf head) to R replicas.
* :mod:`repro.cluster.router` — the front process: routes each request
  to its owner shard, spreads hot-key traffic round-robin across
  replicas, marks warm-push peers, retries-with-reroute around dead
  shards, answers 503 + ``Retry-After`` only when *no* shard is live,
  aggregates cluster-wide ``/metrics``, multiplexes every shard's
  telemetry feed onto one ``/v1/events`` stream, and serves live ring
  membership (``/v1/ring/add`` joins a spawned shard,
  ``/v1/ring/drain`` decommissions one with a store handoff — see
  ``docs/TELEMETRY.md``).
* :mod:`repro.cluster.supervisor` — boots N worker shards (each a full
  ``repro.service`` server with its own store directory) as
  subprocesses (:class:`ClusterSupervisor`, kill-able for chaos runs)
  or as in-process threads (:class:`BackgroundCluster`, for tests and
  runnable docs).
* ``python -m repro.cluster`` — ``serve`` / ``status`` / ``bench``.

Shards stay byte-identical to a single-process service: the router
relays each shard's response body verbatim, and every shard computes
with the same deterministic oracle, so where a request lands never
changes what the caller sees.  Cache warming moves framed store entries
(the PR 6 integrity envelope) between shards; a receiving store
re-verifies the envelope, so a corrupted transfer is rejected, never
stored.  Walkthrough and knob reference: ``docs/CLUSTER.md``.
"""

from repro.cluster.hotkeys import HotKeyTracker
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, RouterMetrics
from repro.cluster.supervisor import (
    BackgroundCluster,
    BackgroundRouter,
    ClusterSupervisor,
)

__all__ = [
    "BackgroundCluster",
    "BackgroundRouter",
    "ClusterRouter",
    "ClusterSupervisor",
    "HashRing",
    "HotKeyTracker",
    "RouterMetrics",
]
