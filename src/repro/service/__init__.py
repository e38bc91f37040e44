"""repro.service — a batched, backpressured cost-oracle serving layer.

The memory machine models answer "what will this kernel cost on this
machine?" analytically and deterministically, which makes the simulator
an ideal *oracle service*: many clients, repeated queries over a hot set
of (kernel, machine) points, and answers that never change for a given
input.  This package puts a production-style front door on the compute
substrate the earlier layers built (the vectorized
:class:`~repro.machine.batch.BatchCostEngine` fast path and the cached,
sharded :class:`~repro.analysis.executor.SweepExecutor`):

* :mod:`repro.service.server` — an asyncio JSON-over-HTTP server
  (stdlib only) exposing ``POST /v1/cost``, ``POST /v1/sweep``,
  ``POST /v1/tune``, ``GET /v1/advise``, ``GET /healthz`` and
  ``GET /metrics`` (the snapshot of the server's
  :class:`~repro.metrics.Registry`);
* :mod:`repro.service.batcher` — the dynamic micro-batcher that
  coalesces concurrent cost queries into one oracle evaluation, with a
  bounded queue, admission control (429 + ``Retry-After``), per-request
  timeouts, and graceful drain;
* :mod:`repro.service.oracle` — the in-process evaluation core
  (shared result cache, single-flight semantics, advisor integration);
* :mod:`repro.service.client` — sync and asyncio clients with
  retry/backoff honoring ``Retry-After``;
* ``python -m repro.service`` — ``serve`` / ``query`` / ``bench``.

Protocol reference and a runnable walkthrough: ``docs/SERVICE.md``.
"""

from repro.service.batcher import MicroBatcher, Overloaded, RequestTimeout
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    Unavailable,
)
from repro.service.clock import Clock, ManualClock
from repro.service.oracle import CostOracle, evaluate_point
from repro.service.protocol import (
    DEFAULT_SEED,
    KERNELS,
    MAX_GRID_POINTS,
    MODELS,
    TUNE_STRATEGIES,
    TUNE_TASKS,
    ProtocolError,
    parse_advise_request,
    parse_cost_request,
    parse_store_pull,
    parse_store_push,
    parse_sweep_request,
    parse_tune_request,
)
from repro.service.server import (
    WARM_PEERS_HEADER,
    BackgroundServer,
    ServiceServer,
)

__all__ = [
    "AsyncServiceClient",
    "BackgroundServer",
    "Clock",
    "CostOracle",
    "DEFAULT_SEED",
    "KERNELS",
    "ManualClock",
    "MAX_GRID_POINTS",
    "MicroBatcher",
    "MODELS",
    "Overloaded",
    "ProtocolError",
    "RequestTimeout",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "TUNE_STRATEGIES",
    "TUNE_TASKS",
    "Unavailable",
    "WARM_PEERS_HEADER",
    "evaluate_point",
    "parse_advise_request",
    "parse_cost_request",
    "parse_store_pull",
    "parse_store_push",
    "parse_sweep_request",
    "parse_tune_request",
]
