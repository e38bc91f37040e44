"""The dynamic micro-batcher: coalesce concurrent queries into batches.

Production latency-tolerance mechanics, applied to the cost oracle:
concurrent ``/v1/cost`` requests park in a queue; a single flusher task
closes a *batching window* — when :attr:`~MicroBatcher.max_batch_size`
distinct specs are waiting, or when the oldest has waited
:attr:`~MicroBatcher.max_wait_s` — and evaluates the whole window with
**one** oracle call.  Three mechanisms do the work:

* **Coalescing (single-flight).**  Requests for the *same* spec — hot
  points repeat heavily in oracle traffic — share one evaluation: a
  duplicate joins the queued entry, or the entry already in flight, and
  every holder gets the (deterministic) result.  A batch of ``B``
  requests with ``U`` unique specs costs ``U`` evaluations.
* **Admission control.**  At most ``max_queue`` requests may be pending
  (queued + in flight).  Beyond that, :meth:`submit` raises
  :class:`Overloaded` with a ``retry_after`` estimate derived from the
  observed batch service time — the server turns this into
  ``429 Retry-After``.  Rejecting early beats queueing forever.
* **Deadlines and drain.**  A request that sits longer than
  ``timeout_s`` fails with :class:`RequestTimeout` (504); its slot is
  reclaimed.  :meth:`drain` stops admissions, flushes everything still
  queued, and returns once the last in-flight batch has resolved — the
  SIGTERM path.

All waiting goes through an injected :class:`~repro.service.clock.Clock`
so tests drive the window, timeouts, and drain deterministically with a
:class:`~repro.service.clock.ManualClock` (see CONTRIBUTING.md).
Everything runs on the event-loop thread; the only await inside the
flusher is the evaluate call itself, so state updates are atomic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.metrics import Registry
from repro.service.clock import Clock

__all__ = ["MicroBatcher", "Overloaded", "RequestTimeout"]


class Overloaded(Exception):
    """The queue is full (or draining); retry after ``retry_after`` s."""

    def __init__(self, retry_after: float, *, draining: bool = False) -> None:
        state = "draining" if draining else "overloaded"
        super().__init__(f"service {state}; retry after {retry_after:.0f}s")
        self.retry_after = retry_after
        self.draining = draining


class RequestTimeout(Exception):
    """The request spent longer than ``timeout_s`` waiting for a result."""


@dataclass
class _Entry:
    """One unique spec awaiting evaluation, plus everyone waiting on it."""

    key: str | None
    payload: Any
    enqueued_at: float
    futures: list[asyncio.Future] = field(default_factory=list)

    def live(self) -> bool:
        return any(not fut.done() for fut in self.futures)


class MicroBatcher:
    """Batch, coalesce, bound, and drain concurrent evaluations.

    Parameters
    ----------
    evaluate:
        ``async (payloads: list) -> list`` over *unique* payloads, one
        result per payload, in order.  Exceptions fail every request in
        the batch.
    max_batch_size:
        Unique specs per evaluation call (window closes when reached).
    max_wait_s:
        Longest the window stays open after its first arrival.
    max_queue:
        Pending-request bound (queued + in flight) for admission control.
    timeout_s:
        Per-request deadline while queued/in flight.
    clock, metrics:
        Injection points; default to real time and a fresh
        :class:`~repro.metrics.Registry`, which receives the
        ``rejected`` / ``drained_rejects`` / ``timeouts``, ``batches.*``
        and ``queue.*`` names.
    """

    def __init__(
        self,
        evaluate: Callable[[list], Awaitable[list]],
        *,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        max_queue: int = 256,
        timeout_s: float = 60.0,
        clock: Clock | None = None,
        metrics: Registry | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.evaluate = evaluate
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.timeout_s = timeout_s
        self.clock = clock or Clock()
        self.metrics = metrics if metrics is not None else Registry()
        self._entries: list[_Entry] = []
        self._queued_by_key: dict[str, _Entry] = {}
        self._in_flight_by_key: dict[str, _Entry] = {}
        self._pending_requests = 0
        self._arrival = asyncio.Event()
        self._draining = False
        self._flusher: asyncio.Task | None = None
        # EWMA of batch service seconds, seeding the Retry-After estimate.
        self._batch_seconds = 0.05
        m = self.metrics
        m.declare("rejected", "drained_rejects", "timeouts",
                  *(f"batches.{name}" for name in (
                      "count", "requests", "unique_points", "coalesced")))
        m.set("batches.max_size", 0)
        m.set("batches.mean_size", lambda: round(
            m["batches.requests"] / m["batches.count"], 3)
            if m["batches.count"] else 0.0)
        m.set("queue.depth", lambda: self._pending_requests)
        m.set("queue.bound", max_queue)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the flusher task (idempotent)."""
        if self._flusher is None:
            self._flusher = asyncio.ensure_future(self._run())

    async def drain(self) -> None:
        """Stop admitting, flush the queue, wait for in-flight work."""
        self._draining = True
        self._arrival.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved."""
        return self._pending_requests

    # -- the request path --------------------------------------------------
    def retry_after(self) -> int:
        """Whole seconds a rejected client should back off."""
        windows = 1 + self._pending_requests // max(1, self.max_batch_size)
        return max(1, round(windows * self._batch_seconds + 0.5))

    async def submit(self, payload: Any, *, key: str | None = None) -> Any:
        """Queue ``payload`` and wait for its result.

        ``key`` is the coalescing identity: submissions sharing a key
        share one evaluation (queued or already in flight).  ``None``
        never coalesces.  Raises :class:`Overloaded` when the pending
        bound is hit and :class:`RequestTimeout` past the deadline.
        """
        if self._draining:
            self.metrics.inc("drained_rejects")
            raise Overloaded(self.retry_after(), draining=True)
        if self._pending_requests >= self.max_queue:
            self.metrics.inc("rejected")
            raise Overloaded(self.retry_after())
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = None
        if key is not None:
            entry = self._queued_by_key.get(key) or self._in_flight_by_key.get(key)
        if entry is not None:
            entry.futures.append(fut)
        else:
            entry = _Entry(key=key, payload=payload,
                           enqueued_at=self.clock.monotonic(), futures=[fut])
            self._entries.append(entry)
            if key is not None:
                self._queued_by_key[key] = entry
            self._arrival.set()
        self._pending_requests += 1
        finished = await self.clock.wait_future(fut, self.timeout_s)
        if not finished and fut.cancel():
            # Abandon the slot; the flusher skips cancelled futures.
            self._pending_requests -= 1
            self.metrics.inc("timeouts")
            raise RequestTimeout(
                f"no result within {self.timeout_s:g}s (queue depth "
                f"{self._pending_requests})"
            )
        return fut.result()

    # -- the flusher ---------------------------------------------------------
    async def _run(self) -> None:
        while True:
            if not self._entries:
                if self._draining:
                    return
                self._arrival.clear()
                await self._arrival.wait()
                continue
            deadline = self._entries[0].enqueued_at + self.max_wait_s
            while (len(self._entries) < self.max_batch_size
                   and not self._draining):
                remaining = deadline - self.clock.monotonic()
                if remaining <= 0:
                    break
                self._arrival.clear()
                if not await self.clock.wait(self._arrival, remaining):
                    break
            batch: list[_Entry] = []
            while self._entries and len(batch) < self.max_batch_size:
                entry = self._entries.pop(0)
                if entry.key is not None:
                    self._queued_by_key.pop(entry.key, None)
                if entry.live():  # every requester may have timed out
                    batch.append(entry)
            if batch:
                await self._dispatch(batch)

    async def _dispatch(self, batch: list[_Entry]) -> None:
        for entry in batch:
            if entry.key is not None:
                self._in_flight_by_key[entry.key] = entry
        started = self.clock.monotonic()
        try:
            results = await self.evaluate([entry.payload for entry in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"evaluate returned {len(results)} results for "
                    f"{len(batch)} payloads"
                )
            failure = None
        except Exception as exc:  # noqa: BLE001 - forwarded to requesters
            failure = exc
            results = []
        finally:
            for entry in batch:
                if entry.key is not None:
                    self._in_flight_by_key.pop(entry.key, None)
        elapsed = self.clock.monotonic() - started
        self._batch_seconds = 0.8 * self._batch_seconds + 0.2 * elapsed
        served = 0
        for i, entry in enumerate(batch):
            for fut in entry.futures:
                if fut.done():
                    continue
                if failure is not None:
                    fut.set_exception(failure)
                else:
                    fut.set_result(results[i])
                self._pending_requests -= 1
                served += 1
        m = self.metrics
        m.inc("batches.count")
        m.inc("batches.requests", served)
        m.inc("batches.unique_points", len(batch))
        m.inc("batches.coalesced", served - len(batch))
        m.set("batches.max_size", max(m["batches.max_size"], served))
