"""The event bus: an ordered, bounded, resumable feed of what happened.

Every telemetry-emitting process (a ``repro.service`` shard, the
cluster router) owns one :class:`EventBus`.  An event is a plain
JSON-able dict::

    {"seq": 17, "ts": 12.503, "type": "shard.down",
     "data": {"shard": "http://127.0.0.1:9001"}}

``seq`` is assigned by the bus — strictly monotonic, starting at 1 —
and is the resume cursor of the streaming layer: a consumer that
remembers the last ``seq`` it saw asks for ``?from=<seq>`` and receives
exactly the retained events after it (see docs/TELEMETRY.md for the
resume contract and the event-type catalogue).

The buffer is a fixed-size ring: old events fall off, and
:attr:`dropped` counts how many a late consumer can no longer replay —
a consumer detects the gap as a jump in ``seq``.  Timestamps and waits
go through the injectable :class:`~repro.service.clock.Clock`, so every
streaming test drives time with
:class:`~repro.service.clock.ManualClock` and is deterministic.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque

from repro.service.clock import Clock

__all__ = ["EventBus", "DEFAULT_CAPACITY"]

#: Default ring-buffer size; at the default 1 s sample cadence this
#: retains over an hour of samples plus every rare lifecycle event.
DEFAULT_CAPACITY = 4096


class EventBus:
    """Bounded, seq-numbered event ring with async wakeups.

    All mutation happens on the owning event-loop thread (the same
    discipline as the server's request counters), so no locks are
    needed.
    """

    def __init__(
        self, *, capacity: int = DEFAULT_CAPACITY,
        clock: "Clock | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock or Clock()
        self._buffer: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._by_type: Counter[str] = Counter()
        self._arrival = asyncio.Event()

    # -- producing ---------------------------------------------------------
    def emit(self, type: str, **data) -> dict:
        """Append one event; wakes every waiting consumer."""
        self._seq += 1
        event = {
            "seq": self._seq,
            "ts": round(self.clock.monotonic(), 3),
            "type": type,
            "data": data,
        }
        self._buffer.append(event)
        self._by_type[type] += 1
        arrival, self._arrival = self._arrival, asyncio.Event()
        arrival.set()
        return event

    # -- consuming ---------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Seq of the newest event (0 before anything was emitted)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring (not resumable)."""
        return self._seq - len(self._buffer)

    def since(self, after_seq: int, limit: "int | None" = None) -> list[dict]:
        """Retained events with ``seq > after_seq``, oldest first."""
        out = [ev for ev in self._buffer if ev["seq"] > after_seq]
        return out[:limit] if limit is not None else out

    async def wait_since(
        self, after_seq: int, timeout_s: float,
        limit: "int | None" = None,
    ) -> list[dict]:
        """Like :meth:`since`, but wait up to ``timeout_s`` for news.

        Returns immediately when events past ``after_seq`` are already
        retained; otherwise parks on the next :meth:`emit` through the
        injectable clock (a :class:`ManualClock` drives this
        deterministically).  An empty list means the timeout elapsed.
        """
        events = self.since(after_seq, limit)
        if events or timeout_s <= 0:
            return events
        arrival = self._arrival
        await self.clock.wait(arrival, timeout_s)
        return self.since(after_seq, limit)

    def poll_body(self, after_seq: int, events: list[dict]) -> dict:
        """The long-poll response body both servers return."""
        return {
            "events": events,
            "next_from": events[-1]["seq"] if events else after_seq,
            "last_seq": self._seq,
            "dropped": self.dropped,
        }

    # -- observability -----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able counters for ``/metrics``."""
        return {
            "emitted": self._seq,
            "buffered": len(self._buffer),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "by_type": dict(sorted(self._by_type.items())),
        }
