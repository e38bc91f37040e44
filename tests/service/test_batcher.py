"""Micro-batcher semantics under an injected manual clock.

No real sleeping and no timing-dependent assertions: the tests drive
the batching window, timeouts, and drain by advancing a
:class:`~repro.service.clock.ManualClock` explicitly (the pattern
documented in CONTRIBUTING.md).
"""

import asyncio

import pytest

from repro.service.batcher import MicroBatcher, Overloaded, RequestTimeout
from repro.service.clock import ManualClock
from repro.metrics import Registry


class Recorder:
    """An evaluate function that records batches; optionally gated."""

    def __init__(self, gate: "asyncio.Event | None" = None):
        self.batches: list[list] = []
        self.gate = gate

    async def __call__(self, payloads: list) -> list:
        self.batches.append(list(payloads))
        if self.gate is not None:
            await self.gate.wait()
        return [f"r:{p}" for p in payloads]


def run(coro):
    return asyncio.run(coro)


def make(evaluate, clock, **kwargs):
    defaults = dict(max_batch_size=4, max_wait_s=1.0, max_queue=8,
                    timeout_s=100.0, metrics=Registry())
    defaults.update(kwargs)
    return MicroBatcher(evaluate, clock=clock, **defaults)


class TestWindow:
    def test_window_closes_when_full_without_time_passing(self):
        async def main():
            clock = ManualClock()
            rec = Recorder()
            b = make(rec, clock, max_batch_size=2)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            assert clock.monotonic() == 0.0
            assert await t1 == "r:a" and await t2 == "r:b"
            assert rec.batches == [["a", "b"]]
            await b.drain()

        run(main())

    def test_window_closes_on_deadline_for_partial_batch(self):
        async def main():
            clock = ManualClock()
            rec = Recorder()
            b = make(rec, clock, max_batch_size=10, max_wait_s=2.0)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            await ManualClock.drain()
            assert rec.batches == []  # window still open
            await clock.advance(1.9)
            assert rec.batches == []
            await clock.advance(0.2)
            assert await t1 == "r:a"
            assert rec.batches == [["a"]]
            await b.drain()

        run(main())

    def test_late_arrival_joins_open_window(self):
        async def main():
            clock = ManualClock()
            rec = Recorder()
            b = make(rec, clock, max_batch_size=10, max_wait_s=2.0)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            await ManualClock.drain()  # t1 enqueued at t=0
            await clock.advance(1.0)
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            await clock.advance(1.1)  # deadline measured from first arrival
            assert await t1 == "r:a" and await t2 == "r:b"
            assert rec.batches == [["a", "b"]]
            await b.drain()

        run(main())


class TestCoalescing:
    def test_queued_duplicates_share_one_evaluation(self):
        async def main():
            clock = ManualClock()
            rec = Recorder()
            metrics = Registry()
            b = make(rec, clock, max_batch_size=10, max_wait_s=1.0,
                     metrics=metrics)
            await b.start()
            tasks = [asyncio.ensure_future(b.submit("hot", key="k"))
                     for _ in range(3)]
            await ManualClock.drain()  # all three enqueued at t=0
            await clock.advance(1.0)
            assert [await t for t in tasks] == ["r:hot"] * 3
            assert rec.batches == [["hot"]]
            assert metrics["batches.coalesced"] == 2
            await b.drain()

        run(main())

    def test_in_flight_duplicate_joins_running_batch(self):
        async def main():
            clock = ManualClock()
            gate = asyncio.Event()
            rec = Recorder(gate)
            b = make(rec, clock, max_batch_size=1, max_wait_s=0.0)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("hot", key="k"))
            await ManualClock.drain()
            assert rec.batches == [["hot"]]  # dispatched, gate held
            t2 = asyncio.ensure_future(b.submit("hot", key="k"))
            await ManualClock.drain()
            gate.set()
            assert await t1 == "r:hot" and await t2 == "r:hot"
            assert rec.batches == [["hot"]]  # still one evaluation
            await b.drain()

        run(main())

    def test_none_key_never_coalesces(self):
        async def main():
            clock = ManualClock()
            rec = Recorder()
            b = make(rec, clock, max_batch_size=2, max_wait_s=1.0)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("x"))
            t2 = asyncio.ensure_future(b.submit("x"))
            await ManualClock.drain()
            assert await t1 == "r:x" and await t2 == "r:x"
            assert rec.batches == [["x", "x"]]
            await b.drain()

        run(main())


class TestAdmission:
    def test_queue_bound_rejects_with_retry_after(self):
        async def main():
            clock = ManualClock()
            gate = asyncio.Event()
            rec = Recorder(gate)
            metrics = Registry()
            b = make(rec, clock, max_batch_size=1, max_wait_s=0.0,
                     max_queue=2, metrics=metrics)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            with pytest.raises(Overloaded) as err:
                await b.submit("c", key="c")
            assert err.value.retry_after >= 1
            assert not err.value.draining
            assert metrics["rejected"] == 1
            gate.set()
            await t1, await t2
            await b.drain()

        run(main())

    def test_timeout_reclaims_slot(self):
        async def main():
            clock = ManualClock()
            gate = asyncio.Event()
            rec = Recorder(gate)
            metrics = Registry()
            b = make(rec, clock, max_batch_size=1, max_wait_s=0.0,
                     timeout_s=5.0, metrics=metrics)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("slow", key="k"))
            await ManualClock.drain()
            assert b.pending == 1
            await clock.advance(5.1)
            with pytest.raises(RequestTimeout):
                await t1
            assert b.pending == 0
            assert metrics["timeouts"] == 1
            gate.set()  # evaluation finishes late; nothing blows up
            await b.drain()

        run(main())


class TestFailures:
    def test_evaluate_exception_fails_every_requester(self):
        async def main():
            clock = ManualClock()

            async def boom(payloads):
                raise ValueError("no oracle today")

            b = make(boom, clock, max_batch_size=2)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            with pytest.raises(ValueError):
                await t1
            with pytest.raises(ValueError):
                await t2
            assert b.pending == 0
            await b.drain()

        run(main())

    def test_result_count_mismatch_is_an_error(self):
        async def main():
            clock = ManualClock()

            async def short(payloads):
                return ["only-one"]

            b = make(short, clock, max_batch_size=2)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            with pytest.raises(RuntimeError):
                await t1
            with pytest.raises(RuntimeError):
                await t2
            await b.drain()

        run(main())


class TestDrain:
    def test_drain_completes_queued_and_in_flight_work(self):
        async def main():
            clock = ManualClock()
            gate = asyncio.Event()
            rec = Recorder(gate)
            b = make(rec, clock, max_batch_size=1, max_wait_s=10.0)
            await b.start()
            t1 = asyncio.ensure_future(b.submit("a", key="a"))
            await ManualClock.drain()  # "a" dispatched, gate held
            t2 = asyncio.ensure_future(b.submit("b", key="b"))
            await ManualClock.drain()
            drainer = asyncio.ensure_future(b.drain())
            await ManualClock.drain()
            with pytest.raises(Overloaded) as err:
                await b.submit("late", key="late")
            assert err.value.draining
            gate.set()
            await drainer
            assert await t1 == "r:a" and await t2 == "r:b"
            assert rec.batches == [["a"], ["b"]]
            assert b.pending == 0

        run(main())

    def test_drain_on_idle_batcher_returns(self):
        async def main():
            clock = ManualClock()
            b = make(Recorder(), clock)
            await b.start()
            await b.drain()
            assert b.draining

        run(main())
