"""Event-driven warp scheduler.

The scheduler advances a set of warp programs through simulated time while
charging every operation according to the model rules:

* **memory operations** go through the :class:`PipelinedMemoryUnit` that
  owns the target array's memory space; the unit serializes transactions
  on its issue port (one pipeline slot per time unit) and delays
  completion by the latency;
* **compute operations** advance only the issuing warp's clock (threads
  are independent RAMs; local computation never contends);
* **barriers** align the clocks of all warps in scope at no cost.

Dispatch order is event-driven FIFO by default: among pending warps,
the one with the smallest ``(ready_time, warp_id)`` issues first.  The
paper specifies round-robin dispatch — available via
``dispatch="round-robin"``, which rotates priority within
equal-ready-time cohorts.  For perfectly load-balanced programs the two
policies produce identical counts; with ragged tails (a partial final
round) they can differ by O(1) time units per synchronization phase —
never asymptotically (both claims pinned by tests).

Memory *effects* (value movement) are applied at dispatch time in
dispatch order.  Programs must separate conflicting accesses from
different warps by barriers — as all of the paper's algorithms do; an
optional epoch-based race detector (:mod:`repro.machine.trace`) flags
violations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.errors import DeadlockError, KernelError
from repro.machine.memory import ArrayHandle
from repro.machine.ops import (
    BarrierOp,
    BarrierScope,
    ComputeOp,
    MemoryOp,
    Op,
    RangeOp,
    ReadOp,
    ReadRangeOp,
    WriteOp,
    WriteRangeOp,
)
from repro.machine.pipeline import PipelinedMemoryUnit
from repro.machine.trace import TraceRecorder
from repro.machine.warp import WarpContext

__all__ = ["WarpState", "Scheduler", "SchedulerResult"]


@dataclass
class WarpState:
    """Book-keeping for one running warp."""

    ctx: WarpContext
    program: Generator[Op, "np.ndarray | None", None]
    ready: int = 0
    finished: bool = False
    #: Value to send into the generator at the next step (read results).
    pending_send: np.ndarray | None = None
    #: Number of barriers this warp has passed, per scope (mismatch check).
    barrier_seq: dict[BarrierScope, int] = field(default_factory=dict)
    #: Fused range operation in progress (dispatched one round per event).
    range_op: RangeOp | None = None
    #: Next round of ``range_op`` to dispatch.
    range_round: int = 0
    #: Value matrix being accumulated for an in-progress read range.
    range_values: np.ndarray | None = None

    @property
    def warp_id(self) -> int:
        return self.ctx.warp_id


@dataclass
class SchedulerResult:
    """Outcome of a scheduler run."""

    #: Total elapsed time units (makespan).
    cycles: int
    #: Number of compute operations dispatched.
    compute_ops: int
    #: Total compute time units charged across warps (not wall time).
    compute_cycles: int
    #: Number of barrier releases performed.
    barrier_releases: int


class _BarrierGroup:
    """Warps synchronizing together at one scope."""

    __slots__ = ("members", "waiting", "arrivals", "seq")

    def __init__(self, members: set[int]) -> None:
        self.members = set(members)  # unfinished member warp ids
        self.waiting: set[int] = set()
        self.arrivals: dict[int, int] = {}
        self.seq: dict[int, int] = {}

    def complete(self) -> bool:
        return bool(self.members) and self.waiting == self.members


class Scheduler:
    """Run warp programs to completion under the model timing rules.

    Parameters
    ----------
    unit_for:
        Maps ``(warp_state, memory_op)`` to the memory unit serving it
        (also responsible for space-visibility validation).
    space_for:
        Maps an :class:`ArrayHandle` to the backing
        :class:`~repro.machine.memory.MemorySpace` used to apply effects
        (normally ``op.array.space``; injected for testability).
    trace:
        Optional transaction recorder.
    """

    def __init__(
        self,
        unit_for: Callable[[WarpState, MemoryOp], PipelinedMemoryUnit],
        *,
        trace: TraceRecorder | None = None,
        dispatch: str = "fifo",
    ) -> None:
        if dispatch not in ("fifo", "round-robin"):
            raise KernelError(
                f"dispatch must be 'fifo' or 'round-robin', got {dispatch!r}"
            )
        self._unit_for = unit_for
        self._trace = trace
        self._dispatch = dispatch
        self._rr_next = 0

    # ------------------------------------------------------------------
    def run(self, warps: list[WarpState]) -> SchedulerResult:
        if not warps:
            return SchedulerResult(cycles=0, compute_ops=0, compute_cycles=0, barrier_releases=0)

        groups = self._build_barrier_groups(warps)
        by_id = {ws.warp_id: ws for ws in warps}

        # Priority queue of runnable warps: (ready, warp_id).
        heap: list[tuple[int, int]] = [(ws.ready, ws.warp_id) for ws in warps]
        heapq.heapify(heap)
        in_heap = {ws.warp_id for ws in warps}

        makespan = 0
        compute_ops = 0
        compute_cycles = 0
        barrier_releases = 0

        while heap:
            ready, wid = heapq.heappop(heap)
            if self._dispatch == "round-robin":
                # Among warps ready at the same time, rotate priority:
                # pop the whole ready-time cohort and pick by rotation.
                cohort = [(ready, wid)]
                while heap and heap[0][0] == ready:
                    cohort.append(heapq.heappop(heap))
                pick = min(
                    cohort,
                    key=lambda rw: (rw[1] - self._rr_next) % max(len(by_id), 1),
                )
                for entry in cohort:
                    if entry is not pick:
                        heapq.heappush(heap, entry)
                ready, wid = pick
                self._rr_next = (wid + 1) % max(len(by_id), 1)
            in_heap.discard(wid)
            ws = by_id[wid]
            if ws.finished:
                continue
            if ready != ws.ready:
                # Stale entry (warp was re-timed by a barrier release).
                if wid not in in_heap:
                    heapq.heappush(heap, (ws.ready, wid))
                    in_heap.add(wid)
                continue

            if ws.range_op is not None:
                # A fused range in progress: dispatch exactly one round,
                # as the equivalent per-round loop would at this event.
                c_ops, c_cyc = self._range_round(ws)
                compute_ops += c_ops
                compute_cycles += c_cyc
                makespan = max(makespan, ws.ready)
                heapq.heappush(heap, (ws.ready, wid))
                in_heap.add(wid)
                continue

            op = self._advance(ws)
            if op is None:  # StopIteration: warp finished
                ws.finished = True
                makespan = max(makespan, ws.ready)
                barrier_releases += self._retire_from_groups(ws, groups, heap, in_heap, by_id)
                continue

            if isinstance(op, ComputeOp):
                compute_ops += 1
                compute_cycles += op.cycles
                ws.ready += op.cycles
                makespan = max(makespan, ws.ready)
                heapq.heappush(heap, (ws.ready, wid))
                in_heap.add(wid)
            elif isinstance(op, MemoryOp):
                self._dispatch_memory(ws, op)
                makespan = max(makespan, ws.ready)
                heapq.heappush(heap, (ws.ready, wid))
                in_heap.add(wid)
            elif isinstance(op, RangeOp):
                ws.range_op = op
                ws.range_round = 0
                if isinstance(op, ReadRangeOp):
                    ws.range_values = np.empty(
                        (op.rounds, op.lanes), dtype=np.float64
                    )
                c_ops, c_cyc = self._range_round(ws)
                compute_ops += c_ops
                compute_cycles += c_cyc
                makespan = max(makespan, ws.ready)
                heapq.heappush(heap, (ws.ready, wid))
                in_heap.add(wid)
            elif isinstance(op, BarrierOp):
                released = self._arrive_at_barrier(ws, op, groups, heap, in_heap, by_id)
                barrier_releases += released
            else:  # pragma: no cover - defensive
                raise KernelError(f"warp {wid} yielded unknown operation {op!r}")

        # Any warp still waiting at a barrier means mismatched barrier use.
        stuck = [
            wid
            for g in groups.values()
            for wid in g.waiting
            if not by_id[wid].finished
        ]
        if stuck:
            raise DeadlockError(
                f"warps {sorted(set(stuck))} are blocked at a barrier that "
                "can never be released (mismatched barrier counts?)"
            )
        return SchedulerResult(
            cycles=makespan,
            compute_ops=compute_ops,
            compute_cycles=compute_cycles,
            barrier_releases=barrier_releases,
        )

    # ------------------------------------------------------------------
    def _advance(self, ws: WarpState) -> Op | None:
        send, ws.pending_send = ws.pending_send, None
        try:
            if send is None:
                return next(ws.program)
            return ws.program.send(send)
        except StopIteration:
            return None

    def _dispatch_memory(self, ws: WarpState, op: MemoryOp) -> None:
        if op.num_requests == 0:
            # Fully masked: costs nothing, but the warp took this
            # dispatch turn (round-robin rotation moved past it).
            if isinstance(op, ReadOp):
                ws.pending_send = np.zeros(ws.ctx.num_lanes, dtype=np.float64)
            return
        unit = self._unit_for(ws, op)
        issue = unit.issue(ws.ready, op.addresses, op.kind)
        if self._trace is not None:
            self._trace.record(ws.ctx, unit, op, issue)
        # Apply effects in dispatch order (see module docstring).
        space = op.array.space
        if isinstance(op, ReadOp):
            values = np.zeros(ws.ctx.num_lanes, dtype=np.float64)
            assert op.result_mask is not None
            values[op.result_mask] = space.load(op.addresses)
            ws.pending_send = values
        else:
            assert isinstance(op, WriteOp)
            space.store(op.addresses, op.values)
        ws.ready = issue.next_ready

    def _range_round(self, ws: WarpState) -> tuple[int, int]:
        """Dispatch one round of the warp's in-progress range operation.

        Timing, trace records, and memory effects are those of the
        round's unfused equivalent: one full-warp transaction, then
        ``compute`` time units of local work.  Returns the
        ``(compute_ops, compute_cycles)`` charged for the round.
        """
        op = ws.range_op
        assert op is not None
        j = ws.range_round
        row = op.addresses[j]
        unit = self._unit_for(ws, op)
        issue = unit.issue(ws.ready, row, op.kind)
        if self._trace is not None:
            # Record the round as the single-step op it stands for.
            if isinstance(op, ReadRangeOp):
                rec: MemoryOp = ReadOp(array=op.array, addresses=row)
            else:
                assert isinstance(op, WriteRangeOp)
                rec = WriteOp(array=op.array, addresses=row, values=op.values[j])
            self._trace.record(ws.ctx, unit, rec, issue)
        space = op.array.space
        if isinstance(op, ReadRangeOp):
            assert ws.range_values is not None
            ws.range_values[j] = space.load(row)
        else:
            assert isinstance(op, WriteRangeOp)
            space.store(row, op.values[j])
        ws.ready = issue.next_ready + op.compute
        ws.range_round = j + 1
        if ws.range_round == op.rounds:
            if isinstance(op, ReadRangeOp):
                ws.pending_send = ws.range_values
            ws.range_op = None
            ws.range_values = None
        if op.compute:
            return 1, op.compute
        return 0, 0

    # -- barriers --------------------------------------------------------
    def _build_barrier_groups(
        self, warps: list[WarpState]
    ) -> dict[tuple[BarrierScope, int], _BarrierGroup]:
        groups: dict[tuple[BarrierScope, int], _BarrierGroup] = {}
        all_ids = {ws.warp_id for ws in warps}
        groups[(BarrierScope.DEVICE, 0)] = _BarrierGroup(all_ids)
        by_dmm: dict[int, set[int]] = {}
        for ws in warps:
            by_dmm.setdefault(ws.ctx.dmm_id, set()).add(ws.warp_id)
        for dmm_id, members in by_dmm.items():
            groups[(BarrierScope.DMM, dmm_id)] = _BarrierGroup(members)
        return groups

    def _group_key(self, ws: WarpState, scope: BarrierScope) -> tuple[BarrierScope, int]:
        if scope is BarrierScope.DEVICE:
            return (BarrierScope.DEVICE, 0)
        return (BarrierScope.DMM, ws.ctx.dmm_id)

    def _arrive_at_barrier(
        self,
        ws: WarpState,
        op: BarrierOp,
        groups: dict[tuple[BarrierScope, int], _BarrierGroup],
        heap: list[tuple[int, int]],
        in_heap: set[int],
        by_id: dict[int, WarpState],
    ) -> int:
        if self._trace is not None:
            self._trace.record_arrival(ws.ctx, op.scope)
        key = self._group_key(ws, op.scope)
        group = groups[key]
        seq = ws.barrier_seq.get(op.scope, 0)
        group.waiting.add(ws.warp_id)
        group.arrivals[ws.warp_id] = ws.ready
        group.seq[ws.warp_id] = seq
        return self._maybe_release(group, heap, in_heap, by_id, op.scope, key[1])

    def _retire_from_groups(
        self,
        ws: WarpState,
        groups: dict[tuple[BarrierScope, int], _BarrierGroup],
        heap: list[tuple[int, int]],
        in_heap: set[int],
        by_id: dict[int, WarpState],
    ) -> int:
        """A finished warp leaves its barrier groups; maybe releases them."""
        released = 0
        for (scope, gid), group in groups.items():
            if ws.warp_id in group.members:
                group.members.discard(ws.warp_id)
                group.waiting.discard(ws.warp_id)
                group.arrivals.pop(ws.warp_id, None)
                group.seq.pop(ws.warp_id, None)
                released += self._maybe_release(group, heap, in_heap, by_id, scope, gid)
        return released

    def _maybe_release(
        self,
        group: _BarrierGroup,
        heap: list[tuple[int, int]],
        in_heap: set[int],
        by_id: dict[int, WarpState],
        scope: BarrierScope,
        group_id: int,
    ) -> int:
        if not group.complete():
            return 0
        seqs = set(group.seq.values())
        if len(seqs) > 1:
            raise DeadlockError(
                f"warps reached different occurrences of a {scope.value} "
                f"barrier (sequence numbers {sorted(seqs)}); every warp in "
                "scope must execute the same number of barriers"
            )
        release_time = max(group.arrivals.values())
        for wid in sorted(group.waiting):
            member = by_id[wid]
            member.ready = release_time
            member.barrier_seq[scope] = member.barrier_seq.get(scope, 0) + 1
            heapq.heappush(heap, (member.ready, wid))
            in_heap.add(wid)
        group.waiting.clear()
        group.arrivals.clear()
        group.seq.clear()
        if self._trace is not None:
            self._trace.record_barrier(scope, group_id, release_time)
        return 1
