"""Transaction traces, statistics, and a best-effort race detector.

A :class:`TraceRecorder` attached to an engine records one
:class:`TransactionRecord` per warp memory transaction, with the exact
pipeline timing the unit assigned.  The recorder powers:

* the reproduction of the paper's Figure 4 (pipeline occupancy timeline),
* conflict statistics for the ablation benchmarks,
* an epoch-based data-race detector for debugging kernels: two
  transactions from different warps racing on an address (at least one a
  write) without an intervening barrier are flagged.

Tracing costs memory proportional to the number of transactions — attach
it for small runs and debugging, not for large sweeps.  Pass
``max_transactions`` to enforce that: the recorder then raises
:class:`~repro.errors.TraceOverflowError` instead of growing without
bound.

The event scheduler drives three hooks: :meth:`TraceRecorder.record`
(one memory transaction), :meth:`TraceRecorder.record_arrival` (one
warp reaching a barrier) and :meth:`TraceRecorder.record_barrier` (one
barrier release).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, TraceOverflowError
from repro.machine.ops import AccessKind, BarrierScope, MemoryOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.pipeline import Issue, PipelinedMemoryUnit
    from repro.machine.warp import WarpContext

__all__ = [
    "TransactionRecord",
    "TraceRecorder",
    "RaceReport",
    "port_utilization",
    "slots_histogram",
]


@dataclass(frozen=True)
class TransactionRecord:
    """One warp transaction as issued through a memory unit."""

    warp_id: int
    dmm_id: int
    unit: str
    kind: AccessKind
    start: int
    slots: int
    complete: int
    num_requests: int
    array: str
    #: Distinct absolute addresses of the transaction (copy).
    addresses: np.ndarray
    #: Device-scope barrier epoch at dispatch time.
    device_epoch: int
    #: DMM-scope barrier epoch (of the issuing warp's DMM) at dispatch.
    dmm_epoch: int

    @property
    def duration(self) -> int:
        """Time units from issue to completion, inclusive."""
        return self.complete - self.start + 1


@dataclass(frozen=True)
class RaceReport:
    """A detected (potential) data race between two transactions."""

    first: TransactionRecord
    second: TransactionRecord
    addresses: np.ndarray

    def describe(self) -> str:
        a = ", ".join(str(int(x)) for x in self.addresses[:8])
        more = "..." if self.addresses.size > 8 else ""
        return (
            f"race on {self.first.unit} addresses [{a}{more}]: warp "
            f"{self.first.warp_id} ({self.first.kind.value}) vs warp "
            f"{self.second.warp_id} ({self.second.kind.value}) with no "
            "barrier in between"
        )


class TraceRecorder:
    """Collects transactions and barrier events during a run.

    Parameters
    ----------
    max_transactions:
        Optional upper bound on the number of recorded transactions.
        Exceeding it raises :class:`~repro.errors.TraceOverflowError`
        (the trace grows linearly with the run; an unbounded recorder on
        a large launch silently exhausts RAM).
    """

    def __init__(self, *, max_transactions: int | None = None) -> None:
        if max_transactions is not None and max_transactions < 1:
            raise ConfigurationError(
                f"max_transactions must be >= 1, got {max_transactions}"
            )
        self.max_transactions = max_transactions
        self.records: list[TransactionRecord] = []
        #: ``(warp_id, scope, transactions recorded before it)`` per
        #: barrier arrival, in dispatch order: restricted to one warp,
        #: its arrivals interleave with its records in program order.
        self.arrivals: list[tuple[int, BarrierScope, int]] = []
        #: ``(scope, dmm_id, time)`` per barrier release.
        self.barrier_events: list[tuple[BarrierScope, int, int]] = []
        self._device_epoch = 0
        self._dmm_epoch: dict[int, int] = defaultdict(int)

    def _check_capacity(self, recorded: int) -> None:
        """Raise when one more transaction would exceed the cap."""
        if self.max_transactions is not None and recorded >= self.max_transactions:
            raise TraceOverflowError(
                f"trace exceeded max_transactions={self.max_transactions}; "
                "raise the cap (or trace a smaller launch)"
            )

    # -- hooks called by the scheduler ------------------------------------
    def record(
        self,
        ctx: "WarpContext",
        unit: "PipelinedMemoryUnit",
        op: MemoryOp,
        issue: "Issue",
    ) -> None:
        """Record one warp memory transaction."""
        self._check_capacity(len(self.records))
        self.records.append(
            TransactionRecord(
                warp_id=ctx.warp_id,
                dmm_id=ctx.dmm_id,
                unit=unit.name,
                kind=op.kind,
                start=issue.start,
                slots=issue.slots,
                complete=issue.complete,
                num_requests=op.num_requests,
                array=op.array.name or "<anon>",
                addresses=np.unique(np.asarray(op.addresses, dtype=np.int64)),
                device_epoch=self._device_epoch,
                dmm_epoch=self._dmm_epoch[ctx.dmm_id],
            )
        )

    def record_arrival(self, ctx: "WarpContext", scope: BarrierScope) -> None:
        """One warp arriving at a barrier.

        :meth:`record_barrier` fires once per *release*, in global time
        order, which shifts with the latency and dispatch order; the
        arrivals are what each warp's own program determines.
        """
        self.arrivals.append((ctx.warp_id, scope, len(self.records)))

    def record_barrier(self, scope: BarrierScope, dmm_id: int, time: int) -> None:
        self.barrier_events.append((scope, dmm_id, time))
        if scope is BarrierScope.DEVICE:
            self._device_epoch += 1
            for key in self._dmm_epoch:
                self._dmm_epoch[key] += 1
        else:
            self._dmm_epoch[dmm_id] += 1

    # -- queries ------------------------------------------------------------
    def transactions_for(self, unit: str) -> list[TransactionRecord]:
        """Records issued through the named unit, in dispatch order."""
        return [r for r in self.records if r.unit == unit]

    def total_slots(self, unit: str | None = None) -> int:
        """Sum of pipeline slots across (a unit's) transactions."""
        return sum(r.slots for r in self.records if unit is None or r.unit == unit)

    def makespan(self) -> int:
        """Completion time of the last recorded transaction."""
        return max((r.complete + 1 for r in self.records), default=0)

    # -- race detection -------------------------------------------------------
    def detect_races(self) -> list[RaceReport]:
        """Best-effort data-race detection between barrier epochs.

        Two transactions race when they touch a common address on the same
        unit, come from different warps, at least one writes, and no
        barrier separates them: same device epoch, and — if the warps
        share a DMM — the same DMM epoch.  This is a debugging aid with
        no false negatives for the bulk-synchronous kernels in this
        library, but it can over-report for programs synchronizing by
        other means (the models offer no other means).
        """
        reports: list[RaceReport] = []
        by_key: dict[tuple[str, int], list[TransactionRecord]] = defaultdict(list)
        for rec in self.records:
            by_key[(rec.unit, rec.device_epoch)].append(rec)
        for group in by_key.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if a.warp_id == b.warp_id:
                        continue
                    if a.kind is AccessKind.READ and b.kind is AccessKind.READ:
                        continue
                    if a.dmm_id == b.dmm_id and a.dmm_epoch != b.dmm_epoch:
                        continue
                    shared = np.intersect1d(a.addresses, b.addresses)
                    if shared.size:
                        reports.append(RaceReport(first=a, second=b, addresses=shared))
        return reports

    # -- rendering --------------------------------------------------------------
    def render_pipeline_timeline(self, unit: str, *, latency: int) -> str:
        """ASCII pipeline occupancy chart in the style of the paper's Fig. 4.

        One row per transaction showing issue slots (``#``) and in-flight
        latency (``-``), plus a ruler.  Used by the Figure 4 benchmark to
        show the two-warp example completing in 8 time units.
        """
        records = self.transactions_for(unit)
        if not records:
            return f"(no transactions on unit {unit!r})"
        horizon = max(r.complete for r in records) + 1
        lines = []
        header = "time      " + "".join(str(t % 10) for t in range(horizon))
        lines.append(header)
        for rec in records:
            row = [" "] * horizon
            for t in range(rec.start, rec.start + rec.slots):
                row[t] = "#"
            for t in range(rec.start + rec.slots, rec.complete + 1):
                row[t] = "-"
            label = f"W({rec.warp_id})".ljust(10)
            lines.append(label + "".join(row))
        lines.append(
            f"(#: issue slot, -: in flight; latency={latency}; "
            f"total={horizon} time units)"
        )
        return "\n".join(lines)


def port_utilization(records: list[TransactionRecord], unit: str,
                     total_cycles: int) -> float:
    """Fraction of the run during which the unit's issue port was busy.

    ``total_cycles`` is the launch's makespan; slots never overlap on a
    port, so utilization = issued slots / makespan (1.0 = the port is
    the bottleneck throughout — the bandwidth-bound signature).
    """
    if total_cycles <= 0:
        return 0.0
    busy = sum(r.slots for r in records if r.unit == unit)
    return min(1.0, busy / total_cycles)


def slots_histogram(records: list[TransactionRecord], unit: str) -> dict[int, int]:
    """How many transactions took each slot count.

    ``{1: everything}`` is the clean-kernel signature; heavy tails are
    bank conflicts / uncoalesced access quantified per degree.
    """
    hist: dict[int, int] = {}
    for r in records:
        if r.unit == unit:
            hist[r.slots] = hist.get(r.slots, 0) + 1
    return dict(sorted(hist.items()))
