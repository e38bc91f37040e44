"""Vectorized batch evaluation of warp programs (the fast path).

The event scheduler (:mod:`repro.machine.scheduler`) steps one warp
transaction at a time through a priority queue — exact, but every
operation pays Python-level heap, dispatch, and per-transaction numpy
costs.  For the bulk-synchronous kernels this library is built from,
that generality is wasted: between barriers every warp issues the same
round structure, so whole *waves* of transactions can be costed at once.

:class:`BatchCostEngine` exploits that.  It advances all runnable warp
programs in lockstep waves (one operation per warp per wave), parks each
memory operation in a per-unit queue, and dispatches, per unit, the
longest sorted prefix that provably matches event order — conservative
lookahead, as in parallel discrete-event simulation.  A queued operation
is safe to dispatch when no operation with a smaller ``(ready, warp_id)``
key can still arrive at its unit, judged against

* the running ``next_ready`` of earlier operations in the same prefix
  (a warp's next transaction cannot come before its current one ends),
* the current clocks of runnable and stalled warps elsewhere, and
* a release-time lower bound for warps blocked at a barrier.

Each safe prefix is costed with **one** vectorized call per stage: a
single sorted-distinct pass computes every transaction's slot count
(bank conflicts for DMMs, address groups for UMMs — see
:func:`repro.machine.banks.conflict_degrees` /
:func:`~repro.machine.banks.group_counts`), and one cumulative-sum +
running-max scan solves the port recurrence
``pf[i] = max(ready[i], pf[i-1]) + s[i]``
(:meth:`~repro.machine.pipeline.PipelinedMemoryUnit.issue_batch`).  For
a barrier-aligned round this is exactly the paper's pipeline formula:
the round costs ``s_1 + ... + s_k + l - 1`` time units.

Because every memory space is served by exactly one unit and prefixes
are applied in key order, memory effects happen in *event* order —
reads (batched per consecutive run) observe precisely the writes the
event engine would have applied.

**Equivalence is detected, not assumed.**  The barrier bound is the one
optimistic ingredient: a warp that exits without reaching a barrier can
release its peers earlier than predicted (the event engine itself is
not monotone there).  Every dispatch therefore re-checks per-unit key
monotonicity, and the engine raises :class:`BatchFallback` the moment an
operation arrives behind an already-dispatched key — or when no queued
operation can be proven safe.  The calling engine rolls back its memory
spaces' store undo logs and replays on the event scheduler, so programs with
data-dependent scheduling still get *exact* event-engine numbers, just
without the speedup.  Results and cycle counts are identical either
way; ``tests/machine/test_batch_equivalence.py`` pins this across the
kernel library.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable

import numpy as np

from repro.errors import DeadlockError, KernelError
from repro.machine.ops import (
    AccessKind,
    BarrierOp,
    BarrierScope,
    ComputeOp,
    MemoryOp,
    Op,
    RangeOp,
    ReadOp,
    WriteOp,
)
from repro.machine.pipeline import PipelinedMemoryUnit
from repro.machine.scheduler import SchedulerResult, WarpState, _BarrierGroup
from repro.metrics import PROCESS
from repro.native import native_kernels, resolve_backend

__all__ = ["BatchCostEngine", "BatchFallback"]

_GroupMap = dict[tuple[BarrierScope, int], _BarrierGroup]

#: Sentinel larger than any encoded (ready, warp_id) dispatch key.
_INF = 1 << 62


class BatchFallback(Exception):
    """Batch evaluation cannot reproduce event semantics for this run.

    Raised mid-run when a detector trips (an operation arriving behind an
    already-dispatched unit key, or no queued operation provably safe to
    dispatch).  The launch runs the batch attempt under
    :func:`~repro.machine.memory.attempt_with_rollback`, which catches
    it, reverts the attempt's stores through the undo log, and lets the
    launch rerun on the event scheduler.  The message names the
    tripped detector — useful when debugging why a kernel misses the
    fast path (``docs/PERFORMANCE.md`` lists the common causes).
    """


class BatchCostEngine:
    """Evaluate warp programs wave-by-wave with vectorized costing.

    Drop-in alternative to :class:`repro.machine.scheduler.Scheduler`
    for the supported (FIFO-dispatch, untraced) configuration: same
    ``unit_for`` contract, same :class:`SchedulerResult`, same memory
    effects and deadlock behavior.

    Parameters
    ----------
    unit_for:
        Maps ``(warp_state, memory_op)`` to the serving memory unit,
        validating space visibility (shared with the event scheduler).
    backend:
        ``"python"`` / ``"native"`` / ``None`` (defer to
        ``$REPRO_BACKEND``).  The native backend runs the three hot
        integer scans — safe-prefix, range replay, wave recurrence —
        through the compiled kernels of :mod:`repro.native`; results
        are bit-identical, and a missing compiler falls back to the
        Python scans with a once-per-process warning.
    """

    def __init__(
        self,
        unit_for: Callable[[WarpState, MemoryOp], PipelinedMemoryUnit],
        *,
        backend: "str | None" = None,
    ) -> None:
        self._unit_for = unit_for
        self.backend = resolve_backend(backend)
        self._native = (
            native_kernels() if self.backend == "native" else None
        )
        #: warp_id stride for encoding (ready, warp_id) keys as ints.
        self._nw = 1
        #: Per-unit queues of parked ops: id(unit) -> (unit, entries),
        #: entries = [enc_key, ws, op, slots].
        self._pending: dict[
            int, tuple[PipelinedMemoryUnit, list[list]]
        ] = {}
        #: Per-unit encoded key of the last dispatched transaction.
        self._last_enc: dict[int, int] = {}
        #: warp_id -> (bound, unit id) for warps currently parked in a
        #: unit queue.  ``bound`` is a lower bound on when the warp can
        #: next enqueue a transaction: a parked warp must first complete
        #: its queued transaction, which takes at least
        #: ``slots + latency - 1`` time units past its clock, so other
        #: units need not fear it before then.
        self._stalled: dict[int, tuple[int, int]] = {}
        #: Number of unfinished warps in the current run.
        self._live = 0
        #: [ops, cycles] charged for the per-round computes of fused
        #: ranges dispatched so far (folded into the final result).
        self._extra_compute = [0, 0]

    # ------------------------------------------------------------------
    def run(self, warps: list[WarpState]) -> SchedulerResult:
        if not warps:
            return SchedulerResult(
                cycles=0, compute_ops=0, compute_cycles=0, barrier_releases=0
            )
        self._nw = max(ws.warp_id for ws in warps) + 1
        self._live = len(warps)
        self._pending.clear()
        self._last_enc.clear()
        self._stalled.clear()
        self._extra_compute = [0, 0]
        groups = self._build_barrier_groups(warps)
        by_id = {ws.warp_id: ws for ws in warps}

        compute_ops = 0
        compute_cycles = 0
        barrier_releases = 0

        runnable = sorted(warps, key=lambda ws: ws.warp_id)
        while runnable or self._stalled:
            wave = runnable
            computing: list[WarpState] = []
            released: list[int] = []
            fresh: dict[int, tuple[PipelinedMemoryUnit, list[list]]] = {}
            for ws in wave:
                # Chain through zero-cost operations (fully masked memory
                # ops, zero-cycle computes) within the wave: the event
                # engine re-pops such a warp immediately at the same
                # (ready, warp_id) key, so its next real operation must
                # not slip a wave behind its peers'.
                while True:
                    op = self._advance(ws)
                    if isinstance(op, MemoryOp) and op.num_requests == 0:
                        # Fully masked: not dispatched, costs nothing.
                        if isinstance(op, ReadOp):
                            ws.pending_send = np.zeros(
                                ws.ctx.num_lanes, dtype=np.float64
                            )
                        continue
                    if isinstance(op, ComputeOp) and op.cycles == 0:
                        compute_ops += 1
                        continue
                    break
                if op is None:  # StopIteration: warp finished
                    ws.finished = True
                    self._live -= 1
                    barrier_releases += self._retire(ws, groups, by_id, released)
                elif isinstance(op, ComputeOp):
                    compute_ops += 1
                    compute_cycles += op.cycles
                    ws.ready += op.cycles
                    computing.append(ws)
                elif isinstance(op, (MemoryOp, RangeOp)):
                    unit = self._unit_for(ws, op)
                    entry = fresh.get(id(unit))
                    if entry is None:
                        fresh[id(unit)] = (unit, [[0, ws, op, 0]])
                    else:
                        entry[1].append([0, ws, op, 0])
                elif isinstance(op, BarrierOp):
                    barrier_releases += self._arrive(ws, op, groups, by_id, released)
                else:  # pragma: no cover - defensive
                    raise KernelError(
                        f"warp {ws.warp_id} yielded unknown operation {op!r}"
                    )
            self._enqueue(fresh)
            unstalled, progressed = self._dispatch(groups, by_id)

            runnable = computing + unstalled
            runnable.extend(by_id[wid] for wid in released)
            if not runnable and self._stalled and not wave and not progressed:
                raise BatchFallback(
                    "no queued transaction can be proven safe to dispatch "
                    "(barrier/exit interaction too data-dependent for wave "
                    "evaluation)"
                )
            runnable.sort(key=lambda ws: ws.warp_id)

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
            cycles=max(ws.ready for ws in warps),
            compute_ops=compute_ops + self._extra_compute[0],
            compute_cycles=compute_cycles + self._extra_compute[1],
            barrier_releases=barrier_releases,
        )

    # -- queueing --------------------------------------------------------
    def _enqueue(
        self, fresh: dict[int, tuple[PipelinedMemoryUnit, list[list]]]
    ) -> None:
        """Key and slot-count this wave's new ops; merge into the queues.

        Slot counts for a unit's new single-step transactions come from
        one vectorized ``policy.slot_counts`` call; each fused range is
        costed rowwise with one ``policy.slot_counts_matrix`` call.  A
        queued entry is ``[key, warp, op, slots]`` for a single-step op
        and ``[key, warp, op, per-round slots, next round, value buffer]``
        for a range.
        """
        nw = self._nw
        for uid, (unit, entries) in fresh.items():
            plain = [e[2].addresses for e in entries if not isinstance(e[2], RangeOp)]
            if plain:
                slots = unit.policy.slot_counts(plain, unit.width)
                if int(slots.min()) < 1:
                    raise BatchFallback(
                        f"policy {unit.policy.name!r} assigned zero slots to "
                        "a non-empty transaction; batch mode cannot skip "
                        "warps mid-round"
                    )
            lat1 = unit.latency - 1
            i_plain = 0
            for e in entries:
                ws = e[1]
                op = e[2]
                e[0] = ws.ready * nw + ws.warp_id
                if isinstance(op, RangeOp):
                    rs = unit.policy.slot_counts_matrix(op.addresses, unit.width)
                    if int(rs.min()) < 1:
                        raise BatchFallback(
                            f"policy {unit.policy.name!r} assigned zero slots "
                            "to a range round; batch mode cannot skip warps "
                            "mid-round"
                        )
                    e[3] = rs.tolist()
                    e.append(0)  # next round to dispatch
                    e.append(
                        np.empty((op.rounds, op.lanes), dtype=np.float64)
                        if op.kind is AccessKind.READ
                        else None
                    )
                    # The whole chain must drain before the warp returns:
                    # every round costs at least its slots plus the
                    # pipeline latency (plus the per-round compute).
                    bound = ws.ready + int(rs.sum()) + op.rounds * (lat1 + op.compute)
                else:
                    s = int(slots[i_plain])
                    i_plain += 1
                    e[3] = s
                    # Earliest this warp can run again: its queued
                    # transaction completes no sooner than slots + l - 1
                    # past its clock.
                    bound = ws.ready + s + lat1
                self._stalled[ws.warp_id] = (bound, uid)
            have = self._pending.get(uid)
            if have is None:
                self._pending[uid] = (unit, entries)
            else:
                have[1].extend(entries)

    # -- dispatch --------------------------------------------------------
    def _dispatch(
        self, groups: _GroupMap, by_id: dict[int, WarpState]
    ) -> tuple[list[WarpState], bool]:
        """Dispatch every provably-safe queue prefix.

        Returns the warps whose queued operation completed (now runnable
        again) plus a flag telling whether *any* transaction dispatched —
        a range can make progress (committing some rounds) without
        completing, which still counts against livelock detection.
        """
        if not self._pending:
            return [], False
        unstalled: list[WarpState] = []

        # Fast path: every live warp is parked on the same unit — flat
        # machines always, and HMM phases where all warps are in a global
        # round.  No outside bound exists; only self-interference (an
        # issuing warp's own next transaction) can limit the prefix.
        if len(self._pending) == 1:
            ((uid, (unit, entries)),) = self._pending.items()
            if len(entries) == self._live:
                entries.sort(key=lambda e: e[0])
                if any(len(e) != 4 for e in entries):
                    progressed = self._sim_dispatch(
                        unit, uid, entries, _INF, unstalled, None
                    )
                    return unstalled, progressed
                k = self._safe_prefix(unit, entries, _INF)
                if k:
                    batch = entries[:k]
                    del entries[:k]
                    if not entries:
                        del self._pending[uid]
                    self._issue(unit, uid, batch)
                    for e in batch:
                        del self._stalled[e[1].warp_id]
                        unstalled.append(e[1])
                return unstalled, bool(unstalled)

        # General path.  The bounds only tighten as dispatches raise warp
        # clocks, so compute them once per pass and update incrementally
        # (using a bound that has since risen is merely conservative).  A
        # dispatch can loosen the bound holding back another unit, so
        # sweep the units — in ascending order of their earliest queued
        # key, which resolves such cascades in a single pass — until a
        # pass dispatches nothing.
        bounds = self._future_bounds(groups, by_id)
        nw = self._nw
        stalled = self._stalled
        any_progress = False
        progress = True
        while progress and self._pending:
            progress = False
            # Warps in ascending bound order; the outside bound of a unit
            # is the first entry not parked on that same unit.
            order = sorted(bounds.items(), key=lambda kv: kv[1])
            for unit, entries in self._pending.values():
                entries.sort(key=lambda e: e[0])
            for uid, (unit, entries) in sorted(
                self._pending.items(), key=lambda kv: kv[1][1][0][0]
            ):
                outside = _INF
                for wid, b in order:
                    su = stalled.get(wid)
                    if su is None or su[1] != uid:
                        outside = b
                        break
                if any(len(e) != 4 for e in entries):
                    if self._sim_dispatch(
                        unit, uid, entries, outside, unstalled, bounds
                    ):
                        progress = True
                    continue
                k = self._safe_prefix(unit, entries, outside)
                if k == 0:
                    continue
                progress = True
                batch = entries[:k]
                del entries[:k]
                if not entries:
                    del self._pending[uid]
                self._issue(unit, uid, batch)
                for e in batch:
                    wid = e[1].warp_id
                    del stalled[wid]
                    bounds[wid] = e[1].ready * nw + wid
                    unstalled.append(e[1])
            if progress:
                any_progress = True
        return unstalled, any_progress

    def _future_bounds(
        self, groups: _GroupMap, by_id: dict[int, WarpState]
    ) -> dict[int, int]:
        """Encoded lower bound on any future dispatch key, per live warp.

        Runnable warps cannot issue below their current clock; a warp
        parked in a unit queue cannot issue anywhere else before its
        queued transaction completes (the bound cached in ``_stalled``).
        A warp blocked at a barrier resumes at the release time, which
        is at least the latest arrival so far and at least the earliest
        possible arrival of a member still under way — that member's own
        bound, including — when the member waits at *another* barrier —
        that barrier's release bound.  The group bounds feed each other
        (a DMM barrier can gate a device barrier's release), so they are
        iterated to a fixpoint.  The bound is optimistic only when a
        member exits without reaching the barrier — the dispatch-key
        monotonicity check catches that case and triggers the fallback.
        """
        nw = self._nw
        stalled = self._stalled
        t = {}
        for ws in by_id.values():
            if not ws.finished:
                wid = ws.warp_id
                su = stalled.get(wid)
                t[wid] = ws.ready if su is None else su[0]
        waiting_groups = [
            (g, g.members - g.waiting, max(g.arrivals.values()))
            for g in groups.values()
            if g.waiting
        ]
        for _ in range(len(waiting_groups) + 1):
            changed = False
            for group, unarrived, latest_arrival in waiting_groups:
                release_lb = latest_arrival
                if unarrived:
                    earliest = min(t[m] for m in unarrived)
                    if earliest > release_lb:
                        release_lb = earliest
                for wid in group.waiting:
                    if release_lb > t[wid]:
                        t[wid] = release_lb
                        changed = True
            if not changed:
                break
        return {wid: ti * nw + wid for wid, ti in t.items()}

    def _safe_prefix(
        self, unit: PipelinedMemoryUnit, entries: list[list], outside: int
    ) -> int:
        """Length of the longest dispatchable prefix of a sorted queue.

        Entry ``i`` is safe when its key is below every bound on keys
        that could still arrive before it: ``outside`` (other warps) and
        the running minimum of the tentative ``next_ready`` keys of
        entries ``0..i-1`` (the issuing warps' own next transactions).
        The tentative port scan is prefix-stable, so timings computed
        over the whole queue are exact for whichever prefix dispatches.
        """
        n = len(entries)
        last = self._last_enc.get(id(unit))
        if last is not None and entries[0][0] < last:
            self._monotonicity_violation(unit, entries[0])
        if n <= 8:
            # Scalar scan — per-DMM shared memories serve only a couple
            # of warps, where numpy setup would dominate.
            nw = self._nw
            lat = unit.latency
            pipelined = unit.pipelined
            pf = unit.port_free
            prev_min = _INF
            cap = prev_min if prev_min < outside else outside
            k = 0
            for e in entries:
                enc = e[0]
                if enc >= cap:
                    break
                ready, wid = divmod(enc, nw)
                slots = e[3]
                start = ready if ready > pf else pf
                pf = start + (slots if pipelined else slots + lat - 1)
                enc_nr = (start + slots + lat - 1) * nw + wid
                if enc_nr < prev_min:
                    prev_min = enc_nr
                    if prev_min < cap:
                        cap = prev_min
                k += 1
            return k
        enc = np.fromiter((e[0] for e in entries), dtype=np.int64, count=n)
        slots = np.fromiter((e[3] for e in entries), dtype=np.int64, count=n)
        if self._native is not None:
            PROCESS.inc("native.native_calls")
            return self._native["repro_safe_prefix"](
                n, enc, slots, self._nw, unit.latency,
                1 if unit.pipelined else 0, unit.port_free, outside,
            )
        ready = enc // self._nw
        wids = enc - ready * self._nw
        eff = slots if unit.pipelined else slots + (unit.latency - 1)
        csum = np.cumsum(eff)
        offset = np.maximum.accumulate(ready - (csum - eff))
        port_free = np.maximum(offset, unit.port_free) + csum
        next_ready = port_free - eff + slots + (unit.latency - 1)
        enc_nr = next_ready * self._nw + wids
        prev_min = np.empty(n, dtype=np.int64)
        prev_min[0] = _INF
        np.minimum.accumulate(enc_nr[:-1], out=prev_min[1:])
        safe = enc < np.minimum(prev_min, outside)
        if safe.all():
            return n
        return int(np.argmin(safe))

    @staticmethod
    def _monotonicity_violation(unit: PipelinedMemoryUnit, entry: list) -> None:
        raise BatchFallback(
            f"unit {unit.name!r}: transaction of warp {entry[1].warp_id} "
            f"ready at {entry[1].ready} arrives behind an already-dispatched "
            "one; wave order would diverge from event order"
        )

    def _issue(
        self, unit: PipelinedMemoryUnit, uid: int, batch: list[list]
    ) -> None:
        """Cost one safe prefix and apply its memory effects in key order.

        Consecutive runs of reads are served by a single fancy-indexed
        load (reads cannot observe each other); writes commit singly, so
        every transaction sees exactly the memory state the event engine
        would have given it.
        """
        n = len(batch)
        if n <= 8:
            for e in batch:
                op = e[2]
                e[1].ready = unit.issue_one(
                    e[1].ready,
                    e[3],
                    is_read=isinstance(op, ReadOp),
                    requests=op.num_requests,
                )
        else:
            ready = np.fromiter((e[1].ready for e in batch), dtype=np.int64, count=n)
            slots = np.fromiter((e[3] for e in batch), dtype=np.int64, count=n)
            num_reads = sum(1 for e in batch if e[2].kind is AccessKind.READ)
            num_requests = int(sum(e[2].num_requests for e in batch))
            next_ready = unit.issue_batch(
                ready, slots, num_reads=num_reads, num_requests=num_requests
            )
            for e, nr in zip(batch, next_ready):
                e[1].ready = int(nr)
        self._last_enc[uid] = int(batch[-1][0])

        run: list[tuple[WarpState, ReadOp]] = []
        for e in batch:
            op = e[2]
            if isinstance(op, ReadOp):
                run.append((e[1], op))
            else:
                assert isinstance(op, WriteOp)
                self._flush_reads(run)
                op.array.space.store(op.addresses, op.values)
        self._flush_reads(run)

    def _sim_dispatch(
        self,
        unit: PipelinedMemoryUnit,
        uid: int,
        entries: list[list],
        outside: int,
        unstalled: list[WarpState],
        bounds: dict[int, int] | None,
    ) -> bool:
        """Dispatch a queue containing fused ranges via integer replay.

        A range's rounds chain through the port (round ``j + 1`` issues
        only when round ``j``'s data has arrived), so their timing is not
        a prefix-stable scan like :meth:`_safe_prefix`'s.  Instead, every
        remaining round of every queued entry is replayed through a pure
        integer heap in exact event order, and the longest prefix of that
        replay that no future arrival can precede is committed: pops
        below ``outside`` (warps parked elsewhere) and below every queued
        warp's chain-exit key (a warp re-enqueues only after its current
        entry completes — so each replayed chain end bounds the keys
        later arrivals can carry).  Committed rounds update the port,
        statistics, and memory exactly as the event engine would; a
        partially-committed range is re-keyed at its next round and stays
        queued for a later wave.  Returns whether anything committed.
        """
        last = self._last_enc.get(uid)
        if last is not None and entries[0][0] < last:
            self._monotonicity_violation(unit, entries[0])
        n = len(entries)
        nw = self._nw
        if all(len(e) == 6 and e[4] == 0 for e in entries):
            e0 = entries[0]
            r0 = e0[0] // nw
            rounds = len(e0[3])
            comp = e0[2].compute
            if all(
                e[0] // nw == r0
                and len(e[3]) == rounds
                and e[2].compute == comp
                and e[2].kind is AccessKind.READ
                for e in entries
            ):
                return self._wave_dispatch(
                    unit, uid, entries, outside, unstalled, bounds, r0, comp
                )
        lat1 = unit.latency - 1
        pipelined = unit.pipelined
        pf = unit.port_free
        slists: list = [None] * n
        j0s = [0] * n
        cs = [0] * n
        wids = [0] * n
        for i, e in enumerate(entries):
            wids[i] = e[1].warp_id
            if len(e) == 4:
                slists[i] = (e[3],)
            else:
                slists[i] = e[3]
                j0s[i] = e[4]
                cs[i] = e[2].compute

        # Replay: pops come out in nondecreasing key order (a chained
        # round's key always exceeds the round that produced it).
        replayed = None
        if self._native is not None:
            total = sum(len(sl) - j0 for sl, j0 in zip(slists, j0s))
            nround = np.fromiter(
                (len(sl) for sl in slists), dtype=np.int64, count=n
            )
            slot_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(nround, out=slot_off[1:])
            slot_flat = np.fromiter(
                (s for sl in slists for s in sl),
                dtype=np.int64,
                count=int(slot_off[-1]),
            )
            out_enc = np.empty(total, dtype=np.int64)
            out_i = np.empty(total, dtype=np.int64)
            out_j = np.empty(total, dtype=np.int64)
            out_nxt = np.empty(total, dtype=np.int64)
            out_pf = np.empty(total, dtype=np.int64)
            out_final = np.zeros(n, dtype=np.int64)
            p = self._native["repro_batch_sim"](
                n,
                np.fromiter((e[0] for e in entries), dtype=np.int64, count=n),
                np.asarray(wids, dtype=np.int64),
                np.asarray(cs, dtype=np.int64),
                np.asarray(j0s, dtype=np.int64),
                nround,
                slot_off,
                slot_flat,
                nw,
                lat1,
                1 if pipelined else 0,
                pf,
                out_enc,
                out_i,
                out_j,
                out_nxt,
                out_pf,
                out_final,
            )
            if p >= 0:
                PROCESS.inc("native.native_calls")
                encs = out_enc[:p].tolist()
                pops = list(
                    zip(out_i[:p].tolist(), out_j[:p].tolist(),
                        out_nxt[:p].tolist())
                )
                pfs = out_pf[:p].tolist()
                finals = out_final.tolist()
                replayed = True
        if replayed is None:
            heap = [(e[0], i) for i, e in enumerate(entries)]  # sorted == heap
            pop = heapq.heappop
            push = heapq.heappush
            encs: list[int] = []
            pops: list[tuple[int, int, int]] = []  # (entry, round, clock)
            pfs: list[int] = []
            finals = [0] * n
            js = j0s[:]
            while heap:
                enc, i = pop(heap)
                j = js[i]
                s = slists[i][j]
                ready = enc // nw
                start = ready if ready > pf else pf
                pf = start + (s if pipelined else s + lat1)
                nxt = start + s + lat1 + cs[i]
                encs.append(enc)
                pops.append((i, j, nxt))
                pfs.append(pf)
                js[i] = j + 1
                if js[i] < len(slists[i]):
                    push(heap, (nxt * nw + wids[i], i))
                else:
                    finals[i] = nxt

        cap = outside
        for i in range(n):
            ek = finals[i] * nw + wids[i]
            if ek < cap:
                cap = ek
        k = bisect_left(encs, cap)
        if k == 0:
            return False

        # Statistics and per-entry commit counts, one integer pass.
        is_read = [e[2].kind is AccessKind.READ for e in entries]
        reqs = [
            e[2].lanes if isinstance(e[2], RangeOp) else e[2].num_requests
            for e in entries
        ]
        cnt = [0] * n
        clocks = [0] * n  # warp clock after its last committed round
        reads = req = slotsum = confl = excess = c_ops = c_cyc = 0
        for i, j, nxt in pops[:k]:
            s = slists[i][j]
            slotsum += s
            if s > 1:
                confl += 1
                excess += s - 1
            if is_read[i]:
                reads += 1
            req += reqs[i]
            cnt[i] += 1
            clocks[i] = nxt
            if cs[i]:
                c_ops += 1
                c_cyc += cs[i]
        st = unit.stats
        st.transactions += k
        st.reads += reads
        st.writes += k - reads
        st.requests += req
        st.slots += slotsum
        st.conflicted_transactions += confl
        st.excess_slots += excess
        busy = pfs[k - 1] - (0 if pipelined else lat1)
        if busy > st.port_busy_until:
            st.port_busy_until = busy
        i_last, _, nxt_last = pops[k - 1]
        last_complete = nxt_last - cs[i_last] - 1
        if last_complete > st.last_complete:
            st.last_complete = last_complete
        unit._port_free = pfs[k - 1]
        self._last_enc[uid] = encs[k - 1]
        self._extra_compute[0] += c_ops
        self._extra_compute[1] += c_cyc

        # Memory effects.  When no write committed, order is free: bulk
        # per entry (a 2-D fancy load serves all of a range's committed
        # rounds at once).  Otherwise replay the committed pops in order.
        if all(is_read[i] or not cnt[i] for i in range(n)):
            for i, e in enumerate(entries):
                if not cnt[i]:
                    continue
                op = e[2]
                space = op.array.space
                if len(e) == 4:
                    self._deliver(e[1], op, space.load(op.addresses))
                else:
                    j0 = j0s[i]
                    e[5][j0 : j0 + cnt[i]] = space.load(
                        op.addresses[j0 : j0 + cnt[i]]
                    )
        else:
            for i, j, _ in pops[:k]:
                e = entries[i]
                op = e[2]
                space = op.array.space
                if len(e) == 4:
                    if is_read[i]:
                        self._deliver(e[1], op, space.load(op.addresses))
                    else:
                        space.store(op.addresses, op.values)
                elif is_read[i]:
                    e[5][j] = space.load(op.addresses[j])
                else:
                    space.store(op.addresses[j], op.values[j])

        # Completion bookkeeping: finished entries release their warps;
        # partial ranges are re-keyed at their next round.
        stalled = self._stalled
        remaining: list[list] = []
        for i, e in enumerate(entries):
            ki = cnt[i]
            if ki and j0s[i] + ki == len(slists[i]):
                ws = e[1]
                ws.ready = finals[i]
                if len(e) == 6 and is_read[i]:
                    ws.pending_send = e[5]
                del stalled[ws.warp_id]
                if bounds is not None:
                    bounds[ws.warp_id] = ws.ready * nw + ws.warp_id
                unstalled.append(ws)
            elif ki:
                nj = j0s[i] + ki
                clock = clocks[i]
                e[4] = nj
                e[0] = clock * nw + wids[i]
                e[1].ready = clock
                rem = len(slists[i]) - nj
                bound = clock + sum(slists[i][nj:]) + rem * (lat1 + cs[i])
                stalled[wids[i]] = (bound, uid)
                if bounds is not None:
                    bounds[wids[i]] = bound * nw + wids[i]
                remaining.append(e)
            else:
                remaining.append(e)
        if remaining:
            entries[:] = remaining
        else:
            del self._pending[uid]
        return True

    def _wave_dispatch(
        self,
        unit: PipelinedMemoryUnit,
        uid: int,
        entries: list[list],
        outside: int,
        unstalled: list[WarpState],
        bounds: dict[int, int] | None,
        r0: int,
        comp: int,
    ) -> bool:
        """Vectorized :meth:`_sim_dispatch` for wave-synchronous ranges.

        When every queued entry is a fresh read range starting at the
        same clock with the same round count and per-round compute — the
        shape every symmetric kernel produces right after a barrier —
        event order provably proceeds *wave by wave*: round ``j`` of all
        warps in warp-id order, then round ``j + 1``.  (Within a wave the
        ready times are nondecreasing in warp id, and the first round
        ``j + 1`` ready exceeds the last round ``j`` ready because the
        port must serve the whole wave before the first warp's next
        transaction.)  Each wave's port arbitration ``start[i] =
        max(ready[i], start[i-1] + eff[i-1])`` is a prefix-maximum
        recurrence, so the whole replay is one ``maximum.accumulate``
        per wave instead of one Python heap pop per (warp, round).
        Commit rules, statistics, and effects match the scalar replay
        exactly.
        """
        n = len(entries)
        nw = self._nw
        lat1 = unit.latency - 1
        pipelined = unit.pipelined
        lag = lat1 + comp
        S = np.array([e[3] for e in entries], dtype=np.int64).T  # (rounds, n)
        R = S.shape[0]
        wids_a = np.fromiter(
            (e[1].warp_id for e in entries), dtype=np.int64, count=n
        )
        EFF = S if pipelined else S + lat1
        pf = unit.port_free
        uni = int(S[0, 0])
        if int(S.min()) == uni == int(S.max()):
            # Uniform slot counts (every round of every warp coalesces
            # the same way — the common symmetric sweep): the recurrence
            # solves in closed form.  Consecutive waves are ``X =
            # max(s + lag, n·eff)`` apart — whichever of round latency
            # (latency-bound) or port occupancy (bandwidth-bound) binds —
            # and within a wave warps queue ``eff`` apart on the port.
            eff_u = uni if pipelined else uni + lat1
            X = max(uni + lag, n * eff_u)
            STARTS = (
                max(r0, pf)
                + np.arange(n, dtype=np.int64) * eff_u
                + np.arange(R, dtype=np.int64)[:, None] * X
            )
            READY = np.empty((R, n), dtype=np.int64)
            READY[0] = r0
            if R > 1:
                np.add(STARTS[:-1], uni + lag, out=READY[1:])
            ready = STARTS[-1] + (uni + lag)
        elif self._native is not None:
            READY = np.empty((R, n), dtype=np.int64)
            STARTS = np.empty((R, n), dtype=np.int64)
            ready = np.empty(n, dtype=np.int64)
            self._native["repro_wave_starts"](
                R, n, np.ascontiguousarray(S), r0, pf, lat1,
                1 if pipelined else 0, lag, READY, STARTS, ready,
            )
            PROCESS.inc("native.native_calls")
        else:
            READY = np.empty((R, n), dtype=np.int64)
            STARTS = np.empty((R, n), dtype=np.int64)
            ready = np.full(n, r0, dtype=np.int64)
            for j in range(R):
                eff = EFF[j]
                cs_prev = np.cumsum(eff) - eff
                t = np.maximum.accumulate(ready - cs_prev)
                np.maximum(t, pf, out=t)
                READY[j] = ready
                starts = t + cs_prev
                STARTS[j] = starts
                ready = starts + S[j] + lag
                pf = int(starts[-1] + eff[-1])
        finals = ready  # next-ready after each chain's last round

        # Pops in event order are exactly the wave-major traversal, so
        # the commit prefix is a searchsorted over the flat key matrix.
        cap = min(outside, int(finals[0]) * nw + int(wids_a[0]))
        encs = (READY * nw + wids_a).ravel()
        k = int(np.searchsorted(encs, cap, side="left"))
        if k == 0:
            return False
        q, r = divmod(k, n)  # q full waves plus the first r of wave q

        committed = S.ravel()[:k]
        confl_mask = committed > 1
        confl = int(confl_mask.sum())
        lanes_v = np.fromiter(
            (e[2].lanes for e in entries), dtype=np.int64, count=n
        )
        st = unit.stats
        st.transactions += k
        st.reads += k
        st.requests += int(lanes_v.sum()) * q + int(lanes_v[:r].sum())
        st.slots += int(committed.sum())
        st.conflicted_transactions += confl
        st.excess_slots += int(committed[confl_mask].sum()) - confl
        jq, iq = divmod(k - 1, n)
        pf_last = int(STARTS[jq, iq] + EFF[jq, iq])
        busy = pf_last - (0 if pipelined else lat1)
        if busy > st.port_busy_until:
            st.port_busy_until = busy
        last_complete = int(STARTS[jq, iq] + S[jq, iq]) + lat1 - 1
        if last_complete > st.last_complete:
            st.last_complete = last_complete
        unit._port_free = pf_last
        self._last_enc[uid] = int(encs[k - 1])
        if comp:
            self._extra_compute[0] += k
            self._extra_compute[1] += k * comp

        stalled = self._stalled
        remaining: list[list] = []
        for i, e in enumerate(entries):
            ci = q + (1 if i < r else 0)
            if ci:
                op = e[2]
                e[5][:ci] = op.array.space.load(op.addresses[:ci])
            ws = e[1]
            if ci == R:
                ws.ready = int(finals[i])
                ws.pending_send = e[5]
                del stalled[ws.warp_id]
                if bounds is not None:
                    bounds[ws.warp_id] = ws.ready * nw + ws.warp_id
                unstalled.append(ws)
            elif ci:
                clock = int(READY[ci, i])  # == nxt of last committed round
                e[4] = ci
                e[0] = clock * nw + int(wids_a[i])
                ws.ready = clock
                bound = clock + int(S[ci:, i].sum()) + (R - ci) * lag
                stalled[ws.warp_id] = (bound, uid)
                if bounds is not None:
                    bounds[ws.warp_id] = bound * nw + ws.warp_id
                remaining.append(e)
            else:
                remaining.append(e)
        if remaining:
            entries[:] = remaining
        else:
            del self._pending[uid]
        return True

    @staticmethod
    def _flush_reads(run: list[tuple[WarpState, ReadOp]]) -> None:
        if not run:
            return
        space = run[0][1].array.space
        if len(run) == 1:
            ws, op = run[0]
            values = space.load(op.addresses)
            BatchCostEngine._deliver(ws, op, values)
        else:
            flat = space.load(np.concatenate([op.addresses for _, op in run]))
            offset = 0
            for ws, op in run:
                size = op.addresses.size
                BatchCostEngine._deliver(ws, op, flat[offset : offset + size])
                offset += size
        run.clear()

    @staticmethod
    def _deliver(ws: WarpState, op: ReadOp, values: np.ndarray) -> None:
        if values.size == ws.ctx.num_lanes:
            # Every lane participated: the loaded vector already is the
            # full-width result (masked positions would shrink it).
            ws.pending_send = values
            return
        out = np.zeros(ws.ctx.num_lanes, dtype=np.float64)
        assert op.result_mask is not None
        out[op.result_mask] = values
        ws.pending_send = out

    # -- generator stepping ----------------------------------------------
    @staticmethod
    def _advance(ws: WarpState) -> Op | None:
        send, ws.pending_send = ws.pending_send, None
        try:
            if send is None:
                return next(ws.program)
            return ws.program.send(send)
        except StopIteration:
            return None

    # -- barriers (same group semantics as the event scheduler) -----------
    @staticmethod
    def _build_barrier_groups(warps: list[WarpState]) -> _GroupMap:
        groups: _GroupMap = {}
        all_ids = {ws.warp_id for ws in warps}
        groups[(BarrierScope.DEVICE, 0)] = _BarrierGroup(all_ids)
        by_dmm: dict[int, set[int]] = {}
        for ws in warps:
            by_dmm.setdefault(ws.ctx.dmm_id, set()).add(ws.warp_id)
        for dmm_id, members in by_dmm.items():
            groups[(BarrierScope.DMM, dmm_id)] = _BarrierGroup(members)
        return groups

    def _arrive(
        self,
        ws: WarpState,
        op: BarrierOp,
        groups: _GroupMap,
        by_id: dict[int, WarpState],
        released: list[int],
    ) -> int:
        if op.scope is BarrierScope.DEVICE:
            key = (BarrierScope.DEVICE, 0)
        else:
            key = (BarrierScope.DMM, ws.ctx.dmm_id)
        group = groups[key]
        group.waiting.add(ws.warp_id)
        group.arrivals[ws.warp_id] = ws.ready
        group.seq[ws.warp_id] = ws.barrier_seq.get(op.scope, 0)
        return self._maybe_release(group, op.scope, by_id, released)

    def _retire(
        self,
        ws: WarpState,
        groups: _GroupMap,
        by_id: dict[int, WarpState],
        released: list[int],
    ) -> int:
        """A finished warp leaves its barrier groups; maybe releases them."""
        count = 0
        for (scope, _), group in groups.items():
            if ws.warp_id in group.members:
                group.members.discard(ws.warp_id)
                group.waiting.discard(ws.warp_id)
                group.arrivals.pop(ws.warp_id, None)
                group.seq.pop(ws.warp_id, None)
                count += self._maybe_release(group, scope, by_id, released)
        return count

    @staticmethod
    def _maybe_release(
        group: _BarrierGroup,
        scope: BarrierScope,
        by_id: dict[int, WarpState],
        released: list[int],
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
            released.append(wid)
        group.waiting.clear()
        group.arrivals.clear()
        group.seq.clear()
        return 1
