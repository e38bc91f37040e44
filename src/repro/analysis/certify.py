"""Machine-checked obliviousness / conflict-freedom certificates.

The tuner's ``certificate: "conflict-free"`` early exit rests on two
claims about a kernel:

1. **Obliviousness** — its access stream (the sequence of transactions,
   their addresses, lane masks and barriers) does not depend on the
   values stored in memory; and
2. **Conflict-freedom** — no unit ever issued an *avoidable* conflicted
   transaction: every transaction of ``m`` distinct addresses costs the
   floor ``ceil(m / w)`` pipeline slots (``w`` distinct banks per slot
   on the DMM, one address group per slot on the UMM).

This module turns both claims into a trace-level *proof obligation* the
machine checks, instead of a property the kernel author asserts:
:func:`certify_launch` runs the kernel on the event engine under a
:class:`~repro.machine.trace.TraceRecorder` for several distinct random
inputs, digests each run's access stream with :func:`trace_signature`,
and audits every recorded transaction against the slot floor with
:func:`conflict_violations`.  A :class:`CertificateReport` is
``certified`` only when all signatures are byte-identical *and* the
avoidable excess is zero.

Obliviousness here is a cross-input property of a kernel.  Replay
needs less and checks it per launch: a capture is stored only when no
two warps race on an address inside a barrier epoch
(:meth:`repro.machine.replay.CompiledTrace.race_free`), because the
launch key already pins the input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.trace import TraceRecorder

__all__ = [
    "CertificateReport",
    "ConflictViolation",
    "certify_launch",
    "conflict_violations",
    "trace_signature",
]

#: Seed namespace for the certificate input draws (the paper's date).
_SEED = 20130520


@dataclass(frozen=True)
class ConflictViolation:
    """One transaction that cost more slots than its address floor."""

    unit: str
    index: int
    kind: str
    slots: int
    min_slots: int
    num_addresses: int

    @property
    def excess(self) -> int:
        return self.slots - self.min_slots

    def describe(self) -> str:
        return (
            f"{self.unit} transaction #{self.index} ({self.kind}): "
            f"{self.num_addresses} addresses cost {self.slots} slots "
            f"(floor {self.min_slots}, avoidable excess {self.excess})"
        )


@dataclass(frozen=True)
class CertificateReport:
    """The checker's verdict over ``runs`` distinct random inputs."""

    #: Access streams byte-identical across every input.
    oblivious: bool
    #: Zero avoidable conflicted transactions in every run.
    conflict_free: bool
    runs: int
    transactions: int
    avoidable_excess_slots: int
    #: One structural digest per run (all equal iff ``oblivious``).
    signatures: tuple[str, ...]
    violations: tuple[ConflictViolation, ...]

    @property
    def certified(self) -> bool:
        """Both proof obligations discharged."""
        return self.oblivious and self.conflict_free

    def describe(self) -> str:
        lines = [
            f"certificate over {self.runs} random inputs, "
            f"{self.transactions} transactions/run:",
            f"  oblivious:     {'yes' if self.oblivious else 'NO'}"
            f" ({len(set(self.signatures))} distinct access streams)",
            f"  conflict-free: {'yes' if self.conflict_free else 'NO'}"
            f" (avoidable excess {self.avoidable_excess_slots} slots)",
        ]
        for v in self.violations[:8]:
            lines.append(f"    {v.describe()}")
        if len(self.violations) > 8:
            lines.append(f"    ... {len(self.violations) - 8} more")
        lines.append(
            f"  verdict: {'CERTIFIED' if self.certified else 'REFUSED'}")
        return "\n".join(lines)


def trace_signature(trace: TraceRecorder) -> str:
    """Structural digest of a recorded access stream.

    Covers, per transaction: the issuing warp, its DMM, the unit,
    read/write kind, request count and the exact (distinct, sorted)
    addresses — plus the scope of every barrier the warp arrives at.
    Each warp's transactions and barrier arrivals are digested in that
    warp's program order, *not* in global dispatch order: the
    cross-warp interleaving (and so the order of barrier releases) is a
    scheduling artifact that shifts with the latency and the dispatch
    policy, while each warp's own stream is what the kernel determines.
    Timing and slot counts are likewise excluded — they are derived
    from the addresses by the policy.  A signature over the causes
    rather than the costs is what makes "identical streams" mean
    identical re-pricing under any latency, policy or dispatch order.
    """
    per_warp: dict[int, hashlib._Hash] = {}

    def digest(warp_id: int) -> "hashlib._Hash":
        h = per_warp.get(warp_id)
        if h is None:
            h = per_warp[warp_id] = hashlib.sha256()
        return h

    arrivals = iter(trace.arrivals)
    arrival = next(arrivals, None)
    for i, rec in enumerate(trace.records):
        # Arrivals recorded before transaction i precede it.
        while arrival is not None and arrival[2] <= i:
            digest(arrival[0]).update(f"B:{arrival[1].value};".encode())
            arrival = next(arrivals, None)
        h = digest(rec.warp_id)
        h.update(
            f"T:{rec.dmm_id}:{rec.unit}:{rec.kind.value}:"
            f"{rec.num_requests}:".encode()
        )
        h.update(np.ascontiguousarray(rec.addresses,
                                      dtype=np.int64).tobytes())
        h.update(b";")
    while arrival is not None:
        digest(arrival[0]).update(f"B:{arrival[1].value};".encode())
        arrival = next(arrivals, None)
    top = hashlib.sha256()
    for warp_id in sorted(per_warp):
        top.update(f"W:{warp_id}:".encode())
        top.update(per_warp[warp_id].digest())
    return top.hexdigest()


def conflict_violations(
    trace: TraceRecorder, width: int,
) -> tuple[int, list[ConflictViolation]]:
    """Audit every transaction against the ``ceil(m/w)`` slot floor.

    Returns ``(total avoidable excess, violations)``.  A transaction of
    ``m`` distinct addresses can always be laid out to cost
    ``ceil(m/w)`` slots (``w`` distinct banks, or one group, per slot);
    anything above that is an avoidable conflict.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    excess = 0
    out: list[ConflictViolation] = []
    for idx, rec in enumerate(trace.records):
        m = int(rec.addresses.size)
        floor = -(-m // width) if m else 0
        if rec.slots > floor:
            excess += rec.slots - floor
            out.append(ConflictViolation(
                unit=rec.unit, index=idx, kind=rec.kind.value,
                slots=int(rec.slots), min_slots=floor, num_addresses=m,
            ))
    return excess, out


def certify_launch(
    run: Callable[[np.random.Generator, TraceRecorder], object],
    *,
    width: int,
    runs: int = 3,
    seed: int = _SEED,
    max_transactions: int | None = 1 << 20,
) -> CertificateReport:
    """Certify one launch: identical access streams, zero avoidable
    conflicts.

    ``run(rng, trace)`` must build a **fresh** event-mode engine, draw
    all input data from ``rng``, and execute the launch with ``trace``
    attached.  The checker calls it ``runs`` times with independently
    seeded generators; the launch shape must stay fixed while the data
    varies — the obliviousness contract a tuner certificate claims
    for every input of the shape.

    ``width`` is the machine width the slot floor is computed against
    (for the HMM, shared and global units share one ``w``).
    """
    if runs < 2:
        raise ConfigurationError(
            f"obliviousness needs >= 2 distinct inputs, got runs={runs}")
    signatures: list[str] = []
    transactions = 0
    total_excess = 0
    violations: list[ConflictViolation] = []
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        trace = TraceRecorder(max_transactions=max_transactions)
        run(rng, trace)
        signatures.append(trace_signature(trace))
        if r == 0:
            transactions = len(trace.records)
        excess, viol = conflict_violations(trace, width)
        total_excess += excess
        if r == 0:
            violations = viol
    return CertificateReport(
        oblivious=len(set(signatures)) == 1,
        conflict_free=total_excess == 0,
        runs=runs,
        transactions=transactions,
        avoidable_excess_slots=total_excess,
        signatures=tuple(signatures),
        violations=tuple(violations),
    )
