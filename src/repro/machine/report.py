"""Run reports: what a kernel launch cost.

The central quantity of the paper is the number of *time units* a
computation takes on a model; :class:`RunReport` carries that number
(:attr:`RunReport.cycles`) together with the per-memory-unit statistics
needed by the analysis layer (transaction counts, pipeline slots, conflict
counts) and basic launch metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.pipeline import UnitStats

__all__ = ["RunReport"]


@dataclass(frozen=True)
class RunReport:
    """Outcome of one kernel launch on a simulated machine.

    Attributes
    ----------
    cycles:
        Elapsed time units (the model's makespan).
    num_threads:
        Threads launched (``p``).
    num_warps:
        Warps launched (``ceil(p / w)`` per DMM, summed).
    unit_stats:
        Per-memory-unit statistics, keyed by unit name (``"mem"`` on a
        flat machine; ``"global"`` and ``"shared[i]"`` on an HMM).
    compute_ops:
        Warp-level compute operations dispatched.
    compute_cycles:
        Total compute time units charged across warps (work, not span).
    barrier_releases:
        Number of barrier synchronizations performed.
    label:
        Optional kernel name for display.
    engine:
        Which evaluation engine produced the numbers: ``"event"`` (the
        discrete-event scheduler), ``"batch"`` (the vectorized fast
        path), ``"batch-fallback"`` (batch mode was requested but the
        run was re-evaluated on the event engine — identical numbers,
        no speedup), ``"replay"`` (re-costed from a stored compiled
        trace without executing the kernel), ``"replay-capture"``
        (replay mode missed the trace store; this event run captured
        the trace for future replays), or ``"replay-refused"`` (replay
        mode declined — a racy capture, an unkeyable program or a
        capture over the cap — and the numbers are an event run's).
        See ``docs/PERFORMANCE.md``.
    """

    cycles: int
    num_threads: int
    num_warps: int
    unit_stats: dict[str, UnitStats] = field(default_factory=dict)
    compute_ops: int = 0
    compute_cycles: int = 0
    barrier_releases: int = 0
    label: str = ""
    engine: str = "event"

    # -- aggregate helpers --------------------------------------------------
    def total_transactions(self) -> int:
        """Memory transactions across all units."""
        return sum(s.transactions for s in self.unit_stats.values())

    def total_requests(self) -> int:
        """Individual thread memory requests across all units."""
        return sum(s.requests for s in self.unit_stats.values())

    def total_slots(self) -> int:
        """Pipeline slots consumed across all units."""
        return sum(s.slots for s in self.unit_stats.values())

    def conflict_free(self) -> bool:
        """True when no transaction took more than one pipeline slot."""
        return all(s.excess_slots == 0 for s in self.unit_stats.values())

    def stats_for(self, unit: str) -> UnitStats:
        """Statistics of one memory unit (KeyError if absent)."""
        return self.unit_stats[unit]

    def global_stats(self) -> UnitStats:
        """Statistics of the global-memory unit (HMM) or sole unit (flat)."""
        if "global" in self.unit_stats:
            return self.unit_stats["global"]
        if len(self.unit_stats) == 1:
            return next(iter(self.unit_stats.values()))
        raise KeyError("no unambiguous global unit in this report")

    def shared_stats(self) -> UnitStats:
        """Aggregated statistics over all shared-memory units."""
        merged = UnitStats()
        for name, stats in self.unit_stats.items():
            if name.startswith("shared"):
                merged = merged.merge(stats)
        return merged

    def summary(self) -> str:
        """Multi-line human-readable account of the run."""
        lines = [
            f"kernel {self.label or '<anonymous>'}: {self.cycles} time units, "
            f"{self.num_threads} threads in {self.num_warps} warps",
            f"  compute: {self.compute_ops} warp ops, "
            f"{self.compute_cycles} thread time units; "
            f"barriers: {self.barrier_releases}",
        ]
        for name in sorted(self.unit_stats):
            s = self.unit_stats[name]
            lines.append(
                f"  unit {name}: {s.transactions} transactions "
                f"({s.reads} R / {s.writes} W), {s.requests} requests, "
                f"{s.slots} slots, {s.conflicted_transactions} conflicted"
            )
        return "\n".join(lines)
