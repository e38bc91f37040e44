"""Single-machine engine: a flat DMM or UMM.

A :class:`MachineEngine` owns one memory space served by one pipelined
memory unit, and launches warp programs on it.  Instantiated with the
bank-conflict policy it *is* the paper's DMM; with the address-group
policy it is the UMM.  The user-facing wrappers live in
:mod:`repro.core.machines`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SpaceMismatchError
from repro.machine.batch import BatchCostEngine, BatchFallback
from repro.machine.memory import ArrayHandle, MemorySpace, attempt_with_rollback
from repro.machine.ops import MemoryOp
from repro.machine.pipeline import PipelinedMemoryUnit
from repro.machine.policy import SlotPolicy
from repro.machine.replay import price_trace, replay_launch
from repro.machine.report import RunReport
from repro.machine.scheduler import Scheduler, WarpState
from repro.machine.trace import TraceRecorder
from repro.machine.warp import WarpContext, WarpProgram
from repro.native import resolve_backend
from repro.params import MachineParams

__all__ = [
    "MachineEngine",
    "launch_grid",
    "make_warp_contexts",
    "reprice",
    "resolve_mode",
    "run_launch",
]

_MODES = ("event", "batch", "replay")


def resolve_mode(mode: str) -> str:
    """Validate an engine evaluation mode.

    ``"event"`` is the exact discrete-event scheduler, ``"batch"`` the
    vectorized fast path with automatic fallback, ``"replay"`` the
    trace-compiled path: capture each launch shape once, re-cost it for
    any latency/policy from the stored trace
    (:mod:`repro.machine.replay`).
    """
    if mode not in _MODES:
        raise ConfigurationError(
            f"mode must be one of {_MODES}, got {mode!r}"
        )
    return mode


def run_launch(
    engine,
    program: WarpProgram,
    contexts: list[WarpContext],
    num_threads: int,
    *,
    mode: str | None,
    trace: TraceRecorder | None,
    label: str,
) -> RunReport:
    """Evaluate one launch of ``program`` on ``engine`` and report its cost.

    The one launch path of :class:`MachineEngine` and
    :class:`~repro.machine.hmm.HMMEngine`, which differ only in their
    ``units`` / ``spaces`` and thread partition (``contexts``).
    ``mode=None`` takes the engine's default.  The units restart from
    time unit 0, then the evaluator is picked:

    * ``mode="replay"`` without a recorder → :func:`replay_launch`:
      a trace-store hit (tag ``"replay"``) or a race-free capture
      (``"replay-capture"``), both priced from their trace with the
      units untouched, or a refusal (``"replay-refused"``: a racy,
      overflowed or failed capture rolls back, and the launch runs on
      the event scheduler, as does an unkeyable program);
    * ``mode="batch"`` without a recorder under FIFO dispatch →
      :class:`BatchCostEngine` (``"batch"``); on :class:`BatchFallback`
      memory and units roll back and the launch runs on the event
      scheduler (``"batch-fallback"``);
    * anything else → the event scheduler (``"event"``).

    Each attempt instantiates fresh generators from ``program``, so a
    launch finished by the event scheduler is exact.  The report lists
    the first unit always and the others only when they saw traffic.
    A replay hit or stored capture leaves its trace on the engine for
    :func:`reprice`.
    """
    mode = engine.mode if mode is None else resolve_mode(mode)

    def warps() -> list[WarpState]:
        return [WarpState(ctx=ctx, program=program(ctx)) for ctx in contexts]

    units = engine.units
    for unit in units:
        unit.reset()
    engine._replayed = None
    result = stats = replayed = None
    tag = "event"
    if trace is None and mode == "replay":
        result, stats, tag, replayed = replay_launch(program, contexts, engine)
    elif trace is None and mode == "batch" and engine.dispatch == "fifo":
        batch = BatchCostEngine(engine._unit_for, backend=engine.backend)
        result = attempt_with_rollback(
            lambda: batch.run(warps()), BatchFallback, engine.spaces, units
        )
        tag = "batch" if result is not None else "batch-fallback"
    if result is None:
        result = Scheduler(
            engine._unit_for, trace=trace, dispatch=engine.dispatch
        ).run(warps())
    if stats is None:
        stats = {unit.name: unit.stats for unit in units}
    report = _report(units, result, stats, num_threads=num_threads,
                     num_warps=len(contexts), label=label, engine=tag)
    if replayed is not None:
        engine._replayed = (replayed, report)
    return report


def reprice(engine, latency: int) -> RunReport | None:
    """The engine's last launch priced with ``units[0]`` at ``latency``.

    ``units[0]`` is the flat machine's unit or the HMM's global unit;
    the other units keep their latency, and every unit its policy and
    pipelining.  The launch must have been a replay hit or a capture
    the trace store kept: its trace is priced again, which is what
    a replay launch at ``latency`` would do after keying the launch
    and finding that trace, so the report (tag ``"replay"``) is
    bit-identical to an event run at ``latency``.  Reads no memory and
    changes no unit.  ``None`` after an event, batch or refused
    launch.
    """
    if latency < 1:
        raise ConfigurationError(f"latency must be >= 1, got {latency}")
    if engine._replayed is None:
        return None
    trace, report = engine._replayed
    units = engine.units
    result, stats = price_trace(
        trace, engine, [latency, *(unit.latency for unit in units[1:])])
    return _report(units, result, stats, num_threads=report.num_threads,
                   num_warps=report.num_warps, label=report.label,
                   engine="replay")


def launch_grid(launch, lats) -> list[tuple[object, RunReport]]:
    """``(output, report)`` of one launch shape at each latency of ``lats``.

    ``launch(l)`` builds a fresh engine at latency ``l``, makes one
    launch on it and returns ``(output, report, engine)``; ``engine``
    is ``None`` for a machine :func:`reprice` cannot price.  Equal to
    one ``launch`` per latency: a launch that replay priced from a
    stored trace, or captured into the store, is re-priced at the next
    latency instead of being built, keyed and looked up again; any
    other launch (event, batch, refused) is followed by a full launch
    at the next latency.  A re-priced latency reports the output of
    the launch it re-prices.
    """
    runs = []
    engine = None
    for l in lats:
        report = None if engine is None else reprice(engine, l)
        if report is None:
            out, report, engine = launch(l)
        runs.append((out, report))
    return runs


def _report(units, result, stats, **meta) -> RunReport:
    """A launch's report: the first unit always, the others when they
    saw traffic; ``meta`` holds the launch fields and the engine tag."""
    first = units[0].name
    return RunReport(
        cycles=result.cycles,
        unit_stats={
            name: st for name, st in stats.items()
            if name == first or st.transactions
        },
        compute_ops=result.compute_ops,
        compute_cycles=result.compute_cycles,
        barrier_releases=result.barrier_releases,
        **meta,
    )


def make_warp_contexts(
    num_threads: int,
    width: int,
    *,
    dmm_id: int = 0,
    first_warp_id: int = 0,
    first_tid: int = 0,
    total_threads: int | None = None,
) -> list[WarpContext]:
    """Partition ``num_threads`` threads into warps of ``width``.

    Threads ``first_tid .. first_tid + num_threads`` are split into
    consecutive warps; the last warp may be partial.  This implements the
    paper's warp partition ``W(j) = { T(j·w), ..., T((j+1)·w - 1) }``.
    """
    if num_threads < 1:
        raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
    total = total_threads if total_threads is not None else num_threads
    contexts = []
    num_warps = -(-num_threads // width)
    for j in range(num_warps):
        lo = j * width
        hi = min(lo + width, num_threads)
        local = np.arange(lo, hi, dtype=np.int64)
        contexts.append(
            WarpContext(
                warp_id=first_warp_id + j,
                dmm_id=dmm_id,
                warp_in_dmm=j,
                width=width,
                tids=first_tid + local,
                local_tids=local,
                num_threads=total,
                threads_in_dmm=num_threads,
            )
        )
    return contexts


class MachineEngine:
    """A flat memory machine: one address space, one pipelined unit.

    Parameters
    ----------
    params:
        Width and latency of the machine.
    policy:
        Slot policy — bank conflicts (DMM) or address groups (UMM).
    name:
        Display name for reports.
    pipelined:
        Pass ``False`` for the no-pipelining ablation.
    mode:
        Default evaluation mode for launches: ``"event"`` (exact
        discrete-event scheduling), ``"batch"`` (vectorized fast path
        with automatic fallback — see :mod:`repro.machine.batch`), or
        ``"replay"`` (trace-compiled re-costing — see
        :mod:`repro.machine.replay`).
    backend:
        Cost-model backend for batch/replay launches: ``"python"``,
        ``"native"`` (compiled kernels — see :mod:`repro.native`), or
        ``None`` to defer to ``$REPRO_BACKEND``.  Event-mode launches
        always run the pure-Python scheduler.
    """

    #: Machine kind in replay launch keys.
    kind = "flat"

    def __init__(
        self,
        params: MachineParams,
        policy: SlotPolicy,
        *,
        name: str = "machine",
        pipelined: bool = True,
        dispatch: str = "fifo",
        mode: str = "event",
        backend: str | None = None,
    ) -> None:
        self.params = params
        self.name = name
        #: Warp dispatch policy: "fifo" (default) or "round-robin".
        self.dispatch = dispatch
        #: Default evaluation mode: "event", "batch" or "replay".
        self.mode = resolve_mode(mode)
        #: Cost-model backend: "python" or "native".
        self.backend = resolve_backend(backend)
        self.space = MemorySpace("mem")
        self.unit = PipelinedMemoryUnit(
            "mem", params.width, params.latency, policy, pipelined=pipelined
        )
        #: The spaces and units a launch touches (see :func:`run_launch`).
        self.spaces = [self.space]
        self.units = [self.unit]
        #: ``(trace, report)`` of the last launch :func:`reprice` can
        #: price again, else ``None``.
        self._replayed = None

    # -- memory management -----------------------------------------------
    def alloc(self, size: int, name: str = "") -> ArrayHandle:
        """Allocate an array aligned to the machine width.

        Width alignment makes element ``i`` fall in bank ``i mod w`` /
        group ``i div w``, the layout all of the paper's algorithms
        assume.
        """
        return self.space.alloc_aligned(size, self.params.width, name)

    def array_from(self, values: np.ndarray | list, name: str = "") -> ArrayHandle:
        """Allocate and host-initialize an array in one step."""
        vals = np.asarray(values, dtype=np.float64).ravel()
        handle = self.alloc(vals.size, name)
        handle.set(vals)
        return handle

    # -- execution ----------------------------------------------------------
    def launch(
        self,
        program: WarpProgram,
        num_threads: int,
        *,
        trace: TraceRecorder | None = None,
        label: str = "",
        mode: str | None = None,
    ) -> RunReport:
        """Run ``program`` with ``num_threads`` threads; return the cost.

        Each warp gets its own instance of the generator.  Memory values
        persist across launches (device memory), while pipeline timing
        restarts from time unit 0.  ``mode`` overrides the engine's
        default evaluation mode for this launch.
        """
        return run_launch(
            self,
            program,
            make_warp_contexts(num_threads, self.params.width),
            num_threads,
            mode=mode,
            trace=trace,
            label=label or self.name,
        )

    # -- internals -----------------------------------------------------------
    def _unit_for(self, ws: WarpState, op: MemoryOp) -> PipelinedMemoryUnit:
        if op.array.space is not self.space:
            raise SpaceMismatchError(
                f"array {op.array.describe()} does not live in machine "
                f"{self.name!r}'s memory"
            )
        return self.unit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MachineEngine({self.name!r}, w={self.params.width}, "
            f"l={self.params.latency}, policy={self.unit.policy.name})"
        )
