"""The hierarchical engine: ``d`` DMMs plus one UMM (paper Section III).

An :class:`HMMEngine` owns

* one **global** memory space served by a pipelined unit with the
  address-group (coalescing) policy and latency ``l`` — the UMM, and
* ``d`` **shared** memory spaces, each served by its own pipelined unit
  with the bank-conflict policy and latency 1 — the DMMs.

Threads are partitioned into contiguous per-DMM blocks (``DMM(i)`` runs
threads ``T(0) .. T(p_i - 1)`` locally); every warp can access the global
memory, whose single pipeline serializes transactions from all DMMs,
while each DMM's shared memory serves only its own warps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, SpaceMismatchError
from repro.machine.engine import make_warp_contexts, resolve_mode, run_launch
from repro.machine.memory import ArrayHandle, MemorySpace
from repro.machine.ops import MemoryOp
from repro.machine.pipeline import PipelinedMemoryUnit
from repro.machine.policy import DMMBankPolicy, SlotPolicy, UMMGroupPolicy
from repro.machine.report import RunReport
from repro.machine.scheduler import WarpState
from repro.machine.trace import TraceRecorder
from repro.machine.warp import WarpContext, WarpProgram
from repro.native import resolve_backend
from repro.params import HMMParams

__all__ = ["HMMEngine", "split_threads"]


def split_threads(num_threads: int, num_dmms: int) -> list[int]:
    """Even contiguous partition of ``p`` threads over ``d`` DMMs.

    The first ``p mod d`` DMMs receive one extra thread.  DMMs whose
    share is zero run no warps (small launches may use fewer DMMs).
    """
    if num_threads < 1:
        raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
    base, extra = divmod(num_threads, num_dmms)
    return [base + (1 if i < extra else 0) for i in range(num_dmms)]


class HMMEngine:
    """The Hierarchical Memory Machine simulator.

    Parameters
    ----------
    params:
        Shape of the machine (``d``, ``w``, latencies).
    pipelined:
        Pass ``False`` for the no-pipelining ablation (all units).
    global_policy / shared_policy:
        Injectable slot policies, used by policy-ablation benchmarks;
        default to the paper's UMM / DMM rules.
    mode:
        Default evaluation mode for launches: ``"event"`` (exact
        discrete-event scheduling), ``"batch"`` (vectorized fast path
        with automatic fallback — see :mod:`repro.machine.batch`), or
        ``"replay"`` (trace-compiled re-costing — see
        :mod:`repro.machine.replay`).
    backend:
        Cost-model backend for batch/replay launches: ``"python"``,
        ``"native"`` (compiled kernels — see :mod:`repro.native`), or
        ``None`` to defer to ``$REPRO_BACKEND``.
    """

    #: Machine kind in replay launch keys.
    kind = "hmm"

    def __init__(
        self,
        params: HMMParams,
        *,
        pipelined: bool = True,
        global_policy: SlotPolicy | None = None,
        shared_policy: SlotPolicy | None = None,
        dispatch: str = "fifo",
        mode: str = "event",
        backend: str | None = None,
    ) -> None:
        self.params = params
        #: Warp dispatch policy: "fifo" (default) or "round-robin".
        self.dispatch = dispatch
        #: Default evaluation mode: "event", "batch" or "replay".
        self.mode = resolve_mode(mode)
        #: Cost-model backend: "python" or "native".
        self.backend = resolve_backend(backend)
        self.global_space = MemorySpace("global", space_id="global")
        self.global_unit = PipelinedMemoryUnit(
            "global",
            params.width,
            params.global_latency,
            global_policy if global_policy is not None else UMMGroupPolicy(),
            pipelined=pipelined,
        )
        self.shared_spaces: list[MemorySpace] = []
        self.shared_units: list[PipelinedMemoryUnit] = []
        shared_pol = shared_policy if shared_policy is not None else DMMBankPolicy()
        for i in range(params.num_dmms):
            self.shared_spaces.append(
                MemorySpace(f"shared[{i}]", capacity=1 << 22, space_id=("shared", i))
            )
            self.shared_units.append(
                PipelinedMemoryUnit(
                    f"shared[{i}]",
                    params.width,
                    params.shared_latency,
                    shared_pol,
                    pipelined=pipelined,
                )
            )
        #: The spaces and units a launch touches (see :func:`run_launch`);
        #: the global unit comes first and is always reported.
        self.spaces = [self.global_space, *self.shared_spaces]
        self.units = [self.global_unit, *self.shared_units]
        #: ``(trace, report)`` of the last launch
        #: :func:`~repro.machine.engine.reprice` can price again.
        self._replayed = None
        self._space_to_unit: dict[int, PipelinedMemoryUnit] = {
            id(self.global_space): self.global_unit,
            **{id(s): u for s, u in zip(self.shared_spaces, self.shared_units)},
        }
        self._shared_index: dict[int, int] = {
            id(s): i for i, s in enumerate(self.shared_spaces)
        }

    # -- memory management ---------------------------------------------------
    def alloc_global(self, size: int, name: str = "") -> ArrayHandle:
        """Allocate a width-aligned array in the global memory."""
        return self.global_space.alloc_aligned(size, self.params.width, name)

    def alloc_shared(self, dmm_id: int, size: int, name: str = "") -> ArrayHandle:
        """Allocate a width-aligned array in ``DMM(dmm_id)``'s shared memory."""
        return self.shared_spaces[dmm_id].alloc_aligned(size, self.params.width, name)

    def alloc_shared_all(self, size: int, name: str = "") -> list[ArrayHandle]:
        """Allocate one same-shape shared array per DMM.

        The handles occupy the same offsets in every shared space, so a
        kernel can index ``arrays[warp.dmm_id]`` uniformly — the model's
        analogue of a CUDA ``__shared__`` declaration.
        """
        return [
            self.alloc_shared(i, size, f"{name}[{i}]" if name else "")
            for i in range(self.params.num_dmms)
        ]

    def global_from(self, values: np.ndarray | list, name: str = "") -> ArrayHandle:
        """Allocate and host-initialize a global array in one step."""
        vals = np.asarray(values, dtype=np.float64).ravel()
        handle = self.alloc_global(vals.size, name)
        handle.set(vals)
        return handle

    # -- execution ---------------------------------------------------------------
    def launch(
        self,
        program: WarpProgram,
        num_threads: int,
        *,
        threads_per_dmm: Sequence[int] | None = None,
        trace: TraceRecorder | None = None,
        label: str = "",
        mode: str | None = None,
    ) -> RunReport:
        """Run ``program`` with ``num_threads`` threads across the DMMs.

        Threads are partitioned into contiguous blocks, one per DMM
        (evenly by default, or per ``threads_per_dmm``); every block is
        split into warps of ``w``.  Memory values persist across
        launches; pipeline timing restarts at 0.  ``mode`` overrides the
        engine's default evaluation mode for this launch.
        """
        if threads_per_dmm is None:
            shares = split_threads(num_threads, self.params.num_dmms)
        else:
            shares = list(threads_per_dmm)
            if len(shares) != self.params.num_dmms:
                raise ConfigurationError(
                    f"threads_per_dmm must list {self.params.num_dmms} "
                    f"entries, got {len(shares)}"
                )
            if sum(shares) != num_threads:
                raise ConfigurationError(
                    f"threads_per_dmm sums to {sum(shares)}, expected "
                    f"{num_threads}"
                )
        cap = self.params.max_threads_per_dmm
        if cap is not None and max(shares) > cap:
            raise ConfigurationError(
                f"a DMM was assigned {max(shares)} threads, above the "
                f"configured cap of {cap}"
            )

        contexts: list[WarpContext] = []
        first_tid = 0
        for dmm_id, share in enumerate(shares):
            if share == 0:
                continue
            contexts.extend(
                make_warp_contexts(
                    share,
                    self.params.width,
                    dmm_id=dmm_id,
                    first_warp_id=len(contexts),
                    first_tid=first_tid,
                    total_threads=num_threads,
                )
            )
            first_tid += share

        return run_launch(
            self,
            program,
            contexts,
            num_threads,
            mode=mode,
            trace=trace,
            label=label or "hmm",
        )

    # -- internals ------------------------------------------------------------------
    def _unit_for(self, ws: WarpState, op: MemoryOp) -> PipelinedMemoryUnit:
        space = op.array.space
        unit = self._space_to_unit.get(id(space))
        if unit is None:
            raise SpaceMismatchError(
                f"array {op.array.describe()} does not live in this HMM"
            )
        shared_idx = self._shared_index.get(id(space))
        if shared_idx is not None and shared_idx != ws.ctx.dmm_id:
            raise SpaceMismatchError(
                f"warp {ws.ctx.warp_id} on DMM {ws.ctx.dmm_id} cannot access "
                f"shared memory of DMM {shared_idx} "
                f"(array {op.array.describe()})"
            )
        return unit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.params
        return (
            f"HMMEngine(d={p.num_dmms}, w={p.width}, l={p.global_latency}, "
            f"shared_l={p.shared_latency})"
        )
