"""Warp contexts and the warp-program protocol.

The memory machine models execute threads in SIMD fashion in warps of
``w`` threads, so the simulator's unit of execution is the warp.  A *warp
program* is a generator function

.. code-block:: python

    def program(warp: WarpContext):
        i = warp.tids                      # global thread ids, one per lane
        vals = yield warp.read(a, i)       # coalesced read a[i]
        yield warp.compute(1)              # one RAM op per thread
        yield warp.write(b, i, 2 * vals)   # coalesced write b[i]
        yield warp.barrier()               # device-wide sync

Lockstep is structural: a single ``yield`` describes the step of every
lane at once.  Divergence is expressed with *lane masks* (``mask=``
arguments), never with per-lane Python control flow; masked-off lanes
issue no request, and fully-masked operations cost nothing (the paper's
rule that a warp with no pending access is not dispatched).

Each lane keeps its private state in ordinary numpy arrays local to the
generator — the model's per-thread registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.errors import KernelError
from repro.machine.memory import ArrayHandle
from repro.machine.ops import (
    BarrierOp,
    BarrierScope,
    ComputeOp,
    Op,
    ReadOp,
    ReadRangeOp,
    WriteOp,
    WriteRangeOp,
)

__all__ = ["WarpContext", "WarpProgram", "full_mask"]

#: A warp program: receives its context, yields operations.
WarpProgram = Callable[["WarpContext"], Generator[Op, "np.ndarray | None", None]]

_FULL_MASKS: dict[int, np.ndarray] = {}
_INT64 = np.dtype(np.int64)

#: Shared instances of the frozen ops kernels yield most often: small
#: integer compute steps and the two barriers.
_COMPUTE_OPS = {cycles: ComputeOp(cycles=cycles) for cycles in range(16)}
_DEVICE, _DMM = BarrierScope.DEVICE, BarrierScope.DMM
_DEVICE_BARRIER = BarrierOp(scope=_DEVICE)
_DMM_BARRIER = BarrierOp(scope=_DMM)


def full_mask(n: int) -> np.ndarray:
    """Shared read-only all-``True`` mask of length ``n``.

    Kernels that mask only their ragged tail rounds can pass this for the
    full rounds; the operation constructors recognize it by identity and
    skip the per-lane mask bookkeeping entirely.
    """
    m = _FULL_MASKS.get(n)
    if m is None:
        m = np.ones(n, dtype=bool)
        m.setflags(write=False)
        _FULL_MASKS[n] = m
    return m


@dataclass(frozen=True)
class WarpContext:
    """Everything a warp program knows about its own identity.

    Attributes
    ----------
    warp_id:
        Machine-wide warp index.
    dmm_id:
        Index of the DMM this warp runs on (0 on a flat DMM/UMM machine).
    warp_in_dmm:
        Warp index within its DMM.
    width:
        Warp size / machine width ``w``.
    tids:
        Global thread ids of the warp's lanes (length ``<= width``; the
        final warp of a launch may be partial).
    local_tids:
        Thread ids *within the DMM* (``T(j)`` of ``DMM(i)`` in the paper).
    num_threads:
        Total threads ``p`` of the launch.
    threads_in_dmm:
        Threads running on this warp's DMM (``p_i`` in the paper).
    """

    warp_id: int
    dmm_id: int
    warp_in_dmm: int
    width: int
    tids: np.ndarray
    local_tids: np.ndarray
    num_threads: int
    threads_in_dmm: int

    # -- lane helpers ------------------------------------------------------
    @property
    def lanes(self) -> np.ndarray:
        """Lane indices ``0..len(tids)`` within the warp."""
        return np.arange(self.tids.size, dtype=np.int64)

    @property
    def num_lanes(self) -> int:
        """Number of live lanes in this warp."""
        return int(self.tids.size)

    # -- operation constructors ---------------------------------------------
    def read(
        self,
        array: ArrayHandle,
        indices: np.ndarray | int,
        mask: np.ndarray | None = None,
    ) -> ReadOp:
        """One read per active lane: lane ``j`` reads ``array[indices[j]]``.

        ``indices`` may be a scalar (all lanes read the same cell — a
        broadcast costing one slot) or a vector with one entry per live
        lane.  ``mask`` is a boolean vector over live lanes; masked-off
        lanes do not participate and receive 0 in the returned values.
        """
        idx, participate = self._lane_vector(indices, mask)
        if participate is None:
            return ReadOp(
                array=array,
                addresses=array.addresses(idx),
                result_mask=full_mask(idx.size),
            )
        return ReadOp(
            array=array,
            addresses=array.addresses(idx[participate]),
            result_mask=participate,
        )

    def write(
        self,
        array: ArrayHandle,
        indices: np.ndarray | int,
        values: np.ndarray | float,
        mask: np.ndarray | None = None,
    ) -> WriteOp:
        """One write per active lane: lane ``j`` writes ``values[j]``.

        On address collisions the lowest participating lane wins
        (deterministic arbitrary-CRCW).
        """
        idx, participate = self._lane_vector(indices, mask)
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim == 0:
            vals = np.full(self.num_lanes, float(vals))
        if vals.size != self.num_lanes:
            raise KernelError(
                f"write values must have one entry per live lane "
                f"({self.num_lanes}), got {vals.size}"
            )
        if participate is None:
            return WriteOp(
                array=array,
                addresses=array.addresses(idx),
                values=vals.ravel(),
            )
        return WriteOp(
            array=array,
            addresses=array.addresses(idx[participate]),
            values=vals.ravel()[participate],
        )

    def read_range(
        self,
        array: ArrayHandle,
        indices: np.ndarray,
        *,
        compute: int = 0,
    ) -> ReadRangeOp:
        """Fused multi-round read: row ``j`` of ``indices`` is round ``j``.

        Timing-equivalent to yielding one unmasked :meth:`read` per row
        (each round's transaction issues when the previous round's data
        arrives), optionally followed by ``compute`` time units of local
        work per round.  The engine resumes the program *once*, with the
        ``(rounds, lanes)`` matrix of values — row ``j`` holding what the
        ``j``-th read would have returned.  Use for the full rounds of a
        contiguous sweep; ragged tail rounds keep using masked reads.
        """
        idx = self._range_matrix(indices)
        return ReadRangeOp(
            array=array,
            addresses=array.addresses(idx).reshape(idx.shape),
            compute=compute,
        )

    def write_range(
        self,
        array: ArrayHandle,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        compute: int = 0,
    ) -> WriteRangeOp:
        """Fused multi-round write: round ``j`` stores ``values[j]``.

        The write twin of :meth:`read_range`; ``values`` must match the
        ``(rounds, lanes)`` shape of ``indices``.
        """
        idx = self._range_matrix(indices)
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != idx.shape:
            raise KernelError(
                f"range values must match the (rounds, lanes) index shape "
                f"{idx.shape}, got {vals.shape}"
            )
        return WriteRangeOp(
            array=array,
            addresses=array.addresses(idx).reshape(idx.shape),
            values=vals,
            compute=compute,
        )

    def compute(self, cycles: int = 1) -> ComputeOp:
        """Local RAM computation: each thread spends ``cycles`` time units."""
        if type(cycles) is int:
            op = _COMPUTE_OPS.get(cycles)
            if op is not None:
                return op
        return ComputeOp(cycles=cycles)

    def barrier(self, scope: BarrierScope = BarrierScope.DEVICE) -> BarrierOp:
        """Synchronize with all warps in ``scope`` (costs no time units)."""
        if scope is _DEVICE:
            return _DEVICE_BARRIER
        if scope is _DMM:
            return _DMM_BARRIER
        return BarrierOp(scope=scope)

    def sync_dmm(self) -> BarrierOp:
        """Shorthand for a DMM-scope barrier (CUDA ``__syncthreads``)."""
        return _DMM_BARRIER

    # -- internals -----------------------------------------------------------
    def _range_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Validate a (rounds, lanes) index matrix for a range operation."""
        if type(indices) is np.ndarray and indices.dtype == np.int64:
            idx = indices
        else:
            idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != self.num_lanes:
            raise KernelError(
                f"range indices must be a (rounds, {self.num_lanes}) "
                f"matrix, got shape {idx.shape}"
            )
        if idx.shape[0] < 1:
            raise KernelError("a range must cover at least one round")
        return idx

    def _lane_vector(
        self,
        indices: np.ndarray | int,
        mask: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Normalize ``(indices, mask)``; ``None`` mask means "all lanes".

        A returned ``participate`` of ``None`` tells the operation
        constructors every live lane takes part, so they can skip the
        fancy-indexing that a partial mask requires.
        """
        n = self.tids.size
        if type(indices) is np.ndarray and indices.ndim == 1:
            if indices.size != n:
                raise KernelError(
                    f"index vector must have one entry per live lane "
                    f"({n}), got {indices.size}"
                )
            if indices.dtype is _INT64 and (
                    mask is None or mask is _FULL_MASKS.get(n)):
                return indices, None
            idx = indices if indices.dtype == np.int64 else indices.astype(np.int64)
        elif type(indices) is int:
            idx = np.full(n, indices, dtype=np.int64)
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if idx.ndim == 0:
                idx = np.full(n, int(idx), dtype=np.int64)
            elif idx.size != n:
                raise KernelError(
                    f"index vector must have one entry per live lane "
                    f"({n}), got {idx.size}"
                )
            idx = idx.ravel()
        if mask is None:
            return idx, None
        participate = (
            mask
            if type(mask) is np.ndarray and mask.dtype == np.bool_
            else np.asarray(mask, dtype=bool)
        )
        if participate.size != n:
            raise KernelError(
                f"mask must have one entry per live lane "
                f"({n}), got {participate.size}"
            )
        if (participate is _FULL_MASKS.get(n)
                or np.count_nonzero(participate) == n):
            return idx, None
        return idx, participate
