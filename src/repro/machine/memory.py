"""Memory spaces and array handles.

A :class:`MemorySpace` is one flat, word-addressed address space backed by
a numpy array — the single address space that the paper maps onto ``w``
memory banks in an interleaved fashion (cell ``i`` lives in bank
``i mod w``).  An HMM owns ``d + 1`` spaces: one shared space per DMM plus
the global space.

Arrays are allocated sequentially from a space with :meth:`MemorySpace.alloc`
and addressed through :class:`ArrayHandle`, which performs bounds checking
and translates array indices into absolute addresses (the quantity the
bank / address-group rules apply to).
"""

from __future__ import annotations

import array
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import AddressError, AllocationError
from repro.machine.banks import _sorted_distinct

__all__ = ["MemorySpace", "ArrayHandle", "attempt_with_rollback"]

_T = TypeVar("_T")

_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)
_max_reduce = np.maximum.reduce


class MemorySpace:
    """A flat word-addressed memory backed by ``numpy.float64`` cells.

    Parameters
    ----------
    name:
        Human-readable identifier (``"global"``, ``"shared[3]"``, ...).
    capacity:
        Number of words.  Spaces grow on demand up to ``capacity``; the
        default (1 << 26 words) is far above anything the test suite or
        benchmarks allocate while catching runaway allocations.
    space_id:
        Opaque identifier the engine uses to route operations to the
        right memory unit.
    """

    __slots__ = ("name", "capacity", "space_id", "_cells", "_brk", "_undo")

    def __init__(
        self,
        name: str,
        capacity: int = 1 << 26,
        space_id: object = None,
    ) -> None:
        if capacity < 1:
            raise AllocationError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.space_id = space_id if space_id is not None else name
        self._cells = np.zeros(0, dtype=np.float64)
        self._brk = 0  # allocation break: first free address
        #: While logging: every store's addresses and the values they
        #: held, back to back.
        self._undo: "tuple[array.array, array.array] | None" = None

    # -- allocation ---------------------------------------------------------
    def alloc(self, size: int, name: str = "") -> "ArrayHandle":
        """Allocate ``size`` consecutive words and return a handle.

        Allocation is bump-pointer: arrays are laid out back to back, so
        an array allocated at address 0 has its ``i``-th element in bank
        ``i mod w`` exactly as the paper's algorithms assume.  Use
        :meth:`align` first when a fresh array must start at bank 0.
        """
        if size < 1:
            raise AllocationError(f"array size must be >= 1, got {size}")
        if self._brk + size > self.capacity:
            raise AllocationError(
                f"space {self.name!r} exhausted: brk={self._brk}, "
                f"request={size}, capacity={self.capacity}"
            )
        base = self._brk
        self._brk += size
        self._ensure(self._brk)
        return ArrayHandle(space=self, base=base, size=size, name=name)

    def align(self, width: int) -> None:
        """Advance the allocation break to the next multiple of ``width``.

        Aligning to the machine width makes element ``i`` of the next
        array fall in bank ``i mod w`` / address group ``i div w``,
        matching the layout every algorithm in the paper assumes.
        """
        if width < 1:
            raise AllocationError(f"alignment must be >= 1, got {width}")
        rem = self._brk % width
        if rem:
            pad = width - rem
            if self._brk + pad > self.capacity:
                raise AllocationError(
                    f"space {self.name!r} exhausted while aligning to {width}"
                )
            self._brk += pad
            self._ensure(self._brk)

    def alloc_aligned(self, size: int, width: int, name: str = "") -> "ArrayHandle":
        """Allocate ``size`` words starting at a multiple of ``width``."""
        self.align(width)
        return self.alloc(size, name)

    @property
    def used(self) -> int:
        """Words allocated so far."""
        return self._brk

    def _ensure(self, length: int) -> None:
        if length > self._cells.size:
            grown = np.zeros(max(length, 2 * self._cells.size, 64), dtype=np.float64)
            grown[: self._cells.size] = self._cells
            self._cells = grown

    # -- state capture (fast-path rollback support) --------------------------
    def state(self) -> np.ndarray:
        """Copy of the *allocated* cells (``[0, used)``) only.

        Cells past the allocation break are unreachable by kernels, so
        this is the complete observable value state of the space: a
        memory image to compare or keep.
        """
        return self._cells[: self._brk].copy()

    def cells(self) -> np.ndarray:
        """Read-only view of the allocated cells: :meth:`state` without
        the copy, valid until the next store or allocation.  Trace
        replay hashes it into the launch key."""
        view = self._cells[: self._brk]
        view.flags.writeable = False
        return view

    def begin_undo(self) -> None:
        """Start logging stores so they can be rolled back.

        Each :meth:`store` records the values it overwrites, and a
        failed fast path replays the log backwards: cheaper than copying
        every cell up front when most launches succeed and most cells
        are only read.  Logging stops at :meth:`end_undo` /
        :meth:`rollback`.
        """
        self._undo = (array.array("q"), array.array("d"))

    def end_undo(self) -> None:
        """Stop logging stores and drop the undo log (attempt succeeded)."""
        self._undo = None

    def written(self) -> np.ndarray:
        """Distinct addresses stored to since :meth:`begin_undo`, sorted
        (the cells a trace capture records with their final values)."""
        if self._undo is None:
            return np.empty(0, dtype=np.int64)
        return _sorted_distinct(np.frombuffer(self._undo[0], dtype=np.int64))

    def rollback(self) -> None:
        """Revert every store since :meth:`begin_undo`.

        A cell's oldest logged value is its value before the attempt:
        the log is assigned reversed, so the first occurrence wins.
        """
        undo, self._undo = self._undo, None
        if undo is not None and undo[0]:
            addresses = np.frombuffer(undo[0], dtype=np.int64)
            old = np.frombuffer(undo[1], dtype=np.float64)
            self._cells[addresses[::-1]] = old[::-1]

    # -- raw cell access (engine-side; does not model time) ------------------
    def load(self, addresses: np.ndarray) -> np.ndarray:
        """Return the values at ``addresses`` (absolute, validated)."""
        return self._cells[addresses]

    def store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Store ``values`` at ``addresses``.

        On duplicate addresses the *first* occurrence wins; this
        implements the deterministic arbitrary-CRCW rule.  Numpy fancy
        assignment keeps the *last* occurrence, so the vectors are
        assigned in reverse order.
        """
        if addresses.size == 0:
            return
        if self._undo is not None:
            logged, old = self._undo
            logged.frombytes(
                addresses.tobytes() if addresses.dtype is _INT64
                else addresses.astype(np.int64).tobytes())
            old.frombytes(self._cells[addresses].tobytes())
        if addresses.size > 1:
            self._cells[addresses[::-1]] = values[::-1]
        else:
            self._cells[addresses] = values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemorySpace({self.name!r}, used={self._brk}/{self.capacity})"


def attempt_with_rollback(
    attempt: Callable[[], _T],
    failure: type[Exception] | tuple[type[Exception], ...],
    spaces: Sequence[MemorySpace],
    units: Sequence,
) -> _T | None:
    """Run ``attempt()`` with every store to ``spaces`` undo-logged.

    The guard shared by the batch attempt and the trace capture.  On
    ``failure`` the stores are reverted newest first, ``units`` (anything
    with ``reset()``) forget the abandoned attempt's traffic, and the
    result is ``None``: the caller re-runs the launch on the event
    scheduler.  The log closes on every exit; any other error propagates
    with its stores standing, as it would from an event run.
    """
    for space in spaces:
        space.begin_undo()
    try:
        return attempt()
    except failure:
        for space in spaces:
            space.rollback()
        for unit in units:
            unit.reset()
        return None
    finally:
        for space in spaces:
            space.end_undo()


@dataclass(frozen=True)
class ArrayHandle:
    """A contiguous array inside a :class:`MemorySpace`.

    The handle is what kernels pass to :meth:`WarpContext.read` /
    :meth:`WarpContext.write`; it owns bounds checking and the
    index-to-absolute-address translation.

    Host-side convenience accessors (:meth:`to_numpy`, :meth:`fill`,
    :meth:`set`) read and write the backing store directly *without*
    modeling any time — they correspond to host/device transfers outside
    the measured kernel, exactly like initializing the input array before
    an experiment.
    """

    space: MemorySpace
    base: int
    size: int
    name: str = ""

    # -- address translation --------------------------------------------------
    def addresses(self, indices: np.ndarray | int) -> np.ndarray:
        """Translate array indices into absolute addresses (bounds-checked)."""
        if type(indices) is np.ndarray and indices.dtype == np.int64:
            idx = indices if indices.ndim == 1 else indices.ravel()
        else:
            idx = np.asarray(indices, dtype=np.int64).ravel()
        # One reduction checks both bounds: viewed as uint64, a negative
        # index is at least 2**63, past any array size.
        if idx.size and _max_reduce(idx.view(_UINT64)) >= self.size:
            raise AddressError(
                f"index out of range for array {self.describe()}: "
                f"min={int(idx.min())}, max={int(idx.max())}, "
                f"size={self.size}"
            )
        return self.base + idx

    # -- host-side access ------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Copy of the array contents (host-side, untimed)."""
        return self.space.load(self.base + np.arange(self.size, dtype=np.int64))

    def set(self, values: np.ndarray | list | float) -> None:
        """Host-side bulk initialization (untimed)."""
        vals = np.asarray(values, dtype=np.float64).ravel()
        if vals.size == 1 and self.size != 1:
            vals = np.full(self.size, float(vals[0]))
        if vals.size != self.size:
            raise AddressError(
                f"cannot set array {self.describe()} of size {self.size} "
                f"with {vals.size} values"
            )
        self.space.store(self.base + np.arange(self.size, dtype=np.int64), vals)

    def fill(self, value: float) -> None:
        """Host-side fill (untimed)."""
        self.set(np.full(self.size, float(value)))

    def __len__(self) -> int:
        return self.size

    def describe(self) -> str:
        label = self.name or "<anon>"
        return f"{label}@{self.space.name}[{self.base}:{self.base + self.size}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrayHandle({self.describe()})"
