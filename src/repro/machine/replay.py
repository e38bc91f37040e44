"""Trace-compiled replay: capture a launch once, re-cost it for any ``l``.

The cost of a *memory-oblivious* kernel on the paper's machines is fully
determined by its warp-level operation trace: slot counts come from the
bank / address-group decomposition of each transaction's lane addresses,
and end-to-end time follows the pipeline recurrence.  Neither depends on
the memory latency ``l``, the slot policy, pipelining, or the dispatch
order — those are *evaluation-time* parameters.  So a latency or policy
sweep does not need to re-execute the thread programs at every point: one
instrumented event run per ``(kernel, n, w, d, data)`` shape yields a
:class:`CompiledTrace`, and a :class:`ReplayCostEvaluator` re-prices it
at any ``(l, policy, pipelined, dispatch)`` with one vectorized slot
count plus a lean integer event loop — bit-identical to the event
scheduler, without generators, numpy per-op address work, or memory
effects.

Pieces
------

:class:`TraceCompiler`
    A :class:`~repro.machine.trace.TraceRecorder` subclass that captures
    complete per-warp operation streams (memory transactions with raw
    lane addresses, compute steps, barrier arrivals) during one event
    run.

:class:`CompiledTrace`
    The compact structured-numpy-array form of a captured launch, plus
    the post-run memory state so a replayed launch still "produces" the
    kernel's outputs.  The trace store's codec writes it as one ``.npz``
    archive.

:class:`ReplayCostEvaluator`
    Re-prices a trace under new unit parameters.  Slot counting is one
    :meth:`~repro.machine.policy.SlotPolicy.slot_counts` call per unit
    (cached per policy set); the pipeline/barrier recurrence is a
    faithful port of the event scheduler's loop over pre-decoded ops.

:class:`TraceStore`
    Keyed trace storage riding the ``trace`` namespace of the unified
    artifact store (:mod:`repro.store`): an in-memory LRU over on-disk
    ``.npz`` entries (default ``benchmarks/.store/trace``, beside the
    sweep result cache), keyed by a content hash of the warp program,
    the launch shape, and the memory pre-state.  Latency, policy,
    pipelining, and dispatch are *not* part of the key — that is the
    whole point.

Safety
------

Replay is only sound when the operation trace is data-independent.  Two
guards enforce this:

* kernels known to be data-dependent (sorting/merging/BFS branches,
  value-indexed scatters/gathers) are registered in
  :data:`NON_OBLIVIOUS_MODULES` (or marked with :func:`non_oblivious`)
  and always refuse replay, falling back to the event engine;
* an obliviousness self-check: when the same program+shape is captured
  under *different* input data, the two traces' structural signatures
  must match; a mismatch flags the program, evicts its traces, and
  refuses replay from then on.

Programs whose closures contain objects the keyer cannot canonically
hash also refuse replay (a wrong cache hit would be silent corruption;
a refused one merely costs the event-mode price).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import heapq
import io
import json
import threading
import types
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import KernelError, TraceOverflowError
from repro.machine.memory import MemorySpace, attempt_with_rollback
from repro.metrics import PROCESS, Registry, hit_rate
from repro.native import native_kernels, resolve_backend
from repro.native.cdefs import KERNELS as _NATIVE_KERNELS
from repro.store import ArtifactStore
from repro.store import config as _store_config
from repro.machine.ops import AccessKind, BarrierScope
from repro.machine.pipeline import UnitStats
from repro.machine.policy import (
    DMMBankPolicy,
    IdealPolicy,
    SlotPolicy,
    UMMGroupPolicy,
)
from repro.machine.scheduler import Scheduler, SchedulerResult, WarpState
from repro.machine.trace import TraceRecorder
from repro.machine.warp import WarpContext

__all__ = [
    "CompiledTrace",
    "LaunchKey",
    "NON_OBLIVIOUS_MODULES",
    "ReplayCostEvaluator",
    "TraceCompiler",
    "TraceStore",
    "default_store",
    "derive_launch_key",
    "is_replay_oblivious",
    "non_oblivious",
    "price_trace",
    "replay_launch",
    "reset_default_store",
]

#: Overrides the per-launch capture cap (transactions; 0 = unlimited).
CAPTURE_LIMIT_ENV = "REPRO_TRACE_CAPTURE_LIMIT"

_DEFAULT_LRU_ENTRIES = 64
_DEFAULT_CAPTURE_LIMIT = 1 << 21

#: Operation codes of the compiled stream.
_OP_MEM, _OP_COMPUTE, _OP_BARRIER = 0, 1, 2
#: Barrier scope codes (``op_arg`` of a barrier op).
_SCOPE_DMM, _SCOPE_DEVICE = 0, 1

#: Kernel modules whose operation traces depend on input *values* —
#: data-driven branches, value-indexed scatters/gathers, host-side
#: value-dependent partitions.  Launch programs defined in these modules
#: always refuse replay.  The registry is deliberately conservative:
#: a refused kernel still evaluates exactly (on the event engine); a
#: wrongly replayed one would be silently mispriced.
NON_OBLIVIOUS_MODULES = frozenset(
    {
        "repro.core.kernels.bfs",
        "repro.core.kernels.compaction",
        "repro.core.kernels.histogram",
        "repro.core.kernels.merge",
        "repro.core.kernels.permutation",
        "repro.core.kernels.sorting",
        "repro.core.kernels.spmv",
        "repro.tuner.datadep",
    }
)


def non_oblivious(fn: Callable) -> Callable:
    """Mark a warp program (or program factory) as data-dependent.

    Marked programs always refuse trace replay and run on the event
    engine.  Apply it to kernels whose yielded addresses, lane masks, or
    operation sequence depend on the values stored in machine memory.
    """
    fn._replay_oblivious = False
    return fn


def is_replay_oblivious(program: Callable) -> bool:
    """May ``program``'s trace be replayed for different ``l`` / policy?

    An explicit ``_replay_oblivious`` attribute (see
    :func:`non_oblivious`) wins; otherwise programs defined in a module
    listed in :data:`NON_OBLIVIOUS_MODULES` are refused and everything
    else is presumed oblivious — guarded at capture time by the trace
    store's cross-input signature check.
    """
    flag = getattr(program, "_replay_oblivious", None)
    if flag is not None:
        return bool(flag)
    return getattr(program, "__module__", None) not in NON_OBLIVIOUS_MODULES


# ---------------------------------------------------------------------------
# Launch keying: canonical content hash of (program, shape, memory state).
# ---------------------------------------------------------------------------


class _Unkeyable(Exception):
    """A closure/default value has no canonical content encoding."""


@dataclass(frozen=True)
class LaunchKey:
    """The three digests that key a captured launch.

    ``full`` keys the trace store.  ``struct`` identifies the program and
    launch shape *without* the input data — the obliviousness self-check
    compares trace signatures across entries sharing a ``struct``.
    ``data`` is the memory pre-state digest distinguishing them.
    """

    full: str
    struct: str
    data: str


_MAX_KEY_DEPTH = 16


def _feed_value(h, value, seen: set[int], depth: int = 0) -> None:
    """Hash one python value canonically; raise :class:`_Unkeyable`."""
    if depth > _MAX_KEY_DEPTH:
        raise _Unkeyable("value nesting too deep")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, np.generic):
        h.update(f"np:{value.dtype}:{value.item()!r};".encode())
    elif isinstance(value, np.ndarray):
        h.update(f"ndarray:{value.dtype}:{value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__}[{len(value)}](".encode())
        for item in value:
            _feed_value(h, item, seen, depth + 1)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(f"dict[{len(value)}](".encode())
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            _feed_value(h, value[key], seen, depth + 1)
        h.update(b")")
    elif isinstance(value, (set, frozenset)):
        h.update(f"set[{len(value)}]{sorted(map(repr, value))!r};".encode())
    elif isinstance(value, range):
        h.update(f"range:{value!r};".encode())
    elif isinstance(value, enum.Enum):
        h.update(f"enum:{value!r};".encode())
    elif isinstance(value, MemorySpace):
        h.update(f"space:{value.name}:{value.space_id!r};".encode())
    elif isinstance(value, functools.partial):
        h.update(b"partial(")
        _feed_function(h, value.func, seen, depth + 1)
        _feed_value(h, tuple(value.args), seen, depth + 1)
        _feed_value(h, dict(value.keywords), seen, depth + 1)
        h.update(b")")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"dc:{type(value).__qualname__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed_value(h, getattr(value, f.name), seen, depth + 1)
        h.update(b")")
    elif callable(value):
        _feed_function(h, value, seen, depth + 1)
    else:
        raise _Unkeyable(f"cannot key a {type(value).__qualname__} value")


def _feed_code(h, code, seen: set[int], depth: int) -> None:
    h.update(code.co_code)
    h.update(repr(code.co_names).encode())
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _feed_code(h, const, seen, depth + 1)
        else:
            _feed_value(h, const, seen, depth + 1)


def _feed_function(
    h, fn: Callable, seen: set[int], depth: int = 0,
    *, walk_globals: bool = False,
) -> None:
    """Hash a function's identity, bytecode, defaults, and closure.

    ``walk_globals`` is set only for the *top-level* warp program: its
    referenced module globals are program inputs and get value-hashed.
    Functions reached through values (referenced globals, closure cells,
    partials) contribute identity + bytecode + defaults + closure only —
    walking *their* globals would drag in library-internal memo caches
    (e.g. ``repro.machine.warp._FULL_MASKS``) whose contents grow across
    runs and would churn the key without changing the trace.
    """
    if depth > _MAX_KEY_DEPTH:
        raise _Unkeyable("function nesting too deep")
    if id(fn) in seen:
        h.update(b"<recursive>;")
        return
    seen.add(id(fn))
    h.update(f"{getattr(fn, '__module__', '?')}.".encode())
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    h.update(f"{name or type(fn).__qualname__};".encode())
    code = getattr(fn, "__code__", None)
    if code is None:
        if not callable(fn) or name is None:
            raise _Unkeyable(f"cannot key callable {fn!r}")
        return  # builtin / C function: module + name is its identity
    _feed_code(h, code, seen, depth)
    for default in fn.__defaults__ or ():
        _feed_value(h, default, seen, depth + 1)
    for kwname, default in sorted((fn.__kwdefaults__ or {}).items()):
        h.update(kwname.encode())
        _feed_value(h, default, seen, depth + 1)
    cells = fn.__closure__ or ()
    for cellname, cell in zip(code.co_freevars, cells):
        h.update(f"{cellname}=".encode())
        try:
            contents = cell.cell_contents
        except ValueError:  # pragma: no cover - unfilled cell
            h.update(b"<empty>;")
            continue
        _feed_value(h, contents, seen, depth + 1)
    if not walk_globals:
        return
    # Referenced globals are program inputs too (a kernel closing over
    # nothing can still address through a module-level array).  Hash the
    # value of every global the code (or a nested code object) names;
    # modules count by name, anything unkeyable refuses replay.
    names: set[str] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        names.update(c.co_names)
        stack.extend(k for k in c.co_consts if hasattr(k, "co_code"))
    fn_globals = getattr(fn, "__globals__", None) or {}
    for gname in sorted(names):
        if gname not in fn_globals:
            continue  # builtin or attribute name: stable, nothing to hash
        value = fn_globals[gname]
        h.update(f"g:{gname}=".encode())
        if isinstance(value, types.ModuleType):
            h.update(f"module:{value.__name__};".encode())
        else:
            _feed_value(h, value, seen, depth + 1)


def derive_launch_key(
    program: Callable,
    *,
    machine: str,
    width: int,
    contexts: Sequence[WarpContext],
    spaces: Sequence[MemorySpace],
    fingerprint: str,
) -> LaunchKey | None:
    """Content key of one launch, or ``None`` when replay must refuse.

    The key covers everything the *operation trace* of an oblivious
    program depends on: the program itself (bytecode, defaults, closure
    values — including :class:`ArrayHandle` placements), the warp/DMM
    partition, the machine kind and width, and the full memory pre-state.
    It deliberately excludes latency, slot policy, pipelining, and
    dispatch order — the replay-time parameters.
    """
    if not is_replay_oblivious(program):
        return None
    h = hashlib.sha256()
    h.update(f"trace-v1|{fingerprint}|{machine}|{width}|".encode())
    for ctx in contexts:
        h.update(f"{ctx.warp_id},{ctx.dmm_id},{ctx.tids.size};".encode())
    try:
        _feed_function(h, program, set(), walk_globals=True)
    except _Unkeyable:
        return None
    struct = h.hexdigest()
    dh = hashlib.sha256()
    for space in spaces:
        dh.update(f"{space.name}|{space.space_id!r}|{space.used}|".encode())
        dh.update(space.state().tobytes())
    data = dh.hexdigest()
    full = hashlib.sha256(f"{struct}:{data}".encode()).hexdigest()
    return LaunchKey(full=full, struct=struct, data=data)


# ---------------------------------------------------------------------------
# Capture: TraceRecorder subclass building per-warp operation streams.
# ---------------------------------------------------------------------------


class TraceCompiler(TraceRecorder):
    """Captures the complete operation stream of one event run.

    Unlike the base recorder it keeps *raw* (not deduplicated) lane
    addresses — replay recounts slots under arbitrary policies — and it
    also records compute steps and barrier arrivals, which cost nothing
    on a memory unit but shape the timeline.  :meth:`compile` freezes
    the streams into a :class:`CompiledTrace`.
    """

    def __init__(
        self,
        unit_names: Sequence[str],
        *,
        max_transactions: int | None = None,
    ) -> None:
        super().__init__(max_transactions=max_transactions)
        self._unit_index = {name: i for i, name in enumerate(unit_names)}
        self._unit_names = list(unit_names)
        self._warp: list[int] = []
        self._kind: list[int] = []
        self._unit: list[int] = []
        self._arg: list[int] = []
        self._read: list[int] = []
        self._req: list[int] = []
        self._addr_chunks: list[np.ndarray] = []
        self._transactions = 0

    # -- hooks -------------------------------------------------------------
    def record(self, ctx, unit, op, issue, *, post_compute: int = 0) -> None:
        self._check_capacity(self._transactions)
        self._transactions += 1
        addrs = np.asarray(op.addresses, dtype=np.int64).ravel()
        self._warp.append(ctx.warp_id)
        self._kind.append(_OP_MEM)
        self._unit.append(self._unit_index[unit.name])
        self._arg.append(int(post_compute))
        self._read.append(1 if op.kind is AccessKind.READ else 0)
        self._req.append(int(addrs.size))
        self._addr_chunks.append(addrs.copy())

    def record_compute(self, ctx, cycles: int) -> None:
        self._warp.append(ctx.warp_id)
        self._kind.append(_OP_COMPUTE)
        self._unit.append(-1)
        self._arg.append(int(cycles))
        self._read.append(0)
        self._req.append(0)

    def record_arrival(self, ctx, scope: BarrierScope) -> None:
        self._warp.append(ctx.warp_id)
        self._kind.append(_OP_BARRIER)
        self._unit.append(-1)
        self._arg.append(
            _SCOPE_DEVICE if scope is BarrierScope.DEVICE else _SCOPE_DMM
        )
        self._read.append(0)
        self._req.append(0)

    def record_barrier(self, scope, dmm_id, time) -> None:
        # Release times are re-derived at replay time; nothing to store.
        pass

    # -- freezing ----------------------------------------------------------
    def compile(
        self,
        *,
        contexts: Sequence[WarpContext],
        machine: str,
        width: int,
        post_state: dict[str, np.ndarray],
        fingerprint: str,
    ) -> "CompiledTrace":
        """Freeze the captured streams into a :class:`CompiledTrace`."""
        lengths = np.fromiter(
            (
                self._req[i] if self._kind[i] == _OP_MEM else 0
                for i in range(len(self._kind))
            ),
            dtype=np.int64,
            count=len(self._kind),
        )
        addr_off = np.concatenate(([0], np.cumsum(lengths)))
        addresses = (
            np.concatenate(self._addr_chunks)
            if self._addr_chunks
            else np.empty(0, dtype=np.int64)
        )
        meta = {
            "version": 1,
            "machine": machine,
            "width": int(width),
            "num_threads": int(contexts[0].num_threads) if contexts else 0,
            "warp_ids": [int(c.warp_id) for c in contexts],
            "warp_dmms": [int(c.dmm_id) for c in contexts],
            "unit_names": list(self._unit_names),
            "transactions": int(self._transactions),
            "fingerprint": fingerprint,
            "post_names": list(post_state),
        }
        return CompiledTrace(
            meta=meta,
            op_warp=np.asarray(self._warp, dtype=np.int32),
            op_kind=np.asarray(self._kind, dtype=np.int8),
            op_unit=np.asarray(self._unit, dtype=np.int16),
            op_arg=np.asarray(self._arg, dtype=np.int64),
            op_read=np.asarray(self._read, dtype=np.int8),
            op_req=np.asarray(self._req, dtype=np.int32),
            addr_off=addr_off.astype(np.int64),
            addresses=addresses.astype(np.int64),
            post_state={k: np.asarray(v, dtype=np.float64) for k, v in post_state.items()},
        )


# ---------------------------------------------------------------------------
# The compiled trace.
# ---------------------------------------------------------------------------


@dataclass
class CompiledTrace:
    """One captured launch as flat structured numpy arrays.

    The ``i``-th entry of the ``op_*`` arrays describes the ``i``-th
    operation in global capture (dispatch) order; restricting to one
    warp id yields that warp's program-order stream.  ``op_kind`` is 0
    (memory), 1 (compute), or 2 (barrier arrival); ``op_arg`` carries
    the kind-specific integer (post-transaction compute / compute
    cycles / barrier scope).  Memory ops own the address slice
    ``addresses[addr_off[i]:addr_off[i+1]]`` — raw per-lane addresses,
    so any slot policy can recount them.  ``post_state`` maps space
    names to the post-run cell values (see
    :meth:`~repro.machine.memory.MemorySpace.load_state`).
    """

    meta: dict
    op_warp: np.ndarray
    op_kind: np.ndarray
    op_unit: np.ndarray
    op_arg: np.ndarray
    op_read: np.ndarray
    op_req: np.ndarray
    addr_off: np.ndarray
    addresses: np.ndarray
    post_state: dict[str, np.ndarray]
    _evaluator: "ReplayCostEvaluator | None" = field(
        default=None, repr=False, compare=False
    )

    # -- shape -------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return int(self.op_kind.size)

    def addresses_of(self, i: int) -> np.ndarray:
        """Raw lane addresses of memory op ``i`` (a view)."""
        return self.addresses[self.addr_off[i] : self.addr_off[i + 1]]

    # -- identity ----------------------------------------------------------
    def signature(self) -> str:
        """Digest of the trace *structure* (ops + addresses, not values).

        Each warp's ops and lane addresses are digested in that warp's
        program order, not in global dispatch order, as
        :func:`repro.analysis.certify.trace_signature` does: the
        cross-warp interleaving is a scheduling artifact that shifts
        with the latency and the dispatch policy, while each warp's own
        stream is what the kernel determines.  Two captures of an
        oblivious program under different input data, at any latency,
        produce equal signatures; the trace store enforces this.
        """
        h = hashlib.sha256()
        core = {
            k: self.meta[k]
            for k in (
                "machine", "width", "num_threads",
                "warp_ids", "warp_dmms", "unit_names",
            )
        }
        h.update(json.dumps(core, sort_keys=True).encode())
        order = np.argsort(self.op_warp, kind="stable")
        for arr in (
            self.op_warp, self.op_kind, self.op_unit, self.op_arg,
            self.op_read, self.op_req,
        ):
            h.update(np.ascontiguousarray(arr[order]).tobytes())
        # Each op's address slice, in the same per-warp order.
        starts = self.addr_off[:-1][order]
        sizes = self.addr_off[1:][order] - starts
        gather = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) \
            + np.arange(int(sizes.sum()), dtype=np.int64)
        h.update(np.ascontiguousarray(self.addresses[gather]).tobytes())
        return h.hexdigest()

    def evaluator(self) -> "ReplayCostEvaluator":
        """The (cached) evaluator decoding this trace."""
        if self._evaluator is None:
            self._evaluator = ReplayCostEvaluator(self)
        return self._evaluator

    # -- (de)serialization -------------------------------------------------
    def to_payload(self) -> "dict[str, np.ndarray]":
        """The trace as the flat array mapping the ``.npz`` layout uses
        (``meta`` is the canonical-JSON header as a ``uint8`` array)."""
        payload = {
            "meta": np.frombuffer(
                json.dumps(self.meta, sort_keys=True).encode(), dtype=np.uint8
            ),
            "op_warp": self.op_warp,
            "op_kind": self.op_kind,
            "op_unit": self.op_unit,
            "op_arg": self.op_arg,
            "op_read": self.op_read,
            "op_req": self.op_req,
            "addr_off": self.addr_off,
            "addresses": self.addresses,
        }
        for i, name in enumerate(self.meta["post_names"]):
            payload[f"post_{i}"] = self.post_state[name]
        return payload

    @classmethod
    def from_payload(
        cls, payload: "dict[str, np.ndarray]"
    ) -> "CompiledTrace":
        """Inverse of :meth:`to_payload` (raises on missing arrays)."""
        meta = json.loads(bytes(payload["meta"].tobytes()).decode())
        post_state = {
            name: payload[f"post_{i}"]
            for i, name in enumerate(meta["post_names"])
        }
        return cls(
            meta=meta,
            op_warp=payload["op_warp"],
            op_kind=payload["op_kind"],
            op_unit=payload["op_unit"],
            op_arg=payload["op_arg"],
            op_read=payload["op_read"],
            op_req=payload["op_req"],
            addr_off=payload["addr_off"],
            addresses=payload["addresses"],
            post_state=post_state,
        )

    # -- compatibility -----------------------------------------------------
    def matches_launch(
        self,
        *,
        machine: str,
        width: int,
        contexts: Sequence[WarpContext],
        unit_names: Sequence[str],
    ) -> bool:
        """Structural sanity check before replaying against an engine."""
        return (
            self.meta["machine"] == machine
            and self.meta["width"] == width
            and self.meta["unit_names"] == list(unit_names)
            and self.meta["warp_ids"] == [int(c.warp_id) for c in contexts]
            and self.meta["warp_dmms"] == [int(c.dmm_id) for c in contexts]
        )


# ---------------------------------------------------------------------------
# Replay evaluation.
# ---------------------------------------------------------------------------


class _Group:
    """Barrier group state during replay (mirrors the scheduler's)."""

    __slots__ = ("members", "waiting", "arrivals")

    def __init__(self, members: set[int]) -> None:
        self.members = set(members)
        self.waiting: set[int] = set()
        self.arrivals: dict[int, int] = {}


#: Builtin slot policies the native ``repro_slot_counts`` kernel
#: implements directly; custom :class:`SlotPolicy` subclasses always
#: count through their own Python/numpy code.
_NATIVE_POLICY_CODES = {DMMBankPolicy: 0, UMMGroupPolicy: 1, IdealPolicy: 2}


class _SlotTable:
    """Per-op slot counts for one policy set, in both shapes.

    The native kernel wants a typed pointer to the int64 array; the
    Python loop wants a plain list.  Each is made lazily, once — neither
    backend pays for the other's.  ``per_unit`` holds the
    latency-independent slot tallies.
    """

    __slots__ = ("array", "per_unit", "_list", "_pointer")

    def __init__(self, array: np.ndarray, per_unit: list[dict]) -> None:
        self.array = array
        self.per_unit = per_unit
        self._list: "list[int] | None" = None
        self._pointer = None

    def as_list(self) -> list[int]:
        if self._list is None:
            self._list = self.array.tolist()
        return self._list

    def as_pointer(self):
        if self._pointer is None:
            self._pointer = _NATIVE_KERNELS["repro_replay_price"].pointers(
                slots=self.array)["slots"]
        return self._pointer


class ReplayCostEvaluator:
    """Re-price a :class:`CompiledTrace` under new unit parameters.

    Decodes the trace once (per-warp streams and per-unit transaction
    groups, via one stable argsort + bincount pass); each
    :meth:`evaluate` call then runs one vectorized slot count per unit
    (cached per policy set) and a faithful integer port of the event
    scheduler's loop — same heap discipline, same round-robin rotation,
    same barrier release rule — so the returned numbers are
    bit-identical to an event run of the original program.

    ``backend="native"`` runs the loop (and builtin-policy slot
    counting) through the compiled kernels of :mod:`repro.native`;
    ``backend=None`` defers to ``$REPRO_BACKEND``.  Each
    :meth:`evaluate` call may also override the backend.  Both
    backends return identical numbers; when no C compiler is
    available the native backend warns once and runs the Python loop.
    """

    def __init__(
        self, trace: CompiledTrace, *, backend: "str | None" = None
    ) -> None:
        # The arrays pricing reads, not the trace itself: the trace
        # caches its evaluator, and a reference back would make a cycle
        # that keeps every evicted trace alive until a full collection.
        self._width = int(trace.meta["width"])
        self._op_kind = trace.op_kind
        self._op_unit = trace.op_unit
        self._op_arg = trace.op_arg
        self._addr_off = trace.addr_off
        self._addresses = trace.addresses
        self.backend = resolve_backend(backend)
        meta = trace.meta
        self._warp_ids: list[int] = list(meta["warp_ids"])
        self._warp_dmms: list[int] = list(meta["warp_dmms"])
        self._unit_names: list[str] = list(meta["unit_names"])
        self._ix_of = {wid: i for i, wid in enumerate(self._warp_ids)}
        n_warps = len(self._warp_ids)
        # Vectorized decode shared by both backends: a stable argsort
        # over warp indices groups each warp's ops in trace order.
        if n_warps:
            ids = np.asarray(self._warp_ids, dtype=np.int64)
            id2ix = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
            id2ix[ids] = np.arange(n_warps, dtype=np.int64)
            warp_ix = id2ix[trace.op_warp.astype(np.int64, copy=False)]
            counts = np.bincount(warp_ix, minlength=n_warps)
        else:
            warp_ix = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        self._stream_ops = np.argsort(warp_ix, kind="stable").astype(
            np.int64, copy=False
        )
        self._stream_off = np.zeros(n_warps + 1, dtype=np.int64)
        if n_warps:
            np.cumsum(counts, out=self._stream_off[1:])
        mem_mask = trace.op_kind == _OP_MEM
        unit64 = trace.op_unit.astype(np.int64, copy=False)
        self._mem_by_unit: list[np.ndarray] = [
            np.nonzero(mem_mask & (unit64 == u))[0].astype(np.int64, copy=False)
            for u in range(len(self._unit_names))
        ]
        # Latency/policy-independent per-unit tallies.
        read = trace.op_read
        req = trace.op_req
        self._unit_tallies = []
        for idx in self._mem_by_unit:
            reads = int(read[idx].sum()) if idx.size else 0
            self._unit_tallies.append(
                {
                    "transactions": int(idx.size),
                    "reads": reads,
                    "writes": int(idx.size) - reads,
                    "requests": int(req[idx].sum()) if idx.size else 0,
                }
            )
        self._slots_cache: dict[tuple, _SlotTable] = {}
        self._py_lists: "tuple | None" = None
        self._native_buf: "dict | None" = None
        #: One native pricing at a time: it fills and reads the
        #: evaluator's own latency/output buffers (the kernel call
        #: releases the GIL).
        self._native_lock = threading.Lock()

    # -- lazy per-backend decode -------------------------------------------
    def _python_lists(self) -> tuple:
        """Hot arrays as python lists (the Python loop is pure int work)."""
        if self._py_lists is None:
            off = self._stream_off
            streams = [
                self._stream_ops[off[x]:off[x + 1]].tolist()
                for x in range(len(self._warp_ids))
            ]
            self._py_lists = (
                self._op_kind.tolist(),
                self._op_unit.tolist(),
                self._op_arg.tolist(),
                streams,
            )
        return self._py_lists

    def _native_buffers(self) -> dict:
        """The evaluator's buffers for the native kernels, validated
        (dtype, C-contiguity) and converted to typed pointers once.

        ``buf["io"]`` holds the arrays behind the per-call latencies,
        pipelining flags and outputs, filled and read under
        :attr:`_native_lock`.
        """
        if self._native_buf is None:
            n_warps = len(self._warp_ids)
            ids = np.asarray(self._warp_ids, dtype=np.int64)
            # DMM barrier groups: dense indices 1.. in first-appearance
            # order (group 0 is the device group).
            group_of: dict[int, int] = {}
            warp_group = np.zeros(n_warps, dtype=np.int64)
            for x, dmm in enumerate(self._warp_dmms):
                g = group_of.get(dmm)
                if g is None:
                    g = group_of[dmm] = len(group_of) + 1
                warp_group[x] = g
            n_units = len(self._unit_names)
            io = {
                "latency": np.zeros(n_units, dtype=np.int64),
                "pipelined": np.zeros(n_units, dtype=np.uint8),
                "out_scalars": np.zeros(4, dtype=np.int64),
                "out_busy": np.zeros(n_units, dtype=np.int64),
                "out_last": np.zeros(n_units, dtype=np.int64),
            }
            buf = _NATIVE_KERNELS["repro_replay_price"].pointers(
                warp_ids=ids,
                warp_group=warp_group,
                wid_order=np.argsort(ids, kind="stable").astype(
                    np.int64, copy=False
                ),
                stream_off=self._stream_off,
                stream_ops=self._stream_ops,
                op_kind=np.ascontiguousarray(self._op_kind, dtype=np.int8),
                op_unit=np.ascontiguousarray(self._op_unit, dtype=np.int16),
                op_arg=np.ascontiguousarray(self._op_arg, dtype=np.int64),
                **io,
            )
            buf.update(_NATIVE_KERNELS["repro_slot_counts"].pointers(
                addr_off=np.ascontiguousarray(self._addr_off, dtype=np.int64),
                addresses=np.ascontiguousarray(
                    self._addresses, dtype=np.int64
                ),
            ))
            buf["n_groups"] = len(group_of) + 1
            buf["io"] = io
            self._native_buf = buf
        return self._native_buf

    # -- slot counting (vectorized, cached per policy set) -----------------
    def _slot_table(
        self, policies: Sequence[SlotPolicy], kernels: "dict | None" = None
    ) -> _SlotTable:
        key = tuple(f"{type(p).__qualname__}:{p.name}" for p in policies)
        cached = self._slots_cache.get(key)
        if cached is not None:
            return cached
        width = self._width
        addr_off, addresses = self._addr_off, self._addresses
        slots = np.zeros(self._op_kind.size, dtype=np.int64)
        per_unit = []
        for u, ops in enumerate(self._mem_by_unit):
            if ops.size == 0:
                per_unit.append({"slots": 0, "conflicted": 0, "excess": 0})
                continue
            counts = None
            if kernels is not None:
                code = _NATIVE_POLICY_CODES.get(type(policies[u]))
                if code is not None:
                    buf = self._native_buffers()
                    counts = np.empty(ops.size, dtype=np.int64)
                    rc = kernels["repro_slot_counts"](
                        ops.size, ops, buf["addr_off"], buf["addresses"],
                        width, code, counts,
                    )
                    if rc != 0:
                        counts = None
                    else:
                        PROCESS.inc("native.native_calls")
            if counts is None:
                views = [addresses[addr_off[i]:addr_off[i + 1]]
                         for i in ops]
                counts = policies[u].slot_counts(views, width).astype(
                    np.int64, copy=False
                )
            slots[ops] = counts
            per_unit.append(
                {
                    "slots": int(counts.sum()),
                    "conflicted": int((counts > 1).sum()),
                    "excess": int((counts - 1).sum()),
                }
            )
        table = _SlotTable(slots, per_unit)
        self._slots_cache[key] = table
        return table

    # -- the native loop ---------------------------------------------------
    def _evaluate_native(
        self,
        kernels: dict,
        table: _SlotTable,
        lat: list[int],
        pip: list[bool],
        dispatch: str,
    ) -> "tuple[SchedulerResult, dict[str, UnitStats]] | None":
        buf = self._native_buffers()
        io = buf["io"]
        n_units = len(self._unit_names)
        with self._native_lock:
            io["latency"][:] = lat
            io["pipelined"][:] = pip
            rc = kernels["repro_replay_price"](
                len(self._warp_ids),
                buf["warp_ids"],
                buf["warp_group"],
                buf["wid_order"],
                buf["stream_off"],
                buf["stream_ops"],
                buf["op_kind"],
                buf["op_unit"],
                buf["op_arg"],
                table.as_pointer(),
                n_units,
                buf["latency"],
                buf["pipelined"],
                buf["n_groups"],
                1 if dispatch == "round-robin" else 0,
                _SCOPE_DEVICE,
                buf["out_scalars"],
                buf["out_busy"],
                buf["out_last"],
            )
            out_scalars = io["out_scalars"].tolist()
            out_busy = io["out_busy"].tolist()
            out_last = io["out_last"].tolist()
        if rc != 0:  # pragma: no cover - allocation failure only
            return None
        PROCESS.inc("native.native_calls")
        stats: dict[str, UnitStats] = {}
        for u, name in enumerate(self._unit_names):
            tally = self._unit_tallies[u]
            st = table.per_unit[u]
            stats[name] = UnitStats(
                transactions=tally["transactions"],
                reads=tally["reads"],
                writes=tally["writes"],
                requests=tally["requests"],
                slots=st["slots"],
                conflicted_transactions=st["conflicted"],
                excess_slots=st["excess"],
                port_busy_until=out_busy[u],
                last_complete=out_last[u],
            )
        result = SchedulerResult(
            cycles=out_scalars[0],
            compute_ops=out_scalars[1],
            compute_cycles=out_scalars[2],
            barrier_releases=out_scalars[3],
        )
        return result, stats

    # -- the replay loop ---------------------------------------------------
    def evaluate(
        self,
        *,
        latencies: Sequence[int],
        policies: Sequence[SlotPolicy],
        pipelined: Sequence[bool],
        dispatch: str = "fifo",
        backend: "str | None" = None,
    ) -> tuple[SchedulerResult, dict[str, UnitStats]]:
        """Total cost of the trace under the given unit parameters.

        ``latencies`` / ``policies`` / ``pipelined`` align with the
        trace's ``unit_names``.  Returns the scheduler-result counters
        plus per-unit statistics, all bit-identical to an event run.
        ``backend`` overrides the evaluator's own for this call.
        """
        if dispatch not in ("fifo", "round-robin"):
            raise KernelError(
                f"dispatch must be 'fifo' or 'round-robin', got {dispatch!r}"
            )
        chosen = self.backend if backend is None else resolve_backend(backend)
        kernels = native_kernels() if chosen == "native" else None
        table = self._slot_table(policies, kernels)
        lat = [int(x) for x in latencies]
        pip = [bool(x) for x in pipelined]
        if kernels is not None:
            native = self._evaluate_native(kernels, table, lat, pip, dispatch)
            if native is not None:
                return native
        slots = table.as_list()
        slot_tallies = table.per_unit
        kind, unitv, arg, streams = self._python_lists()
        ix_of = self._ix_of
        warp_ids, warp_dmms = self._warp_ids, self._warp_dmms
        n_warps = len(warp_ids)
        n_units = len(self._unit_names)

        ready = {wid: 0 for wid in warp_ids}
        ptr = [0] * n_warps
        ends = [len(s) for s in streams]
        finished: set[int] = set()
        heap: list[tuple[int, int]] = [(0, wid) for wid in warp_ids]
        heapq.heapify(heap)
        in_heap = set(warp_ids)
        rr_next = 0
        pf = [0] * n_units
        busy = [0] * n_units
        last = [0] * n_units
        makespan = compute_ops = compute_cycles = releases = 0

        device_key = (BarrierScope.DEVICE, 0)
        groups: dict[tuple, _Group] = {device_key: _Group(set(warp_ids))}
        by_dmm: dict[int, set[int]] = {}
        for wid, dmm in zip(warp_ids, warp_dmms):
            by_dmm.setdefault(dmm, set()).add(wid)
        for dmm, members in by_dmm.items():
            groups[(BarrierScope.DMM, dmm)] = _Group(members)

        def maybe_release(group: _Group) -> None:
            nonlocal releases
            if not group.members or group.waiting != group.members:
                return
            release_time = max(group.arrivals.values())
            for w in sorted(group.waiting):
                ready[w] = release_time
                heapq.heappush(heap, (release_time, w))
                in_heap.add(w)
            group.waiting.clear()
            group.arrivals.clear()
            releases += 1

        def retire(w: int) -> None:
            for group in groups.values():
                if w in group.members:
                    group.members.discard(w)
                    group.waiting.discard(w)
                    group.arrivals.pop(w, None)
                    maybe_release(group)

        while heap:
            t, wid = heapq.heappop(heap)
            if dispatch == "round-robin":
                cohort = [(t, wid)]
                while heap and heap[0][0] == t:
                    cohort.append(heapq.heappop(heap))
                pick = min(
                    cohort,
                    key=lambda rw: (rw[1] - rr_next) % max(n_warps, 1),
                )
                for entry in cohort:
                    if entry is not pick:
                        heapq.heappush(heap, entry)
                t, wid = pick
                rr_next = (wid + 1) % max(n_warps, 1)
            in_heap.discard(wid)
            if wid in finished:
                continue
            if t != ready[wid]:
                if wid not in in_heap:
                    heapq.heappush(heap, (ready[wid], wid))
                    in_heap.add(wid)
                continue
            ix = ix_of[wid]
            if ptr[ix] == ends[ix]:
                finished.add(wid)
                if t > makespan:
                    makespan = t
                retire(wid)
                continue
            i = streams[ix][ptr[ix]]
            ptr[ix] += 1
            k = kind[i]
            if k == _OP_MEM:
                u = unitv[i]
                s = slots[i]
                start = t if t > pf[u] else pf[u]
                complete = start + s + lat[u] - 2
                pf[u] = start + s if pip[u] else complete + 1
                if start + s > busy[u]:
                    busy[u] = start + s
                if complete > last[u]:
                    last[u] = complete
                post = arg[i]
                if post:
                    compute_ops += 1
                    compute_cycles += post
                nr = complete + 1 + post
                ready[wid] = nr
                if nr > makespan:
                    makespan = nr
                heapq.heappush(heap, (nr, wid))
                in_heap.add(wid)
            elif k == _OP_COMPUTE:
                compute_ops += 1
                compute_cycles += arg[i]
                nr = t + arg[i]
                ready[wid] = nr
                if nr > makespan:
                    makespan = nr
                heapq.heappush(heap, (nr, wid))
                in_heap.add(wid)
            else:  # barrier arrival: wait for the group
                gkey = (
                    device_key
                    if arg[i] == _SCOPE_DEVICE
                    else (BarrierScope.DMM, warp_dmms[ix])
                )
                group = groups[gkey]
                group.waiting.add(wid)
                group.arrivals[wid] = t
                maybe_release(group)

        stats: dict[str, UnitStats] = {}
        for u, name in enumerate(self._unit_names):
            tally = self._unit_tallies[u]
            st = slot_tallies[u]
            stats[name] = UnitStats(
                transactions=tally["transactions"],
                reads=tally["reads"],
                writes=tally["writes"],
                requests=tally["requests"],
                slots=st["slots"],
                conflicted_transactions=st["conflicted"],
                excess_slots=st["excess"],
                port_busy_until=busy[u],
                last_complete=last[u],
            )
        result = SchedulerResult(
            cycles=makespan,
            compute_ops=compute_ops,
            compute_cycles=compute_cycles,
            barrier_releases=releases,
        )
        return result, stats


# ---------------------------------------------------------------------------
# The trace store: in-memory LRU + on-disk .npz files.
# ---------------------------------------------------------------------------


class _TraceCodec:
    """``CompiledTrace`` ↔ compressed ``.npz`` bytes.

    Named ``npz`` on purpose: the payload *is* a plain ``.npz`` archive
    of :meth:`CompiledTrace.to_payload`, so entries written generically
    (the store CLI) and entries written here are mutually readable.
    """

    name = "npz"
    extension = "npz"

    def encode(self, trace: "CompiledTrace") -> bytes:
        # np.savez_compressed's layout (one ``<name>.npy`` member per
        # array) at deflate level 1: about 1% larger, about twice
        # as fast to write.
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED,
                             compresslevel=1) as archive:
            for name, array in trace.to_payload().items():
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asanyarray(array),
                                              allow_pickle=False)
        return buf.getvalue()

    def decode(self, data: bytes) -> "CompiledTrace":
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return CompiledTrace.from_payload(
                {name: npz[name] for name in npz.files}
            )


_TRACE_CODEC = _TraceCodec()


class TraceStore:
    """Keyed storage of compiled traces with an obliviousness guard.

    Storage is the ``trace`` namespace of the unified artifact store
    (:mod:`repro.store`): lookups hit its in-memory LRU first, then the
    on-disk directory (shared across processes — sweep workers capture
    once, everyone replays), with envelope integrity verification and
    quarantine of corrupt entries.  A persisted capture enters the LRU
    on its first lookup, not when stored.  :meth:`insert` runs the
    cross-input self-check: two captures sharing a ``struct`` key (same
    program + shape) but with different input data must have identical
    trace signatures, or the program is flagged non-oblivious, its
    traces evicted, and replay refused from then on.
    """

    def __init__(
        self,
        *,
        directory: "Path | str | None" = None,
        persist: bool | None = None,
        max_entries: int | None = None,
        capture_limit: int | None = None,
        fingerprint: str | None = None,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None
            else _store_config.namespace_dir("trace")
        )
        self.persist = (
            _store_config.namespace_allowed("trace") if persist is None
            else persist
        )
        if max_entries is None:
            max_entries = (
                _store_config.namespace_int("trace", "LRU")
                or _DEFAULT_LRU_ENTRIES
            )
        self.max_entries = max(1, max_entries)
        if capture_limit is None:
            capture_limit = _store_config.env_int(CAPTURE_LIMIT_ENV)
            if capture_limit is None:
                capture_limit = _DEFAULT_CAPTURE_LIMIT
        #: Max transactions captured per launch (None = unlimited);
        #: overflowing launches refuse replay instead of exhausting RAM.
        self.capture_limit = capture_limit if capture_limit > 0 else None
        self.fingerprint = fingerprint or _store_config.repro_fingerprint()
        self._ns = ArtifactStore().namespace(
            "trace",
            _TRACE_CODEC,
            directory=self.directory,
            persist=self.persist,
            max_memory_entries=self.max_entries,
            max_memory_bytes=None,  # entry-count LRU, as before
        )
        self._struct_sig: dict[str, tuple[str, str]] = {}
        self._keys_by_struct: dict[str, set[str]] = {}
        self._flagged: set[str] = set()
        #: This store's ``trace_store.*`` section: captures and
        #: refusals counted here; hits, misses and contents read from
        #: the namespace.
        self.metrics = Registry()
        self.metrics.declare("trace_store.captures", "trace_store.refusals")
        self.metrics.set("trace_store", self._section)

    # -- the storage substrate ---------------------------------------------
    @property
    def store_namespace(self):
        """The underlying :class:`repro.store.Namespace`."""
        return self._ns

    # -- guard -------------------------------------------------------------
    def flagged(self, struct: str) -> bool:
        """Has the self-check branded this program+shape non-oblivious?"""
        return struct in self._flagged

    def note_refusal(self) -> None:
        """Count one launch that refused replay (fell back to event)."""
        self.metrics.inc("trace_store.refusals")

    def _flag(self, struct: str) -> None:
        self._flagged.add(struct)
        for key in self._keys_by_struct.pop(struct, set()):
            self._ns.delete(key)
        self._struct_sig.pop(struct, None)

    # -- access ------------------------------------------------------------
    def lookup(self, key: LaunchKey) -> CompiledTrace | None:
        """The stored trace for ``key``, or ``None`` (counted as a miss)."""
        trace = self._ns.get(key.full)
        if trace is None:
            return None
        self._keys_by_struct.setdefault(key.struct, set()).add(key.full)
        return trace

    def insert(self, key: LaunchKey, trace: CompiledTrace) -> bool:
        """Store a fresh capture; ``False`` if the self-check rejects it.

        Rejection means the program produced structurally different
        traces for different input data — it is not oblivious, and
        neither this nor any previously stored trace for it may be
        replayed.
        """
        signature = trace.signature()
        prev = self._struct_sig.get(key.struct)
        if prev is not None and prev[0] != key.data and prev[1] != signature:
            self._flag(key.struct)
            return False
        self._struct_sig[key.struct] = (key.data, signature)
        self._keys_by_struct.setdefault(key.struct, set()).add(key.full)
        # The capturing launch holds the trace for re-pricing; memory
        # keeps it only once a later launch looks it up.
        self._ns.put(key.full, trace, memory=False)
        self.metrics.inc("trace_store.captures")
        return True

    # -- observability -----------------------------------------------------
    def _section(self) -> dict:
        ns = self._ns.metrics[f"store.{self._ns.name}"]
        hits = ns["hits_memory"] + ns["hits_disk"]
        return {
            "hits": hits,
            "misses": ns["misses"],
            "hit_rate": hit_rate(hits, ns["misses"]),
            "flagged_programs": len(self._flagged),
            "entries_memory": ns["entries_memory"],
            "entries_disk": ns["entries_disk"],
            "size_bytes": ns["disk_bytes"],
        }

    def clear(self) -> None:
        """Drop every stored trace (memory and disk) and all flags."""
        self._ns.clear()
        self._struct_sig.clear()
        self._keys_by_struct.clear()
        self._flagged.clear()


_default_store: TraceStore | None = None


def default_store() -> TraceStore:
    """The process-wide trace store (created on first use from the env)."""
    global _default_store
    if _default_store is None:
        _default_store = TraceStore()
    return _default_store


def reset_default_store() -> None:
    """Forget the process-wide store (tests re-point it via the env)."""
    global _default_store
    _default_store = None


# ---------------------------------------------------------------------------
# The engine-facing entry point.
# ---------------------------------------------------------------------------


def price_trace(
    trace: CompiledTrace, engine, latencies: Sequence[int],
) -> tuple[SchedulerResult, dict[str, UnitStats]]:
    """Price ``trace`` on ``engine``'s units with the given ``latencies``.

    ``latencies`` aligns with ``engine.units``; each unit's policy and
    pipelining, and the engine's dispatch and backend, are the engine's
    own.  Touches neither the units nor memory.
    """
    units = engine.units
    return trace.evaluator().evaluate(
        latencies=latencies,
        policies=[u.policy for u in units],
        pipelined=[u.pipelined for u in units],
        dispatch=engine.dispatch,
        backend=engine.backend,
    )


def replay_launch(
    program: Callable,
    contexts: Sequence[WarpContext],
    engine,
) -> tuple[
    SchedulerResult | None, dict[str, UnitStats] | None, str,
    CompiledTrace | None,
]:
    """Decide one ``mode="replay"`` launch: ``(result, stats, tag, trace)``.

    ``engine`` is the launching :class:`~repro.machine.engine.MachineEngine`
    or :class:`~repro.machine.hmm.HMMEngine`; its units have just been
    reset by :func:`~repro.machine.engine.run_launch`.

    * trace-store hit → re-price the stored trace at the engine's
      current latencies/policies/dispatch, reinstate the captured
      post-run memory state, tag ``"replay"`` (``stats`` holds the
      per-unit statistics; the engine's own units saw no traffic);
    * miss → one instrumented event run captures the trace (undo-logged:
      a capture-cap overflow rolls back and counts as a refusal), stores
      it, tag ``"replay-capture"`` (``stats is None`` — the engine's
      units observed the run);
    * refusal (non-oblivious / unkeyable / flagged / overflow) →
      ``result is None``, tag ``"replay-refused"``: the caller runs the
      launch on the event scheduler.

    ``trace`` is the trace a hit priced or a capture the store accepted,
    which prices this launch at any other latency; ``None`` after a
    refusal or a capture the self-check rejected.
    """
    store = default_store()
    width = engine.params.width
    units, spaces = engine.units, engine.spaces
    key = derive_launch_key(
        program,
        machine=engine.kind,
        width=width,
        contexts=contexts,
        spaces=spaces,
        fingerprint=store.fingerprint,
    )
    if key is None or store.flagged(key.struct):
        store.note_refusal()
        return None, None, "replay-refused", None

    unit_names = [unit.name for unit in units]
    trace = store.lookup(key)
    if trace is not None and trace.matches_launch(
        machine=engine.kind, width=width, contexts=contexts,
        unit_names=unit_names,
    ):
        result, stats = price_trace(trace, engine, [u.latency for u in units])
        for space in spaces:
            cells = trace.post_state.get(space.name)
            if cells is not None:
                space.load_state(cells)
        return result, stats, "replay", trace

    # Miss: capture with one instrumented event run.
    compiler = TraceCompiler(unit_names, max_transactions=store.capture_limit)
    result = attempt_with_rollback(
        lambda: Scheduler(
            engine._unit_for, trace=compiler, dispatch=engine.dispatch
        ).run([WarpState(ctx=c, program=program(c)) for c in contexts]),
        TraceOverflowError,
        spaces,
        units,
    )
    if result is None:
        store.note_refusal()
        return None, None, "replay-refused", None
    trace = compiler.compile(
        contexts=contexts,
        machine=engine.kind,
        width=width,
        post_state={space.name: space.state() for space in spaces},
        fingerprint=store.fingerprint,
    )
    accepted = store.insert(key, trace)
    return result, None, "replay-capture", trace if accepted else None
