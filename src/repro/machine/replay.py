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
    kernel's outputs.  Serializes to a single ``.npz`` file.

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
import os
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import KernelError, TraceOverflowError
from repro.machine.memory import ArrayHandle, MemorySpace
from repro.native import NATIVE_METRICS, native_kernels, resolve_backend
from repro.store import ArtifactStore
from repro.store import config as _store_config
from repro.machine.ops import AccessKind, BarrierScope
from repro.machine.pipeline import PipelinedMemoryUnit, UnitStats
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
    "TraceStoreStats",
    "default_store",
    "derive_launch_key",
    "is_replay_oblivious",
    "non_oblivious",
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

    @property
    def num_transactions(self) -> int:
        return int(self.meta["transactions"])

    @property
    def nbytes(self) -> int:
        arrays = (
            self.op_warp, self.op_kind, self.op_unit, self.op_arg,
            self.op_read, self.op_req, self.addr_off, self.addresses,
            *self.post_state.values(),
        )
        return int(sum(a.nbytes for a in arrays))

    def addresses_of(self, i: int) -> np.ndarray:
        """Raw lane addresses of memory op ``i`` (a view)."""
        return self.addresses[self.addr_off[i] : self.addr_off[i + 1]]

    # -- identity ----------------------------------------------------------
    def signature(self) -> str:
        """Digest of the trace *structure* (ops + addresses, not values).

        Two captures of an oblivious program under different input data
        must produce equal signatures; the trace store enforces this.
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
        for arr in (
            self.op_warp, self.op_kind, self.op_unit, self.op_arg,
            self.op_read, self.op_req, self.addr_off, self.addresses,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
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

    def save(self, path: "Path | str") -> None:
        """Write the trace as one compressed ``.npz`` file (atomically)."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **self.to_payload())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: "Path | str") -> "CompiledTrace":
        with np.load(Path(path)) as npz:
            return cls.from_payload({name: npz[name] for name in npz.files})

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

    The native kernel wants the int64 array; the Python loop wants a
    plain list (materialized lazily — the native path never pays for
    it).  ``per_unit`` holds the latency-independent slot tallies.
    """

    __slots__ = ("array", "per_unit", "_list")

    def __init__(self, array: np.ndarray, per_unit: list[dict]) -> None:
        self.array = array
        self.per_unit = per_unit
        self._list: "list[int] | None" = None

    def as_list(self) -> list[int]:
        if self._list is None:
            self._list = self.array.tolist()
        return self._list


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
        self.trace = trace
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

    # -- lazy per-backend decode -------------------------------------------
    def _python_lists(self) -> tuple:
        """Hot arrays as python lists (the Python loop is pure int work)."""
        if self._py_lists is None:
            trace = self.trace
            off = self._stream_off
            streams = [
                self._stream_ops[off[x]:off[x + 1]].tolist()
                for x in range(len(self._warp_ids))
            ]
            self._py_lists = (
                trace.op_kind.tolist(),
                trace.op_unit.tolist(),
                trace.op_arg.tolist(),
                streams,
            )
        return self._py_lists

    def _native_buffers(self) -> dict:
        """Contiguous typed buffers for ``repro_replay_price``."""
        if self._native_buf is None:
            trace = self.trace
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
            self._native_buf = {
                "warp_ids": ids,
                "warp_group": warp_group,
                "n_groups": len(group_of) + 1,
                "wid_order": np.argsort(ids, kind="stable").astype(
                    np.int64, copy=False
                ),
                "op_kind": np.ascontiguousarray(trace.op_kind, dtype=np.int8),
                "op_unit": np.ascontiguousarray(trace.op_unit, dtype=np.int16),
                "op_arg": np.ascontiguousarray(trace.op_arg, dtype=np.int64),
                "addr_off": np.ascontiguousarray(
                    trace.addr_off, dtype=np.int64
                ),
                "addresses": np.ascontiguousarray(
                    trace.addresses, dtype=np.int64
                ),
            }
        return self._native_buf

    # -- slot counting (vectorized, cached per policy set) -----------------
    def _slot_table(
        self, policies: Sequence[SlotPolicy], kernels: "dict | None" = None
    ) -> _SlotTable:
        key = tuple(f"{type(p).__qualname__}:{p.name}" for p in policies)
        cached = self._slots_cache.get(key)
        if cached is not None:
            return cached
        width = int(self.trace.meta["width"])
        trace = self.trace
        slots = np.zeros(trace.num_ops, dtype=np.int64)
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
                        NATIVE_METRICS.native_calls += 1
            if counts is None:
                views = [trace.addresses_of(i) for i in ops]
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
        n_units = len(self._unit_names)
        out_scalars = np.zeros(4, dtype=np.int64)
        out_busy = np.zeros(n_units, dtype=np.int64)
        out_last = np.zeros(n_units, dtype=np.int64)
        rc = kernels["repro_replay_price"](
            len(self._warp_ids),
            buf["warp_ids"],
            buf["warp_group"],
            buf["wid_order"],
            self._stream_off,
            self._stream_ops,
            buf["op_kind"],
            buf["op_unit"],
            buf["op_arg"],
            table.array,
            n_units,
            np.asarray(lat, dtype=np.int64),
            np.asarray([1 if x else 0 for x in pip], dtype=np.uint8),
            buf["n_groups"],
            1 if dispatch == "round-robin" else 0,
            _SCOPE_DEVICE,
            out_scalars,
            out_busy,
            out_last,
        )
        if rc != 0:  # pragma: no cover - allocation failure only
            return None
        NATIVE_METRICS.native_calls += 1
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
                port_busy_until=int(out_busy[u]),
                last_complete=int(out_last[u]),
            )
        result = SchedulerResult(
            cycles=int(out_scalars[0]),
            compute_ops=int(out_scalars[1]),
            compute_cycles=int(out_scalars[2]),
            barrier_releases=int(out_scalars[3]),
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
    (the byte format of :meth:`CompiledTrace.save`), so entries written
    generically (the store CLI) and entries written here are mutually
    readable.
    """

    name = "npz"
    extension = "npz"

    def encode(self, trace: "CompiledTrace") -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(buf, **trace.to_payload())
        return buf.getvalue()

    def decode(self, data: bytes) -> "CompiledTrace":
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return CompiledTrace.from_payload(
                {name: npz[name] for name in npz.files}
            )


_TRACE_CODEC = _TraceCodec()


def _trace_fingerprint() -> str:
    """Cache-invalidation fingerprint; shares the sweep cache's override
    knob (``REPRO_SWEEP_FINGERPRINT``) so one variable governs both."""
    env = os.environ.get("REPRO_SWEEP_FINGERPRINT")
    if env:
        return env
    from repro import __version__  # deferred: repro imports this module

    return f"repro-{__version__}"


@dataclass(frozen=True)
class TraceStoreStats:
    """Store contents plus this session's counters."""

    entries_memory: int
    entries_disk: int
    size_bytes: int
    hits_memory: int
    hits_disk: int
    misses: int
    captures: int
    refusals: int
    flagged_programs: int
    evictions: int
    io_errors: int

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def describe(self) -> str:
        return (
            f"trace store: {self.entries_memory} in memory / "
            f"{self.entries_disk} on disk ({self.size_bytes} bytes); "
            f"session: {self.hits} hits ({self.hits_memory} mem, "
            f"{self.hits_disk} disk) / {self.misses} misses, "
            f"{self.captures} captures, {self.refusals} refusals, "
            f"{self.flagged_programs} flagged non-oblivious"
        )


class TraceStore:
    """Keyed storage of compiled traces with an obliviousness guard.

    Storage is the ``trace`` namespace of the unified artifact store
    (:mod:`repro.store`): lookups hit its in-memory LRU first, then the
    on-disk directory (shared across processes — sweep workers capture
    once, everyone replays), with envelope integrity verification and
    quarantine of corrupt entries.  :meth:`insert` runs the cross-input
    self-check: two captures sharing a ``struct`` key (same program +
    shape) but with different input data must have identical trace
    signatures, or the program is flagged non-oblivious, its traces
    evicted, and replay refused from then on.
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
            raw = os.environ.get(CAPTURE_LIMIT_ENV)
            capture_limit = int(raw) if raw else _DEFAULT_CAPTURE_LIMIT
        #: Max transactions captured per launch (None = unlimited);
        #: overflowing launches refuse replay instead of exhausting RAM.
        self.capture_limit = capture_limit if capture_limit > 0 else None
        self.fingerprint = fingerprint or _trace_fingerprint()
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
        self.captures = 0
        self.refusals = 0

    # -- the storage substrate ---------------------------------------------
    @property
    def store_namespace(self):
        """The underlying :class:`repro.store.Namespace`."""
        return self._ns

    # Session counters delegate to the namespace, so the same numbers
    # appear here and in the store-wide /metrics aggregation.
    @property
    def hits_memory(self) -> int:
        return self._ns.counters.hits_memory

    @property
    def hits_disk(self) -> int:
        return self._ns.counters.hits_disk

    @property
    def misses(self) -> int:
        return self._ns.counters.misses

    @property
    def evictions(self) -> int:
        return (self._ns.counters.evictions_memory
                + self._ns.counters.evictions_disk)

    @property
    def io_errors(self) -> int:
        # Corrupt (quarantined) entries count here too: before the
        # unified store they surfaced as load failures.
        return (self._ns.counters.io_errors
                + self._ns.counters.integrity_failures)

    def _path(self, key: str) -> Path:
        return self._ns.path_of(key)

    # -- guard -------------------------------------------------------------
    def flagged(self, struct: str) -> bool:
        """Has the self-check branded this program+shape non-oblivious?"""
        return struct in self._flagged

    def note_refusal(self) -> None:
        """Count one launch that refused replay (fell back to event)."""
        self.refusals += 1

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
        self._ns.put(key.full, trace)
        self.captures += 1
        return True

    # -- observability -----------------------------------------------------
    def stats(self) -> TraceStoreStats:
        contents = self._ns.stats()
        return TraceStoreStats(
            entries_memory=contents.entries_memory,
            entries_disk=contents.entries_disk,
            size_bytes=contents.disk_bytes,
            hits_memory=self.hits_memory,
            hits_disk=self.hits_disk,
            misses=self.misses,
            captures=self.captures,
            refusals=self.refusals,
            flagged_programs=len(self._flagged),
            evictions=self.evictions,
            io_errors=self.io_errors,
        )

    def stats_dict(self) -> dict:
        """JSON-able stats (the service's ``/metrics`` payload)."""
        s = self.stats()
        lookups = s.hits + s.misses
        return {
            "hits": s.hits,
            "misses": s.misses,
            "hit_rate": round(s.hits / lookups, 4) if lookups else 0.0,
            "captures": s.captures,
            "refusals": s.refusals,
            "flagged_programs": s.flagged_programs,
            "entries_memory": s.entries_memory,
            "entries_disk": s.entries_disk,
            "size_bytes": s.size_bytes,
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


def replay_launch(
    *,
    program: Callable,
    contexts: Sequence[WarpContext],
    machine: str,
    width: int,
    unit_names: Sequence[str],
    units: Sequence[PipelinedMemoryUnit],
    spaces: Sequence[MemorySpace],
    unit_for,
    dispatch: str,
    store: TraceStore | None = None,
    backend: "str | None" = None,
) -> tuple[SchedulerResult, dict[str, UnitStats] | None, str]:
    """Run one ``mode="replay"`` launch; returns ``(result, stats, tag)``.

    * trace-store hit → re-price the stored trace at the engine's
      current latencies/policies/dispatch, reinstate the captured
      post-run memory state, tag ``"replay"`` (``stats`` holds the
      per-unit statistics; the engine's own units saw no traffic);
    * miss → one instrumented event run captures the trace (undo-logged:
      a capture-cap overflow rolls back and re-runs untraced), stores
      it, tag ``"replay-capture"`` (``stats is None`` — the engine's
      units observed the run);
    * refusal (non-oblivious / unkeyable / flagged / overflow) → plain
      event run, tag ``"replay-refused"`` (``stats is None``).
    """
    store = store if store is not None else default_store()
    key = derive_launch_key(
        program,
        machine=machine,
        width=width,
        contexts=contexts,
        spaces=spaces,
        fingerprint=store.fingerprint,
    )
    if key is None or store.flagged(key.struct):
        store.note_refusal()
        result = Scheduler(unit_for, dispatch=dispatch).run(
            [WarpState(ctx=c, program=program(c)) for c in contexts]
        )
        return result, None, "replay-refused"

    trace = store.lookup(key)
    if trace is not None and trace.matches_launch(
        machine=machine, width=width, contexts=contexts, unit_names=unit_names
    ):
        result, stats = trace.evaluator().evaluate(
            latencies=[u.latency for u in units],
            policies=[u.policy for u in units],
            pipelined=[u.pipelined for u in units],
            dispatch=dispatch,
            backend=backend,
        )
        for space in spaces:
            cells = trace.post_state.get(space.name)
            if cells is not None:
                space.load_state(cells)
        return result, stats, "replay"

    # Miss: capture with one instrumented event run.  The undo log lets a
    # capture-cap overflow roll back cleanly and re-run untraced.
    compiler = TraceCompiler(unit_names, max_transactions=store.capture_limit)
    for space in spaces:
        space.begin_undo()
    try:
        result = Scheduler(unit_for, trace=compiler, dispatch=dispatch).run(
            [WarpState(ctx=c, program=program(c)) for c in contexts]
        )
    except TraceOverflowError:
        for space in spaces:
            space.rollback()
        for unit in units:
            unit.reset()
        store.note_refusal()
        result = Scheduler(unit_for, dispatch=dispatch).run(
            [WarpState(ctx=c, program=program(c)) for c in contexts]
        )
        return result, None, "replay-refused"
    for space in spaces:
        space.end_undo()
    trace = compiler.compile(
        contexts=contexts,
        machine=machine,
        width=width,
        post_state={space.name: space.state() for space in spaces},
        fingerprint=store.fingerprint,
    )
    store.insert(key, trace)
    return result, None, "replay-capture"
