"""Trace-compiled replay: capture a launch once, re-cost it for any ``l``.

The cost of a *memory-oblivious* kernel on the paper's machines is fully
determined by its warp-level operation trace: slot counts come from the
bank / address-group decomposition of each transaction's lane addresses,
and end-to-end time follows the pipeline recurrence.  Neither depends on
the memory latency ``l``, the slot policy, pipelining, or the dispatch
order — those are *evaluation-time* parameters.  So a latency or policy
sweep does not need to re-execute the thread programs at every point: one
capture per ``(kernel, n, w, d, data)`` shape yields a
:class:`CompiledTrace`, and a :class:`ReplayCostEvaluator` prices it at
any ``(l, policy, pipelined, dispatch)`` with one vectorized slot count
plus a lean integer event loop — bit-identical to the event scheduler,
without generators, numpy per-op address work, or memory effects.  The
capture itself simulates no time: it steps each warp from barrier to
barrier, and its trace is priced like a stored one.

Pieces
------

:class:`TraceCompiler`
    Records the complete per-warp operation streams of one capture
    (memory transactions with raw lane addresses, fused ranges as one
    chunk, compute steps, fully-masked ops, barrier arrivals).

:class:`CompiledTrace`
    The compact structured-numpy-array form of a captured launch, plus
    the cells it wrote, so a replayed launch still "produces" the
    kernel's outputs.  The trace store's codec writes it as one ``.npz``
    archive.  Its per-warp decode (:meth:`CompiledTrace.streams`, each
    warp's ops in program order) is made once and read by the race
    certificate and both pricers.

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
    whole point.  A capture is stored the second time its key is
    captured, so a launch made once writes nothing.

Safety
------

A trace may be priced at any ``(l, policy, pipelined, dispatch)``
exactly when no schedule can change what a warp reads or what memory
ends up holding: no two warps touch one address inside a barrier epoch
with at least one of them writing.  Every capture proves or refutes
this for its own launch (:meth:`CompiledTrace.race_free`), and the
proof covers the event run too.  Take a race-free capture and any other
schedule, and the first read in that schedule that sees a different
value.  The write that changed the value comes from another warp, in
the same barrier epoch, from the same program prefix, so the capture
already held that conflicting pair: a race.  A race-free capture is
priced and offered to the store; a racy one rolls its stores back, is
counted as a refusal and as a flagged capture, and the launch runs on
the event scheduler.  The launch key hashes the memory pre-state, so a
certificate covers exactly the launches that hit its trace.

Programs whose closures contain objects the keyer cannot canonically
hash also refuse replay (a wrong cache hit would be silent corruption;
a refused one merely costs the event-mode price).
"""

from __future__ import annotations

import array
import dataclasses
import enum
import functools
import hashlib
import heapq
import io
import json
import struct
import threading
import types
import zipfile
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import DeadlockError, KernelError, TraceOverflowError
from repro.machine.memory import MemorySpace, attempt_with_rollback
from repro.metrics import PROCESS, Registry, hit_rate
from repro.native import native_kernels, resolve_backend
from repro.native.cdefs import KERNELS as _NATIVE_KERNELS
from repro.store import ArtifactStore
from repro.store.config import repro_fingerprint
from repro.machine.ops import (
    BarrierOp,
    BarrierScope,
    ComputeOp,
    ReadOp,
    ReadRangeOp,
    WriteOp,
    WriteRangeOp,
)
from repro.machine.pipeline import UnitStats
from repro.machine.policy import (
    DMMBankPolicy,
    IdealPolicy,
    SlotPolicy,
    UMMGroupPolicy,
)
from repro.machine.scheduler import SchedulerResult, WarpState, _BarrierGroup
from repro.machine.warp import WarpContext

__all__ = [
    "CompiledTrace",
    "ReplayCostEvaluator",
    "TraceCompiler",
    "TraceStore",
    "default_store",
    "derive_launch_key",
    "price_trace",
    "replay_launch",
    "reset_default_store",
]

#: Most memory transactions one capture records: a launch past it
#: refuses replay instead of exhausting RAM.
_CAPTURE_LIMIT = 1 << 21
#: Keys a store remembers as captured once and not yet stored.
_FIRST_CAPTURE_KEYS = 1024
#: Largest packed (device epoch, address, DMM epoch, op) key
#: ``race_free`` sorts; a launch whose key could pass it refuses replay.
_PACKED_KEY_LIMIT = (1 << 62) - 1
_INT64 = np.dtype(np.int64)
#: One recorded op ``(warp, kind, unit, arg, read, lanes, rounds)`` as
#: the native-order int64 bytes of the compiler's op buffer.
_pack_op = struct.Struct("7q").pack

#: Operation codes of the compiled stream.
_OP_MEM, _OP_COMPUTE, _OP_BARRIER, _OP_MASKED = 0, 1, 2, 3
#: Barrier scope codes (``op_arg`` of a barrier op).
_SCOPE_DMM, _SCOPE_DEVICE = 0, 1
_DEVICE = BarrierScope.DEVICE

# ---------------------------------------------------------------------------
# Launch keying: canonical content hash of (program, shape, memory state).
# ---------------------------------------------------------------------------


class _Unkeyable(Exception):
    """A closure/default value has no canonical content encoding."""


_MAX_KEY_DEPTH = 16
#: Entries each keying memo (:data:`_FEEDERS`, :data:`_CODE_FACTS`)
#: holds; past it the memo starts afresh.
_MEMO_ENTRIES = 4096


def _feed_value(h, value, seen: set[int], depth: int = 0) -> None:
    """Hash one python value canonically; raise :class:`_Unkeyable`.

    The encoding is chosen by the value's exact type, through
    :data:`_FEEDERS`, which :func:`_feeder_for` fills the first time a
    type is seen.
    """
    if depth > _MAX_KEY_DEPTH:
        raise _Unkeyable("value nesting too deep")
    cls = type(value)
    feed = _FEEDERS.get(cls)
    if feed is None:
        if len(_FEEDERS) >= _MEMO_ENTRIES:
            _FEEDERS.clear()
        feed = _FEEDERS[cls] = _feeder_for(cls)
    feed(h, value, seen, depth)


def _feed_scalar(h, value, seen, depth) -> None:
    h.update(f"{type(value).__name__}:{value!r};".encode())


def _feed_np_scalar(h, value, seen, depth) -> None:
    h.update(f"np:{value.dtype}:{value.item()!r};".encode())


def _feed_ndarray(h, value, seen, depth) -> None:
    h.update(f"ndarray:{value.dtype}:{value.shape};".encode())
    h.update(np.ascontiguousarray(value).tobytes())


def _feed_sequence(h, value, seen, depth) -> None:
    h.update(f"{type(value).__name__}[{len(value)}](".encode())
    for item in value:
        _feed_value(h, item, seen, depth + 1)
    h.update(b")")


def _feed_dict(h, value, seen, depth) -> None:
    h.update(f"dict[{len(value)}](".encode())
    for key in sorted(value, key=repr):
        h.update(repr(key).encode())
        _feed_value(h, value[key], seen, depth + 1)
    h.update(b")")


def _feed_set(h, value, seen, depth) -> None:
    h.update(f"set[{len(value)}]{sorted(map(repr, value))!r};".encode())


def _feed_range(h, value, seen, depth) -> None:
    h.update(f"range:{value!r};".encode())


def _feed_enum(h, value, seen, depth) -> None:
    h.update(f"enum:{value!r};".encode())


def _feed_space(h, value, seen, depth) -> None:
    h.update(f"space:{value.name}:{value.space_id!r};".encode())


def _feed_partial(h, value, seen, depth) -> None:
    h.update(b"partial(")
    _feed_function(h, value.func, seen, depth + 1)
    _feed_value(h, tuple(value.args), seen, depth + 1)
    _feed_value(h, dict(value.keywords), seen, depth + 1)
    h.update(b")")


def _dataclass_feeder(cls: type) -> Callable:
    """A dataclass's fields in declaration order, named; the names and
    the ``dc:<qualname>(`` head are encoded once per class."""
    head = f"dc:{cls.__qualname__}(".encode()
    names = tuple((f.name, f.name.encode()) for f in dataclasses.fields(cls))

    def feed(h, value, seen, depth):
        h.update(head)
        for name, encoded in names:
            h.update(encoded)
            _feed_value(h, getattr(value, name), seen, depth + 1)
        h.update(b")")
    return feed


def _feed_callable(h, value, seen, depth) -> None:
    _feed_function(h, value, seen, depth + 1)


def _feed_unkeyable(h, value, seen, depth) -> None:
    raise _Unkeyable(f"cannot key a {type(value).__qualname__} value")


def _feeder_for(cls: type) -> Callable:
    """The feeder of values of exactly ``cls``.

    The first match of an ordered chain of checks on the type, so a
    subclass is encoded as the first of its bases the chain names (a
    ``bool`` as a scalar, an ``IntEnum`` as an int).  Instances are
    callable when the type defines ``__call__``.
    """
    if cls is type(None) or issubclass(cls, (bool, int, float, str, bytes)):
        return _feed_scalar
    for bases, feed in (
        (np.generic, _feed_np_scalar),
        (np.ndarray, _feed_ndarray),
        ((tuple, list), _feed_sequence),
        (dict, _feed_dict),
        ((set, frozenset), _feed_set),
        (range, _feed_range),
        (enum.Enum, _feed_enum),
        (MemorySpace, _feed_space),
        (functools.partial, _feed_partial),
    ):
        if issubclass(cls, bases):
            return feed
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_feeder(cls)
    if any("__call__" in vars(base) for base in cls.__mro__):
        return _feed_callable
    return _feed_unkeyable


#: The feeder of each value type met so far (see :func:`_feeder_for`).
_FEEDERS: dict[type, Callable] = {}


class _Blob(list):
    """Collects what a feeder hashes, for :func:`_code_facts`."""

    update = list.append


def _const_depth(const) -> int:
    """How many levels below a code constant :func:`_feed_value`
    descends: only a tuple has items."""
    if type(const) is tuple:
        return 1 + max(map(_const_depth, const), default=-1)
    return 0


def _code_facts(code) -> tuple:
    """``(code, blob, need, globals)`` of a code object, made once.

    ``blob`` is what keying the code feeds: the bytes of ``co_code``,
    ``co_names`` and the constants, nested code included; ``None`` when
    a constant cannot be keyed.  ``need`` is how far below the code's
    own depth the constants reach: a function at ``depth`` is refused
    when ``depth + need`` passes :data:`_MAX_KEY_DEPTH`.  ``globals``
    holds each global name the code or its nested code uses, sorted,
    with its encoded ``g:<name>=`` head.  A code object never changes,
    and the memo holds it, so its ``id`` is not reused while the entry
    lives.
    """
    facts = _CODE_FACTS.get(id(code))
    if facts is not None:
        return facts
    blob, need = _Blob([code.co_code, repr(code.co_names).encode()]), 0
    names = set(code.co_names)
    try:
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                _, inner, inner_need, inner_globals = _code_facts(const)
                if inner is None:
                    raise _Unkeyable("unkeyable constant in nested code")
                blob.update(inner)
                need = max(need, inner_need + 1)
                names.update(name for name, _ in inner_globals)
            else:
                _feed_value(blob, const, set(), 1)
                need = max(need, _const_depth(const) + 1)
    except _Unkeyable:
        blob = None
    facts = (
        code,
        None if blob is None else b"".join(blob),
        need,
        tuple((name, f"g:{name}=".encode()) for name in sorted(names)),
    )
    if len(_CODE_FACTS) >= _MEMO_ENTRIES:
        _CODE_FACTS.clear()
    _CODE_FACTS[id(code)] = facts
    return facts


#: :func:`_code_facts` of each code object keyed so far, by ``id``.
_CODE_FACTS: dict[int, tuple] = {}


def _feed_function(
    h, fn: Callable, seen: set[int], depth: int = 0,
    *, walk_globals: bool = False,
) -> None:
    """Hash a function's identity, bytecode, defaults, and closure.

    A bound method also hashes the instance it is bound to (its
    ``__self__``), as a value: what the method computes depends on it.
    A builtin bound to a module (``len``, ``math.sqrt``) keys by name.

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
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        h.update(b"self=")
        _feed_value(h, owner, seen, depth + 1)
    code = getattr(fn, "__code__", None)
    if code is None:
        if not callable(fn) or name is None:
            raise _Unkeyable(f"cannot key callable {fn!r}")
        return  # builtin / C function: module + name is its identity
    _, blob, need, global_names = _code_facts(code)
    if blob is None:
        raise _Unkeyable(f"cannot key a constant of {name}")
    if depth + need > _MAX_KEY_DEPTH:
        raise _Unkeyable("value nesting too deep")
    h.update(blob)
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
    fn_globals = getattr(fn, "__globals__", None) or {}
    for gname, head in global_names:
        if gname not in fn_globals:
            continue  # builtin or attribute name: stable, nothing to hash
        value = fn_globals[gname]
        h.update(head)
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
) -> str | None:
    """Content key (hex digest) of one launch, or ``None`` when the
    program cannot be keyed and replay must refuse.

    The key covers everything the *operation trace* of a race-free
    launch depends on: the program itself (bytecode, defaults, closure
    values — including :class:`ArrayHandle` placements), the warp/DMM
    partition, the machine kind and width, and the full memory
    pre-state.  It deliberately excludes latency, slot policy,
    pipelining, and dispatch order — the replay-time parameters.
    """
    h = hashlib.sha256()
    h.update(f"trace-v3|{fingerprint}|{machine}|{width}|".encode())
    for ctx in contexts:
        h.update(f"{ctx.warp_id},{ctx.dmm_id},{ctx.tids.size};".encode())
    try:
        _feed_function(h, program, set(), walk_globals=True)
    except _Unkeyable:
        return None
    for space in spaces:
        h.update(f"{space.name}|{space.space_id!r}|{space.used}|".encode())
        h.update(space.cells())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Capture: step the warps barrier to barrier, record per-warp streams.
# ---------------------------------------------------------------------------


class TraceCompiler:
    """Records the per-warp operation streams of one launch.

    The capture (:func:`replay_launch`) hands it each op as a warp
    yields it: memory transactions with their *raw* (not deduplicated)
    lane addresses, since replay recounts slots under any policy; a
    fused range as one chunk of ``rounds`` transactions; compute steps,
    fully-masked memory ops and barrier arrivals, which cost nothing on
    a memory unit but shape the timeline.  ``max_transactions`` caps
    the memory transactions recorded: going past it raises
    :class:`~repro.errors.TraceOverflowError`.  :meth:`compile` freezes
    the streams into a :class:`CompiledTrace`.
    """

    def __init__(
        self,
        unit_names: Sequence[str],
        *,
        max_transactions: int | None = None,
    ) -> None:
        self._unit_names = list(unit_names)
        self.max_transactions = max_transactions
        #: ``(warp, kind, unit, arg, read, lanes, rounds)`` per op or
        #: fused range, flat; ``compile`` expands a range to its rounds.
        self._ops = array.array("q")
        #: Every op's raw lane addresses, back to back.
        self._addresses = array.array("q")
        self._transactions = 0

    def _overflow(self) -> TraceOverflowError:
        return TraceOverflowError(
            f"trace exceeded max_transactions={self.max_transactions}; "
            "raise the cap (or trace a smaller launch)"
        )

    def _append_addresses(self, addresses: np.ndarray) -> None:
        if addresses.dtype is not _INT64:
            addresses = addresses.astype(np.int64)
        self._addresses.frombytes(addresses.tobytes())

    # -- recording ---------------------------------------------------------
    def memory(self, warp: int, unit: int, addresses: np.ndarray,
               read: bool) -> None:
        """One warp memory transaction on unit index ``unit``."""
        self._transactions += 1
        if (self.max_transactions is not None
                and self._transactions > self.max_transactions):
            raise self._overflow()
        self._ops.frombytes(
            _pack_op(warp, _OP_MEM, unit, 0, read, addresses.size, 1))
        self._append_addresses(addresses)

    def range(self, warp: int, unit: int, addresses: np.ndarray, read: bool,
              compute: int) -> None:
        """A fused range: one transaction per row of ``addresses``, each
        followed by ``compute`` time units of local work."""
        rounds, lanes = addresses.shape
        self._transactions += rounds
        if (self.max_transactions is not None
                and self._transactions > self.max_transactions):
            raise self._overflow()
        self._ops.frombytes(
            _pack_op(warp, _OP_MEM, unit, compute, read, lanes, rounds))
        self._append_addresses(addresses)

    def compute(self, warp: int, cycles: int) -> None:
        self._ops.frombytes(_pack_op(warp, _OP_COMPUTE, -1, cycles, 0, 0, 1))

    def masked(self, warp: int) -> None:
        """A fully-masked memory op: no cost, but a dispatch turn."""
        self._ops.frombytes(_pack_op(warp, _OP_MASKED, -1, 0, 0, 0, 1))

    def arrival(self, warp: int, scope: BarrierScope) -> None:
        code = _SCOPE_DEVICE if scope is _DEVICE else _SCOPE_DMM
        self._ops.frombytes(_pack_op(warp, _OP_BARRIER, -1, code, 0, 0, 1))

    # -- freezing ----------------------------------------------------------
    def compile(
        self,
        *,
        contexts: Sequence[WarpContext],
        machine: str,
        width: int,
        post_state: "dict[str, tuple[np.ndarray, np.ndarray]]",
        fingerprint: str,
    ) -> "CompiledTrace":
        """Freeze the recorded streams into a :class:`CompiledTrace`.

        ``post_state`` maps a space name to the ``(addresses, values)``
        of the cells the launch wrote there.
        """
        ops = np.frombuffer(self._ops, dtype=np.int64).reshape(-1, 7)
        rounds = ops[:, 6]
        if (rounds > 1).any():
            ops = np.repeat(ops, rounds, axis=0)
        warp, kind, unit, arg, read, lanes = ops[:, :6].T
        lengths = np.where(kind == _OP_MEM, lanes, 0)
        # The trace's addresses are a view of the recorded buffer.
        addresses = np.frombuffer(self._addresses, dtype=np.int64)
        meta = {
            "version": 2,
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
            op_warp=warp.astype(np.int32),
            op_kind=kind.astype(np.int8),
            op_unit=unit.astype(np.int16),
            op_arg=np.ascontiguousarray(arg),
            op_read=read.astype(np.int8),
            op_req=lanes.astype(np.int32),
            addr_off=np.concatenate(([0], np.cumsum(lengths))),
            addresses=addresses,
            post_state=post_state,
        )


def _step_warps(
    program: Callable,
    contexts: Sequence[WarpContext],
    engine,
    compiler: TraceCompiler,
) -> None:
    """Run one launch to completion without the event scheduler.

    Each runnable warp's generator is stepped until the warp reaches a
    barrier or finishes.  A barrier group (the device, or one DMM)
    releases its waiting warps once every live member has arrived.
    Memory effects apply as the ops come, each op goes straight into
    ``compiler``, and no time is simulated: the trace is priced later.
    An event run applies the same stores in another order within each
    barrier epoch, which in a race-free launch changes no value any warp
    reads.  Raises :class:`~repro.errors.DeadlockError` when warps are
    left at a barrier that can never be released,
    :class:`~repro.errors.KernelError` on an op of any other type than
    the six of :mod:`repro.machine.ops` (a subclass too: the event
    run, which the refusal falls back to, takes it), and whatever the
    program or ``engine._unit_for`` raises.
    """
    unit_index = {id(unit): i for i, unit in enumerate(engine.units)}
    unit_of: dict[tuple, int] = {}
    warps = {ctx.warp_id: WarpState(ctx=ctx, program=program(ctx))
             for ctx in contexts}
    device = _BarrierGroup(set(warps))
    by_dmm: dict[int, set[int]] = {}
    for ctx in contexts:
        by_dmm.setdefault(ctx.dmm_id, set()).add(ctx.warp_id)
    dmm_groups = {dmm: _BarrierGroup(members)
                  for dmm, members in by_dmm.items()}
    runnable = deque(warps.values())

    def release(group: _BarrierGroup) -> None:
        if group.complete():
            runnable.extend(warps[w] for w in sorted(group.waiting))
            group.waiting.clear()

    def unit(ws: WarpState, op) -> int:
        key = (op.array.space, ws.ctx.dmm_id)
        u = unit_of.get(key)
        if u is None:
            u = unit_of[key] = unit_index[id(engine._unit_for(ws, op))]
        return u

    while runnable:
        ws = runnable.popleft()
        wid, gen, lanes = ws.warp_id, ws.program, ws.ctx.num_lanes
        dmm = dmm_groups[ws.ctx.dmm_id]
        send = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                for group in (device, dmm):
                    group.members.discard(wid)
                    release(group)
                break
            send = None
            kind = type(op)
            if kind is ReadOp:
                addresses = op.addresses
                if not addresses.size:
                    compiler.masked(wid)
                    send = np.zeros(lanes, dtype=np.float64)
                    continue
                compiler.memory(wid, unit(ws, op), addresses, True)
                if addresses.size == lanes:
                    # Every lane reads: the load (a fresh array) already
                    # is the full-width result.
                    send = op.array.space.load(addresses)
                else:
                    send = np.zeros(lanes, dtype=np.float64)
                    assert op.result_mask is not None
                    send[op.result_mask] = op.array.space.load(addresses)
            elif kind is WriteOp:
                addresses = op.addresses
                if not addresses.size:
                    compiler.masked(wid)
                    continue
                compiler.memory(wid, unit(ws, op), addresses, False)
                op.array.space.store(addresses, op.values)
            elif kind is ComputeOp:
                compiler.compute(wid, op.cycles)
            elif kind is BarrierOp:
                compiler.arrival(wid, op.scope)
                group = device if op.scope is _DEVICE else dmm
                group.waiting.add(wid)
                release(group)
                break
            elif kind is ReadRangeOp:
                compiler.range(wid, unit(ws, op), op.addresses, True,
                               op.compute)
                send = op.array.space.load(op.addresses)
            elif kind is WriteRangeOp:
                compiler.range(wid, unit(ws, op), op.addresses, False,
                               op.compute)
                # Later rounds overwrite earlier ones; within a round
                # the lowest lane wins (store keeps first occurrences).
                op.array.space.store(op.addresses[::-1].ravel(),
                                     op.values[::-1].ravel())
            else:
                raise KernelError(
                    f"warp {wid} yielded unknown operation {op!r}")
    stuck = sorted(set().union(
        device.waiting, *(g.waiting for g in dmm_groups.values())))
    if stuck:
        raise DeadlockError(
            f"warps {stuck} are blocked at a barrier that can never be "
            "released (mismatched barrier counts?)"
        )


# ---------------------------------------------------------------------------
# The compiled trace.
# ---------------------------------------------------------------------------


def _racy(new_run: np.ndarray, write: np.ndarray, who: np.ndarray,
          op: np.ndarray) -> bool:
    """Does a run of sorted lanes hold a write and two ``who``?

    Lane ``i`` belongs to op ``op[i]``; ``write`` and ``who`` are per
    op, and ``new_run[i]`` marks lane ``i + 1`` as the first of a run.
    """
    lane_who = who[op]
    change = lane_who[1:] != lane_who[:-1]
    del lane_who
    change &= ~new_run
    if not change.any():
        return False
    run = np.concatenate(([0], np.cumsum(new_run)))
    written = np.zeros(int(run[-1]) + 1, dtype=bool)
    written[run[write[op]]] = True
    return bool(written[run[1:][change]].any())


class _WarpStreams:
    """The per-warp decode of a trace: each warp's op stream.

    A stable sort of the ops by warp index (a warp's position in
    ``meta["warp_ids"]``) lists warp ``x``'s ops in program order as
    ``ops[off[x]:off[x + 1]]``.  ``group[x]`` is the barrier group of
    warp ``x``'s DMM, numbered 1, 2, ... in order of first appearance;
    group 0 is the device.  The race certificate, the python pricer and
    the native pricer all read this one decode.
    """

    __slots__ = ("ops", "off", "group", "n_groups")

    def __init__(self, trace: "CompiledTrace") -> None:
        ids = np.asarray(trace.meta["warp_ids"], dtype=np.int64)
        n_warps = ids.size
        if n_warps:
            id2ix = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
            id2ix[ids] = np.arange(n_warps, dtype=np.int64)
            warp_ix = id2ix[trace.op_warp]
        else:
            warp_ix = np.empty(0, dtype=np.int64)
        self.ops = np.argsort(warp_ix, kind="stable").astype(
            np.int64, copy=False)
        self.off = np.zeros(n_warps + 1, dtype=np.int64)
        np.cumsum(np.bincount(warp_ix, minlength=n_warps), out=self.off[1:])
        group_of: dict[int, int] = {}
        self.group = np.zeros(n_warps, dtype=np.int64)
        for x, dmm in enumerate(trace.meta["warp_dmms"]):
            g = group_of.get(dmm)
            if g is None:
                g = group_of[dmm] = len(group_of) + 1
            self.group[x] = g
        self.n_groups = len(group_of) + 1

    def in_trace_order(self, values: np.ndarray) -> np.ndarray:
        """``values``, one per op in stream order, put in trace order."""
        out = np.empty_like(values)
        out[self.ops] = values
        return out


@dataclass
class CompiledTrace:
    """One captured launch as flat structured numpy arrays.

    The ``i``-th entry of the ``op_*`` arrays describes the ``i``-th
    operation in capture order; restricting to one warp id yields that
    warp's program-order stream (only that order means anything).
    ``op_kind`` is 0 (memory), 1 (compute), 2 (barrier arrival) or 3 (a
    fully-masked memory op: no cost, one dispatch turn); ``op_arg``
    carries the kind-specific integer (post-transaction compute /
    compute cycles / barrier scope).  Memory ops own the address slice
    ``addresses[addr_off[i]:addr_off[i+1]]`` — raw per-lane addresses,
    so any slot policy can recount them.  ``post_state`` maps a space
    name to the ``(addresses, values)`` of the cells the launch wrote
    there: the launch key fixes every other cell.
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
    post_state: dict[str, tuple[np.ndarray, np.ndarray]]
    _streams: "_WarpStreams | None" = field(
        default=None, repr=False, compare=False
    )
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

    def streams(self) -> _WarpStreams:
        """The (cached) per-warp decode of this trace."""
        if self._streams is None:
            self._streams = _WarpStreams(self)
        return self._streams

    # -- soundness ---------------------------------------------------------
    def race_free(self) -> bool:
        """May this trace be re-priced under any schedule?

        ``False`` when two warps touch one address of one unit inside a
        barrier epoch and at least one of them writes.  Epochs are
        counted per warp, in that warp's program order: an access after
        a warp's ``k``-th device barrier is in device epoch ``k``, and
        likewise for its DMM's barriers.  Two accesses in one device
        epoch are ordered only when their warps share a DMM and sit in
        different DMM epochs.  A race-free launch reads the same values
        and leaves the same memory under every latency, policy and
        dispatch order, so its trace is that of any of them; this is
        the check :meth:`repro.machine.trace.TraceRecorder.detect_races`
        makes on one recorded run, vectorized.

        Only a cell that some lane writes can race, so a trace with no
        write is race-free at once, and each unit with a write sorts
        only the lanes of its written cells.  Raises
        :class:`~repro.errors.TraceOverflowError` when a unit's packed
        sort key would not fit in 62 bits: the capture then refuses,
        like one over the capture cap.
        """
        # Every capture runs this check, so its lane-sized temporaries
        # are dropped as soon as they are used: they add to the peak
        # memory of a cold request.
        kind, unit, off = self.op_kind, self.op_unit, self.addr_off
        sizes = np.diff(off)
        mem = (kind == _OP_MEM) & (sizes > 0)
        writes = mem & (self.op_read == 0)
        if not writes.any():
            return True
        streams = self.streams()
        device, dmm_epoch = self._epochs(streams)
        op_dmm = streams.in_trace_order(
            np.repeat(streams.group, np.diff(streams.off)))
        n_ops = kind.size
        stride = int(dmm_epoch.max()) + 1
        scale = stride * n_ops
        # Each memory op's address range (empty for other ops): an op
        # outside a unit's written range has no lane to sort.
        low = np.zeros(n_ops, dtype=np.int64)
        high = np.full(n_ops, -1, dtype=np.int64)
        starts = off[:-1][mem]
        low[mem] = np.minimum.reduceat(self.addresses, starts)
        high[mem] = np.maximum.reduceat(self.addresses, starts)
        for u in np.flatnonzero(np.bincount(unit[writes])):
            on_unit = unit == u
            w = on_unit & writes
            lo, hi = int(low[w].min()), int(high[w].max())
            # Written cells as a table over lo-1 .. hi+1: every address
            # clipped into that range finds its cell or an unwritten end.
            span = hi - lo + 3
            if (int(device.max()) + 1) * span * scale > _PACKED_KEY_LIMIT:
                raise TraceOverflowError(
                    "race certificate key exceeds 62 bits; the launch "
                    "runs on the event scheduler"
                )
            table = np.zeros(span, dtype=bool)
            table[self.addresses[np.repeat(w, sizes)] - (lo - 1)] = True
            near = on_unit & (high >= lo) & (low <= hi)
            address = self.addresses[np.repeat(near, sizes)]
            near = np.flatnonzero(near)
            address -= lo - 1
            np.clip(address, 0, span - 1, out=address)
            keep = table[address]
            del table
            # One in-place sort of the packed (device epoch, address,
            # DMM epoch, op) key; a cell's run must not hold a write and
            # two DMMs, nor a (cell, DMM epoch) run a write and two warps.
            key = address
            key *= scale
            key += np.repeat(device[near] * (span * scale)
                             + dmm_epoch[near] * n_ops + near,
                             sizes[near])
            if not keep.all():
                key = key[keep]
            del address, keep
            key.sort()
            op = key % n_ops
            key //= n_ops
            new_epoch = key[1:] != key[:-1]
            key //= stride
            new_cell = key[1:] != key[:-1]
            del key
            if _racy(new_cell, writes, op_dmm, op) \
                    or _racy(new_epoch, writes, self.op_warp, op):
                return False
        return True

    def _epochs(
        self, streams: _WarpStreams
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each op's device epoch and DMM epoch: the number of device
        (DMM) barriers its warp arrived at before it."""
        # Count barriers within each warp's run of the stream order.
        order, off = streams.ops, streams.off
        barrier = self.op_kind[order] == _OP_BARRIER
        scope = self.op_arg[order]
        epochs = []
        for code in (_SCOPE_DEVICE, _SCOPE_DMM):
            seen = np.concatenate(([0], np.cumsum(barrier & (scope == code))))
            epochs.append(streams.in_trace_order(
                seen[1:] - np.repeat(seen[off[:-1]], np.diff(off))))
        return epochs[0], epochs[1]

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
        written = [self.post_state[name] for name in self.meta["post_names"]]
        payload["post_off"] = np.cumsum(
            [0, *(cells.size for cells, _ in written)], dtype=np.int64)
        payload["post_cells"] = np.concatenate(
            [cells for cells, _ in written] or [np.empty(0, np.int64)])
        payload["post_values"] = np.concatenate(
            [values for _, values in written] or [np.empty(0)])
        return payload

    @classmethod
    def from_payload(
        cls, payload: "dict[str, np.ndarray]"
    ) -> "CompiledTrace":
        """Inverse of :meth:`to_payload` (raises on missing arrays)."""
        meta = json.loads(bytes(payload["meta"].tobytes()).decode())
        off, cells = payload["post_off"], payload["post_cells"]
        values = payload["post_values"]
        post_state = {
            name: (cells[off[i]:off[i + 1]], values[off[i]:off[i + 1]])
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

    Reads the trace's per-warp decode (:meth:`CompiledTrace.streams`)
    and groups its memory ops by unit once; each
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
        self._streams = trace.streams()
        self.backend = resolve_backend(backend)
        self._warp_ids: list[int] = list(trace.meta["warp_ids"])
        self._unit_names: list[str] = list(trace.meta["unit_names"])
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
            ops, off = self._streams.ops, self._streams.off
            streams = [
                ops[off[x]:off[x + 1]].tolist()
                for x in range(len(self._warp_ids))
            ]
            self._py_lists = (
                self._op_kind.tolist(),
                self._op_unit.tolist(),
                self._op_arg.tolist(),
                streams,
                self._streams.group.tolist(),
                {wid: x for x, wid in enumerate(self._warp_ids)},
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
            ids = np.asarray(self._warp_ids, dtype=np.int64)
            streams = self._streams
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
                warp_group=streams.group,
                wid_order=np.argsort(ids, kind="stable").astype(
                    np.int64, copy=False
                ),
                stream_off=streams.off,
                stream_ops=streams.ops,
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
            buf["n_groups"] = streams.n_groups
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
        return self._result(table, out_scalars, out_busy, out_last)

    # -- the one result both loops return ----------------------------------
    def _result(
        self,
        table: _SlotTable,
        scalars: Sequence[int],
        busy: Sequence[int],
        last: Sequence[int],
    ) -> tuple[SchedulerResult, dict[str, UnitStats]]:
        """A pricing's counters and per-unit statistics.

        ``scalars`` are the cycles, compute ops, compute cycles and
        barrier releases; ``busy`` and ``last`` are each unit's
        port-busy-until and last-completion times.
        """
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
                port_busy_until=busy[u],
                last_complete=last[u],
            )
        cycles, compute_ops, compute_cycles, releases = scalars
        result = SchedulerResult(
            cycles=cycles,
            compute_ops=compute_ops,
            compute_cycles=compute_cycles,
            barrier_releases=releases,
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
        kind, unitv, arg, streams, warp_group, ix_of = self._python_lists()
        warp_ids = self._warp_ids
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

        # Group 0 is the device, group g > 0 one DMM (the decode's).
        groups = [_BarrierGroup(set(warp_ids))]
        groups += [_BarrierGroup(set())
                   for _ in range(self._streams.n_groups - 1)]
        for wid, g in zip(warp_ids, warp_group):
            groups[g].members.add(wid)

        def maybe_release(group: _BarrierGroup) -> None:
            nonlocal releases
            if not group.complete():
                return
            release_time = max(group.arrivals.values())
            for w in sorted(group.waiting):
                ready[w] = release_time
                heapq.heappush(heap, (release_time, w))
                in_heap.add(w)
            group.waiting.clear()
            group.arrivals.clear()
            releases += 1

        def retire(w: int, ix: int) -> None:
            for group in (groups[0], groups[warp_group[ix]]):
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
                retire(wid, ix)
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
            elif k == _OP_MASKED:
                heapq.heappush(heap, (t, wid))
                in_heap.add(wid)
            else:  # barrier arrival: wait for the group
                group = groups[
                    0 if arg[i] == _SCOPE_DEVICE else warp_group[ix]]
                group.waiting.add(wid)
                group.arrivals[wid] = t
                maybe_release(group)

        return self._result(
            table, (makespan, compute_ops, compute_cycles, releases),
            busy, last)


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
    """Keyed storage of race-free compiled traces.

    Storage is the ``trace`` namespace of the unified artifact store
    (:mod:`repro.store`): lookups hit its in-memory LRU first, then the
    on-disk directory (shared across processes), with envelope
    integrity verification and quarantine of corrupt entries.
    :func:`replay_launch` offers only captures whose
    :meth:`CompiledTrace.race_free` holds, and a capture is stored the
    second time its key is captured: a launch seen once (a fresh input
    seed, say) writes nothing.  The keys captured once are a bounded
    set that forgets its oldest key first.  A persisted capture enters
    the LRU on its first lookup, not when stored.  The store has no
    settings of its own: the namespace's ``REPRO_STORE_TRACE*``
    variables and memory-tier defaults configure it.
    """

    def __init__(self) -> None:
        self._ns = ArtifactStore().namespace("trace", _TRACE_CODEC)
        #: This store's ``trace_store.*`` section: captures, refusals
        #: and racy captures (``flagged_programs``) counted here; hits,
        #: misses and contents read from the namespace.
        self.metrics = Registry()
        self.metrics.declare("trace_store.captures", "trace_store.refusals",
                             "trace_store.flagged_programs")
        self.metrics.set("trace_store", self._section)
        self._lock = threading.Lock()
        self._first_captures: "OrderedDict[str, None]" = OrderedDict()

    # -- the storage substrate ---------------------------------------------
    @property
    def store_namespace(self):
        """The underlying :class:`repro.store.Namespace`."""
        return self._ns

    # -- access ------------------------------------------------------------
    def note_refusal(self) -> None:
        """Count one launch that refused replay."""
        self.metrics.inc("trace_store.refusals")

    def lookup(self, key: str) -> CompiledTrace | None:
        """The stored trace for ``key``, or ``None`` (counted as a miss)."""
        return self._ns.get(key)

    def insert(self, key: str, trace: CompiledTrace) -> None:
        """Offer a race-free capture: the first capture of a key only
        remembers the key, the second stores the trace."""
        self.metrics.inc("trace_store.captures")
        with self._lock:
            if key not in self._first_captures:
                self._first_captures[key] = None
                if len(self._first_captures) > _FIRST_CAPTURE_KEYS:
                    self._first_captures.popitem(last=False)
                return
            del self._first_captures[key]
        # The capturing launch holds the trace for re-pricing; memory
        # keeps it only once a later launch looks it up.
        self._ns.put(key, trace, memory=False)

    # -- observability -----------------------------------------------------
    def _section(self) -> dict:
        ns = self._ns.metrics[f"store.{self._ns.name}"]
        hits = ns["hits_memory"] + ns["hits_disk"]
        return {
            "hits": hits,
            "misses": ns["misses"],
            "hit_rate": hit_rate(hits, ns["misses"]),
            "entries_memory": ns["entries_memory"],
            "entries_disk": ns["entries_disk"],
            "size_bytes": ns["disk_bytes"],
        }

    def clear(self) -> None:
        """Drop every stored trace (memory and disk) and forget the keys
        captured once."""
        with self._lock:
            self._first_captures.clear()
        self._ns.clear()


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


class _RefusedCapture(Exception):
    """A capture that must roll back and leave its launch to the event
    scheduler: its warps raised, or its trace is racy."""


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
    reset by :func:`~repro.machine.engine.run_launch`, and replay never
    touches them: ``stats`` holds the per-unit statistics.

    * trace-store hit → price the stored trace at the engine's current
      latencies/policies/dispatch, write the cells it records, tag
      ``"replay"``;
    * miss → capture without the scheduler: step each warp from barrier
      to barrier, applying its stores under an undo log, then compile
      the trace and check it race-free while the log is open.  A
      race-free capture is priced exactly as a hit is, tag
      ``"replay-capture"``, and offered to the store, which keeps it
      the second time its key is captured;
    * refusal → ``result is None``, tag ``"replay-refused"``, counted in
      ``trace_store.refusals``: the caller runs the launch on the event
      scheduler, the reference.  An unkeyable program refuses before
      any run.  Every failed capture first rolls its stores back: a
      racy one (also counted as a flagged capture), one over the
      capture cap or the certificate's key width, and one whose warps
      raised (a deadlock, a bad address, a kernel error), whose error
      the event run raises again with its own stores standing.  Any
      other error, from compiling or certifying the trace, is a defect
      of the capture and propagates.

    ``trace`` is the trace a hit or a capture priced, which prices
    this launch at any other latency; ``None`` on a refusal.
    """
    store = default_store()
    fingerprint = repro_fingerprint()
    width = engine.params.width
    units, spaces = engine.units, engine.spaces
    key = derive_launch_key(
        program,
        machine=engine.kind,
        width=width,
        contexts=contexts,
        spaces=spaces,
        fingerprint=fingerprint,
    )
    if key is None:
        store.note_refusal()
        return None, None, "replay-refused", None

    unit_names = [unit.name for unit in units]
    latencies = [unit.latency for unit in units]
    trace = store.lookup(key)
    if trace is not None and trace.matches_launch(
        machine=engine.kind, width=width, contexts=contexts,
        unit_names=unit_names,
    ):
        result, stats = price_trace(trace, engine, latencies)
        for space in spaces:
            written = trace.post_state.get(space.name)
            if written is not None:
                space.store(*written)
        return result, stats, "replay", trace

    def capture() -> CompiledTrace:
        compiler = TraceCompiler(unit_names, max_transactions=_CAPTURE_LIMIT)
        try:
            _step_warps(program, contexts, engine, compiler)
        except Exception as exc:
            # The program's own error, a deadlock, a bad address, an
            # unknown op or the capture cap: the event run decides.
            raise _RefusedCapture from exc
        written = {}
        for space in spaces:
            cells = space.written()
            if cells.size:
                written[space.name] = (cells, space.load(cells))
        trace = compiler.compile(
            contexts=contexts,
            machine=engine.kind,
            width=width,
            post_state=written,
            fingerprint=fingerprint,
        )
        if not trace.race_free():
            store.metrics.inc("trace_store.flagged_programs")
            raise _RefusedCapture
        return trace

    # A refused capture rolls back and leaves the launch to the event
    # scheduler, which raises any error of the program again; so does a
    # certificate key too wide to pack.  Any other error is a defect of
    # the capture itself and propagates.
    trace = attempt_with_rollback(
        capture, (_RefusedCapture, TraceOverflowError), spaces, units)
    if trace is None:
        store.note_refusal()
        return None, None, "replay-refused", None
    store.insert(key, trace)
    result, stats = price_trace(trace, engine, latencies)
    return result, stats, "replay-capture", trace
