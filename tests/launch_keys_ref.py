"""A plain recursive launch-key walk, the reference for the memoized one.

:func:`repro.machine.replay.derive_launch_key` feeds a program through
per-type feeders and per-code-object memos.  This module keeps the walk
those replaced, written out with no memo: an ``isinstance`` chain per
value and a fresh walk of every code object's bytecode, names and
constants.  It includes the one rule added since, that a bound method
feeds the instance it is bound to.  The memoized walk must feed the
same bytes, and refuse the same programs, as this one.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import types

import numpy as np

from repro.machine import replay
from repro.machine.memory import MemorySpace

MAX_KEY_DEPTH = 16


class Unkeyable(Exception):
    """The reference walk refuses the value."""


def feed_value(h, value, seen: set[int], depth: int = 0) -> None:
    if depth > MAX_KEY_DEPTH:
        raise Unkeyable("value nesting too deep")
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
            feed_value(h, item, seen, depth + 1)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(f"dict[{len(value)}](".encode())
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            feed_value(h, value[key], seen, depth + 1)
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
        feed_function(h, value.func, seen, depth + 1)
        feed_value(h, tuple(value.args), seen, depth + 1)
        feed_value(h, dict(value.keywords), seen, depth + 1)
        h.update(b")")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"dc:{type(value).__qualname__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            feed_value(h, getattr(value, f.name), seen, depth + 1)
        h.update(b")")
    elif callable(value):
        feed_function(h, value, seen, depth + 1)
    else:
        raise Unkeyable(f"cannot key a {type(value).__qualname__} value")


def feed_code(h, code, seen: set[int], depth: int) -> None:
    h.update(code.co_code)
    h.update(repr(code.co_names).encode())
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            feed_code(h, const, seen, depth + 1)
        else:
            feed_value(h, const, seen, depth + 1)


def feed_function(h, fn, seen: set[int], depth: int = 0, *,
                  walk_globals: bool = False) -> None:
    if depth > MAX_KEY_DEPTH:
        raise Unkeyable("function nesting too deep")
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
        feed_value(h, owner, seen, depth + 1)
    code = getattr(fn, "__code__", None)
    if code is None:
        if not callable(fn) or name is None:
            raise Unkeyable(f"cannot key callable {fn!r}")
        return
    feed_code(h, code, seen, depth)
    for default in fn.__defaults__ or ():
        feed_value(h, default, seen, depth + 1)
    for kwname, default in sorted((fn.__kwdefaults__ or {}).items()):
        h.update(kwname.encode())
        feed_value(h, default, seen, depth + 1)
    cells = fn.__closure__ or ()
    for cellname, cell in zip(code.co_freevars, cells):
        h.update(f"{cellname}=".encode())
        try:
            contents = cell.cell_contents
        except ValueError:
            h.update(b"<empty>;")
            continue
        feed_value(h, contents, seen, depth + 1)
    if not walk_globals:
        return
    names: set[str] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        names.update(c.co_names)
        stack.extend(k for k in c.co_consts if hasattr(k, "co_code"))
    fn_globals = getattr(fn, "__globals__", None) or {}
    for gname in sorted(names):
        if gname not in fn_globals:
            continue
        value = fn_globals[gname]
        h.update(f"g:{gname}=".encode())
        if isinstance(value, types.ModuleType):
            h.update(f"module:{value.__name__};".encode())
        else:
            feed_value(h, value, seen, depth + 1)


def _digest(feed, refusal, *args, **kwargs) -> str | None:
    h = hashlib.sha256()
    try:
        feed(h, *args, **kwargs)
    except refusal:
        return None
    return h.hexdigest()


def value_digests(value, depth: int = 0) -> tuple[str | None, str | None]:
    """``(memoized, reference)`` digests of one value (``None``: refused)."""
    return (_digest(replay._feed_value, replay._Unkeyable, value, set(),
                    depth),
            _digest(feed_value, Unkeyable, value, set(), depth))


def program_digests(program, depth: int = 0
                    ) -> tuple[str | None, str | None]:
    """``(memoized, reference)`` digests of a warp program's part of its
    launch key (``None``: refused)."""
    return (_digest(replay._feed_function, replay._Unkeyable, program,
                    set(), depth, walk_globals=True),
            _digest(feed_function, Unkeyable, program, set(), depth,
                    walk_globals=True))
