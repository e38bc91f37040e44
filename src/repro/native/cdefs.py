"""Typed kernel descriptions for the native library.

The xobjects pattern: each C entry point is described once — name,
argument order, dtypes, scalar/array kind — and the ctypes binding is
generated from the description.  The wrapper validates every array
argument (ndarray, exact dtype, C-contiguous) before handing out raw
pointers, so a mismatched buffer fails loudly in Python instead of
corrupting memory in C.

A caller that passes the same buffers to many calls validates and
converts them once with :meth:`KernelDescription.pointers`; a call
accepts those typed pointers in place of the arrays and passes them
through.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

__all__ = ["Arg", "KernelDescription", "KERNELS", "bind", "bind_all"]

_CTYPES = {
    np.dtype(np.int64): ctypes.c_longlong,
    np.dtype(np.int16): ctypes.c_short,
    np.dtype(np.int8): ctypes.c_byte,
    np.dtype(np.uint8): ctypes.c_ubyte,
}


@dataclass(frozen=True)
class Arg:
    """One kernel argument: a typed scalar or a typed array pointer."""

    name: str
    dtype: "np.dtype"
    array: bool = False

    @classmethod
    def scalar(cls, name: str, dtype=np.int64) -> "Arg":
        return cls(name, np.dtype(dtype), array=False)

    @classmethod
    def arr(cls, name: str, dtype=np.int64) -> "Arg":
        return cls(name, np.dtype(dtype), array=True)

    def pointer(self, kname: str, value) -> "ctypes._Pointer":
        """Validate ``value`` for this array argument; its typed pointer.

        The pointer keeps the array alive.
        """
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"{kname}: argument {self.name!r} must be an ndarray, "
                f"got {type(value).__name__}"
            )
        if value.dtype != self.dtype:
            raise TypeError(
                f"{kname}: argument {self.name!r} must have dtype "
                f"{self.dtype}, got {value.dtype}"
            )
        if not value.flags["C_CONTIGUOUS"]:
            raise TypeError(
                f"{kname}: argument {self.name!r} must be C-contiguous"
            )
        return value.ctypes.data_as(ctypes.POINTER(_CTYPES[self.dtype]))


@dataclass(frozen=True)
class KernelDescription:
    """C entry point: name, ordered args, int return type."""

    name: str
    args: tuple[Arg, ...]
    restype: "np.dtype" = np.dtype(np.int64)

    def bind(self, lib: ctypes.CDLL):
        """Resolve the symbol and return a validating Python callable."""
        fn = getattr(lib, self.name)
        fn.restype = _CTYPES[np.dtype(self.restype)]
        fn.argtypes = [
            ctypes.POINTER(_CTYPES[a.dtype]) if a.array else _CTYPES[a.dtype]
            for a in self.args
        ]
        args = self.args
        kname = self.name
        # Element ctype of each array argument (None for scalars).
        elements = [_CTYPES[a.dtype] if a.array else None for a in args]

        def call(*values):
            if len(values) != len(args):
                raise TypeError(
                    f"{kname} takes {len(args)} arguments, got {len(values)}"
                )
            cvals = []
            for a, element, v in zip(args, elements, values):
                if element is None:
                    cvals.append(int(v))
                elif getattr(type(v), "_type_", None) is element:
                    cvals.append(v)  # a typed pointer from pointers()
                else:
                    cvals.append(a.pointer(kname, v))
            return int(fn(*cvals))

        call.__name__ = self.name
        call.description = self
        return call

    def pointers(self, **arrays) -> dict:
        """Validate named array arguments once; ``{name: typed pointer}``.

        Raises :class:`TypeError` exactly as a call would.
        """
        by_name = {a.name: a for a in self.args if a.array}
        out = {}
        for name, value in arrays.items():
            if name not in by_name:
                raise TypeError(f"{self.name} has no array argument {name!r}")
            out[name] = by_name[name].pointer(self.name, value)
        return out


#: Every kernel exported by ``kernels.c``, in its argument order.
KERNELS = {
    d.name: d
    for d in (
        KernelDescription(
            "repro_replay_price",
            (
                Arg.scalar("n_warps"),
                Arg.arr("warp_ids"),
                Arg.arr("warp_group"),
                Arg.arr("wid_order"),
                Arg.arr("stream_off"),
                Arg.arr("stream_ops"),
                Arg.arr("op_kind", np.int8),
                Arg.arr("op_unit", np.int16),
                Arg.arr("op_arg"),
                Arg.arr("slots"),
                Arg.scalar("n_units"),
                Arg.arr("latency"),
                Arg.arr("pipelined", np.uint8),
                Arg.scalar("n_groups"),
                Arg.scalar("round_robin"),
                Arg.scalar("scope_device"),
                Arg.arr("out_scalars"),
                Arg.arr("out_busy"),
                Arg.arr("out_last"),
            ),
        ),
        KernelDescription(
            "repro_slot_counts",
            (
                Arg.scalar("n_list"),
                Arg.arr("ops"),
                Arg.arr("addr_off"),
                Arg.arr("addresses"),
                Arg.scalar("width"),
                Arg.scalar("policy"),
                Arg.arr("out"),
            ),
        ),
        KernelDescription(
            "repro_batch_sim",
            (
                Arg.scalar("n"),
                Arg.arr("enc0"),
                Arg.arr("wid"),
                Arg.arr("comp"),
                Arg.arr("j0"),
                Arg.arr("nround"),
                Arg.arr("slot_off"),
                Arg.arr("slot_flat"),
                Arg.scalar("nw"),
                Arg.scalar("lat1"),
                Arg.scalar("pipelined"),
                Arg.scalar("pf0"),
                Arg.arr("out_enc"),
                Arg.arr("out_i"),
                Arg.arr("out_j"),
                Arg.arr("out_nxt"),
                Arg.arr("out_pf"),
                Arg.arr("out_final"),
            ),
        ),
        KernelDescription(
            "repro_safe_prefix",
            (
                Arg.scalar("n"),
                Arg.arr("enc"),
                Arg.arr("slots"),
                Arg.scalar("nw"),
                Arg.scalar("lat"),
                Arg.scalar("pipelined"),
                Arg.scalar("pf0"),
                Arg.scalar("outside"),
            ),
        ),
        KernelDescription(
            "repro_wave_starts",
            (
                Arg.scalar("R"),
                Arg.scalar("n"),
                Arg.arr("S"),
                Arg.scalar("r0"),
                Arg.scalar("pf0"),
                Arg.scalar("lat1"),
                Arg.scalar("pipelined"),
                Arg.scalar("lag"),
                Arg.arr("READY"),
                Arg.arr("STARTS"),
                Arg.arr("out_final"),
            ),
        ),
    )
}


def bind(lib: ctypes.CDLL, name: str):
    """Bind one kernel by name."""
    return KERNELS[name].bind(lib)


def bind_all(lib: ctypes.CDLL) -> dict:
    """Bind every described kernel; the native backend's call table."""
    return {name: desc.bind(lib) for name, desc in KERNELS.items()}
