"""A genuinely data-dependent demo kernel.

The gather kernel reads its index vector from memory and then accesses
``a`` *at the values it just read* — the address stream depends on
stored data, so a captured trace is valid for one input only.  Replay
keys every launch by its memory pre-state, and no warp writes a cell
another warp touches, so each launch is race-free and an explicit
``mode="replay"`` replays it exactly, as does the tuner's ``"auto"``
mode.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machine.warp import WarpContext

__all__ = ["gather_kernel"]


def gather_kernel(idx, a, out, n: int):
    """``out[i] = a[idx[i]]`` — addresses come from memory contents."""

    def program(warp: WarpContext):
        per_thread = n // warp.num_threads
        if per_thread * warp.num_threads != n:
            raise ConfigurationError(
                f"n={n} must be a multiple of num_threads={warp.num_threads}"
            )
        for k in range(per_thread):
            pos = warp.tids * per_thread + k
            targets = yield warp.read(idx, pos)
            vals = yield warp.read(a, targets.astype(int))
            yield warp.write(out, pos, vals)

    return program
