"""Exception hierarchy for the memory machine simulator.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.

This module also hosts :func:`warn_once`, the shared once-per-process
warning helper behind the native backend's no-compiler fallback (one
registry instead of per-module ``_warned`` sets).
"""

from __future__ import annotations

import warnings

__all__ = [
    "ReproError",
    "ConfigurationError",
    "AllocationError",
    "AddressError",
    "KernelError",
    "LockstepError",
    "DeadlockError",
    "SpaceMismatchError",
    "TraceOverflowError",
    "warn_once",
    "reset_warn_once",
]


_warned_keys: set[str] = set()


def warn_once(
    key: str,
    message: str,
    *,
    category: type[Warning] = UserWarning,
    stacklevel: int = 3,
) -> bool:
    """Emit ``message`` at most once per process per ``key``.

    Returns ``True`` when the warning was actually emitted.  Keys are
    namespaced by convention (``"native:no-compiler"``) so callers can
    reset their own family via :func:`reset_warn_once` without silencing
    anyone else's.
    """
    if key in _warned_keys:
        return False
    _warned_keys.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)
    return True


def reset_warn_once(prefix: str | None = None) -> None:
    """Forget emitted warn-once keys (tests only).

    With ``prefix``, forget only keys starting with it; without, forget
    everything.
    """
    if prefix is None:
        _warned_keys.clear()
        return
    for key in [k for k in _warned_keys if k.startswith(prefix)]:
        _warned_keys.discard(key)


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Invalid machine parameters or settings (width, latency, thread
    counts, malformed ``REPRO_*`` variables, ...)."""


class AllocationError(ReproError):
    """A memory space cannot satisfy an allocation request."""


class AddressError(ReproError, IndexError):
    """A kernel accessed an address outside the bounds of its array."""


class KernelError(ReproError):
    """A warp program violated the execution protocol."""


class LockstepError(KernelError):
    """Warps of a SIMD group diverged where the model requires lockstep.

    The memory machine models execute every thread of a warp in lockstep;
    a warp program must issue the same *kind* of operation for all active
    lanes at every step.  Divergence is expressed with lane masks, never
    with per-lane control flow.
    """


class DeadlockError(KernelError):
    """The scheduler detected that no warp can make progress.

    This typically means a barrier was reached by only a subset of the
    warps that synchronize on it.
    """


class SpaceMismatchError(KernelError):
    """An operation referenced an array that lives in a different memory
    space than the one the operation targets (e.g. a shared-memory read of
    a global-memory array)."""


class TraceOverflowError(ReproError):
    """A trace recorder hit its configured ``max_transactions`` cap.

    Tracing stores every warp transaction; on large launches that grows
    without bound.  Recorders accept an optional cap and raise this error
    instead of silently exhausting memory; the trace-replay capture path
    catches it and falls back to an untraced event run.
    """
