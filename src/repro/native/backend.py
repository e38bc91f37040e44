"""Backend selection, the kernel table, counters, and the fallback.

Two backends price the cost model: ``"python"`` (the pure-Python
loops, always available) and ``"native"`` (the compiled kernels of
:mod:`repro.native.build`).  Selection:

* explicit ``backend=`` arguments win;
* ``backend=None`` reads ``$REPRO_BACKEND`` (default ``"python"``);
* when ``"native"`` is selected but no compiler is available, the
  caller gets ``None`` from :func:`native_kernels`, a
  :class:`RuntimeWarning` is emitted once per process, and the Python
  loop runs instead — results are identical either way.

Counters (``native_calls`` / ``python_fallbacks`` /
``build_cache_hits`` / ``builds``) mirror the artifact store's
metrics style and surface in the service's ``/metrics`` snapshot.
"""

from __future__ import annotations

import os
import threading

from repro.errors import ConfigurationError, reset_warn_once, warn_once
from repro.native import build as _build
from repro.native.cdefs import bind_all

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "resolve_backend",
    "native_available",
    "native_kernels",
    "NativeCounters",
    "NATIVE_METRICS",
    "native_metrics_snapshot",
    "reset_native",
]

#: Valid backend names (service specs additionally accept ``"auto"``,
#: which defers to ``$REPRO_BACKEND`` at evaluation time).
BACKENDS = ("python", "native")

#: Environment default for ``backend=None``.
BACKEND_ENV = "REPRO_BACKEND"

_WARN_KEY = "native:no-compiler"

#: None = not tried yet; (True, kernels) = bound; (False, detail) = failed.
_state: "tuple[bool, object] | None" = None
#: Serializes the first build/load: concurrent first callers would
#: otherwise race on the library's temporary file.
_state_lock = threading.Lock()


class NativeCounters:
    """Process-wide native-backend counters (store-metrics style)."""

    __slots__ = ("native_calls", "python_fallbacks", "build_cache_hits",
                 "builds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.native_calls = 0
        self.python_fallbacks = 0
        self.build_cache_hits = 0
        self.builds = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


NATIVE_METRICS = NativeCounters()


def resolve_backend(backend: "str | None" = None) -> str:
    """Normalize a backend choice; ``None`` defers to ``$REPRO_BACKEND``."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip().lower() or "python"
    else:
        backend = str(backend).strip().lower()
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r} "
            f"(explicit argument or ${BACKEND_ENV})"
        )
    return backend


def _ensure() -> "tuple[bool, object]":
    """Build/load/bind the library once per process."""
    global _state
    if _state is None:
        with _state_lock:
            if _state is None:
                lib, how, detail = _build.load_library()
                if lib is None:
                    _state = (False, detail)
                else:
                    _state = (True, bind_all(lib))
                    if how == "compiled":
                        NATIVE_METRICS.builds += 1
                    else:
                        NATIVE_METRICS.build_cache_hits += 1
    return _state


def native_available() -> bool:
    """Can the native backend run on this host? (Builds on first call.)"""
    return _ensure()[0]


def native_kernels() -> "dict | None":
    """The bound kernel table, or ``None`` with a warn-once fallback.

    Call sites that were asked for ``backend="native"`` use this; a
    ``None`` return means "run the Python loop instead" and is counted
    as a ``python_fallback``.
    """
    ok, payload = _ensure()
    if ok:
        return payload  # type: ignore[return-value]
    NATIVE_METRICS.python_fallbacks += 1
    warn_once(
        _WARN_KEY,
        f"native backend unavailable ({payload}); falling back to the "
        "pure-Python backend (results are identical, just slower)",
        category=RuntimeWarning,
    )
    return None


def native_metrics_snapshot() -> dict:
    """The ``/metrics`` ``"native"`` section."""
    snap = NATIVE_METRICS.snapshot()
    try:
        snap["default_backend"] = resolve_backend(None)
    except ConfigurationError:
        snap["default_backend"] = "invalid"
    # Report availability without forcing a compile on an idle service:
    # before the first native call the state is simply unknown.
    snap["available"] = _state[0] if _state is not None else None
    return snap


def reset_native() -> None:
    """Forget the bound library, the warn-once, and the store handle
    (tests re-point ``$CC`` / ``$REPRO_STORE_DIR`` between cases)."""
    global _state
    _state = None
    reset_warn_once("native:")
    _build.reset_build_cache()
