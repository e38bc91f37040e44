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

Counters (``native.native_calls`` / ``native.python_fallbacks`` /
``native.build_cache_hits`` / ``native.builds``) live in the
per-process registry :data:`repro.metrics.PROCESS`, whose ``native``
section the service's ``/metrics`` snapshot reports.
"""

from __future__ import annotations

import os
import threading

from repro.errors import ConfigurationError, reset_warn_once, warn_once
from repro.metrics import PROCESS
from repro.native import build as _build
from repro.native.cdefs import bind_all

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "resolve_backend",
    "native_available",
    "native_kernels",
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
                    PROCESS.inc("native.builds" if how == "compiled"
                                else "native.build_cache_hits")
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
    PROCESS.inc("native.python_fallbacks")
    warn_once(
        _WARN_KEY,
        f"native backend unavailable ({payload}); falling back to the "
        "pure-Python backend (results are identical, just slower)",
        category=RuntimeWarning,
    )
    return None


def _native_section() -> dict:
    """The ``native`` section: the counters, the default backend, and
    availability — ``None`` until the first native call, so reading it
    never forces a compile on an idle service."""
    section = {name: PROCESS.counts.get(f"native.{name}", 0) for name in (
        "native_calls", "python_fallbacks", "build_cache_hits", "builds")}
    try:
        section["default_backend"] = resolve_backend(None)
    except ConfigurationError:
        section["default_backend"] = "invalid"
    section["available"] = _state[0] if _state is not None else None
    return section


PROCESS.set("native", _native_section)


def reset_native() -> None:
    """Forget the bound library, the warn-once, and the store handle
    (tests re-point ``$CC`` / ``$REPRO_STORE_DIR`` between cases)."""
    global _state
    _state = None
    reset_warn_once("native:")
    _build.reset_build_cache()
