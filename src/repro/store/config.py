"""Store configuration: the env knobs of the unified artifact store.

One family of variables governs the content-addressed artifact store
(see :mod:`repro.store.store`):

=============================  =============================================
``REPRO_STORE``                ``off``/``0``/``no`` disables on-disk
                               persistence for every namespace.
``REPRO_STORE_DIR``            Root directory (default
                               ``benchmarks/.store``, or ``.store`` when no
                               ``benchmarks/`` exists under the cwd).
``REPRO_STORE_<NS>``           Per-namespace off switch (``<NS>`` is the
                               upper-cased namespace, e.g.
                               ``REPRO_STORE_SWEEP=off``).
``REPRO_STORE_<NS>_DIR``       Per-namespace directory override; entries
                               live directly in that directory instead of
                               ``<root>/<ns>/``.
``REPRO_STORE_<NS>_LRU``       Per-namespace in-memory entry budget.
``REPRO_STORE_<NS>_MAX_BYTES``    Per-namespace on-disk byte budget
                                  (evicts the oldest entries;
                                  default unlimited).
``REPRO_STORE_<NS>_MAX_ENTRIES``  Per-namespace on-disk entry budget
                                  (default unlimited).
=============================  =============================================

A budget that is set but not an integer is a
:class:`~repro.errors.ConfigurationError`.  ``REPRO_SWEEP_FINGERPRINT``
overrides the cache-invalidation fingerprint for every namespace.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "STORE_ENV",
    "STORE_DIR_ENV",
    "NAMESPACES",
    "default_store_root",
    "store_allowed",
    "namespace_allowed",
    "namespace_dir",
    "namespace_env",
    "namespace_int",
    "env_int",
    "repro_fingerprint",
]

#: Global off switch for on-disk persistence.
STORE_ENV = "REPRO_STORE"
#: Root directory override.
STORE_DIR_ENV = "REPRO_STORE_DIR"
#: Overrides the version fingerprint (useful for tests); it governs
#: cache invalidation for every store namespace.
FINGERPRINT_ENV = "REPRO_SWEEP_FINGERPRINT"

#: The standard namespaces (new ones are allowed; these always appear in
#: the service's ``/metrics`` snapshot).  ``telemetry`` holds persisted
#: metrics time series (see :mod:`repro.telemetry.series`).
NAMESPACES = ("sweep", "trace", "tune", "telemetry")

_OFF = ("off", "0", "no")


def _namespace_var(namespace: str, suffix: str = "") -> str:
    return f"REPRO_STORE_{namespace.upper()}" + (f"_{suffix}" if suffix else "")


def namespace_env(namespace: str, suffix: str = "") -> str | None:
    """The value of ``REPRO_STORE_<NS>[_<suffix>]``, or ``None``."""
    return os.environ.get(_namespace_var(namespace, suffix))


def default_store_root() -> Path:
    """``$REPRO_STORE_DIR``, else ``benchmarks/.store`` under the working
    directory (``.store`` when there is no ``benchmarks/`` dir)."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    bench = Path.cwd() / "benchmarks"
    return (bench if bench.is_dir() else Path.cwd()) / ".store"


def store_allowed() -> bool:
    """False when ``REPRO_STORE`` disables on-disk persistence globally."""
    return os.environ.get(STORE_ENV, "").strip().lower() not in _OFF


def namespace_allowed(namespace: str) -> bool:
    """May this namespace persist?  Honors the global and per-namespace
    off switches."""
    if not store_allowed():
        return False
    value = namespace_env(namespace)
    if value is None:
        return True
    return value.strip().lower() not in _OFF


def namespace_dir(namespace: str, root: "Path | str | None" = None) -> Path:
    """Where one namespace's entries live.

    A per-namespace dir override wins and is used *directly*; otherwise
    ``<root>/<namespace>`` under ``root`` (default
    :func:`default_store_root`).
    """
    env = namespace_env(namespace, "DIR")
    if env:
        return Path(env)
    base = Path(root) if root is not None else default_store_root()
    return base / namespace


def env_int(var: str) -> int | None:
    """The integer value of ``$var``; ``None`` when unset or empty."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"${var} must be an integer, got {raw!r}"
        ) from None


def namespace_int(namespace: str, suffix: str) -> int | None:
    """An integer per-namespace knob (LRU / MAX_BYTES / MAX_ENTRIES);
    ``None`` when unset or empty."""
    return env_int(_namespace_var(namespace, suffix))


def repro_fingerprint() -> str:
    """The cache-invalidation fingerprint: the repro version (or the
    ``REPRO_SWEEP_FINGERPRINT`` override)."""
    env = os.environ.get(FINGERPRINT_ENV)
    if env:
        return env
    from repro import __version__  # deferred: repro imports this module

    return f"repro-{__version__}"
