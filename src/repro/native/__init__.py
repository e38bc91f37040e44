"""Native compiled backend for the cost model's hot integer loops.

``kernels.c`` is compiled on demand with the system C compiler into a
shared library (content-hash cached in the artifact store's ``native``
namespace) and bound via ctypes with typed kernel descriptions.  See
:mod:`repro.native.backend` for selection (``backend=`` /
``$REPRO_BACKEND``) and fallback semantics, and
docs/PERFORMANCE.md ("Native backend") for the user guide.
"""

from repro.native.backend import (
    BACKEND_ENV,
    BACKENDS,
    native_available,
    native_kernels,
    reset_native,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "native_available",
    "native_kernels",
    "reset_native",
    "resolve_backend",
]
