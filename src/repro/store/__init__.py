"""The unified content-addressed artifact store.

One store, one key scheme (``<namespace>/<sha256>``), one metrics
surface for every persisted artifact the reproduction produces: sweep
measurements (namespace ``sweep``), compiled replay traces (``trace``),
and autotune measurements (``tune``).  See docs/STORAGE.md for the
architecture, the on-disk format, eviction and pinning, integrity
checks, and the configuration knobs.

The sweep executor (:mod:`repro.analysis.executor`), the trace replay
engine (:mod:`repro.machine.replay`), and the tuner
(:mod:`repro.tuner.tuner`) all ride on this layer behind their existing
APIs; this package is the shared substrate plus the maintenance CLI
(``python -m repro.store``).
"""

from repro.store.codecs import (
    BytesCodec,
    Codec,
    JsonCodec,
    NpzCodec,
    get_codec,
    register_codec,
)
from repro.store.config import (
    NAMESPACES,
    STORE_DIR_ENV,
    STORE_ENV,
    default_store_root,
    namespace_allowed,
    namespace_dir,
    store_allowed,
)
from repro.store.metrics import (
    STORE_METRICS,
    NamespaceCounters,
    StoreMetrics,
    reset_store_metrics,
    store_metrics_snapshot,
)
from repro.store.store import (
    ArtifactStore,
    Namespace,
    NamespaceStats,
    content_key,
)

__all__ = [
    "ArtifactStore",
    "BytesCodec",
    "Codec",
    "JsonCodec",
    "NAMESPACES",
    "Namespace",
    "NamespaceCounters",
    "NamespaceStats",
    "NpzCodec",
    "STORE_DIR_ENV",
    "STORE_ENV",
    "STORE_METRICS",
    "StoreMetrics",
    "content_key",
    "default_store_root",
    "get_codec",
    "namespace_allowed",
    "namespace_dir",
    "register_codec",
    "reset_store_metrics",
    "store_allowed",
    "store_metrics_snapshot",
]
