"""The unified content-addressed artifact store.

One :class:`ArtifactStore` replaces the three parallel caches that grew
around the sweep executor (``benchmarks/.sweep_cache``), the trace
replay engine (``benchmarks/.trace_store``), and the autotuner
(``benchmarks/.tune_cache``).  Artifacts of every type live under one
root, one key scheme, and one metrics surface:

* **Keys** are ``<namespace>/<sha256>``: the namespace names the
  artifact type (``sweep``, ``trace``, ``tune``, ...), the digest is a
  SHA-256 over a canonical byte encoding of whatever identifies the
  artifact (:func:`content_key` hashes canonical JSON; callers with
  their own canonical encoding — e.g. replay's
  :func:`~repro.machine.replay.derive_launch_key` — pass their digest
  straight through).
* **Two tiers** — an in-memory LRU in front of an on-disk directory.
  Disk writes are atomic (temp file + ``os.replace``), and every entry
  is framed with an integrity envelope (header carrying the payload's
  SHA-256 and size) that is verified on read.  A corrupt or truncated
  entry is *quarantined* (moved into ``quarantine/``) and reported as a
  miss — never a crash.
* **Eviction** is size- and count-based per tier, and never touches
  *pinned* keys.  Memory defaults to a bounded LRU; disk defaults to
  unlimited (a cache you paid to fill), with opt-in budgets via
  constructor caps or ``REPRO_STORE_<NS>_MAX_BYTES`` /
  ``REPRO_STORE_<NS>_MAX_ENTRIES``.
* **Metrics** — every namespace counts hits (per tier), misses, puts,
  evictions, bytes, and integrity failures as ``store.<ns>.<counter>``
  in its own registry (:attr:`Namespace.metrics`, which also reports
  the namespace's contents), whose parent is the store's registry —
  by default :data:`repro.metrics.PROCESS`, whose ``store`` section the
  service's ``/metrics`` endpoint reports.

The layer is deliberately network-serializable: an entry is one header
line plus payload bytes, and the sharded cost-oracle cluster
(:mod:`repro.cluster`) ships exactly those framed bytes between worker
shards — :meth:`Namespace.get_framed` reads an entry in wire form,
:meth:`Namespace.put_framed` verifies the envelope before storing, so a
corrupted-in-flight push is rejected rather than cached.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Iterator

from repro.metrics import PROCESS, Registry, hit_rate
from repro.store import config
from repro.store.codecs import Codec, get_codec

__all__ = [
    "ArtifactStore",
    "Namespace",
    "content_key",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
]

ENVELOPE_MAGIC = b"repro-store"
ENVELOPE_VERSION = 1

_DEFAULT_MEMORY_ENTRIES = 4096
_DEFAULT_MEMORY_BYTES = 64 << 20  # 64 MiB of decoded payloads

#: What every namespace counts, as ``store.<ns>.<counter>``.
_COUNTERS = (
    "hits_memory", "hits_disk", "misses", "puts",
    "bytes_written", "bytes_read",
    "evictions_memory", "evictions_disk",
    "integrity_failures", "quarantined", "io_errors",
    "remote_puts", "remote_rejected", "remote_duplicates",
    "hits_remote",
)


def _store_section(registry: Registry) -> dict:
    """The ``store`` section's totals per namespace, and the standard
    namespaces' counters while they are uncounted (after a reset).

    The counters of a namespace opened since the last reset are
    declared, so the registry renders them itself.
    """
    counts = registry.counts
    section = {}
    for ns in sorted({*config.NAMESPACES, *registry.children("store")}):
        prefix = f"store.{ns}."
        hits = counts.get(prefix + "hits_memory", 0) \
            + counts.get(prefix + "hits_disk", 0)
        section[ns] = {
            "hits": hits,
            "hit_rate": hit_rate(hits, counts.get(prefix + "misses", 0)),
            "evictions": counts.get(prefix + "evictions_memory", 0)
            + counts.get(prefix + "evictions_disk", 0),
        }
        if prefix + "puts" not in counts:
            section[ns].update(dict.fromkeys(_COUNTERS, 0))
    return section


PROCESS.set("store", functools.partial(_store_section, PROCESS))


def content_key(material: Any) -> str:
    """SHA-256 digest of ``material``'s canonical JSON encoding.

    The standard way to derive a store key from a JSON-able identity
    (a spec dict, a parameter point, ...).  Keys derived elsewhere just
    need to be 64 hex chars — any canonical byte encoding works.
    """
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


_KEY_RE = re.compile(r"[0-9a-f]{64}")


def _check_key(key: str) -> str:
    if _KEY_RE.fullmatch(key) is None:
        raise ValueError(
            f"store keys are 64-char lowercase sha256 hex digests, got {key!r}"
        )
    return key


class Namespace:
    """One artifact type's keyed view of the store.

    Obtained from :meth:`ArtifactStore.namespace`; all reads and writes
    go through here.  Each instance owns its memory tier; the disk tier
    is shared with every other process pointing at the same directory.

    Thread-safe: a server's batch thread, its store-push threads and its
    event loop share one namespace.  One lock guards the memory tier's
    state and is never held across encoding, decoding or disk I/O.
    """

    def __init__(
        self,
        name: str,
        codec: Codec,
        directory: Path,
        *,
        persist: bool,
        max_memory_entries: int,
        max_memory_bytes: int | None,
        max_disk_entries: int | None,
        max_disk_bytes: int | None,
        parent: Registry,
    ) -> None:
        self.name = name
        self.codec = codec
        self.directory = Path(directory)
        self.persist = persist
        self.max_memory_entries = max(1, max_memory_entries)
        self.max_memory_bytes = max_memory_bytes
        self.max_disk_entries = max_disk_entries
        self.max_disk_bytes = max_disk_bytes
        #: This instance's own counts (``store.<name>.*``, counted into
        #: ``parent`` too) and contents (``entries_memory``,
        #: ``entries_disk``, ``disk_bytes``, ``pinned``).
        self.metrics = Registry(parent)
        self._prefix = f"store.{name}."
        self.metrics.declare(*(self._prefix + c for c in _COUNTERS))
        self.metrics.set(f"store.{name}", self._contents)
        # Guards the memory-tier state below.
        self._lock = threading.Lock()
        self._lru: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._memory_bytes = 0
        self._pinned: set[str] = set()
        # Cluster support: keys that arrived via a remote warm push (so
        # later lookups can be attributed to warming) and a bounded log
        # of locally-written keys (what a shard offers its peers).
        self._remote_keys: set[str] = set()
        self._recent_puts: "deque[str] | None" = None

    # -- bookkeeping --------------------------------------------------------
    def _count(self, counter: str, amount: int = 1) -> None:
        self.metrics.inc(self._prefix + counter, amount)

    # -- paths and framing --------------------------------------------------
    def path_of(self, key: str) -> Path:
        """The on-disk entry file for one key."""
        return self.directory / f"{key}.{self.codec.extension}"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def _frame(self, key: str, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        header = (
            f"{ENVELOPE_MAGIC.decode()} {ENVELOPE_VERSION} {self.name} "
            f"{key} {self.codec.name} {digest} {len(payload)}\n"
        )
        return header.encode("ascii") + payload

    def _unframe(self, key: str, blob: bytes) -> bytes | None:
        """Payload bytes of a framed entry, or ``None`` when invalid."""
        head, sep, payload = blob.partition(b"\n")
        if not sep:
            return None
        try:
            fields = head.decode("ascii").split()
            magic, version, namespace, k, codec, digest, size = fields
        except (UnicodeDecodeError, ValueError):
            return None
        if (
            magic != ENVELOPE_MAGIC.decode()
            or version != str(ENVELOPE_VERSION)
            or namespace != self.name
            or k != key
            or codec != self.codec.name
            or size != str(len(payload))
            or hashlib.sha256(payload).hexdigest() != digest
        ):
            return None
        return payload

    def _tmp_path(self, key: str) -> Path:
        """A temp file no other writer, thread or process, can share."""
        return self.directory / \
            f".tmp-{os.getpid()}-{threading.get_ident()}-{key}"

    def _quarantine(self, path: Path) -> None:
        self._count("integrity_failures")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
            self._count("quarantined")
        except OSError:
            self._count("io_errors")

    # -- memory tier --------------------------------------------------------
    def _memory_hit(self, key: str) -> "tuple[Any, int] | None":
        """The memory tier's ``(artifact, nbytes)`` for ``key``, or
        ``None``; a hit is refreshed and counted, a miss is not counted."""
        with self._lock:
            found = self._lru.get(key)
            if found is None:
                return None
            self._lru.move_to_end(key)
            remote = key in self._remote_keys
        self._count("hits_memory")
        if remote:
            self._count("hits_remote")
        return found

    def _remember(self, key: str, obj: Any, nbytes: int) -> None:
        """Insert into the memory tier; call with the lock held."""
        old = self._lru.pop(key, None)
        if old is not None:
            self._memory_bytes -= old[1]
        self._lru[key] = (obj, nbytes)
        self._memory_bytes += nbytes
        self._evict_memory()

    def _evict_memory(self) -> None:
        over = True
        while over:
            over = len(self._lru) > self.max_memory_entries or (
                self.max_memory_bytes is not None
                and self._memory_bytes > self.max_memory_bytes
                and len(self._lru) > 1
            )
            if not over:
                return
            victim = next(
                (k for k in self._lru if k not in self._pinned), None
            )
            if victim is None:
                return  # everything pinned: over budget, but untouchable
            _, nbytes = self._lru.pop(victim)
            self._memory_bytes -= nbytes
            self._count("evictions_memory")

    # -- disk tier ----------------------------------------------------------
    def _disk_entries(self) -> list[tuple[Path, os.stat_result]]:
        if not self.directory.is_dir():
            return []
        out = []
        suffix = f".{self.codec.extension}"
        for path in self.directory.iterdir():
            if path.name.endswith(suffix) and not path.name.startswith("."):
                try:
                    out.append((path, path.stat()))
                except OSError:  # pragma: no cover - fs race
                    continue
        return out

    def _evict_disk(self) -> None:
        if self.max_disk_entries is None and self.max_disk_bytes is None:
            return
        entries = self._disk_entries()
        total = sum(st.st_size for _, st in entries)
        count = len(entries)
        if (self.max_disk_entries is None or count <= self.max_disk_entries) \
                and (self.max_disk_bytes is None
                     or total <= self.max_disk_bytes):
            return
        pinned = self.pinned()
        for path, st in sorted(entries, key=lambda e: e[1].st_mtime):
            key = path.name.rsplit(".", 1)[0]
            if key in pinned:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - fs race
                self._count("io_errors")
                continue
            count -= 1
            total -= st.st_size
            self._count("evictions_disk")
            if (self.max_disk_entries is None
                    or count <= self.max_disk_entries) and \
               (self.max_disk_bytes is None or total <= self.max_disk_bytes):
                return

    # -- the keyed interface ------------------------------------------------
    def get(self, key: str) -> Any | None:
        """The artifact stored under ``key``, or ``None`` (a miss).

        Memory first, then disk with integrity verification; a disk hit
        is promoted into the memory tier.  Corrupt entries quarantine.
        """
        _check_key(key)
        found = self._memory_hit(key)
        if found is not None:
            return found[0]
        if self.persist:
            path = self.path_of(key)
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                pass
            except OSError:
                self._count("io_errors")
            else:
                payload = self._unframe(key, blob)
                if payload is None:
                    self._quarantine(path)
                else:
                    try:
                        obj = self.codec.decode(payload)
                    except Exception:  # noqa: BLE001 - codec-level corruption
                        self._quarantine(path)
                    else:
                        self._count("hits_disk")
                        self._count("bytes_read", len(payload))
                        with self._lock:
                            remote = key in self._remote_keys
                            self._remember(key, obj, len(payload))
                        if remote:
                            self._count("hits_remote")
                        return obj
        self._count("misses")
        return None

    def get_memory(self, key: str) -> Any | None:
        """:meth:`get` from the memory tier alone: never touches disk.

        A hit counts exactly what :meth:`get` counts for it; a miss
        counts nothing, so a caller that falls back to :meth:`get`
        counts that lookup once.
        """
        _check_key(key)
        found = self._memory_hit(key)
        return None if found is None else found[0]

    def put(
        self, key: str, obj: Any, *, pin: bool = False,
        skip_existing: bool = False, memory: bool = True,
    ) -> bool:
        """Store ``obj`` under ``key``; returns ``False`` when
        ``skip_existing`` suppressed an overwrite.

        The write is atomic (temp file + rename), so concurrent writers
        race harmlessly — both produce complete, verifiable entries and
        the last rename wins.  ``memory=False`` writes a persisting
        namespace's disk tier alone: the entry enters the memory tier
        on its first :meth:`get` (or at once if an older value of the
        key is in memory).  A namespace that does not persist keeps
        every entry in memory.
        """
        _check_key(key)
        with self._lock:
            if pin:
                self._pinned.add(key)
            in_memory = key in self._lru
        if skip_existing and (
            in_memory or (self.persist and self.path_of(key).exists())
        ):
            return False
        # A memory-only namespace with no byte budget never needs the
        # encoded payload — skip the (possibly expensive) encode.
        if self.persist or self.max_memory_bytes is not None:
            payload = self.codec.encode(obj)
        else:
            payload = None
        self._count("puts")
        with self._lock:
            if memory or not self.persist or key in self._lru:
                self._remember(key, obj,
                               len(payload) if payload is not None else 0)
            if self._recent_puts is not None:
                self._recent_puts.append(key)
        if not self.persist:
            return True
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self._tmp_path(key)
            tmp.write_bytes(self._frame(key, payload))
            os.replace(tmp, self.path_of(key))
        except OSError:
            self._count("io_errors")
            return True
        self._count("bytes_written", len(payload))
        self._evict_disk()
        return True

    def contains(self, key: str) -> bool:
        """Is ``key`` present (either tier), without counting a lookup?"""
        _check_key(key)
        with self._lock:
            if key in self._lru:
                return True
        return self.persist and self.path_of(key).exists()

    def delete(self, key: str) -> bool:
        """Drop one entry from both tiers; ``True`` if anything existed."""
        _check_key(key)
        with self._lock:
            found = self._lru.pop(key, None)
            if found is not None:
                self._memory_bytes -= found[1]
            self._pinned.discard(key)
        existed = found is not None
        if self.persist:
            try:
                self.path_of(key).unlink()
                existed = True
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - fs race
                self._count("io_errors")
        return existed

    # -- framed transfer (cluster warm push / pull) --------------------------
    def get_framed(self, key: str) -> bytes | None:
        """One entry as its framed wire bytes (envelope + payload).

        This is the cluster transfer format: the exact blob another
        process can verify and store with :meth:`put_framed`.  Disk
        entries ship verbatim after an integrity check (corrupt ones
        quarantine and return ``None``); memory-only entries are framed
        on the fly.  Counter-neutral apart from integrity failures.
        """
        _check_key(key)
        if self.persist:
            path = self.path_of(key)
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                blob = None
            except OSError:
                self._count("io_errors")
                blob = None
            if blob is not None:
                if self._unframe(key, blob) is None:
                    self._quarantine(path)
                else:
                    return blob
        with self._lock:
            found = self._lru.get(key)
        if found is None:
            return None
        try:
            payload = self.codec.encode(found[0])
        except Exception:  # noqa: BLE001 - unencodable artifact
            return None
        return self._frame(key, payload)

    def put_framed(self, key: str, blob: bytes, *,
                   overwrite: bool = False) -> str:
        """Store a framed entry received over the wire.

        The envelope is verified *before* anything is written — magic,
        version, namespace, key, codec, payload digest and size must all
        match, and the payload must decode — so a corrupted-in-flight
        push is rejected, never stored.  Returns ``"stored"``,
        ``"duplicate"`` (already present and ``overwrite`` unset), or
        ``"rejected"``.
        """
        _check_key(key)
        payload = self._unframe(key, bytes(blob))
        if payload is None:
            self._count("remote_rejected")
            return "rejected"
        try:
            obj = self.codec.decode(payload)
        except Exception:  # noqa: BLE001 - codec-level corruption
            self._count("remote_rejected")
            return "rejected"
        if not overwrite and self.contains(key):
            self._count("remote_duplicates")
            return "duplicate"
        self._count("remote_puts")
        with self._lock:
            self._remember(key, obj, len(payload))
            self._remote_keys.add(key)
            while len(self._remote_keys) > 8192:  # bounded attribution set
                self._remote_keys.pop()
        if not self.persist:
            return "stored"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self._tmp_path(key)
            tmp.write_bytes(bytes(blob))
            os.replace(tmp, self.path_of(key))
        except OSError:
            self._count("io_errors")
            return "stored"
        self._count("bytes_written", len(payload))
        self._evict_disk()
        return "stored"

    def track_recent_puts(self, capacity: int = 512) -> None:
        """Start logging locally-written keys (for cluster warm push).

        Only genuine local :meth:`put` calls are logged — entries that
        arrived via :meth:`put_framed` are not, so shards never re-push
        what a peer just pushed to them.
        """
        with self._lock:
            if self._recent_puts is None \
                    or self._recent_puts.maxlen != capacity:
                self._recent_puts = deque(self._recent_puts or (),
                                          maxlen=capacity)

    def drain_recent_puts(self) -> list[str]:
        """Keys written locally since the last drain (oldest first)."""
        with self._lock:
            if not self._recent_puts:
                return []
            out = list(self._recent_puts)
            self._recent_puts.clear()
        return out

    # -- pinning ------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Exempt ``key`` from eviction in both tiers."""
        _check_key(key)
        with self._lock:
            self._pinned.add(key)

    def unpin(self, key: str) -> None:
        with self._lock:
            self._pinned.discard(key)

    def pinned(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._pinned)

    # -- enumeration and maintenance ----------------------------------------
    def keys(self) -> list[str]:
        """Keys present on disk (sorted); memory-only keys when not
        persisting."""
        if not self.persist:
            with self._lock:
                return sorted(self._lru)
        return sorted(
            path.name.rsplit(".", 1)[0] for path, _ in self._disk_entries()
        )

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Yield every decodable on-disk entry as ``(key, artifact)``.

        Counter-neutral: nothing is counted as a hit or a miss and the
        memory tier is left alone, so maintenance passes (stats, CLI
        listings) do not distort session metrics.  Invalid entries are
        skipped, not quarantined.
        """
        if not self.persist:
            with self._lock:
                entries = [(key, self._lru[key][0])
                           for key in sorted(self._lru)]
            yield from entries
            return
        for key in self.keys():
            try:
                blob = self.path_of(key).read_bytes()
            except OSError:
                continue
            payload = self._unframe(key, blob)
            if payload is None:
                continue
            try:
                yield key, self.codec.decode(payload)
            except Exception:  # noqa: BLE001 - codec-level corruption
                continue

    def clear(self) -> int:
        """Drop every entry (memory, disk, quarantine); returns the
        number of disk entry files removed.  Pins survive."""
        with self._lock:
            self._lru.clear()
            self._memory_bytes = 0
        removed = 0
        if self.directory.is_dir():
            for path, _ in self._disk_entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - fs race
                    self._count("io_errors")
            if self.quarantine_dir.is_dir():
                for path in self.quarantine_dir.iterdir():
                    try:
                        path.unlink()
                    except OSError:  # pragma: no cover - fs race
                        self._count("io_errors")
        return removed

    def _contents(self) -> dict:
        entries = self._disk_entries() if self.persist else []
        with self._lock:
            in_memory, pinned = len(self._lru), len(self._pinned)
        return {
            "entries_memory": in_memory,
            "entries_disk": len(entries),
            "disk_bytes": sum(st.st_size for _, st in entries),
            "pinned": pinned,
        }


class ArtifactStore:
    """The unified store: a root directory of codec-typed namespaces.

    Parameters
    ----------
    root:
        Store root (default
        :func:`~repro.store.config.default_store_root`, honoring
        ``REPRO_STORE_DIR``).  Namespaces with a directory override
        (argument or ``REPRO_STORE_<NS>_DIR``) live outside the root.
    persist:
        Force disk persistence on/off for every namespace; default
        defers to ``REPRO_STORE`` / per-namespace switches.
    metrics:
        The :class:`~repro.metrics.Registry` every namespace's counts
        also go to, which then reports a ``store`` section (default
        :data:`repro.metrics.PROCESS`, which ``/metrics`` reports).
    """

    def __init__(
        self,
        root: "Path | str | None" = None,
        *,
        persist: bool | None = None,
        metrics: Registry | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self._persist = persist
        self._metrics = metrics if metrics is not None else PROCESS
        if metrics is not None:
            metrics.set("store", functools.partial(_store_section, metrics))

    def resolve_root(self) -> Path:
        return self.root if self.root is not None \
            else config.default_store_root()

    def namespace(
        self,
        name: str,
        codec: "Codec | str" = "json",
        *,
        directory: "Path | str | None" = None,
        persist: bool | None = None,
        max_memory_entries: int | None = None,
        max_memory_bytes: "int | None" = _DEFAULT_MEMORY_BYTES,
        max_disk_entries: int | None = None,
        max_disk_bytes: int | None = None,
    ) -> Namespace:
        """Open one namespace view.

        ``directory`` pins the entry directory; otherwise the env
        override or ``<root>/<name>`` applies.  Memory/disk budgets default from the
        ``REPRO_STORE_<NS>_{LRU,MAX_ENTRIES,MAX_BYTES}`` variables.
        """
        if directory is not None:
            where = Path(directory)
        else:
            where = config.namespace_dir(name, self.root)
        if persist is None:
            persist = self._persist
        if persist is None:
            persist = config.namespace_allowed(name)
        if max_memory_entries is None:
            max_memory_entries = (
                config.namespace_int(name, "LRU") or _DEFAULT_MEMORY_ENTRIES
            )
        if max_disk_entries is None:
            max_disk_entries = config.namespace_int(name, "MAX_ENTRIES")
        if max_disk_bytes is None:
            max_disk_bytes = config.namespace_int(name, "MAX_BYTES")
        return Namespace(
            name,
            get_codec(codec),
            where,
            persist=persist,
            max_memory_entries=max_memory_entries,
            max_memory_bytes=max_memory_bytes,
            max_disk_entries=max_disk_entries,
            max_disk_bytes=max_disk_bytes,
            parent=self._metrics,
        )
