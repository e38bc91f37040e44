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
* **Segments** — :meth:`Namespace.put_many` files a batch of records as
  one *segment*: the framed records back to back in one file under
  ``segments/``, published by one rename.  An in-memory index maps each
  key to its record; it is refreshed from the directory on a miss, so
  other processes' segments are found too.  A lone record is still its
  own ``<key>.<ext>`` file.
* **Eviction** is size- and count-based per tier.  Memory defaults to
  a bounded LRU; disk defaults to unlimited (a cache you paid to
  fill), with opt-in budgets via constructor caps or
  ``REPRO_STORE_<NS>_MAX_BYTES`` / ``REPRO_STORE_<NS>_MAX_ENTRIES``.
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
import itertools
import json
import os
import re
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Iterable, Iterator

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

#: A namespace's memory-tier budgets by default: ``(entries, payload
#: bytes)``, where ``None`` bytes means no byte budget.
_DEFAULT_MEMORY_TIER = (4096, 64 << 20)
#: Namespaces whose memory-tier budgets differ.  Replay traces are
#: kept by count alone: a trace's payload is compressed, so its bytes
#: do not measure the arrays it holds in memory.
_MEMORY_TIERS = {"trace": (64, None)}

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


#: The suffix of a segment file.  Its name before the suffix is
#: ``<time_ns>-<pid>-<thread>-<seq>-<records>``: unique per process and
#: thread, sorted by write time, and carrying its record count, so a
#: segment cut at a record boundary is still seen to be truncated.
_SEGMENT_SUFFIX = ".seg"
_segment_seq = itertools.count()
#: An index entry packs one segment record as ``number << 80 | offset
#: << 40 | length``: the segment's slot in the namespace's list of
#: segment names and the record's place in it, in two 40-bit fields
#: (a segment is indexed only when it is under 1 TiB).
_FIELD_BITS = 40
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_NUMBER_SHIFT = 2 * _FIELD_BITS


def _mtime_ns(path: str) -> int:
    """``path``'s ``st_mtime_ns``, or 0 when it cannot be read."""
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return 0


class Namespace:
    """One artifact type's keyed view of the store.

    Obtained from :meth:`ArtifactStore.namespace`; all reads and writes
    go through here.  Each instance owns its memory tier; the disk tier
    is shared with every other process pointing at the same directory.

    Thread-safe: a server's batch thread, its store-push threads and its
    event loop share one namespace.  One lock guards the memory tier's
    state and is never held across encoding, decoding or disk I/O.  A
    second lock guards the segment index; a refresh holds it while it
    lists ``segments/`` and reads new segments' headers.
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
        # The lookup path joins strings: building a Path costs more than
        # the stat or open it names.
        self._dir = os.fspath(self.directory)
        self._segments_path = os.path.join(self._dir, "segments")
        self.persist = persist
        self.max_memory_entries = max(1, max_memory_entries)
        self.max_memory_bytes = max_memory_bytes
        self.max_disk_entries = max_disk_entries
        self.max_disk_bytes = max_disk_bytes
        #: This instance's own counts (``store.<name>.*``, counted into
        #: ``parent`` too) and contents (``entries_memory``,
        #: ``entries_disk``, ``disk_bytes``).
        self.metrics = Registry(parent)
        self._prefix = f"store.{name}."
        self.metrics.declare(*(self._prefix + c for c in _COUNTERS))
        self.metrics.set(f"store.{name}", self._contents)
        # Guards the memory-tier state below.
        self._lock = threading.Lock()
        self._lru: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._memory_bytes = 0
        # Cluster support: keys that arrived via a remote warm push (so
        # later lookups can be attributed to warming) and a bounded log
        # of locally-written keys (what a shard offers its peers).
        self._remote_keys: set[str] = set()
        self._recent_puts: "deque[str] | None" = None
        # The segment index: each indexed key's record as one packed
        # int (see _FIELD_BITS), the name of each segment number (None
        # for a free number) and the free numbers, each indexed
        # segment's number and keys, and the segments directory's mtime
        # at the last listing (None: never listed).
        self._index_lock = threading.RLock()
        self._index: dict[str, int] = {}
        self._names: list[str | None] = []
        self._free: list[int] = []
        self._segments: dict[str, tuple[int, list[str]]] = {}
        self._listed_mtime: int | None = None

    # -- bookkeeping --------------------------------------------------------
    def _count(self, counter: str, amount: int = 1) -> None:
        self.metrics.inc(self._prefix + counter, amount)

    # -- paths and framing --------------------------------------------------
    def path_of(self, key: str) -> Path:
        """The on-disk entry file for one key."""
        return Path(self._file_of(key))

    def _file_of(self, key: str) -> str:
        return os.path.join(self._dir, f"{key}.{self.codec.extension}")

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    @property
    def segments_dir(self) -> Path:
        """Where :meth:`put_many` publishes its segments."""
        return Path(self._segments_path)

    def _frame(self, key: str, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        header = (
            f"{ENVELOPE_MAGIC.decode()} {ENVELOPE_VERSION} {self.name} "
            f"{key} {self.codec.name} {digest} {len(payload)}\n"
        )
        return header.encode("ascii") + payload

    def _header(self, head: bytes) -> "tuple[str, str, int] | None":
        """``(key, payload digest, payload size)`` of one envelope header
        line (without its newline), or ``None`` when it is not this
        namespace's."""
        try:
            fields = head.decode("ascii").split()
            magic, version, namespace, key, codec, digest, size = fields
        except (UnicodeDecodeError, ValueError):
            return None
        if (
            magic != ENVELOPE_MAGIC.decode()
            or version != str(ENVELOPE_VERSION)
            or namespace != self.name
            or codec != self.codec.name
            or _KEY_RE.fullmatch(key) is None
            or not size.isdigit()
        ):
            return None
        return key, digest, int(size)

    def _unframe(self, key: str, blob: bytes) -> bytes | None:
        """Payload bytes of a framed entry, or ``None`` when invalid."""
        head, sep, payload = blob.partition(b"\n")
        header = self._header(head) if sep else None
        if (
            header is None
            or header[0] != key
            or header[2] != len(payload)
            or hashlib.sha256(payload).hexdigest() != header[1]
        ):
            return None
        return payload

    def _tmp_path(self, key: str) -> Path:
        """A temp file no other writer, thread or process, can share."""
        return self.directory / \
            f".tmp-{os.getpid()}-{threading.get_ident()}-{key}"

    def _publish(self, path: Path, data: bytes) -> None:
        """Write ``data`` as ``path`` (an entry file or a segment)
        atomically: a temp file in the namespace directory, renamed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(path.name)
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _quarantine(self, path: "Path | str") -> None:
        """Move a corrupt entry file or segment into ``quarantine/``; a
        segment's records leave the index with it."""
        name = os.path.basename(path)
        self._count("integrity_failures")
        self._forget_segment(name)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / name)
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
        while len(self._lru) > self.max_memory_entries or (
            self.max_memory_bytes is not None
            and self._memory_bytes > self.max_memory_bytes
            and len(self._lru) > 1
        ):
            victim = next(iter(self._lru))  # the least recently used
            _, nbytes = self._lru.pop(victim)
            self._memory_bytes -= nbytes
            self._count("evictions_memory")

    # -- segment index ------------------------------------------------------
    def _segment_headers(self, path: Path
                         ) -> "list[tuple[str, int, int]] | None":
        """``(key, offset, length)`` of each framed record in one segment,
        reading headers only; ``None`` when a header is invalid, a
        record runs past the end, or the records are not as many as the
        segment's name says."""
        count = path.name[:-len(_SEGMENT_SUFFIX)].rpartition("-")[2]
        records = []
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size >> _FIELD_BITS:
                return None
            offset = 0
            while offset < size:
                head = fh.readline()
                header = self._header(head[:-1]) \
                    if head.endswith(b"\n") else None
                end = offset + len(head) + (header[2] if header else 0)
                if header is None or end > size:
                    return None
                records.append((header[0], offset, end - offset))
                fh.seek(end)
                offset = end
        return records if count == str(len(records)) else None

    def _add_segment(self, name: str,
                     records: "list[tuple[str, int, int]]") -> None:
        """Index one segment's records; the newest segment (by name)
        holding a key wins.  Call with the index lock held."""
        if self._free:
            number = self._free.pop()
            self._names[number] = name
        else:
            number = len(self._names)
            self._names.append(name)
        self._segments[name] = (number, [key for key, _, _ in records])
        base = number << _NUMBER_SHIFT
        for key, offset, length in records:
            held = self._index.get(key)
            if held is None or self._names[held >> _NUMBER_SHIFT] <= name:
                self._index[key] = base | offset << _FIELD_BITS | length

    def _forget_segment(self, name: str) -> None:
        """Drop one segment's records from the index (no-op for any
        other name)."""
        with self._index_lock:
            number, keys = self._segments.pop(name, (None, ()))
            if number is None:
                return
            for key in keys:
                held = self._index.get(key)
                if held is not None and held >> _NUMBER_SHIFT == number:
                    del self._index[key]
            self._names[number] = None
            self._free.append(number)

    def _refresh_index(self) -> bool:
        """Index the segments published since the last listing, when
        the segments directory changed since then; ``True`` if it was
        listed.  Only new segments' headers are read (a published
        segment never changes); one whose headers are broken is
        quarantined."""
        with self._index_lock:
            mtime = _mtime_ns(self._segments_path)
            if mtime == self._listed_mtime:
                return False
            try:
                names = sorted(
                    name for name in os.listdir(self._segments_path)
                    if name.endswith(_SEGMENT_SUFFIX)
                    and not name.startswith("."))
            except FileNotFoundError:
                names = []
            except OSError:
                self._count("io_errors")
                return False
            self._listed_mtime = mtime
            for gone in set(self._segments).difference(names):
                self._forget_segment(gone)
            for name in names:
                if name in self._segments:
                    continue
                path = self.segments_dir / name
                try:
                    records = self._segment_headers(path)
                except FileNotFoundError:  # pragma: no cover - fs race
                    continue
                except OSError:
                    self._count("io_errors")
                    continue
                if records is None:
                    self._quarantine(path)
                else:
                    self._add_segment(name, records)
            return True

    def _segment_record(self, key: str) -> "tuple[bytes, str] | None":
        """The framed bytes of ``key``'s indexed segment record and its
        segment, or ``None`` when the index has no readable record."""
        with self._index_lock:
            found = self._index.get(key)
            if found is None:
                return None
            name = self._names[found >> _NUMBER_SHIFT]
        offset = found >> _FIELD_BITS & _FIELD_MASK
        length = found & _FIELD_MASK
        path = os.path.join(self._segments_path, name)
        try:
            with open(path, "rb", buffering=0) as fh:
                fh.seek(offset)
                return fh.read(length), path
        except FileNotFoundError:  # evicted or cleared elsewhere
            self._forget_segment(name)
        except OSError:
            self._count("io_errors")
        return None

    def _write_segment(self, framed: "dict[str, bytes]") -> None:
        """Publish framed records as one new segment and index it.

        The directory's mtime after the rename is taken as listed only
        if it was unchanged since the last listing, so this namespace's
        own segments never cause a re-listing but another process's
        still do.
        """
        name = (f"{time.time_ns():020d}-{os.getpid()}-"
                f"{threading.get_ident()}-{next(_segment_seq)}-"
                f"{len(framed)}{_SEGMENT_SUFFIX}")
        before = _mtime_ns(self._segments_path)
        self._publish(self.segments_dir / name, b"".join(framed.values()))
        after = _mtime_ns(self._segments_path)
        records, offset = [], 0
        for key, blob in framed.items():
            records.append((key, offset, len(blob)))
            offset += len(blob)
        with self._index_lock:
            self._add_segment(name, records)
            if self._listed_mtime == before:
                self._listed_mtime = after

    # -- disk tier ----------------------------------------------------------
    def _disk_blob(self, key: str) -> "tuple[bytes, str] | None":
        """The framed bytes stored on disk for ``key`` and the file
        holding them: the key's own file, else its indexed segment
        record, re-listing the segments on an index miss."""
        path = self._file_of(key)
        try:
            with open(path, "rb") as fh:
                return fh.read(), path
        except FileNotFoundError:
            pass
        except OSError:
            self._count("io_errors")
            return None
        found = self._segment_record(key)
        if found is None and self._refresh_index():
            found = self._segment_record(key)
        return found

    def _disk_files(self) -> list[tuple[Path, os.stat_result, int]]:
        """Every entry file and segment on disk, with its stat and the
        number of records it holds."""
        out = []
        if self.directory.is_dir():
            suffix = f".{self.codec.extension}"
            for path in self.directory.iterdir():
                if path.name.endswith(suffix) \
                        and not path.name.startswith("."):
                    try:
                        out.append((path, path.stat(), 1))
                    except OSError:  # pragma: no cover - fs race
                        continue
        self._refresh_index()
        with self._index_lock:
            segments = [(name, len(keys))
                        for name, (_, keys) in self._segments.items()]
        for name, records in segments:
            path = self.segments_dir / name
            try:
                out.append((path, path.stat(), records))
            except OSError:  # pragma: no cover - fs race
                continue
        return out

    def _evict_disk(self) -> None:
        """Past a disk budget, unlink the oldest entry files and
        segments (a segment goes whole) until within it."""
        if self.max_disk_entries is None and self.max_disk_bytes is None:
            return
        files = self._disk_files()
        total = sum(st.st_size for _, st, _ in files)
        count = sum(records for _, _, records in files)

        def within() -> bool:
            return (self.max_disk_entries is None
                    or count <= self.max_disk_entries) \
                and (self.max_disk_bytes is None
                     or total <= self.max_disk_bytes)

        for path, st, records in sorted(
                files, key=lambda f: (f[1].st_mtime_ns, f[0].name)):
            if within():
                return
            try:
                path.unlink()
            except OSError:  # pragma: no cover - fs race
                self._count("io_errors")
                continue
            self._forget_segment(path.name)
            count -= records
            total -= st.st_size
            self._count("evictions_disk", records)

    # -- the keyed interface ------------------------------------------------
    def get(self, key: str) -> Any | None:
        """The artifact stored under ``key``, or ``None`` (a miss).

        Memory first, then the key's own file, then its segment record,
        with integrity verification; a disk hit is promoted into the
        memory tier.  A corrupt entry file, or the segment holding a
        corrupt record, is quarantined.  The key is validated on a
        memory-tier miss: the tier holds only keys validated when they
        were stored.
        """
        found = self._memory_hit(key)
        if found is not None:
            return found[0]
        _check_key(key)
        stored = self._disk_blob(key) if self.persist else None
        if stored is not None:
            blob, path = stored
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
        counts that lookup once.  The key is validated on a miss.
        """
        found = self._memory_hit(key)
        if found is None:
            _check_key(key)
            return None
        return found[0]

    def put(
        self, key: str, obj: Any, *,
        skip_existing: bool = False, memory: bool = True,
    ) -> bool:
        """Store ``obj`` under ``key``; returns ``False`` when
        ``skip_existing`` suppressed an overwrite.

        :meth:`put_many` of one record: its own ``<key>.<ext>`` file.
        """
        return self.put_many([(key, obj)], skip_existing=skip_existing,
                             memory=memory) == 1

    def put_many(
        self, items: "Iterable[tuple[str, Any]]", *,
        skip_existing: bool = False, memory: bool = True,
    ) -> int:
        """Store each ``(key, obj)`` of ``items`` with one disk write;
        returns how many were stored (``skip_existing`` skips keys
        already present, in either tier).

        Each record is framed in its own envelope.  One record is
        written as its own ``<key>.<ext>`` file; more are published
        together as one segment under ``segments/``.  Either write is
        atomic (temp file + rename), so concurrent writers race
        harmlessly: each produces complete, verifiable records, and a
        lookup finds the key's own file first, then the newest segment
        holding it.  Every record is counted and enters the memory tier
        as if put alone.  ``memory=False`` writes a persisting
        namespace's disk tier alone: a record enters the memory tier on
        its first :meth:`get` (or at once if an older value of the key
        is in memory).  A namespace that does not persist keeps every
        record in memory.
        """
        batch = {_check_key(key): obj for key, obj in items}
        if skip_existing:
            batch = {key: obj for key, obj in batch.items()
                     if not self.contains(key)}
        if not batch:
            return 0
        # A memory-only namespace with no byte budget never needs the
        # encoded payload — skip the (possibly expensive) encode.
        if self.persist or self.max_memory_bytes is not None:
            payloads = {key: self.codec.encode(obj)
                        for key, obj in batch.items()}
        else:
            payloads = dict.fromkeys(batch, b"")
        self._count("puts", len(batch))
        with self._lock:
            for key, obj in batch.items():
                if memory or not self.persist or key in self._lru:
                    self._remember(key, obj, len(payloads[key]))
                if self._recent_puts is not None:
                    self._recent_puts.append(key)
        if not self.persist:
            return len(batch)
        framed = {key: self._frame(key, payload)
                  for key, payload in payloads.items()}
        try:
            if len(framed) == 1:
                (key, blob), = framed.items()
                self._publish(self.path_of(key), blob)
            else:
                self._write_segment(framed)
                if not skip_existing:  # the key's own file would shadow it
                    for key in framed:
                        self.path_of(key).unlink(missing_ok=True)
        except OSError:
            self._count("io_errors")
            return len(batch)
        self._count("bytes_written", sum(map(len, payloads.values())))
        self._evict_disk()
        return len(batch)

    def contains(self, key: str) -> bool:
        """Is ``key`` present (either tier), without counting a lookup?"""
        _check_key(key)
        with self._lock:
            if key in self._lru:
                return True
        if not self.persist:
            return False
        if os.path.exists(self._file_of(key)):
            return True
        with self._index_lock:
            return key in self._index \
                or (self._refresh_index() and key in self._index)

    def delete(self, key: str) -> bool:
        """Drop one entry from both tiers; ``True`` if anything existed.

        A segment record leaves the index but stays in its segment
        (segments never change): a namespace that indexes the directory
        afresh finds it again, unless a newer write of the key wins.
        """
        _check_key(key)
        with self._lock:
            found = self._lru.pop(key, None)
            if found is not None:
                self._memory_bytes -= found[1]
        existed = found is not None
        with self._index_lock:
            existed = self._index.pop(key, None) is not None or existed
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
        entries and segment records ship verbatim after an integrity
        check (a corrupt one quarantines its file and returns ``None``);
        memory-only entries are framed on the fly.  Counter-neutral
        apart from integrity failures.
        """
        _check_key(key)
        stored = self._disk_blob(key) if self.persist else None
        if stored is not None:
            blob, path = stored
            if self._unframe(key, blob) is not None:
                return blob
            self._quarantine(path)
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
            self._publish(self.path_of(key), bytes(blob))
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

    # -- enumeration and maintenance ----------------------------------------
    def keys(self) -> list[str]:
        """Keys present on disk, in their own files or segments
        (sorted); memory-only keys when not persisting."""
        if not self.persist:
            with self._lock:
                return sorted(self._lru)
        suffix = f".{self.codec.extension}"
        own = {path.name[:-len(suffix)]
               for path, _, _ in self._disk_files()
               if path.parent == self.directory}
        with self._index_lock:
            return sorted(own.union(self._index))

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
            stored = self._disk_blob(key)
            payload = None if stored is None \
                else self._unframe(key, stored[0])
            if payload is None:
                continue
            try:
                yield key, self.codec.decode(payload)
            except Exception:  # noqa: BLE001 - codec-level corruption
                continue

    def clear(self) -> int:
        """Drop every entry (memory, disk, quarantine); returns the
        number of disk records removed."""
        with self._lock:
            self._lru.clear()
            self._memory_bytes = 0
        removed = 0
        for path, _, records in self._disk_files():
            try:
                path.unlink()
                removed += records
            except OSError:  # pragma: no cover - fs race
                self._count("io_errors")
        with self._index_lock:
            self._index.clear()
            self._names.clear()
            self._free.clear()
            self._segments.clear()
            self._listed_mtime = None
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - fs race
                    self._count("io_errors")
        return removed

    def _contents(self) -> dict:
        files = self._disk_files() if self.persist else []
        with self._lock:
            in_memory = len(self._lru)
        return {
            "entries_memory": in_memory,
            "entries_disk": sum(records for _, _, records in files),
            "disk_bytes": sum(st.st_size for _, st, _ in files),
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
        max_memory_bytes: int | None = None,
        max_disk_entries: int | None = None,
        max_disk_bytes: int | None = None,
    ) -> Namespace:
        """Open one namespace view.

        ``directory`` fixes the entry directory; otherwise the env
        override or ``<root>/<name>`` applies.  Memory/disk budgets default from the
        ``REPRO_STORE_<NS>_{LRU,MAX_ENTRIES,MAX_BYTES}`` variables,
        then from the namespace's memory-tier defaults
        (:data:`_MEMORY_TIERS`, else :data:`_DEFAULT_MEMORY_TIER`).
        """
        if directory is not None:
            where = Path(directory)
        else:
            where = config.namespace_dir(name, self.root)
        if persist is None:
            persist = self._persist
        if persist is None:
            persist = config.namespace_allowed(name)
        default_entries, default_bytes = _MEMORY_TIERS.get(
            name, _DEFAULT_MEMORY_TIER)
        if max_memory_entries is None:
            max_memory_entries = (
                config.namespace_int(name, "LRU") or default_entries
            )
        if max_memory_bytes is None:
            max_memory_bytes = default_bytes
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
