"""The unified artifact store's warm path vs the pre-unification cache.

The store refactor (docs/STORAGE.md) must not tax the hot path: a warm
sweep rerun used to be a dict lookup into shards loaded at startup, and
with the store it is a memory-tier LRU hit.  This benchmark rebuilds
the legacy warm path faithfully (one JSON-lines shard dir loaded into a
dict, hit counter and all), fills a `ResultCache` — now a facade over
the store's ``sweep`` namespace — with the same entries, and times
per-lookup latency three ways:

* **legacy-warm** — the pre-unification in-memory shard map;
* **store-warm** — memory-tier hits (the steady state of every warm
  sweep, replay, and tune run);
* **store-disk** — cold-process first touches: framed read, integrity
  verification, promotion into memory (was: parse every shard line at
  startup, amortized — reported for context, not gated);
* **store-disk-segment** — the same first touches when the entries
  were written as 36-record segments: one index build (a listing plus
  every segment's headers) and one record read per key.

Two more rows time the write side per record, for sweep runs of 36
new records (what one ``/v1/tune`` request's search writes):
**write-per-key** stores them one ``ResultCache.put`` (one file) each,
**write-segment** one ``ResultCache.put_many`` (one segment) per run.
These rows are reported, not gated.

Hit rates must be identical (1.0: every key present in both), and the
store's warm path must stay within 5% of legacy plus a small absolute
floor (the per-op delta is tens of nanoseconds; the floor keeps the
gate meaningful — a disk-read-per-hit regression is ~100x — without
flaking on scheduler noise).
"""

import json
import time
from pathlib import Path

from repro.analysis.executor import ResultCache

from _util import emit, format_rows, once, write_bench_json

ENTRIES = 512
ROUNDS = 7  # best-of, to shave scheduler noise
RUN_RECORDS = 36  # the new records of one /v1/tune request's search
FINGERPRINT = "bench-store"
ALLOWED_REGRESSION = 1.05
NOISE_FLOOR_US = 2.0


class LegacySweepCache:
    """The pre-unification warm path: shard files -> dict at startup."""

    def __init__(self, directory: Path) -> None:
        self._entries: dict[str, tuple[int, dict]] = {}
        self.hits = 0
        self.misses = 0
        for shard in sorted(Path(directory).glob("shard_*.jsonl")):
            for line in shard.read_text().splitlines():
                try:
                    entry = json.loads(line)
                    self._entries[str(entry["key"])] = (
                        int(entry["cycles"]), dict(entry.get("extra", {}))
                    )
                except (ValueError, KeyError, TypeError):
                    continue

    def get(self, key: str):
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return found


def _keys():
    import hashlib

    return [
        hashlib.sha256(f"bench-store-point-{i}".encode()).hexdigest()
        for i in range(ENTRIES)
    ]


def _payload(i: int) -> tuple[int, dict]:
    return 40 + i, {"slots": i % 7, "unit": "shared"}


def _per_get_us(cache, keys) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for key in keys:
            assert cache.get(key) is not None
        best = min(best, time.perf_counter() - start)
    return best / len(keys) * 1e6


def _runs(keys):
    """``keys`` as 36-record sweep runs of ``(key, cycles, extra)``."""
    records = [(key, *_payload(i)) for i, key in enumerate(keys)]
    return [records[i:i + RUN_RECORDS]
            for i in range(0, len(records), RUN_RECORDS)]


def _per_write_us(directory: Path, keys, batched: bool) -> float:
    """Best-of-ROUNDS write cost per record into fresh directories."""
    best = float("inf")
    for r in range(ROUNDS):
        cache = ResultCache(directory / f"{batched}-{r}", FINGERPRINT)
        start = time.perf_counter()
        for run in _runs(keys):
            if batched:
                cache.put_many(run)
            else:
                for record in run:
                    cache.put(*record)
        best = min(best, time.perf_counter() - start)
    return best / len(keys) * 1e6


def _cold_get_us(directory: Path, keys) -> float:
    """Per-get cost of a cold memory tier reading every key from disk."""
    cold = ResultCache(directory, FINGERPRINT)
    start = time.perf_counter()
    for key in keys:
        assert cold.get(key) is not None
    return (time.perf_counter() - start) / len(keys) * 1e6


def test_store_warm_path(benchmark, tmp_path):
    keys = _keys()

    def run():
        # Legacy shard dir and store namespace carrying identical entries.
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        with open(legacy_dir / "shard_00.jsonl", "w") as fh:
            for i, key in enumerate(keys):
                cycles, extra = _payload(i)
                fh.write(json.dumps({
                    "key": key, "fingerprint": FINGERPRINT,
                    "cycles": cycles, "extra": extra,
                }) + "\n")

        store_dir = tmp_path / "store"
        warm = ResultCache(store_dir, FINGERPRINT)
        for i, key in enumerate(keys):
            warm.put(key, *_payload(i))

        legacy = LegacySweepCache(legacy_dir)
        legacy_us = _per_get_us(legacy, keys)
        store_us = _per_get_us(warm, keys)

        disk_us = _cold_get_us(store_dir, keys)
        segment_dir = tmp_path / "segments"
        for records in _runs(keys):
            ResultCache(segment_dir, FINGERPRINT).put_many(records)
        segment_disk_us = _cold_get_us(segment_dir, keys)

        return {
            "legacy_us": legacy_us,
            "store_us": store_us,
            "disk_us": disk_us,
            "segment_disk_us": segment_disk_us,
            "write_per_key_us": _per_write_us(tmp_path / "w", keys, False),
            "write_segment_us": _per_write_us(tmp_path / "w", keys, True),
            "legacy_rate": legacy.hits / (legacy.hits + legacy.misses),
            "store_rate": warm.metrics["cache.hit_rate"],
        }

    r = once(benchmark, run)
    budget_us = r["legacy_us"] * ALLOWED_REGRESSION + NOISE_FLOOR_US
    rows = [
        ["legacy-warm", f"{r['legacy_us']:.3f}", f"{r['legacy_rate']:.2f}"],
        ["store-warm", f"{r['store_us']:.3f}", f"{r['store_rate']:.2f}"],
        ["store-disk", f"{r['disk_us']:.3f}", "1.00"],
        ["store-disk-segment", f"{r['segment_disk_us']:.3f}", "1.00"],
    ]
    writes = [
        ["write-per-key", f"{r['write_per_key_us']:.3f}"],
        ["write-segment", f"{r['write_segment_us']:.3f}"],
    ]
    emit(
        "store",
        f"warm-path lookups, {ENTRIES} entries, best of {ROUNDS} rounds"
        " (the disk rows: one cold pass)\n"
        + format_rows(["config", "per-get us", "hit rate"], rows)
        + f"\ngate: store-warm <= legacy-warm x {ALLOWED_REGRESSION}"
        f" + {NOISE_FLOOR_US}us = {budget_us:.3f}us\n\n"
        f"writes, {RUN_RECORDS}-record runs, best of {ROUNDS} rounds\n"
        + format_rows(["config", "per-record us"], writes),
    )

    write_bench_json(
        "store",
        config={
            "entries": ENTRIES,
            "rounds": ROUNDS,
            "run_records": RUN_RECORDS,
            "allowed_regression": ALLOWED_REGRESSION,
            "noise_floor_us": NOISE_FLOOR_US,
        },
        rows=[
            {"config": "legacy-warm",
             "per_get_us": round(r["legacy_us"], 4),
             "hit_rate": r["legacy_rate"]},
            {"config": "store-warm",
             "per_get_us": round(r["store_us"], 4),
             "hit_rate": r["store_rate"]},
            {"config": "store-disk",
             "per_get_us": round(r["disk_us"], 4),
             "hit_rate": 1.0},
            {"config": "store-disk-segment",
             "per_get_us": round(r["segment_disk_us"], 4),
             "hit_rate": 1.0},
            {"config": "write-per-key",
             "per_record_us": round(r["write_per_key_us"], 4)},
            {"config": "write-segment",
             "per_record_us": round(r["write_segment_us"], 4)},
        ],
        metrics={
            "warm_ratio_vs_legacy": round(r["store_us"] / r["legacy_us"], 3),
            "write_per_key_vs_segment": round(
                r["write_per_key_us"] / r["write_segment_us"], 1),
            "budget_us": round(budget_us, 4),
        },
        criteria={
            "hit_rates_identical": r["legacy_rate"] == r["store_rate"],
            "max_warm_regression": ALLOWED_REGRESSION,
            "pass": bool(
                r["store_us"] <= budget_us
                and r["legacy_rate"] == r["store_rate"] == 1.0
            ),
        },
    )

    # The record is written first, so a failed gate is recorded too.
    # Identical hit rates: every key answered by both implementations.
    assert r["legacy_rate"] == r["store_rate"] == 1.0, r
    # The gate: no warm-path regression beyond 5% (+ noise floor).
    assert r["store_us"] <= budget_us, (r["store_us"], budget_us)
