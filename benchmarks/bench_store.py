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
  startup, amortized — reported for context, not gated).

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

        cold = ResultCache(store_dir, FINGERPRINT)  # cold memory tier
        start = time.perf_counter()
        for key in keys:
            assert cold.get(key) is not None
        disk_us = (time.perf_counter() - start) / len(keys) * 1e6

        return {
            "legacy_us": legacy_us,
            "store_us": store_us,
            "disk_us": disk_us,
            "legacy_rate": legacy.hits / (legacy.hits + legacy.misses),
            "store_rate": warm.metrics["cache.hit_rate"],
        }

    r = once(benchmark, run)
    budget_us = r["legacy_us"] * ALLOWED_REGRESSION + NOISE_FLOOR_US
    rows = [
        ["legacy-warm", f"{r['legacy_us']:.3f}", f"{r['legacy_rate']:.2f}"],
        ["store-warm", f"{r['store_us']:.3f}", f"{r['store_rate']:.2f}"],
        ["store-disk", f"{r['disk_us']:.3f}", "1.00"],
    ]
    emit(
        "store",
        f"warm-path lookups, {ENTRIES} entries, best of {ROUNDS} rounds\n"
        + format_rows(["config", "per-get us", "hit rate"], rows)
        + f"\ngate: store-warm <= legacy-warm x {ALLOWED_REGRESSION}"
        f" + {NOISE_FLOOR_US}us = {budget_us:.3f}us",
    )

    # Identical hit rates: every key answered by both implementations.
    assert r["legacy_rate"] == r["store_rate"] == 1.0, r
    # The gate: no warm-path regression beyond 5% (+ noise floor).
    assert r["store_us"] <= budget_us, (r["store_us"], budget_us)

    write_bench_json(
        "store",
        config={
            "entries": ENTRIES,
            "rounds": ROUNDS,
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
        ],
        metrics={
            "warm_ratio_vs_legacy": round(r["store_us"] / r["legacy_us"], 3),
            "budget_us": round(budget_us, 4),
        },
        criteria={
            "hit_rates_identical": True,
            "max_warm_regression": ALLOWED_REGRESSION,
            "pass": bool(
                r["store_us"] <= budget_us
                and r["legacy_rate"] == r["store_rate"] == 1.0
            ),
        },
    )
