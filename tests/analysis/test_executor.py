"""The sweep executor: sharding, caching, and determinism guarantees.

The measure functions are module-level (picklable for the process-pool
paths) and cheap.  Invocations are counted through a side-channel file
named by ``REPRO_TEST_COUNT_FILE`` — appends are atomic enough at these
sizes and work across fork, so the counts see worker processes too.
"""

import json
import os

import pytest

from repro.analysis.executor import (
    ResultCache,
    SweepExecutor,
    describe_measure,
    point_key,
    resolve_jobs,
)
from repro.analysis.sweeps import SweepPoint, grid, run_sweep
from repro.analysis.terms import Params

GRID = list(grid(n=(8, 16, 32), l=(1, 2)))
POINTS = [Params(n=q["n"], p=4, w=4, l=q["l"]) for q in GRID]


def _count_invocation() -> None:
    path = os.environ.get("REPRO_TEST_COUNT_FILE")
    if path:
        with open(path, "a") as fh:
            fh.write("x\n")


def _invocations(path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


def cheap_measure(q) -> tuple[int, dict]:
    _count_invocation()
    return q.n * q.l + 7, {"n": q.n}


def cheap_measure_dict(q) -> int:
    _count_invocation()
    return q["n"] * q["l"] + 7


def flexible_measure(q):
    """``cheap_measure_dict`` for one point, or for a group of points
    (one invocation, appended to ``REPRO_TEST_GROUP_FILE``); one
    function serves both call shapes, so runs with and without ``axis``
    share cache keys."""
    if isinstance(q, dict):
        return cheap_measure_dict(q), {"n": q["n"]}
    path = os.environ.get("REPRO_TEST_GROUP_FILE")
    if path:
        with open(path, "a") as fh:
            fh.write(json.dumps(q) + "\n")
    return [flexible_measure(point) for point in q]


def failing_measure(q) -> int:
    if q.n == 16:
        raise RuntimeError("boom at n=16")
    return q.n


@pytest.fixture()
def count_file(tmp_path, monkeypatch):
    path = tmp_path / "invocations"
    monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(path))
    return path


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


class TestSerialSemantics:
    def test_matches_legacy_loop(self):
        """``run_sweep`` defaults == the historical in-process loop."""
        rows = run_sweep(cheap_measure, POINTS)
        legacy = [
            SweepPoint(params=q, cycles=cheap_measure(q)[0], extra={"n": q.n})
            for q in POINTS
        ]
        assert rows == legacy

    def test_grid_order_preserved(self):
        rows = run_sweep(cheap_measure, POINTS)
        assert [r.params for r in rows] == POINTS

    def test_dict_points(self):
        pts = [dict(n=8, l=2), dict(n=16, l=1)]
        rows = run_sweep(cheap_measure_dict, pts)
        assert [r.cycles for r in rows] == [8 * 2 + 7, 16 * 1 + 7]
        assert rows[0].params is pts[0]

    def test_int_return_normalized(self):
        rows = run_sweep(cheap_measure_dict, [dict(n=8, l=1)])
        assert rows[0].extra == {}

    def test_exception_propagates_serial(self):
        with pytest.raises(RuntimeError, match="boom at n=16"):
            run_sweep(failing_measure, POINTS, jobs=1)

    def test_exception_propagates_parallel(self):
        with pytest.raises(RuntimeError, match="boom at n=16"):
            run_sweep(failing_measure, POINTS, jobs=4)


class TestParallelIdentity:
    def test_jobs4_equals_jobs1(self, cache_dir):
        serial = run_sweep(cheap_measure, POINTS, jobs=1)
        parallel = run_sweep(cheap_measure, POINTS, jobs=4)
        assert parallel == serial

    def test_jobs4_with_cache_equals_jobs1(self, cache_dir):
        serial = run_sweep(cheap_measure, POINTS, jobs=1)
        parallel = run_sweep(
            cheap_measure, POINTS, jobs=4, cache=True, cache_dir=cache_dir
        )
        assert parallel == serial

    def test_resolve_jobs_clamps(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 100) == 2
        assert resolve_jobs(1, 0) == 1
        assert resolve_jobs("auto", 100) >= 1
        assert resolve_jobs("auto", 1) == 1
        with pytest.raises(ValueError):
            resolve_jobs(-1, 10)


def _contents(ex: SweepExecutor) -> dict:
    """The cache namespace's contents, as its registry reports them."""
    ns = ex.cache.store_namespace
    return ns.metrics[f"store.{ns.name}"]


class TestCache:
    def test_warm_rerun_all_hits_no_recompute(self, cache_dir, count_file):
        ex = SweepExecutor(cache=True, cache_dir=cache_dir)
        cold = ex.run(cheap_measure, POINTS)
        after_cold = _invocations(count_file)
        assert after_cold == len(POINTS)

        warm_ex = SweepExecutor(cache=True, cache_dir=cache_dir)
        warm = warm_ex.run(cheap_measure, POINTS)
        assert warm == cold
        assert _invocations(count_file) == after_cold  # nothing re-measured
        assert warm_ex.metrics["cache.hits"] == len(POINTS)
        assert warm_ex.metrics["cache.misses"] == 0

    def test_cache_env_off_forces_recompute(
        self, cache_dir, count_file, monkeypatch
    ):
        run_sweep(cheap_measure, POINTS, cache=True, cache_dir=cache_dir)
        monkeypatch.setenv("REPRO_STORE_SWEEP", "off")
        run_sweep(cheap_measure, POINTS, cache=True, cache_dir=cache_dir)
        assert _invocations(count_file) == 2 * len(POINTS)

    def test_fingerprint_invalidates_and_restores(self, cache_dir, count_file):
        def run(fp):
            return SweepExecutor(
                cache=True, cache_dir=cache_dir, fingerprint=fp
            ).run(cheap_measure, POINTS)

        a1 = run("A")
        assert _invocations(count_file) == len(POINTS)
        b = run("B")  # different fingerprint: full recompute
        assert _invocations(count_file) == 2 * len(POINTS)
        a2 = run("A")  # the old entries are still valid under "A"
        assert _invocations(count_file) == 2 * len(POINTS)
        assert a1 == a2 == b

    def test_mode_distinguishes_keys(self, cache_dir, count_file):
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir,
            mode="batch",
        )
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir,
            mode="event",
        )
        assert _invocations(count_file) == 2 * len(POINTS)

    def test_label_not_in_key(self, cache_dir, count_file):
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir, label="a"
        )
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir, label="b"
        )
        assert _invocations(count_file) == len(POINTS)  # shared entries

    def test_corrupt_entry_skipped(self, cache_dir, count_file):
        ex = SweepExecutor(cache=True, cache_dir=cache_dir, fingerprint="F")
        ex.run(cheap_measure, POINTS[:2])
        ex.run(cheap_measure, POINTS)  # the other points: a second segment
        segments = sorted((cache_dir / "segments").iterdir())
        assert len(segments) == 2 and not list(cache_dir.glob("*.json"))
        victim = segments[1]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])  # truncate mid-record

        warm = SweepExecutor(cache=True, cache_dir=cache_dir, fingerprint="F")
        rows = warm.run(cheap_measure, POINTS)
        assert rows == [
            SweepPoint(params=q, cycles=q.n * q.l + 7, extra={"n": q.n})
            for q in POINTS
        ]
        # Exactly the corrupted segment's records were recomputed...
        assert _invocations(count_file) == 2 * len(POINTS) - 2
        assert warm.metrics["cache.hits"] == 2
        # ...after it was quarantined whole, not deleted.
        quarantined = list((cache_dir / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [victim.name]
        assert warm.cache.store_namespace.metrics[
            "store.sweep.integrity_failures"] == 1

    def test_a_run_writes_one_segment(self, cache_dir):
        SweepExecutor(cache=True, cache_dir=cache_dir).run(
            cheap_measure, POINTS)
        files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert [p.parent.name for p in files] == ["segments"]

    def test_a_long_run_writes_at_unit_boundaries(self, cache_dir,
                                                  monkeypatch):
        import repro.analysis.executor as executor

        monkeypatch.setattr(executor, "_WRITE_EVERY_S", 0.0)
        SweepExecutor(cache=True, cache_dir=cache_dir).run(
            cheap_measure, POINTS)
        assert len(list(cache_dir.glob("*.json"))) == len(POINTS)

    def test_a_failing_run_keeps_the_points_it_measured(self, cache_dir,
                                                        count_file):
        with pytest.raises(RuntimeError, match="boom at n=16"):
            SweepExecutor(cache=True, cache_dir=cache_dir).run(
                failing_measure, POINTS)
        warm = SweepExecutor(cache=True, cache_dir=cache_dir)
        rows = warm.run(failing_measure, POINTS[:2])  # the n=8 points
        assert [r.cycles for r in rows] == [8, 8]
        assert warm.metrics["cache.hits"] == 2
        assert warm.metrics["cache.misses"] == 0

    def test_clear_and_stats(self, cache_dir):
        ex = SweepExecutor(cache=True, cache_dir=cache_dir, fingerprint="F")
        ex.run(cheap_measure, POINTS)
        stats = _contents(ex)
        assert stats["fingerprints"]["current"] == len(POINTS)
        assert stats["fingerprints"]["stale"] == 0
        assert stats["entries_disk"] >= 1
        assert stats["disk_bytes"] > 0
        assert ex.clear() == stats["entries_disk"]
        assert _contents(ex)["fingerprints"]["current"] == 0

    def test_stats_counts_stale(self, cache_dir):
        SweepExecutor(
            cache=True, cache_dir=cache_dir, fingerprint="OLD"
        ).run(cheap_measure, POINTS)
        stats = _contents(SweepExecutor(
            cache=True, cache_dir=cache_dir, fingerprint="NEW"
        ))
        assert stats["fingerprints"]["current"] == 0
        assert stats["fingerprints"]["stale"] == len(POINTS)

    def test_no_cache_executor_stats_empty(self):
        ex = SweepExecutor(cache=False)
        assert ex.cache is None
        assert ex.metrics.snapshot() == {
            "cache": {"hits": 0, "misses": 0, "hit_rate": 0.0}}
        assert ex.clear() == 0

    def test_malformed_record_replaced_on_first_recompute(
        self, cache_dir, count_file
    ):
        ex = SweepExecutor(cache=True, cache_dir=cache_dir)
        point = POINTS[0]
        key = point_key(describe_measure(cheap_measure), point, mode=None,
                        fingerprint=ex.fingerprint)
        ex.cache.store_namespace.put(key, {"cycles": "not-a-number"})
        results = [ex.run(cheap_measure, [point]) for _ in range(3)]
        assert _invocations(count_file) == 1
        assert ex.metrics["cache.misses"] == 1
        assert ex.metrics["cache.hits"] == 2
        expected = point.n * point.l + 7
        assert [r[0].cycles for r in results] == [expected] * 3


class TestProgress:
    def test_progress_monotonic_and_complete(self, cache_dir):
        snaps = []
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir,
            progress=snaps.append, label="unit/progress",
        )
        assert snaps[-1].done == snaps[-1].total == len(POINTS)
        assert all(s.label == "unit/progress" for s in snaps)
        assert all(
            a.done <= b.done for a, b in zip(snaps, snaps[1:])
        )
        assert snaps[-1].eta_s == 0.0
        assert "unit/progress" in snaps[-1].describe()

    def test_progress_reports_cache_hits(self, cache_dir):
        run_sweep(cheap_measure, POINTS, cache=True, cache_dir=cache_dir)
        snaps = []
        run_sweep(
            cheap_measure, POINTS, cache=True, cache_dir=cache_dir,
            progress=snaps.append,
        )
        assert snaps[-1].cache_hits == len(POINTS)


class TestKeys:
    def test_partial_bound_scalars_in_key(self):
        from functools import partial

        a = describe_measure(partial(cheap_measure_dict, extra=1))
        b = describe_measure(partial(cheap_measure_dict, extra=2))
        assert a != b
        assert a["fn"].endswith("cheap_measure_dict")

    def test_point_key_stable_across_point_types(self):
        desc = describe_measure(cheap_measure)
        as_params = Params(n=8, p=4, w=4, l=2)
        as_dict = {
            k: v for k, v in (("n", 8), ("p", 4), ("w", 4), ("l", 2))
        }
        k1 = point_key(desc, as_params, mode="batch", fingerprint="F")
        k2 = point_key(desc, as_params, mode="batch", fingerprint="F")
        assert k1 == k2
        assert point_key(desc, as_dict, mode="batch", fingerprint="F")

    def test_cache_roundtrip_via_file(self, cache_dir):
        key = "ab" + "0" * 62
        cache = ResultCache(cache_dir, "F")
        cache.put(key, 42, {"engine": "batch"})
        fresh = ResultCache(cache_dir, "F")
        assert fresh.get(key) == (42, {"engine": "batch"})
        # One framed entry file per key: a header line carrying the
        # payload digest, then the canonical-JSON record.
        header, payload = (
            (cache_dir / f"{key}.json").read_bytes().split(b"\n", 1)
        )
        assert header.startswith(b"repro-store 1 sweep ")
        entry = json.loads(payload)
        assert entry["fingerprint"] == "F"
        assert entry["key"] == key


class TestPoolReuse:
    def test_keep_pool_reuses_workers_across_runs(self):
        ex = SweepExecutor(jobs=2, cache=False, keep_pool=True)
        try:
            first = ex.run(cheap_measure, POINTS)
            pool = ex._pool
            assert pool is not None
            second = ex.run(cheap_measure, POINTS)
            assert ex._pool is pool  # same pool object, no respawn
            assert [p.cycles for p in first] == [p.cycles for p in second]
        finally:
            ex.close()
        assert ex._pool is None

    def test_keep_pool_grows_for_larger_job_counts(self):
        ex = SweepExecutor(jobs=1, cache=False, keep_pool=True)
        try:
            ex.run(cheap_measure, POINTS)
            small = ex._pool
            ex.jobs = 2
            ex.run(cheap_measure, POINTS)
            assert ex._pool is not small
            assert ex._pool_workers == 2
        finally:
            ex.close()

    def test_transient_default_leaves_no_pool(self):
        ex = SweepExecutor(jobs=2, cache=False)
        ex.run(cheap_measure, POINTS)
        assert ex._pool is None
        ex.close()  # no-op without a retained pool

    def test_context_manager_closes_pool(self):
        with SweepExecutor(jobs=2, cache=False, keep_pool=True) as ex:
            ex.run(cheap_measure, POINTS)
            assert ex._pool is not None
        assert ex._pool is None

    def test_keep_pool_results_match_serial(self):
        serial = SweepExecutor(jobs=1, cache=False).run(cheap_measure, POINTS)
        with SweepExecutor(jobs=2, cache=False, keep_pool=True) as ex:
            pooled = ex.run(cheap_measure, POINTS)
        assert [p.cycles for p in serial] == [p.cycles for p in pooled]


#: Dict points; ``l`` is the grouping axis, ``n`` tells the groups apart.
AXIS_POINTS = [{"n": n, "l": l, "mode": "m"} for n in (8, 16, 32)
               for l in (1, 2, 3)]


@pytest.fixture()
def group_file(tmp_path, monkeypatch):
    path = tmp_path / "groups"
    monkeypatch.setenv("REPRO_TEST_GROUP_FILE", str(path))
    return path


def _groups(path) -> list:
    return ([json.loads(line) for line in path.read_text().splitlines()]
            if path.exists() else [])


def _stored(ex: SweepExecutor) -> dict:
    return dict(ex.cache.store_namespace.scan())


class TestAxisGrouping:
    """``run(..., axis=...)``: one measure call per group of missing
    points, with per-point keys, lookups and stores."""

    def test_one_call_per_group_in_grid_order(self, group_file):
        rows = SweepExecutor(cache=False).run(flexible_measure, AXIS_POINTS,
                                              axis="l")
        assert [r.params for r in rows] == AXIS_POINTS
        assert [r.cycles for r in rows] == [
            q["n"] * q["l"] + 7 for q in AXIS_POINTS]
        assert _groups(group_file) == [AXIS_POINTS[0:3], AXIS_POINTS[3:6],
                                       AXIS_POINTS[6:9]]

    def test_keys_entries_and_counts_equal_per_point_runs(self, tmp_path):
        runs = {}
        for axis in (None, "l"):
            ex = SweepExecutor(cache=True, cache_dir=tmp_path / str(axis))
            cold = ex.run(flexible_measure, AXIS_POINTS, mode="m", axis=axis)
            warm = ex.run(flexible_measure, AXIS_POINTS, mode="m", axis=axis)
            runs[axis] = (cold, warm, _stored(ex),
                          ex.metrics["cache.hits"], ex.metrics["cache.misses"])
        assert runs["l"] == runs[None]
        _, _, stored, hits, misses = runs["l"]
        desc = describe_measure(flexible_measure)
        ex = SweepExecutor(cache=False)
        assert set(stored) == {
            point_key(desc, q, mode="m", fingerprint=ex.fingerprint)
            for q in AXIS_POINTS}
        assert (hits, misses) == (len(AXIS_POINTS), len(AXIS_POINTS))

    def test_only_missing_points_are_measured(self, cache_dir, group_file):
        ex = SweepExecutor(cache=True, cache_dir=cache_dir)
        cached = [q for q in AXIS_POINTS if q["n"] == 8 or q["l"] == 1]
        ex.run(flexible_measure, cached, mode="m")
        rows = ex.run(flexible_measure, AXIS_POINTS, mode="m", axis="l")
        assert [r.cycles for r in rows] == [
            q["n"] * q["l"] + 7 for q in AXIS_POINTS]
        assert _groups(group_file) == [
            [q for q in AXIS_POINTS if q["n"] == n and q["l"] != 1]
            for n in (16, 32)]
        assert ex.metrics["cache.hits"] == len(cached)

    def test_jobs2_equals_jobs1(self, group_file):
        serial = SweepExecutor(jobs=1, cache=False).run(
            flexible_measure, AXIS_POINTS, axis="l")
        parallel = SweepExecutor(jobs=2, cache=False).run(
            flexible_measure, AXIS_POINTS, axis="l")
        assert parallel == serial
        # Each group stayed whole: three groups per run, six in all.
        groups = _groups(group_file)
        assert len(groups) == 6
        assert sorted(map(json.dumps, groups[3:])) == sorted(
            map(json.dumps, groups[:3]))

    def test_point_without_the_axis_is_an_error(self):
        with pytest.raises(ValueError, match="no field 'k'"):
            SweepExecutor(cache=False).run(flexible_measure, AXIS_POINTS,
                                           axis="k")

    def test_grouped_measure_must_answer_every_point(self):
        with pytest.raises(ValueError, match="2 results for 3 points"):
            SweepExecutor(cache=False).run(
                lambda group: [(1, {}), (2, {})], AXIS_POINTS, axis="l")
