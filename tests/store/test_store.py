"""The unified artifact store: keys, tiers, integrity, eviction,
metrics, env knobs, and the maintenance CLI."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import PROCESS
from repro.store import ArtifactStore, content_key
from repro.store import config as store_config
from repro.store.store import ENVELOPE_MAGIC


@pytest.fixture(autouse=True)
def _fresh_metrics():
    PROCESS.reset()
    yield
    PROCESS.reset()


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _keys(n: int) -> list[str]:
    return [content_key({"i": i}) for i in range(n)]


class TestKeysAndRoundtrip:
    def test_content_key_is_canonical(self):
        assert content_key({"b": 2, "a": 1}) == content_key({"a": 1, "b": 2})
        assert content_key({"a": 1}) != content_key({"a": 2})
        key = content_key({"a": 1})
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_bad_keys_rejected(self, store):
        ns = store.namespace("sweep")
        for bad in ("", "abc", "Z" * 64, "ab/../" + "0" * 58):
            with pytest.raises(ValueError):
                ns.get(bad)
            with pytest.raises(ValueError):
                ns.put(bad, {})

    def test_json_roundtrip_across_instances(self, store):
        key = content_key("x")
        store.namespace("sweep").put(key, {"cycles": 9, "extra": {"a": 1}})
        # A fresh namespace instance has a cold memory tier: disk hit.
        ns = store.namespace("sweep")
        assert ns.get(key) == {"cycles": 9, "extra": {"a": 1}}
        assert ns.metrics["store.sweep.hits_disk"] == 1

    def test_npz_roundtrip(self, store):
        key = content_key("arrays")
        arrays = {"a": np.arange(7), "b": np.eye(3)}
        store.namespace("trace", "npz").put(key, arrays)
        got = store.namespace("trace", "npz").get(key)
        assert set(got) == {"a", "b"}
        assert np.array_equal(got["a"], arrays["a"])
        assert np.array_equal(got["b"], arrays["b"])

    def test_entry_file_is_enveloped(self, store):
        ns = store.namespace("sweep")
        key = content_key("enveloped")
        ns.put(key, {"v": 1})
        blob = ns.path_of(key).read_bytes()
        header, payload = blob.split(b"\n", 1)
        fields = header.decode().split()
        assert fields[0] == ENVELOPE_MAGIC.decode()
        assert fields[2] == "sweep" and fields[3] == key
        assert fields[6] == str(len(payload))

    def test_namespaces_are_disjoint(self, store):
        key = content_key("shared-key")
        store.namespace("sweep").put(key, {"ns": "sweep"})
        store.namespace("tune").put(key, {"ns": "tune"})
        assert store.namespace("sweep").get(key) == {"ns": "sweep"}
        assert store.namespace("tune").get(key) == {"ns": "tune"}


class TestIntegrity:
    """Corrupt or truncated entries quarantine and read as misses."""

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda blob: blob[: len(blob) // 2],     # truncated
            lambda blob: blob[:-4] + b"XXXX",        # flipped payload bytes
            lambda blob: b"garbage\n" + blob,        # bogus header
            lambda blob: b"",                        # empty file
        ],
    )
    def test_corrupt_entry_quarantined(self, store, mangle):
        ns = store.namespace("sweep")
        key = content_key("to-corrupt")
        ns.put(key, {"v": 1})
        path = ns.path_of(key)
        path.write_bytes(mangle(path.read_bytes()))

        fresh = store.namespace("sweep")
        assert fresh.get(key) is None  # a miss, never a crash
        assert not path.exists()
        assert (fresh.quarantine_dir / path.name).exists()
        assert fresh.metrics["store.sweep.integrity_failures"] == 1
        assert fresh.metrics["store.sweep.quarantined"] == 1
        assert fresh.metrics["store.sweep.misses"] == 1

    def test_wrong_namespace_entry_rejected(self, store):
        sweep = store.namespace("sweep")
        key = content_key("cross-ns")
        sweep.put(key, {"v": 1})
        tune = store.namespace("tune")
        os.makedirs(tune.directory, exist_ok=True)
        (tune.directory / sweep.path_of(key).name).write_bytes(
            sweep.path_of(key).read_bytes()
        )
        assert tune.get(key) is None  # envelope names "sweep"

    def test_recompute_after_quarantine(self, store):
        ns = store.namespace("sweep")
        key = content_key("recompute")
        ns.put(key, {"v": 1})
        ns.path_of(key).write_bytes(b"junk")
        fresh = store.namespace("sweep")
        assert fresh.get(key) is None
        fresh.put(key, {"v": 2})  # the caller recomputes and re-stores
        assert store.namespace("sweep").get(key) == {"v": 2}


class TestEvictionAndPinning:
    def test_memory_lru_evicts_oldest(self, store):
        ns = store.namespace("sweep", persist=False, max_memory_entries=2)
        k0, k1, k2 = _keys(3)
        for i, k in enumerate((k0, k1, k2)):
            ns.put(k, {"i": i})
        assert ns.metrics["store.sweep.evictions_memory"] == 1
        assert ns.get(k0) is None
        assert ns.get(k2) == {"i": 2}

    def test_memory_byte_budget(self, store):
        ns = store.namespace(
            "sweep", persist=False, max_memory_entries=100,
            max_memory_bytes=1,
        )
        k0, k1 = _keys(2)
        ns.put(k0, {"i": 0})
        ns.put(k1, {"i": 1})
        # Over budget: evicts down to the single most recent entry.
        assert ns.metrics["store.sweep.entries_memory"] == 1
        assert ns.get(k1) == {"i": 1}

    def test_disk_eviction_under_size_pressure_keeps_newest(self, store):
        entry_size = len(
            store.namespace("sweep").codec.encode({"i": 0})
        ) + 120  # payload + envelope, roughly
        ns = store.namespace("sweep", max_disk_bytes=3 * entry_size)
        keys = _keys(6)
        now = time.time()
        for i, k in enumerate(keys):
            ns.put(k, {"i": i})
            os.utime(ns.path_of(k), (now - 100 + i,) * 2)
        on_disk = set(ns.keys())
        assert len(on_disk) < 6
        assert ns.metrics["store.sweep.evictions_disk"] > 0
        # The survivors are the most recently written.
        assert keys[-1] in on_disk
        assert keys[0] not in on_disk

    def test_disk_entry_budget(self, store):
        ns = store.namespace("sweep", max_disk_entries=2)
        keys = _keys(4)
        now = time.time()
        for i, k in enumerate(keys):
            ns.put(k, {"i": i})
            os.utime(ns.path_of(k), (now - 100 + i,) * 2)
        assert sorted(ns.keys()) == sorted(keys[2:])


class TestDiskOnlyPut:
    """``put(memory=False)``: the entry waits on disk for its first get."""

    def test_entry_enters_memory_on_first_get(self, store):
        ns = store.namespace("sweep", max_memory_entries=1)
        k0, k1 = _keys(2)
        ns.put(k0, {"i": 0})
        ns.put(k1, {"i": 1}, memory=False)
        assert ns.contains(k1) and ns.get_memory(k1) is None
        # The disk-only put evicted nothing from memory.
        assert ns.get_memory(k0) == {"i": 0}
        assert ns.metrics["store.sweep.evictions_memory"] == 0
        assert ns.get(k1) == {"i": 1}
        assert ns.metrics["store.sweep.hits_disk"] == 1
        assert ns.get_memory(k1) == {"i": 1}

    def test_replaces_an_older_value_in_memory(self, store):
        ns = store.namespace("sweep")
        key, = _keys(1)
        ns.put(key, {"i": 0})
        ns.put(key, {"i": 1}, memory=False)
        assert ns.get_memory(key) == {"i": 1}

    def test_memory_only_namespace_keeps_the_entry(self, store):
        ns = store.namespace("sweep", persist=False)
        key, = _keys(1)
        ns.put(key, {"i": 0}, memory=False)
        assert ns.get_memory(key) == {"i": 0}


class TestConcurrentWriters:
    """Two processes writing the same directory never corrupt it."""

    def test_parallel_writers_all_entries_valid(self, tmp_path):
        directory = tmp_path / "shared"
        script = (
            "import sys\n"
            "from repro.store import ArtifactStore, content_key\n"
            "ns = ArtifactStore(sys.argv[1]).namespace('sweep')\n"
            "who = sys.argv[2]\n"
            "for i in range(40):\n"
            "    ns.put(content_key({'i': i}), "
            "{'i': i, 'who': who, 'pad': 'x' * 256})\n"
            "print('done')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(directory), who],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for who in ("a", "b")
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err.decode()
            assert out.decode().strip() == "done"

        ns = ArtifactStore(directory).namespace("sweep")
        seen = dict(ns.scan())
        assert len(seen) == 40  # every key present and decodable
        for i in range(40):
            entry = seen[content_key({"i": i})]
            assert entry["i"] == i
            assert entry["who"] in ("a", "b")  # last rename won
        assert ns.metrics["store.sweep.integrity_failures"] == 0
        assert not list(ns.quarantine_dir.glob("*")) \
            if ns.quarantine_dir.is_dir() else True

    def test_tmp_files_never_visible_as_entries(self, store):
        ns = store.namespace("sweep")
        ns.put(content_key("z"), {"v": 1})
        names = [p.name for p in ns.directory.iterdir()]
        assert not [n for n in names if n.startswith(".tmp-")]


class TestThreadSafety:
    """Threads sharing one namespace: a server's batch thread writes the
    sweep namespace while a ``/v1/store/push`` thread writes it too."""

    # Each eviction is one pop, so the unlocked LRU shows only when long
    # runs of puts overlap; one trial caught it in 22 of 24 runs, three
    # make a pass by luck all but impossible.
    @pytest.mark.parametrize("trial", range(3))
    def test_concurrent_puts_keep_the_memory_tier_consistent(self, store,
                                                             trial):
        ns = store.namespace("sweep", persist=False, max_memory_entries=64)
        threads, per_thread = 4, 8000
        keys = [[content_key({"t": t, "i": i}) for i in range(per_thread)]
                for t in range(threads)]
        errors = []
        start = threading.Barrier(threads)

        def write(mine: list[str]) -> None:
            try:
                start.wait(timeout=60)
                for key in mine:
                    ns.put(key, {"cycles": 1})
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [threading.Thread(target=write, args=(mine,))
                   for mine in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-7)  # switch threads as often as possible
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        puts = threads * per_thread
        assert ns.metrics["store.sweep.puts"] == puts
        # Every key is new, so all but the newest 64 were evicted.
        assert ns.metrics["store.sweep.entries_memory"] == 64
        assert ns.metrics["store.sweep.evictions_memory"] == puts - 64

    def test_concurrent_writes_of_one_key_each_use_their_own_temp_file(
            self, store):
        ns = store.namespace("sweep")
        key = content_key("shared")
        errors = []
        start = threading.Barrier(4)

        def write(who: int) -> None:
            try:
                start.wait(timeout=60)
                for i in range(100):
                    ns.put(key, {"who": who, "i": i, "pad": "x" * 16384})
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [threading.Thread(target=write, args=(who,))
                   for who in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        # A shared temp file is renamed away under the other writers.
        assert ns.metrics["store.sweep.io_errors"] == 0
        assert store.namespace("sweep").get(key)["i"] == 99


class TestMetrics:
    def test_standard_namespaces_always_reported(self):
        snap = PROCESS["store"]
        assert set(snap) >= {"sweep", "trace", "tune"}
        assert snap["sweep"]["hits"] == 0

    def test_counters_aggregate_across_instances(self, store):
        key = content_key("m")
        store.namespace("sweep").put(key, {"v": 1})
        ns2 = store.namespace("sweep")
        ns2.get(key)            # disk hit
        ns2.get(key)            # memory hit
        ns2.get(content_key("absent"))  # miss
        snap = PROCESS["store"]["sweep"]
        assert snap["puts"] == 1
        assert snap["hits_disk"] == 1
        assert snap["hits_memory"] == 1
        assert snap["misses"] == 1
        assert snap["hits"] == 2
        assert 0 < snap["hit_rate"] < 1

    def test_private_counters_isolated_per_instance(self, store):
        key = content_key("m2")
        a = store.namespace("sweep")
        b = store.namespace("sweep")
        a.put(key, {"v": 1})
        b.get(key)
        assert a.metrics["store.sweep.puts"] == 1
        assert a.metrics["store.sweep.hits_disk"] == 0
        assert b.metrics["store.sweep.puts"] == 0
        assert b.metrics["store.sweep.hits_disk"] == 1

    def test_reset(self, store):
        store.namespace("sweep").put(content_key("r"), {})
        PROCESS.reset()
        assert PROCESS["store"]["sweep"]["puts"] == 0


class TestEnvShims:
    """The ``REPRO_STORE_*`` knobs (see :mod:`repro.store.config`)."""

    def test_global_and_namespace_switches(self, monkeypatch):
        assert store_config.namespace_allowed("sweep")
        monkeypatch.setenv("REPRO_STORE_SWEEP", "off")
        assert not store_config.namespace_allowed("sweep")
        assert store_config.namespace_allowed("trace")
        monkeypatch.setenv("REPRO_STORE", "off")
        assert not store_config.namespace_allowed("trace")

    def test_store_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "root"))
        assert store_config.default_store_root() == tmp_path / "root"
        assert (
            store_config.namespace_dir("tune")
            == tmp_path / "root" / "tune"
        )
        # A per-namespace dir is used directly, outside the root.
        monkeypatch.setenv("REPRO_STORE_SWEEP_DIR", str(tmp_path / "new"))
        assert store_config.namespace_dir("sweep") == tmp_path / "new"

    def test_lru_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_TRACE_LRU", raising=False)
        assert store_config.namespace_int("trace", "LRU") is None
        monkeypatch.setenv("REPRO_STORE_TRACE_LRU", "9")
        assert store_config.namespace_int("trace", "LRU") == 9
        monkeypatch.setenv("REPRO_STORE_TRACE_LRU", " ")
        assert store_config.namespace_int("trace", "LRU") is None

    @pytest.mark.parametrize("suffix,value", [
        ("LRU", "abc"),
        ("MAX_ENTRIES", "1e3"),
        ("MAX_BYTES", "10MB"),
    ])
    def test_malformed_budget_rejected(self, tmp_path, monkeypatch,
                                       suffix, value):
        name = f"REPRO_STORE_TRACE_{suffix}"
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigurationError, match=name):
            store_config.namespace_int("trace", suffix)
        # Opening the namespace fails too, instead of running unbounded.
        with pytest.raises(ConfigurationError, match=name):
            ArtifactStore(tmp_path).namespace("trace", "npz")


class TestMaintenance:
    def test_clear_empties_namespace_and_quarantine(self, store):
        ns = store.namespace("sweep")
        keys = _keys(3)
        for i, k in enumerate(keys):
            ns.put(k, {"i": i})
        ns.path_of(keys[0]).write_bytes(b"junk")
        ns = store.namespace("sweep")  # cold memory tier: reads disk
        assert ns.get(keys[0]) is None  # quarantines
        removed = ns.clear()
        assert removed == 2
        assert ns.metrics["store.sweep.entries_disk"] == 0
        assert not list(ns.quarantine_dir.glob("*")) \
            if ns.quarantine_dir.is_dir() else True
        assert ns.get(keys[1]) is None

    def test_delete_single_entry(self, store):
        ns = store.namespace("sweep")
        k0, k1 = _keys(2)
        ns.put(k0, {"i": 0})
        ns.put(k1, {"i": 1})
        assert ns.delete(k0)
        assert not ns.delete(k0)
        assert ns.contains(k1) and not ns.contains(k0)

    def test_cli_migrate_stats_clear(self, tmp_path, capsys):
        from repro.store.__main__ import main

        root = tmp_path / "root"
        # The one-shot legacy import is gone from the CLI.
        with pytest.raises(SystemExit) as exc:
            main(["migrate", "--root", str(root)])
        assert exc.value.code == 2
        ArtifactStore(root).namespace("sweep").put(
            content_key("cli"), {"cycles": 1}
        )
        assert main(["stats", "--root", str(root)]) == 0
        assert "sweep: 0 in memory / 1 on disk" in capsys.readouterr().out
        assert main(["clear", "--root", str(root),
                     "--namespace", "sweep"]) == 0
        ns = ArtifactStore(root).namespace("sweep")
        assert ns.metrics["store.sweep.entries_disk"] == 0
