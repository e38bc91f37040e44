"""Store behaviour under cluster use: concurrent multi-process writers
into one namespace directory, and the framed-transfer integrity check
that guards warm pushes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.store import ArtifactStore

KEY = hashlib.sha256(b"contended").hexdigest()

_WRITER = """
import sys
from repro.store import ArtifactStore

root, tag, key = sys.argv[1], sys.argv[2], sys.argv[3]
ns = ArtifactStore(root).namespace("sweep", "json", persist=True)
for i in range(200):
    ns.put(key, {"key": key, "cycles": i, "writer": tag})
"""


def _namespace(root: Path):
    return ArtifactStore(root).namespace("sweep", "json", persist=True)


class TestConcurrentWriters:
    def test_two_processes_racing_on_one_key_leave_a_valid_entry(
        self, tmp_path
    ):
        """Both writers loop over the same key in the same directory;
        atomic temp-file + rename means whoever wins, the surviving
        entry is complete and verifiable — never a torn mix."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), tag, KEY],
                env=env,
            )
            for tag in ("a", "b")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0

        ns = _namespace(tmp_path)
        entry = ns.get(KEY)
        assert isinstance(entry, dict)
        assert entry["key"] == KEY
        assert entry["writer"] in ("a", "b")
        assert entry["cycles"] == 199  # each writer's last write is whole
        assert ns.metrics["store.sweep.integrity_failures"] == 0
        assert not ns.quarantine_dir.exists()
        # Exactly one entry file — no stray temp files left behind.
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == 1


class TestFramedTransfer:
    def test_round_trip_between_directories(self, tmp_path):
        sender = _namespace(tmp_path / "sender")
        receiver = _namespace(tmp_path / "receiver")
        key = hashlib.sha256(b"ship-me").hexdigest()
        sender.put(key, {"key": key, "cycles": 5})

        blob = sender.get_framed(key)
        assert receiver.put_framed(key, blob) == "stored"
        assert receiver.get(key) == {"key": key, "cycles": 5}
        assert receiver.metrics["store.sweep.remote_puts"] == 1
        # attributed to warming
        assert receiver.metrics["store.sweep.hits_remote"] == 1
        # Re-push is a duplicate, not an overwrite.
        assert receiver.put_framed(key, blob) == "duplicate"
        assert receiver.metrics["store.sweep.remote_duplicates"] == 1

    def test_corrupted_in_flight_blob_is_rejected_not_stored(self,
                                                             tmp_path):
        sender = _namespace(tmp_path / "sender")
        receiver = _namespace(tmp_path / "receiver")
        key = hashlib.sha256(b"mangle-me").hexdigest()
        sender.put(key, {"key": key, "cycles": 9})
        blob = bytearray(sender.get_framed(key))
        blob[-3] ^= 0xFF  # bit-rot somewhere in the payload

        assert receiver.put_framed(key, bytes(blob)) == "rejected"
        assert receiver.metrics["store.sweep.remote_rejected"] == 1
        assert not receiver.contains(key)
        assert receiver.get(key) is None  # and no file was written
        assert not receiver.quarantine_dir.exists()

    def test_frame_for_another_namespace_is_rejected(self, tmp_path):
        """The envelope pins the namespace: a sweep entry pushed at a
        trace namespace must not be accepted, even if it decodes."""
        sender = _namespace(tmp_path / "sender")
        other = ArtifactStore(tmp_path / "receiver").namespace(
            "trace", "json", persist=True
        )
        key = hashlib.sha256(b"wrong-box").hexdigest()
        sender.put(key, {"key": key, "cycles": 3})

        assert other.put_framed(key, sender.get_framed(key)) == "rejected"
        assert other.metrics["store.trace.remote_rejected"] == 1
        assert not other.contains(key)

    def test_truncated_frame_is_rejected(self, tmp_path):
        sender = _namespace(tmp_path / "sender")
        receiver = _namespace(tmp_path / "receiver")
        key = hashlib.sha256(b"cut-short").hexdigest()
        sender.put(key, {"key": key, "cycles": 2})
        blob = sender.get_framed(key)

        assert receiver.put_framed(key, blob[: len(blob) // 2]) == "rejected"
        assert receiver.put_framed(key, b"") == "rejected"
        assert not receiver.contains(key)
