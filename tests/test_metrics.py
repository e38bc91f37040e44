"""The metrics registry under concurrent counting.

Servers count from their event loop, their oracle's thread and the
threads that serve store pushes and pulls, and servers sharing a
process share ``PROCESS``; a lost update or a snapshot taken while a
counter is being created would misreport ``/metrics``.
"""

import sys
import threading

from repro.metrics import Registry

THREADS = 8
INCREMENTS = 5_000


def test_concurrent_counting_loses_no_update():
    parent = Registry()
    children = [Registry(parent) for _ in range(THREADS)]
    errors = []
    done = threading.Event()

    def count(child, index):
        try:
            for i in range(INCREMENTS):
                child.inc("shared")
                # A new name per step: creating counters while another
                # thread snapshots must not break the snapshot.
                child.inc(f"own.t{index}.n{i % 50}")
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def read():
        try:
            while not done.is_set():
                parent.snapshot()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        workers = [threading.Thread(target=count, args=(child, i))
                   for i, child in enumerate(children)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        done.set()
        reader.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in [reader, *workers])
    assert errors == []
    assert parent["shared"] == THREADS * INCREMENTS
    assert all(child["shared"] == INCREMENTS for child in children)
    snap = parent.snapshot()
    assert sum(sum(t.values()) for t in snap["own"].values()) \
        == THREADS * INCREMENTS
