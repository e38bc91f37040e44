"""The closed-loop load driver: ``drive_url`` against a running server,
and ``run_config`` booting its own server around the same client loop."""

import pytest

from repro.service.loadgen import DriveResult, drive_url, run_config
from repro.service.server import BackgroundServer


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(cache=False) as srv:
        yield srv


class TestDriveUrl:
    def test_short_run_counts_and_times(self, server):
        result = drive_url(server.url, duration=0.3, clients=2, seed=3)
        assert result.duration_s >= 0.3
        assert result.requests > 0 and result.errors == 0
        assert len(result.latencies) == result.requests
        assert result.rps == result.requests / result.duration_s
        assert (result.seed, result.clients) == (3, 2)

    def test_mid_run_fires_once(self, server):
        fired = []
        drive_url(server.url, duration=0.2, clients=1,
                  mid_run=lambda: fired.append(True))
        assert fired == [True]

    def test_row(self):
        result = DriveResult(requests=10, latencies=[0.002] * 10,
                             duration_s=4.0, seed=1, zipf_s=2.5, clients=3)
        row = result.row("x")
        assert row["name"] == "x"
        assert (row["requests"], row["errors"], row["rps"]) == (10, 0, 2.5)
        assert row["p50_ms"] == row["p95_ms"] == 2.0


class TestRunConfig:
    def test_short_run_reports_measured_duration(self):
        row = run_config("short", max_batch_size=8, cache=False,
                         duration=0.3, clients=4, seed=3)
        assert row["duration_s"] >= 0.3
        assert row["requests"] > 0 and row["errors"] == 0
        # Both fields are rounded in the row (rps to 0.1, duration_s to
        # 1 ms), so compare them to within that rounding.
        assert row["rps"] == pytest.approx(
            row["requests"] / row["duration_s"], rel=0.01)
        assert row["batch_count"] >= 1
        assert row["bypassed"] == 0  # no cache, so no memory-tier hits

    def test_in_flight_requests_count_against_wall_time(self):
        # Every request waits out a 0.2 s batching window (two clients
        # never fill a batch of 8), so the requests in flight at the
        # 0.05 s deadline finish well after it.
        row = run_config("windowed", max_batch_size=8, cache=False,
                         duration=0.05, clients=2, max_wait_s=0.2)
        assert row["requests"] >= 1
        assert row["duration_s"] >= 0.2
        assert row["rps"] <= row["requests"] / 0.2
