"""``POST /v1/tune``: protocol validation and the served search."""

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    MAX_TUNE_BUDGET,
    MAX_TUNE_LATENCIES,
    TUNE_STRATEGIES,
    TUNE_TASKS,
    ProtocolError,
    parse_tune_request,
)
from repro.service.server import BackgroundServer
from repro.tuner.demos import TASKS
from repro.tuner.search import STRATEGIES


class TestMirrors:
    """protocol.py mirrors the tuner's registries statically (so the
    protocol layer stays import-light); these tests pin the mirrors."""

    def test_tasks_mirror(self):
        assert TUNE_TASKS == tuple(sorted(TASKS))

    def test_strategies_mirror(self):
        assert TUNE_STRATEGIES == STRATEGIES


class TestParseTuneRequest:
    def test_minimal_request_defaults(self):
        spec = parse_tune_request({"task": "transpose"})
        assert spec == {
            "task": "transpose",
            "strategy": "exhaustive",
            "mode": "auto",
            "seed": 0,
            "budget": None,
            "latencies": None,
            "shape": {},
        }

    def test_full_request(self):
        spec = parse_tune_request({
            "task": "sum", "strategy": "greedy", "budget": 8,
            "mode": "batch", "seed": 3, "latencies": [4, 16],
            "shape": {"n": 512, "w": 8},
        })
        assert spec["latencies"] == [4, 16]
        assert spec["shape"] == {"n": 512, "w": 8}
        assert spec["budget"] == 8

    @pytest.mark.parametrize("payload", [
        [],                                        # not an object
        {},                                        # task required
        {"task": "fft"},                           # unknown task
        {"task": "sum", "strategy": "sgd"},        # unknown strategy
        {"task": "sum", "mode": "quantum"},        # unknown mode
        {"task": "sum", "extra": 1},               # unknown field
        {"task": "sum", "budget": 0},
        {"task": "sum", "budget": MAX_TUNE_BUDGET + 1},
        {"task": "sum", "seed": -1},
        {"task": "sum", "latencies": []},
        {"task": "sum", "latencies": "4"},
        {"task": "sum", "latencies": [4, "x"]},
        {"task": "sum", "latencies": [0]},
        {"task": "sum", "latencies": [True]},
        {"task": "sum", "latencies": list(range(1, MAX_TUNE_LATENCIES + 2))},
        {"task": "sum", "shape": 7},
        {"task": "sum", "shape": {"q": 4}},        # key not tunable
        {"task": "sum", "shape": {"n": 0}},
        {"task": "transpose", "shape": {"m": 1 << 20}},  # over the cap
    ])
    def test_rejections(self, payload):
        with pytest.raises(ProtocolError):
            parse_tune_request(payload)

    def test_error_carries_field(self):
        with pytest.raises(ProtocolError) as err:
            parse_tune_request({"task": "sum", "shape": {"q": 4}})
        assert err.value.field == "shape.q"
        assert err.value.code == "invalid_param"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    import os

    from repro.machine.replay import reset_default_store

    root = tmp_path_factory.mktemp("tune-service")
    saved = {k: os.environ.get(k)
             for k in ("REPRO_STORE_TRACE_DIR", "REPRO_STORE_TUNE_DIR")}
    os.environ["REPRO_STORE_TRACE_DIR"] = str(root / "traces")
    os.environ["REPRO_STORE_TUNE_DIR"] = str(root / "tune_cache")
    reset_default_store()
    try:
        with BackgroundServer(cache=False) as srv:
            yield srv
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        reset_default_store()


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as c:
        yield c


class TestServedTune:
    def test_round_trip_finds_padding(self, client):
        body = client.tune(
            "transpose",
            shape={"w": 4, "d": 2, "m": 8},
            latencies=[3, 9],
        )
        assert body["task"] == "transpose"
        assert body["certificate"] == "conflict-free"
        assert body["equivalent"] is True
        assert body["best"]["extra"]["shared_excess_slots"] == 0
        assert body["baseline"]["extra"]["shared_excess_slots"] > 0
        assert body["improvement"] > 1.0
        assert "cache" in body

    def test_served_matches_in_process(self, client):
        from repro.tuner import tune

        served = client.tune(
            "sum", shape={"n": 256, "w": 8}, latencies=[4],
            strategy="greedy", budget=6, seed=1,
        )
        local = tune("sum", shape={"n": 256, "w": 8}, latencies=(4,),
                     strategy="greedy", budget=6, seed=1, cache=False)
        assert served["best"]["config"] == local.best.config
        assert served["best"]["cost"] == local.best.cost
        assert served["evaluations"] == local.evaluations

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.tune("fft")
        assert err.value.status == 400
        assert err.value.code == "invalid_param"

    def test_library_config_error_maps_to_400(self, client):
        # Passes the protocol caps but fails the task's own check
        # (n not a multiple of w): the oracle converts the library's
        # ConfigurationError into a structured 400.
        with pytest.raises(ServiceError) as err:
            client.tune("permutation", shape={"n": 7, "w": 4},
                        latencies=[4])
        assert err.value.status == 400
        assert err.value.code == "invalid_param"

    def test_duplicate_latencies_are_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.tune("transpose", shape={"w": 4, "d": 2, "m": 8},
                        latencies=[4, 4])
        assert err.value.status == 400
        assert err.value.code == "invalid_param"

    def test_metrics_count_tune_requests(self, client):
        client.tune("sum", shape={"n": 128, "w": 4}, latencies=[4],
                    strategy="random", budget=3)
        rows = client.metrics()["requests"]
        assert rows["/v1/tune"]["200"] >= 1
