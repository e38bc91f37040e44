"""Golden equivalence: the cluster answers with the *same bytes* as a
single-process service.

Both sides boot cold (fresh result-cache directories) and receive the
identical raw request bytes; assertions compare raw response bodies,
not parsed JSON, because the router's contract is byte-level relay.
Sweep/tune bodies embed per-request cache hit/miss deltas, so each
endpoint comparison uses specs disjoint from the others' — overlap
would hit on the single service's one cache but only sometimes on a
shard's.
"""

import pytest

from repro.cluster.supervisor import BackgroundCluster
from repro.machine.replay import reset_default_store
from repro.service.server import BackgroundServer

from tests.cluster.util import raw_request

# Disjoint spec families per endpoint (see module docstring).
COST_SPECS = [
    {"kernel": "sum", "model": "hmm", "n": 1024, "p": 64},
    {"kernel": "sum", "model": "hmm", "n": 1024, "p": 64, "w": 16,
     "l": 16, "d": 8, "mode": "batch"},  # same spec, defaults spelled out
    {"kernel": "convolution", "model": "hmm", "n": 4096, "k": 64,
     "p": 128},
    {"kernel": "sum", "model": "dmm", "n": 65536, "p": 256, "w": 32},
]
SWEEP_PAYLOAD = {
    "kernel": "sum", "model": "hmm",
    "axes": {"n": [2048, 8192], "p": [32], "w": [16, 32]},
}
TUNE_PAYLOAD = {"task": "sum", "budget": 6, "strategy": "random",
                "seed": 11}
ADVISE_TARGET = ("/v1/advise?kernel=convolution&model=hmm&n=16384&k=32"
                 "&p=64&w=16&l=16&d=8")
BAD_SPECS = [
    {"kernel": "sum", "model": "hmm", "n": 4096, "p": 64, "w": 5},
    {"kernel": "nope", "model": "hmm", "n": 4096, "p": 64},
    {"kernel": "sum", "model": "hmm", "n": -1, "p": 64},
    "not even an object",
]


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with BackgroundServer(cache=True, cache_dir=root / "single") as single:
        with BackgroundCluster(num_shards=3,
                               cache_root=root / "ring") as ring:
            yield single.url, ring.url


def both(pair, method, target, payload=None):
    single_url, ring_url = pair
    return (raw_request(single_url, method, target, payload),
            raw_request(ring_url, method, target, payload))


class TestGoldenBytes:
    def test_cost_bodies_identical(self, pair):
        for spec in COST_SPECS:
            alone, ring = both(pair, "POST", "/v1/cost", spec)
            assert alone == ring, spec
            assert alone[0] == 200

    def test_cost_repeat_hits_cache_identically(self, pair):
        # Second time around the single service hits its cache and the
        # cluster hits the owning shard's — the bytes must not change.
        for spec in COST_SPECS:
            alone, ring = both(pair, "POST", "/v1/cost", spec)
            assert alone == ring
            assert alone[0] == 200

    def test_sweep_bodies_identical_cold_and_warm(self, pair):
        cold_alone, cold_ring = both(pair, "POST", "/v1/sweep",
                                     SWEEP_PAYLOAD)
        assert cold_alone == cold_ring
        assert cold_alone[0] == 200
        assert b'"misses": 4' in cold_alone[1]
        # Identical payload → same routing key → same shard: the rerun
        # is all cache hits on both sides.
        warm_alone, warm_ring = both(pair, "POST", "/v1/sweep",
                                     SWEEP_PAYLOAD)
        assert warm_alone == warm_ring
        assert b'"hits": 4' in warm_alone[1]

    def test_tune_bodies_identical(self, pair, tmp_path):
        # A tune body names the evaluator behind each point
        # ("replay-capture" or "replay"), and both sides run in this
        # process: on one shared trace store the side that tunes first
        # captures the traces the other replays.  Each side gets its own
        # empty trace store, whatever the environment's store holds.
        bodies = []
        try:
            with pytest.MonkeyPatch.context() as env:
                for side, url in zip(("single", "ring"), pair):
                    env.setenv("REPRO_STORE_TRACE_DIR", str(tmp_path / side))
                    reset_default_store()
                    bodies.append(raw_request(url, "POST", "/v1/tune",
                                              TUNE_PAYLOAD))
        finally:
            reset_default_store()  # back to the environment's store
        alone, ring = bodies
        assert alone == ring
        assert alone[0] == 200

    def test_advise_bodies_identical(self, pair):
        alone, ring = both(pair, "GET", ADVISE_TARGET)
        assert alone == ring
        assert alone[0] == 200


class TestGoldenErrors:
    def test_protocol_errors_identical(self, pair):
        for spec in BAD_SPECS:
            alone, ring = both(pair, "POST", "/v1/cost", spec)
            assert alone == ring, spec
            assert alone[0] == 400

    def test_not_found_identical(self, pair):
        alone, ring = both(pair, "GET", "/v1/definitely-not-a-route")
        assert alone == ring
        assert alone[0] == 404

    def test_method_not_allowed_identical(self, pair):
        alone, ring = both(pair, "GET", "/v1/cost")
        assert alone == ring
        assert alone[0] == 405
        alone, ring = both(pair, "POST", "/healthz")
        assert alone[0] == ring[0] == 405

    def test_advise_wrong_model_identical(self, pair):
        target = "/v1/advise?kernel=sum&model=exact&n=1024&p=64"
        alone, ring = both(pair, "GET", target)
        assert alone == ring
        assert alone[0] == 400
