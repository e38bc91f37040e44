"""The four workloads: seeded, fixed request lists.

A run sends a list that depends only on the workload, ``--seed`` and
``--seconds``: the same arguments always give the same requests, so
every run of one seed does the same work and yields the same counts.
The list length is ``seconds`` times a nominal rate measured on a
2-vCPU Xeon host, so a run's timed phase lasts about ``--seconds``
there; it never drops below ``MIN_REQUESTS`` so that p90 always has ten
samples beyond it.

Why each workload exists (see README.md for the full map):

* ``cost-warm`` -- every timed ``/v1/cost`` is a memory-tier hit, so the
  time goes to serving: HTTP, protocol, batcher window, store get.
* ``cost-cold`` -- distinct specs on an empty store: evaluator bound,
  writes the disk tier once per point, batches distinct specs.
* ``sweep-latency`` -- the Fig. 4-style replay latency sweep of one HMM
  sum shape; today every point is an event capture or a refusal.
* ``tune`` -- the one path where replay re-prices stored traces, plus
  the tuner's search, certificate and before/after batch launches.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: Runs always send at least this many timed requests (p90 needs ten
#: samples beyond it).
MIN_REQUESTS = 100

#: Table I grids (``repro.experiments.table1.SUM_GRID`` / ``CONV_GRID``),
#: restated so the request lists do not depend on the program under test.
SUM_GRID = [
    dict(n=n, p=p, w=16, l=l, d=8)
    for n in (1 << 10, 1 << 12, 1 << 13)
    for p in (64, 256, 1024)
    for l in (16, 128)
]
CONV_GRID = [
    dict(n=n, k=k, p=p, w=16, l=l, d=8)
    for n, k in ((1 << 9, 8), (1 << 10, 16))
    for p in (128, 512, 2048)
    for l in (8, 64)
]
MACHINE_MODELS = ("dmm", "umm", "hmm")

#: The ``cost-warm`` spec set: 36 Table I points, all with the
#: service's default seed, in popularity order (most requested first).
#: The order is fixed: with s = 2.5 the first spec takes three requests
#: in four, so a per-seed order made the work per request a property
#: of the seed.  The seed draws the request sequence.
WARM_SPECS = [
    dict(kernel="sum", model=model, **shape)
    for model in MACHINE_MODELS
    for shape in SUM_GRID if shape["n"] <= 4096 and shape["p"] <= 256
] + [
    dict(kernel="convolution", model=model, **shape)
    for model in MACHINE_MODELS
    for shape in CONV_GRID if shape["n"] == 512 and shape["p"] <= 512
]
random.Random("cost-warm").shuffle(WARM_SPECS)
#: The repo's own traffic model: ``repro.service.loadgen.run_comparison``
#: (the standard batching/caching experiment) and the cluster load
#: generator both draw specs with a Zipf exponent of 2.5.
ZIPF_S = 2.5

#: The ``cost-cold`` rounds: every Table I shape on every machine
#: model, in one fixed interleaved order that every run repeats a
#: whole number of times.  The seed draws each request's input seed.
#: A per-seed order changed which shapes met on the two connections
#: and in one batch, and moved server CPU per point by up to 10%
#: between seeds.
COLD_SHAPES = [
    dict(kernel="sum", model=model, **shape)
    for model in MACHINE_MODELS for shape in SUM_GRID
] + [
    dict(kernel="convolution", model=model, **shape)
    for model in MACHINE_MODELS for shape in CONV_GRID
]
random.Random("cost-cold").shuffle(COLD_SHAPES)

#: The ``sweep-latency`` shape: the HMM sum at one Table I point.
SWEEP_SHAPE = dict(kernel="sum", model="hmm", mode="replay",
                   n=4096, p=256, w=16, d=8)
#: One latency from each of ``SWEEP_POINTS`` equal strata of
#: ``SWEEP_LATENCIES``, so every request spans the range alike.
SWEEP_POINTS = 4
SWEEP_LATENCIES = (2, 1024)
#: The untimed warm-up sweep spans both trace-signature classes of this
#: kernel (l < 16 and l >= 16).  Today that flags the HMM sum as
#: non-oblivious, as any long-running server's traffic soon does, so
#: every timed point finds the trace store in that steady state
#: instead of flagging at a seed-dependent point of the run.
SWEEP_WARMUP_LATENCIES = [2, 16, 256, 1024]

#: The ``tune`` request: the transpose task at its default shape.
TUNE_TASK = "transpose"
TUNE_LATENCIES = 3
#: Room for 2730 requests of distinct latencies: 273 s at the nominal
#: rate.
TUNE_LATENCY_RANGE = (2, 8192)
#: Latencies of the untimed warm-up tune, outside the timed range so
#: the warm-up leaves no sweep-cache entry a timed request could hit.
TUNE_WARMUP_LATENCIES = [9001, 9002, 9003]


@dataclass(frozen=True)
class Request:
    """One HTTP request of a run; ``blob`` is the encoded ``body``."""

    method: str
    path: str
    body: dict
    blob: bytes = field(compare=False)

    @classmethod
    def post(cls, path: str, body: dict) -> "Request":
        blob = json.dumps(body, sort_keys=True).encode()
        return cls("POST", path, body, blob)


@dataclass(frozen=True)
class Workload:
    name: str
    connections: int
    #: Nominal timed requests per second on the reference host.
    rate: float
    #: Requests per run are rounded up to a multiple of this.
    quantum: int = 1

    def request_count(self, seconds: float) -> int:
        wanted = max(MIN_REQUESTS, round(self.rate * seconds))
        return -(-wanted // self.quantum) * self.quantum


def _fresh_seeds(rng: random.Random, count: int) -> list[int]:
    """``count`` distinct request seeds."""
    return rng.sample(range(1, 1 << 40), count)


def _zipf_weights(count: int, s: float) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, count + 1)]


def cost_warm(seed: int, count: int) -> tuple[list[Request], list[Request]]:
    rng = random.Random(f"cost-warm:{seed}")
    draws = rng.choices(WARM_SPECS,
                        weights=_zipf_weights(len(WARM_SPECS), ZIPF_S),
                        k=count)
    warmup = [Request.post("/v1/cost", s) for s in WARM_SPECS]
    return warmup, [Request.post("/v1/cost", s) for s in draws]


def cost_cold(seed: int, count: int) -> tuple[list[Request], list[Request]]:
    rng = random.Random(f"cost-cold:{seed}")
    shapes = COLD_SHAPES * -(-count // len(COLD_SHAPES))
    seeds = _fresh_seeds(rng, count + 1)
    timed = [Request.post("/v1/cost", dict(s, seed=q))
             for s, q in zip(shapes[:count], seeds)]
    # The warm-up loads the evaluator's lazy state (native library,
    # engine modules) with a spec no timed request repeats.
    warmup = [Request.post("/v1/cost", dict(COLD_SHAPES[0], seed=seeds[-1]))]
    return warmup, timed


def _sweep_body(rng: random.Random, request_seed: int) -> dict:
    low, high = SWEEP_LATENCIES
    width = (high - low + 1) / SWEEP_POINTS
    lats = [rng.randrange(low + round(i * width), low + round((i + 1) * width))
            for i in range(SWEEP_POINTS)]
    return dict(SWEEP_SHAPE, seed=request_seed, axes={"l": lats})


def sweep_latency(seed: int, count: int
                  ) -> tuple[list[Request], list[Request]]:
    rng = random.Random(f"sweep-latency:{seed}")
    seeds = _fresh_seeds(rng, count + 1)
    timed = [Request.post("/v1/sweep", _sweep_body(rng, q))
             for q in seeds[:count]]
    warmup = [Request.post("/v1/sweep", dict(
        SWEEP_SHAPE, seed=seeds[-1], axes={"l": SWEEP_WARMUP_LATENCIES}))]
    return warmup, timed


def tune(seed: int, count: int) -> tuple[list[Request], list[Request]]:
    rng = random.Random(f"tune:{seed}")
    low, high = TUNE_LATENCY_RANGE
    # Distinct across the whole run: no timed (config, l) point repeats,
    # so every seed does the same amount of pricing.
    pool = rng.sample(range(low, high + 1), TUNE_LATENCIES * count)
    timed = [
        Request.post("/v1/tune", dict(
            task=TUNE_TASK, seed=rng.randrange(1 << 20),
            latencies=sorted(
                pool[i * TUNE_LATENCIES:(i + 1) * TUNE_LATENCIES]),
        ))
        for i in range(count)
    ]
    warmup = [Request.post("/v1/tune", dict(
        task=TUNE_TASK, seed=0, latencies=TUNE_WARMUP_LATENCIES))]
    return warmup, timed


WORKLOADS = {
    w.name: (w, builder) for w, builder in (
        (Workload("cost-warm", connections=2, rate=600.0), cost_warm),
        (Workload("cost-cold", connections=2, rate=18.0,
                  quantum=len(COLD_SHAPES)), cost_cold),
        (Workload("sweep-latency", connections=1, rate=12.0), sweep_latency),
        (Workload("tune", connections=1, rate=10.0), tune),
    )
}


def build(name: str, seed: int, seconds: float
          ) -> tuple[Workload, list[Request], list[Request]]:
    """``(workload, warm-up requests, timed requests)`` for one run."""
    workload, builder = WORKLOADS[name]
    warmup, timed = builder(seed, workload.request_count(seconds))
    return workload, warmup, timed
