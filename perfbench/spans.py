"""Spans around the service's layer boundaries, and their reduction.

Recording runs inside the traced server (``traced_server.py``): each
wrapped call becomes one span ``(id, parent, name, start_ns, end_ns,
request ids, attrs)`` in monotonic nanoseconds.  The parent is the
span open in the same asyncio task or thread (a ``ContextVar``); the
request id is assigned when ``read_request`` returns and follows the
request through parse, submit and the oracle call.  A batch-level
span lists every request it served.  Spans stay in memory and are
written once, at exit.

Reduction runs in the generator (:func:`reduce`): a span's self time
is its duration minus its children's, and each layer's self time is
reported per request or per point of the timed window.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

_now = time.monotonic_ns


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0)
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=0)
        #: id(parsed request object) -> request id, consumed by the
        #: oracle wrappers that receive the same object in a thread.
        self.owner: dict[int, int] = {}
        #: coalescing key -> id of the batch span evaluating it.
        self.serving: dict[str, int] = {}
        self.batch_requests: dict[int, list[int]] = defaultdict(list)

    def new_id(self) -> int:
        """A fresh id; spans and requests share one sequence."""
        return next(self._ids)

    def open(self) -> "tuple[int, int, contextvars.Token]":
        span = self.new_id()
        return span, self.current.get(), self.current.set(span)

    def close(self, span: int, parent: int, token, name: str, start: int,
              reqs=(), **attrs) -> None:
        self.current.reset(token)
        self.spans.append([span, parent, name, start, _now(), list(reqs),
                           attrs])

    def wrap(self, fn, name: str, attrs=None):
        """A synchronous wrapper recording one span per call.

        ``attrs(args, kwargs, result)`` adds attributes after the call.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent, token = self.open()
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, kwargs, result) if attrs else {}
                self.close(span, parent, token, name, start,
                           (self.request.get(),) if self.request.get() else (),
                           **extra)
        return wrapper

    def dump(self, path: str) -> None:
        for span in self.spans:
            if span[0] in self.batch_requests:
                served = self.batch_requests[span[0]]
                span[5] = sorted(set(span[5]) | set(served))
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _ArrivalReader:
    """Stream proxy noting when a request's first line arrived.

    ``read_request`` waits on an idle keep-alive connection for the
    next request; that wait is the client's, so the read span starts
    when the request line is in.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived = 0

    async def readline(self):
        line = await self._reader.readline()
        if not self.arrived:
            self.arrived = _now()
        return line

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


def install(rec: Recorder) -> None:
    """Wrap the public functions at every layer boundary."""
    import repro.machine.engine as engine_mod
    import repro.machine.hmm as hmm_mod
    import repro.machine.replay as replay_mod
    import repro.native.backend as native_backend
    import repro.service.oracle as oracle_mod
    import repro.service.server as server_mod
    import repro.tuner as tuner_pkg
    from repro.analysis.executor import ResultCache, SweepExecutor
    from repro.machine.batch import BatchCostEngine
    from repro.machine.scheduler import Scheduler
    from repro.service.batcher import MicroBatcher
    from repro.service.oracle import CostOracle
    from repro.service.protocol import spec_key
    from repro.store.store import Namespace
    from repro.telemetry.series import MetricsRecorder
    from repro.tuner.demos import TuneTask

    # -- service: HTTP framing, protocol, batcher --------------------------
    read_request = server_mod.read_request

    async def traced_read(reader):
        proxy = _ArrivalReader(reader)
        parsed = await read_request(proxy)
        if parsed is not None:
            rid = rec.new_id()
            rec.request.set(rid)
            rec.spans.append([rec.new_id(), rec.current.get(), "http.read",
                              proxy.arrived or _now(), _now(), [rid], {}])
        return parsed

    write_response = server_mod.write_response

    async def traced_write(*args, **kwargs):
        span, parent, token = rec.open()
        start = _now()
        try:
            return await write_response(*args, **kwargs)
        finally:
            rid = rec.request.get()
            rec.close(span, parent, token, "http.write", start,
                      (rid,) if rid else ())

    server_mod.read_request = traced_read
    server_mod.write_response = traced_write

    def owned(args, kwargs, result):
        rid = rec.request.get()
        if rid and result is not None:
            obj = result[1] if isinstance(result, tuple) else result
            rec.owner[id(obj)] = rid
        return {}

    for fname in ("parse_cost_request", "parse_sweep_request",
                  "parse_tune_request"):
        setattr(server_mod, fname,
                rec.wrap(getattr(server_mod, fname), "protocol.parse", owned))

    submit = MicroBatcher.submit

    async def traced_submit(self, payload, *, key=None):
        span, parent, token = rec.open()
        start = _now()
        try:
            return await submit(self, payload, key=key)
        finally:
            rid = rec.request.get()
            batch = rec.serving.get(key, 0)
            if batch and rid:
                rec.batch_requests[batch].append(rid)
            rec.close(span, parent, token, "batcher.submit", start,
                      (rid,) if rid else (), batch=batch)

    MicroBatcher.submit = traced_submit

    # -- oracle ------------------------------------------------------------
    def oracle_wrap(fn, name, owners):
        @functools.wraps(fn)
        def wrapper(self, *args):
            reqs = [rec.owner.pop(id(obj), 0) for obj in owners(args)]
            span, parent, token = rec.open()
            if name == "oracle.evaluate_batch":
                for spec in args[0]:
                    rec.serving[spec_key(spec)] = span
            start = _now()
            try:
                return fn(self, *args)
            finally:
                rec.close(span, parent, token, name, start,
                          [r for r in reqs if r])
        return wrapper

    CostOracle.evaluate_batch = oracle_wrap(
        CostOracle.evaluate_batch, "oracle.evaluate_batch", lambda a: a[0])
    CostOracle.run_sweep = oracle_wrap(
        CostOracle.run_sweep, "oracle.run_sweep", lambda a: [a[1]])
    CostOracle.tune_spec = oracle_wrap(
        CostOracle.tune_spec, "oracle.tune_spec", lambda a: [a[0]])

    # -- executor and store ------------------------------------------------
    SweepExecutor.run = rec.wrap(SweepExecutor.run, "executor.run")
    ResultCache.get = rec.wrap(ResultCache.get, "executor.cache_get")
    ResultCache.put = rec.wrap(ResultCache.put, "executor.cache_put")
    Namespace.get = rec.wrap(Namespace.get, "store.get",
                             lambda a, k, r: {"ns": a[0].name})
    Namespace.put = rec.wrap(Namespace.put, "store.put",
                             lambda a, k, r: {"ns": a[0].name})

    # -- machine: batch, event, replay, native -----------------------------
    BatchCostEngine.run = rec.wrap(BatchCostEngine.run, "batch.run")
    Scheduler.run = rec.wrap(Scheduler.run, "event.run")
    traced_replay = rec.wrap(
        replay_mod.replay_launch, "replay.launch",
        lambda a, k, r: {"tag": r[2] if r is not None else "error"})
    engine_mod.replay_launch = traced_replay
    hmm_mod.replay_launch = traced_replay
    replay_mod.derive_launch_key = rec.wrap(
        replay_mod.derive_launch_key, "replay.key")
    replay_mod.TraceCompiler.compile = rec.wrap(
        replay_mod.TraceCompiler.compile, "replay.compile")
    replay_mod.ReplayCostEvaluator.evaluate = rec.wrap(
        replay_mod.ReplayCostEvaluator.evaluate, "replay.price")
    bind_all = native_backend.bind_all

    def traced_bind_all(lib):
        return {name: rec.wrap(kernel, "native.call")
                for name, kernel in bind_all(lib).items()}

    native_backend.bind_all = traced_bind_all

    # -- tuner, experiments, telemetry -------------------------------------
    tuner_pkg.tune = rec.wrap(tuner_pkg.tune, "tuner.tune")
    TuneTask.run = rec.wrap(TuneTask.run, "tuner.task_run")
    oracle_mod.sum_task = rec.wrap(oracle_mod.sum_task, "experiments.task")
    oracle_mod.conv_task = rec.wrap(oracle_mod.conv_task, "experiments.task")
    MetricsRecorder.sample = rec.wrap(MetricsRecorder.sample,
                                      "telemetry.sample")


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: int
    end: int
    reqs: tuple
    attrs: dict

    @property
    def dur(self) -> int:
        return self.end - self.start


def load(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(s[0], s[1], s[2], s[3], s[4], tuple(s[5]), s[6])
                for s in json.load(fh)]


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def reduce(spans: list[Span], window: tuple[int, int], requests: int,
           points: int) -> dict[str, float]:
    """Per-layer times (µs) of the spans that started inside ``window``."""
    lo, hi = window
    spans = [s for s in spans if lo <= s.start <= hi]
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        child_ns[s.parent] += s.dur

    def self_ns(s: Span) -> int:
        return s.dur - child_ns.get(s.id, 0)

    def named(prefix: str, **attrs) -> list[Span]:
        return [s for s in spans if s.name.startswith(prefix)
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total_us(group, fn=lambda s: s.dur) -> float:
        return sum(fn(s) for s in group) / 1e3

    def mean_us(group) -> float:
        return total_us(group) / len(group) if group else 0.0

    per_req = 1.0 / max(1, requests)
    per_point = 1.0 / max(1, points)
    waits = []
    for s in named("batcher.submit"):
        batch = by_id.get(s.attrs.get("batch", 0))
        if batch is not None:
            waits.append(max(0, batch.start - s.start))
    tunes = {s.id for s in named("tuner.tune")}
    out = {
        "service.http.read_us_per_req": total_us(named("http.read")) * per_req,
        "service.http.write_us_per_req":
            total_us(named("http.write")) * per_req,
        "service.protocol.parse_us_per_req":
            total_us(named("protocol.parse")) * per_req,
        "service.batcher.wait_us_per_req": sum(waits) / 1e3 * per_req,
        "service.oracle.self_us_per_req":
            total_us(named("oracle."), self_ns) * per_req,
        "analysis.executor.key_us_per_point":
            total_us(named("executor.run"), self_ns) * per_point,
        "store.sweep.get_us": mean_us(named("store.get", ns="sweep")),
        "store.sweep.put_us": mean_us(named("store.put", ns="sweep")),
        "store.trace.get_us": mean_us(named("store.get", ns="trace")),
        "store.trace.put_us": mean_us(named("store.put", ns="trace")),
        "machine.batch.us_per_launch": mean_us(named("batch.run")),
        "machine.event.us_per_launch": mean_us(named("event.run")),
        "machine.replay.key_us": mean_us(named("replay.key")),
        "machine.replay.capture_us":
            mean_us(named("replay.launch", tag="replay-capture")),
        "machine.replay.price_us": mean_us(named("replay.price")),
        "native.us_per_call": mean_us(named("native.call")),
        "tuner.self_us_per_req":
            total_us(named("tuner.tune"), self_ns) * per_req,
        "tuner.verify_us_per_req": per_req * total_us(
            [s for s in named("tuner.task_run") if s.parent in tunes]),
        "experiments.inputs_us_per_point":
            total_us(named("experiments.task"), self_ns) * per_point,
        "telemetry.sample_us_per_s":
            total_us(named("telemetry.sample")) / ((hi - lo) / 1e9),
    }
    # Per request: its interval, read start to write end, against the
    # union of the spans on its own path.
    own: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        for rid in s.reqs:
            own[rid].append(s)
    server_ns = unattributed_ns = 0
    for group in own.values():
        reads = [s for s in group if s.name == "http.read"]
        writes = [s for s in group if s.name == "http.write"]
        if not reads or not writes:
            continue
        start, end = reads[0].start, max(s.end for s in writes)
        covered = [(s.start, s.end) for s in group
                   if s.name in ("http.read", "http.write", "protocol.parse")
                   or s.name.startswith("oracle.")]
        for s in group:
            batch = by_id.get(s.attrs.get("batch", 0)) \
                if s.name == "batcher.submit" else None
            if batch is not None:
                covered.append((s.start, batch.start))
                covered.append((batch.start, batch.end))
        server_ns += end - start
        unattributed_ns += (end - start) - _union_ns(covered, start, end)
    out["trace.server_us_per_req"] = server_ns / 1e3 * per_req
    out["trace.unattributed_us_per_req"] = unattributed_ns / 1e3 * per_req
    return out
