"""Outside-in benchmark of the cost-oracle service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cost-warm --seed 1 --seconds 15 \
        --trace 0

Builds nothing into the program: it prebuilds the native library into
its own state directory, boots ``python -m repro.service serve`` with
``REPRO_BACKEND=native``, sends the workload's seeded request list over
keep-alive connections in a closed loop, checks every answer against
the event scheduler, and prints one JSON line.  Times are rescaled to
a reference host speed measured while they run (``hostspeed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same list untraced and then on the traced server and reports the
per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
# The generator imports the checkout's sources for its reference runs;
# compile them once into the benchmark's own bytecode cache.
sys.pycache_prefix = str(ROOT / ".bench_build" / "perfbench" / "pycache")
sys.dont_write_bytecode = False

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import procstat  # noqa: E402
import reference  # noqa: E402
import report  # noqa: E402
import server  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Boots per run whose median is ``setup_s``.
SETUP_BOOTS = 7
#: Distinct claims re-computed on the event scheduler per run.
REFERENCE_BUDGET = {"cost-warm": 64, "cost-cold": 48, "sweep-latency": 96,
                    "tune": 64}


class RunAborted(RuntimeError):
    """The run would measure a different program; no result is printed."""


@dataclass
class Pass:
    """One boot-warm-measure cycle of the server."""

    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0
    window: tuple = (0, 0)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    steal: float = 0.0
    rss_mb: float = 0.0
    #: Per boot: ``(spawn → first 200 window in ns, server CPU s)``.
    boots: list = field(default_factory=list)
    speed: "hostspeed.Speed | None" = None
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        """Share of the timed phase the server spent on its CPU."""
        return report.ratio(self.server_cpu_s, self.wall_s)

    def reference_cpu_s(self) -> float:
        """Server CPU seconds of the timed phase at reference speed."""
        return self.server_cpu_s * self.speed.mean_inverse(*self.window)

    def reference_setups(self) -> list[float]:
        """Spawn → first 200 of every boot, at reference speed."""
        return [hostspeed.rescale((end - start) / 1e9,
                                  report.ratio(cpu, (end - start) / 1e9),
                                  self.speed.factor(start, end))
                for (start, end), cpu in self.boots]

    def reference_latency(self, outcome: loadgen.Outcome) -> float:
        """One request's generator wall time, at reference speed."""
        end = outcome.start_ns + round(outcome.seconds * 1e9)
        return hostspeed.rescale(outcome.seconds, self.busy,
                                 self.speed.factor(outcome.start_ns, end))


def _client_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _native_guard(snapshot: dict, when: str) -> None:
    native = snapshot.get("native", {})
    # ``available`` stays None until something needs the library.
    if native.get("default_backend") != "native" \
            or native.get("available") is False \
            or native.get("python_fallbacks", 0):
        raise RunAborted(f"native backend not in use {when}: {native}")


async def _measure(srv: server.Server, workload, warmup, timed, out: Pass
                   ) -> None:
    conns = [await loadgen.Connection.open("127.0.0.1", srv.port)
             for _ in range(workload.connections)]
    try:
        for req in warmup:
            status, _ = await conns[0].send(req.method, req.path, req.blob)
            if status != 200:
                raise RunAborted(f"warm-up {req.path} answered {status}")
        _, out.before = await conns[0].send("GET", "/metrics")
        _native_guard(out.before, "after warm-up")
        cpu0 = procstat.tree_cpu_seconds(srv.pid)
        client0, steal0 = _client_cpu(), procstat.host_cpu_counters()
        t0 = time.monotonic_ns()
        out.outcomes, out.wall_s = await loadgen.run_closed_loop(conns, timed)
        t1 = time.monotonic_ns()
        out.server_cpu_s = procstat.tree_cpu_seconds(srv.pid) - cpu0
        out.client_cpu_s = _client_cpu() - client0
        out.steal = procstat.steal_ratio(steal0, procstat.host_cpu_counters())
        out.rss_mb = procstat.peak_rss_mb(srv.pid)
        out.window = (t0, t1)
        _, out.after = await conns[0].send("GET", "/metrics")
        _native_guard(out.after, "after the timed phase")
    finally:
        for conn in conns:
            await conn.close()


def measure_pass(layout: server.Layout, run_dir: Path, tag: str, workload,
                 warmup, timed, boots: int, server_cpu: "int | None",
                 traced_spans: "Path | None" = None) -> Pass:
    out = Pass()
    run_dir.mkdir(parents=True, exist_ok=True)
    probe = hostspeed.Probe(server_cpu, run_dir / f"{tag}-speed.bin")
    srv = None
    try:
        for i in range(boots):
            srv = server.boot(layout, run_dir / f"{tag}-{i}", server_cpu,
                              traced_spans)
            out.boots.append((srv.boot_window, srv.boot_cpu_s))
            if i + 1 < boots:
                srv.discard()
        asyncio.run(_measure(srv, workload, warmup, timed, out))
    except (OSError, ValueError, KeyError) as exc:
        log = server.server_log(srv.store) if srv is not None else ""
        raise RunAborted(f"{type(exc).__name__}: {exc}\n{log}") from exc
    finally:
        if srv is not None:
            srv.stop()
        probe.stop()
    try:
        out.speed = probe.samples()
    except (OSError, ValueError) as exc:
        raise RunAborted(f"host probe: {exc}") from exc
    return out


def _prepare(layout: server.Layout, server_cpu: "int | None") -> None:
    """Install costs: native build once per checkout, one untimed boot."""
    marker = layout.native / ".built"
    if not marker.exists():
        server.build_native(layout)
        marker.write_text("ok\n")
    server.boot(layout, layout.runs / f"warm-{os.getpid()}",
                server_cpu).discard()


def _fixed_counts(values: dict) -> dict:
    return {name: values[name] for name in report.FIXED_COUNTS}


def _source_digest(src: Path, timed=()) -> str:
    """Digest of every file under ``src`` and of a request list."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    for req in timed:
        digest.update(req.blob)
    return digest.hexdigest()[:16]


def _compare_fixed(layout: server.Layout, name: str, timed, counts: dict
                   ) -> int:
    """Mismatches against an earlier run of the same list and program.

    The first run of a list on a program records its counts; later
    runs compare.
    """
    key = f"{name}-{_source_digest(layout.src, timed)}"
    path = layout.counts / f"{key}.json"
    mismatches = 0
    if path.exists():
        earlier = json.loads(path.read_text())
        mismatches = sum(earlier.get(k) != v for k, v in counts.items())
        if mismatches:
            print(f"perfbench: fixed counts differ from an earlier run of "
                  f"{key}: {earlier} vs {counts}", file=sys.stderr)
    else:
        layout.counts.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
    return mismatches


def _layer_values(p: Pass, verdict: reference.Verdict, requests: int
                  ) -> dict:
    deltas = report.metric_deltas(p.before, p.after)
    flagged = p.after.get("trace_store", {}).get("flagged_programs", 0)
    values = report.layer_counts(deltas, flagged, verdict.points,
                                 verdict.engines, verdict.certificates,
                                 verdict.checked, requests)
    values["server.busy_ratio"] = report.ratio(p.server_cpu_s, p.wall_s)
    values["client.cpu_s"] = p.client_cpu_s
    values["host.steal_ratio"] = p.steal
    values["host.speed_factor"] = 1.0 / p.speed.mean_inverse(*p.window)
    return values


def _end_to_end(plain: Pass, verdict: reference.Verdict) -> dict:
    # A failed request counts as the client timeout.
    lat = [loadgen.TIMEOUT_S if o.index in verdict.failed
           else plain.reference_latency(o) for o in plain.outcomes]
    setups = plain.reference_setups()
    raw_p50 = statistics.median(o.seconds for o in plain.outcomes)
    raw_setup = statistics.median(end - start
                                  for (start, end), _ in plain.boots)
    print(f"perfbench: requests={len(lat)} points={verdict.points} "
          f"boots={len(setups)} "
          f"checked={verdict.checked}/{verdict.claims} claims "
          f"server_cpu={plain.server_cpu_s:.3f}s wall={plain.wall_s:.3f}s "
          f"steal={plain.steal:.4f} "
          f"speed_factor={1 / plain.speed.mean_inverse(*plain.window):.3f} "
          f"as measured: p50={raw_p50 * 1e3:.2f}ms "
          f"setup={raw_setup / 1e9:.3f}s", file=sys.stderr)
    return {
        "points_per_cpu_s": verdict.points / plain.reference_cpu_s(),
        "latency_p50_ms": report.percentile(lat, 0.50) * 1e3,
        "latency_p90_ms": report.percentile(lat, 0.90) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": plain.rss_mb,
    }


def _per_layer(values: dict, plain: Pass, traced: Pass,
               traced_verdict: reference.Verdict, span_list: list,
               requests: int, points: int) -> dict:
    fixed = _fixed_counts(values)
    traced_fixed = _fixed_counts(_layer_values(traced, traced_verdict,
                                               requests))
    between = sum(fixed[k] != traced_fixed[k] for k in fixed)
    if between:
        print(f"perfbench: fixed counts differ between the untraced and "
              f"traced runs: {fixed} vs {traced_fixed}", file=sys.stderr)
    values["count.fixed_mismatches"] += between
    values.update(spans.reduce(span_list, traced.window, requests, points))
    values["trace.overhead"] = report.ratio(
        traced.reference_cpu_s(), plain.reference_cpu_s()) - 1.0
    return {name: values[name] for name in report.metric_table("per_layer")}


def run(args: argparse.Namespace) -> dict:
    layout = server.Layout(ROOT)
    layout.check()
    # Plan before pinning: the generator's own affinity is then one CPU.
    server_cpu, generator_cpu = server.cpu_plan()
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})
    workload, warmup, timed = workloads.build(args.workload, args.seed,
                                              args.seconds)
    run_dir = layout.runs / f"run-{os.getpid()}"
    traced = span_list = None
    try:
        _prepare(layout, server_cpu)
        plain = measure_pass(layout, run_dir, "plain", workload, warmup,
                             timed, SETUP_BOOTS, server_cpu)
        if args.trace:
            spans_path = run_dir / "spans.json"
            traced = measure_pass(layout, run_dir, "traced", workload,
                                  warmup, timed, 1, server_cpu, spans_path)
            span_list = spans.load(str(spans_path))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference_of = functools.cache(
        reference.event_reference(str(layout.src)))
    budget = REFERENCE_BUDGET[workload.name]
    seed_tag = f"{workload.name}:{args.seed}"
    passes = [(p, reference.check(timed, p.outcomes, reference_of, budget,
                                  seed_tag))
              for p in (plain, traced) if p is not None]
    for _, v in passes:
        for line in v.errors:
            print(f"perfbench: {line}", file=sys.stderr)
    verdict = passes[0][1]
    values = _layer_values(plain, verdict, len(timed))
    values["count.fixed_mismatches"] = _compare_fixed(
        layout, workload.name, timed, _fixed_counts(values))
    if args.trace:
        metrics = _per_layer(values, plain, traced, passes[1][1], span_list,
                             len(timed), verdict.points)
        table = report.metric_table("per_layer")
    else:
        metrics = _end_to_end(plain, verdict)
        table = report.metric_table("end_to_end")
    return {
        "correct": all(not v.failed for _, v in passes),
        "attempted": sum(len(p.outcomes) for p, _ in passes),
        "failed": sum(len(v.failed) for _, v in passes),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": table[name][0]} for name in metrics},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers: SystemExit unwinds
    # through the ``finally`` blocks that own them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except (server.BenchSetupError, RunAborted) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
