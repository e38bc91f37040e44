"""Command-line entry point: ``python -m repro.experiments``.

Subcommands::

    python -m repro.experiments figures    # Figures 1-5
    python -m repro.experiments table1     # Table I sweep + fits
    python -m repro.experiments table2     # Table II optimality checks
    python -m repro.experiments ablations  # mechanism ablations
    python -m repro.experiments conflict-free  # naive vs conflict-free kernels
    python -m repro.experiments all        # everything
    python -m repro.experiments all -o DIR # also write artifacts to DIR

Sweep execution flags (see docs/PERFORMANCE.md, "Parallel sweeps & the
result cache")::

    --jobs N|auto   # shard sweeps over N worker processes
    --mode MODE     # evaluation engine: batch (default), event, or replay
    --no-cache      # skip the persistent result cache
    --cache-stats   # print cache statistics (standalone or after a run)
    --advise        # advisor verdict per measured launch
    --tune          # autotune the demo tasks (docs/TUNER.md)

Results are identical for every jobs/mode/cache setting; a warm cache
makes reruns all cache hits.  ``--mode replay`` additionally keeps a
compiled-trace store (``benchmarks/.store/trace``) so launches repeated
at different latencies re-cost a stored trace instead of re-executing
(see docs/PERFORMANCE.md, "Trace replay").
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.analysis.advisor import diagnose
from repro.analysis.executor import SweepExecutor, SweepProgress
from repro.analysis.terms import Params
from repro.experiments.ablations import reproduce_ablations
from repro.experiments.conflict_free import reproduce_conflict_free
from repro.experiments.figures import (
    FIG4_LATENCY_GRID,
    fig4_launch_report,
    reproduce_figures,
)
from repro.experiments.table1 import (
    CONV_GRID,
    SUM_GRID,
    conv_launch_report,
    reproduce_table1,
    sum_launch_report,
)
from repro.experiments.table2 import reproduce_table2
from repro.params import HMMParams, MachineParams


def _write(out_dir: pathlib.Path | None, name: str, text: str) -> None:
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")


def _jobs_arg(value: str) -> "int | str":
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs takes an integer or 'auto', got {value!r}"
        )


#: Models the advisor can diagnose (it needs per-unit statistics).
_ADVISABLE = ("dmm", "umm", "hmm")


def _advise_line(label: str, report, params) -> str:
    """One compact advisor verdict: regime, occupancy, top finding."""
    advice = diagnose(report, params)
    finding = advice.findings[0] if advice.findings else "no findings"
    return (
        f"{label:<44} {report.cycles:>8} cy  {advice.regime.value:<16} "
        f"occ {advice.occupancy_ratio:>6.2f}  {finding}"
    )


def _advise_figures(mode: str) -> str:
    lines = ["-- Figure 4 launches (umm, w=4) --"]
    for q in FIG4_LATENCY_GRID:
        report = fig4_launch_report(q, mode=mode)
        lines.append(_advise_line(
            f"fig4 l={q['l']}", report,
            MachineParams(width=q["w"], latency=q["l"]),
        ))
    return "\n".join(lines)


def _advise_table1(seed: int, mode: str) -> str:
    lines = []
    for kernel, grid, launch in (
        ("sum", SUM_GRID, sum_launch_report),
        ("conv", CONV_GRID, conv_launch_report),
    ):
        lines.append(f"-- Table I {kernel} launches --")
        for q in grid:
            point = Params(**q)
            for model in _ADVISABLE:
                report = launch(point, model=model, seed=seed, mode=mode)
                if model == "hmm":
                    mparams = HMMParams(num_dmms=point.d, width=point.w,
                                        global_latency=point.l)
                else:
                    mparams = MachineParams(width=point.w, latency=point.l)
                label = (
                    f"{kernel} {model} n={point.n} k={point.k} p={point.p} "
                    f"l={point.l}"
                )
                lines.append(_advise_line(label, report, mparams))
        lines.append("")
    return "\n".join(lines).rstrip()


class _ProgressPrinter:
    """Live sweep status on a tty; one summary line per sweep otherwise."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._live = getattr(self.stream, "isatty", lambda: False)()

    def __call__(self, p: SweepProgress) -> None:
        if self._live:
            end = "\n" if p.done == p.total else "\r"
            print(f"  [sweep] {p.describe()}    ", end=end, file=self.stream)
        elif p.done == p.total:
            print(f"  [sweep] {p.describe()}", file=self.stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures from the "
        "simulator.",
    )
    parser.add_argument(
        "what",
        nargs="?",
        choices=["figures", "table1", "table2", "ablations",
                 "conflict-free", "all"],
        help="which artifact(s) to reproduce",
    )
    parser.add_argument(
        "-o", "--out", type=pathlib.Path, default=None,
        help="directory to write the text artifacts to (optional)",
    )
    parser.add_argument(
        "--seed", type=int, default=20130520,
        help="sweep RNG seed (default: 20130520)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="also write a machine-readable summary.json (requires -o)",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N|auto",
        help="worker processes for the sweeps: an integer, or 'auto' for "
        "min(points, cpu_count) (default: 1, in-process)",
    )
    parser.add_argument(
        "--mode", choices=["batch", "event", "replay"], default="batch",
        help="evaluation engine for the sweeps (default: batch — the "
        "vectorized fast path; replay re-costs stored kernel traces; "
        "cycles are identical in every mode)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point instead of using the persistent sweep "
        "cache (benchmarks/.store/sweep)",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print sweep-cache statistics (standalone, or after the run)",
    )
    parser.add_argument(
        "--advise", action="store_true",
        help="also run the kernel advisor on every measured launch "
        "(figures/table1) and print one verdict line per point",
    )
    parser.add_argument(
        "--tune", action="store_true",
        help="also autotune the demo tasks (layout/launch search against "
        "the cost model; see docs/TUNER.md) and print one report each",
    )
    args = parser.parse_args(argv)
    if args.json and args.out is None:
        parser.error("--json requires -o/--out")
    if args.what is None and not args.cache_stats:
        parser.error("a subcommand is required (or --cache-stats)")

    cache = not args.no_cache
    if args.what is None:
        _print_cache_stats(replay=False)
        return 0

    sweep_kwargs = dict(
        jobs=args.jobs,
        cache=cache,
        mode=args.mode,
        progress=_ProgressPrinter(),
    )

    ok = True
    summary: dict[str, object] = {"seed": args.seed}
    if args.what in ("figures", "all"):
        figures = reproduce_figures(**sweep_kwargs)
        _write(args.out, "figures", figures.render())
        ok &= figures.fig4_cycles == 8
        ok &= all(m == p for _, m, p in figures.fig4_scaling)
        summary["figure4_cycles"] = figures.fig4_cycles
    if args.what in ("table1", "all"):
        t1 = reproduce_table1(seed=args.seed, **sweep_kwargs)
        _write(args.out, "table1", t1.render())
        ok &= t1.all_shapes_hold()
        summary["table1"] = {
            problem: {
                model: {
                    "r_squared": fit.r_squared,
                    "coefficients": dict(
                        zip(fit.term_names, fit.coefficients)
                    ),
                }
                for model, fit in fits.items()
            }
            for problem, fits in (
                ("sum", t1.sum_fits), ("convolution", t1.conv_fits)
            )
        }
    if args.what in ("table2", "all"):
        t2 = reproduce_table2(seed=args.seed, **sweep_kwargs)
        _write(args.out, "table2", t2.render())
        ok &= t2.all_sound_and_tight()
        summary["table2"] = {
            problem: {
                model: {
                    "sound": rep.sound,
                    "worst_ratio": rep.worst_ratio,
                    "best_ratio": rep.best_ratio,
                }
                for model, rep in reports.items()
            }
            for problem, reports in (
                ("sum", t2.sum_reports), ("convolution", t2.conv_reports)
            )
        }
    if args.what in ("ablations", "all"):
        abl = reproduce_ablations(seed=args.seed, **sweep_kwargs)
        _write(args.out, "ablations", abl.render())
        ok &= abl.mechanisms_all_matter()
    if args.what in ("conflict-free", "all"):
        cf = reproduce_conflict_free(seed=args.seed, **sweep_kwargs)
        _write(args.out, "conflict_free", cf.render())
        ok &= cf.conflict_free_holds()
        summary["conflict_free"] = {
            "criteria_pass": cf.conflict_free_holds(),
            "certificates": {
                kernel: {
                    "certified": cert.certified,
                    "oblivious": cert.oblivious,
                    "avoidable_excess_slots": cert.avoidable_excess_slots,
                }
                for kernel, cert in cf.certificates.items()
            },
        }

    if args.advise:
        sections = ["Kernel advisor verdicts (one line per measured launch)"]
        if args.what in ("figures", "all"):
            sections.append(_advise_figures(args.mode))
        if args.what in ("table1", "all"):
            sections.append(_advise_table1(args.seed, args.mode))
        if len(sections) == 1:
            sections.append(
                f"(no advisable launches in {args.what!r}; use figures, "
                "table1, or all)"
            )
        _write(args.out, "advise", "\n\n".join(sections))

    if args.tune:
        from repro.tuner import TASKS, tune

        sections = ["Autotuner reports (exhaustive search, demo shapes)"]
        tuned: dict[str, object] = {}
        for name in sorted(TASKS):
            report = tune(name, jobs=args.jobs, cache=cache,
                          mode="auto" if args.mode == "batch" else args.mode)
            sections.append(report.render())
            tuned[name] = {
                "best": report.best.config,
                "improvement": report.improvement,
                "certificate": report.certificate,
                "equivalent": report.equivalent,
            }
            ok &= report.improvement >= 1.0 and report.equivalent
        _write(args.out, "tune", "\n\n".join(sections))
        summary["tune"] = tuned

    summary["pass"] = bool(ok)
    if args.json:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )

    if args.cache_stats:
        _print_cache_stats(replay=args.mode == "replay")

    if ok:
        print("reproduction criteria: PASS")
        return 0
    print("reproduction criteria: FAIL", file=sys.stderr)
    return 1


def _print_cache_stats(replay: bool) -> None:
    """The ``--cache-stats`` lines: contents and this session's counts."""
    executor = SweepExecutor(cache=True)
    hits = executor.metrics["cache.hits"]
    misses = executor.metrics["cache.misses"]
    current = stale = files = size = 0
    if executor.cache is not None:
        ns = executor.cache.store_namespace
        contents = ns.metrics[f"store.{ns.name}"]
        current = contents["fingerprints"]["current"]
        stale = contents["fingerprints"]["stale"]
        files, size = contents["entries_disk"], contents["disk_bytes"]
    print(f"sweep cache: {current} entries ({stale} stale) in {files} "
          f"files, {size} bytes; session: {hits} hits / {misses} misses")
    if replay:
        from repro.machine.replay import default_store

        store = default_store()
        t = store.metrics["trace_store"]
        tiers = store.store_namespace.metrics["store.trace"]
        print(f"trace store: {t['entries_memory']} in memory / "
              f"{t['entries_disk']} on disk ({t['size_bytes']} bytes); "
              f"session: {t['hits']} hits ({tiers['hits_memory']} mem, "
              f"{tiers['hits_disk']} disk) / {t['misses']} misses, "
              f"{t['captures']} captures, {t['refusals']} refusals, "
              f"{t['flagged_programs']} refused as racy")


if __name__ == "__main__":
    raise SystemExit(main())
