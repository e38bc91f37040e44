"""``python -m repro.tuner`` — tune a demo task from the command line.

Examples::

    python -m repro.tuner transpose
    python -m repro.tuner transpose --strategy greedy --budget 8 --json
    python -m repro.tuner sum --shape n=4096 w=8 --latencies 4 16 64
    python -m repro.tuner --list
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.tuner.demos import TASKS
from repro.tuner.search import STRATEGIES
from repro.tuner.tuner import DEFAULT_LATENCIES, tune


def _parse_shape(pairs: list[str]) -> dict:
    shape = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise SystemExit(f"--shape expects key=value pairs, got {pair!r}")
        try:
            shape[key] = int(value)
        except ValueError:
            raise SystemExit(f"--shape values must be ints, got {pair!r}")
    return shape


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuner",
        description="Search a demo kernel's layout/launch space for the "
                    "configuration minimizing modeled time units.",
    )
    parser.add_argument("task", nargs="?", choices=sorted(TASKS),
                        help="demo task to tune")
    parser.add_argument("--list", action="store_true",
                        help="list the demo tasks and exit")
    parser.add_argument("--strategy", default="exhaustive",
                        choices=STRATEGIES)
    parser.add_argument("--budget", type=int, default=None,
                        help="max configurations to evaluate")
    parser.add_argument("--mode", default="auto",
                        choices=("auto", "event", "batch", "replay"),
                        help="evaluation engine (auto = replay)")
    parser.add_argument("--latencies", type=int, nargs="+",
                        default=list(DEFAULT_LATENCIES), metavar="L",
                        help="latency grid the objective sums over")
    parser.add_argument("--shape", nargs="+", default=[], metavar="K=V",
                        help="shape overrides, e.g. --shape m=64 w=8")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", default=1,
                        help="worker processes (int or 'auto')")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache")
    parser.add_argument("--json", action="store_true",
                        help="print the full TuneReport as JSON")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(TASKS):
            print(f"{name:12s} {TASKS[name].summary}")
        return 0
    if not args.task:
        parser.error("a task name (or --list) is required")

    jobs = args.jobs if args.jobs == "auto" else int(args.jobs)
    try:
        report = tune(
            args.task,
            shape=_parse_shape(args.shape),
            latencies=args.latencies,
            strategy=args.strategy,
            budget=args.budget,
            mode=args.mode,
            seed=args.seed,
            jobs=jobs,
            cache=not args.no_cache,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
