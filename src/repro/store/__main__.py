"""Store maintenance CLI.

::

    python -m repro.store stats [--root DIR]
    python -m repro.store clear [--root DIR] [--namespace NS]

``stats`` prints per-namespace contents; ``clear`` drops entries (one
namespace, or every standard one).
"""

from __future__ import annotations

import argparse
import sys

from repro.store.config import NAMESPACES
from repro.store.store import ArtifactStore

_CODECS = {"sweep": "json", "trace": "npz", "tune": "json",
           "telemetry": "json"}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Unified artifact store maintenance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print per-namespace contents")
    p_stats.add_argument("--root", default=None, help="store root dir")

    p_clear = sub.add_parser("clear", help="drop stored entries")
    p_clear.add_argument("--root", default=None, help="store root dir")
    p_clear.add_argument("--namespace", default=None, choices=NAMESPACES,
                         help="only this namespace (default: all)")

    args = parser.parse_args(argv)

    store = ArtifactStore(args.root)
    if args.command == "stats":
        print(f"store root: {store.resolve_root()}")
        for name in NAMESPACES:
            ns = store.namespace(name, _CODECS[name])
            print("  " + ns.stats().describe())
        return 0

    # clear
    names = [args.namespace] if args.namespace else list(NAMESPACES)
    for name in names:
        ns = store.namespace(name, _CODECS[name])
        removed = ns.clear()
        print(f"{name}: removed {removed} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
