"""The traced server: ``python -m repro.service`` with layer spans.

Usage: ``python perfbench/traced_server.py SPANS_OUT serve --port 0``.
Installs the wrappers of :mod:`spans` around the service's public
layer functions, runs the unmodified ``repro.service`` command line,
and writes every recorded span to ``SPANS_OUT`` when the server exits.
"""

import sys

from spans import Recorder, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.service.__main__ import main as service_main

    try:
        return service_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
