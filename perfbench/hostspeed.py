"""How fast the server's CPU ran, moment by moment, and rescaling by it.

On a shared host one vCPU's speed moves by up to about 1.8x in blocks
of a second to many minutes, while ``/proc/stat`` shows almost no
steal: the hardware thread beside it is busy or idle.  The two vCPUs
move independently.  Raw times then measure the neighbour as much as
the program.

The probe is a process pinned to the server's CPU at ``SCHED_IDLE``
priority.  It runs a fixed pure-Python unit whenever the server leaves
the CPU (and a sliver of it while the server computes) and records
each unit's CPU time.  ``Speed.factor(start, end)`` is the median unit
time around an interval over ``REFERENCE_UNIT_US``: 1.0 means the CPU
ran at reference speed, 1.6 that it ran 1.6 times slower.
:func:`rescale` turns a measured time into the time it would have taken
at reference speed, scaling only the share the server spent computing.

Run as a program: ``python3 hostspeed.py CPU OUT`` probes on ``CPU``
(``-1``: wherever the scheduler puts it) until SIGTERM, then writes its
samples to ``OUT``.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

#: CPU time of one probe unit at reference speed: the development
#: host's 2-vCPU Xeon in its fast state.
REFERENCE_UNIT_US = 50.0
#: Samples within this margin of an interval describe it.
PAD_NS = 50_000_000
#: Fewest samples a factor rests on; nearer ones are added if needed.
MIN_SAMPLES = 5
STOP_TIMEOUT_S = 10.0


def unit() -> dict:
    """The fixed work one sample times.

    It is short enough that most units fit in one of the gaps a busy
    server leaves between requests, so the samples are dense and
    rarely include a preemption.
    """
    counts: dict = {}
    for i in range(500):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return counts


def rescale(seconds: float, busy: float, factor: float) -> float:
    """``seconds`` at reference speed.

    ``busy`` is the share of ``seconds`` the server spent on the CPU;
    only that share ran ``factor`` times slower than reference.  The
    rest (timers, the generator, the network) is kept as measured.
    """
    busy = min(max(busy, 0.0), 1.0)
    return seconds * (1.0 - busy + busy / factor)


class Speed:
    """Probe samples of one pass: unit end times and CPU times (ns)."""

    def __init__(self, ends: list[int], units: list[int]) -> None:
        if len(ends) < MIN_SAMPLES:
            raise ValueError(f"the host probe took only {len(ends)} samples")
        order = sorted(range(len(ends)), key=ends.__getitem__)
        self.ends = [ends[i] for i in order]
        self.units = [units[i] for i in order]

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Slowdown against reference over ``[start_ns, end_ns]``."""
        lo = bisect.bisect_left(self.ends, start_ns - PAD_NS)
        hi = bisect.bisect_right(self.ends, end_ns + PAD_NS)
        while hi - lo < MIN_SAMPLES:
            mid = (start_ns + end_ns) // 2
            if hi == len(self.ends) or (
                    lo > 0 and mid - self.ends[lo - 1] < self.ends[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.units[lo:hi]) / 1e3 / REFERENCE_UNIT_US

    def mean_inverse(self, start_ns: int, end_ns: int,
                     step_ns: int = PAD_NS) -> float:
        """Time average of ``1 / factor`` over ``[start_ns, end_ns]``."""
        edges = list(range(start_ns, end_ns, step_ns)) + [end_ns]
        weights = [b - a for a, b in zip(edges, edges[1:])]
        inverse = [1.0 / self.factor(a, b) for a, b in zip(edges, edges[1:])]
        return sum(w * v for w, v in zip(weights, inverse)) / sum(weights)


class Probe:
    """The probe process of one pass."""

    def __init__(self, cpu: "int | None", out: Path) -> None:
        self.out = out
        argv = [sys.executable, str(Path(__file__).resolve()),
                str(-1 if cpu is None else cpu), str(out)]
        self.proc = subprocess.Popen(argv)

    def stop(self) -> None:
        """Ask the probe to write its samples; waits until it has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def samples(self) -> Speed:
        """The samples of a stopped probe."""
        if self.proc.returncode != 0:
            raise ValueError(f"the host probe exited with code "
                             f"{self.proc.returncode}")
        samples = array("q")
        samples.frombytes(self.out.read_bytes())
        return Speed(list(samples[0::2]), list(samples[1::2]))


def main(argv: list[str]) -> int:
    cpu, out = int(argv[0]), Path(argv[1])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = array("q")
    while not stopping:
        start = time.thread_time_ns()
        unit()
        samples.append(time.monotonic_ns())
        samples.append(time.thread_time_ns() - start)
    out.write_bytes(samples.tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
