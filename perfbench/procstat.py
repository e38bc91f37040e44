"""Readers for the Linux ``/proc`` files the benchmark samples.

CPU time of a process tree, the peak resident set of one process, and
the host's steal counter.  Every reader takes the ``/proc`` root as an
argument so the self-tests can point it at a fake tree.
"""

from __future__ import annotations

import os
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(text: str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` field.

    ``comm`` may contain spaces and parentheses, so split after the
    last ``)``.  Index 0 of the result is field 3 (``state``).
    """
    return text[text.rindex(")") + 2:].split()


def process_ticks(pid: int, proc: Path = Path("/proc")
                  ) -> "tuple[int, int] | None":
    """``(ppid, ticks)`` of one process, or ``None`` if it is gone.

    ``ticks`` is utime + stime of every thread, live or exited, plus
    cutime + cstime of reaped children.
    """
    try:
        text = (proc / str(pid) / "stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    fields = _stat_fields(text)
    ppid = int(fields[1])
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return ppid, utime + stime + cutime + cstime


def tree_cpu_seconds(root: int, proc: Path = Path("/proc")) -> float:
    """CPU seconds used so far by ``root`` and all its live descendants."""
    parent_of: dict[int, int] = {}
    ticks_of: dict[int, int] = {}
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        found = process_ticks(int(entry.name), proc)
        if found is not None:
            parent_of[int(entry.name)], ticks_of[int(entry.name)] = found
    if root not in ticks_of:
        raise ProcessLookupError(f"process {root} is not running")
    children: dict[int, list[int]] = {}
    for pid, ppid in parent_of.items():
        children.setdefault(ppid, []).append(pid)
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += ticks_of[pid]
        stack.extend(children.get(pid, ()))
    return total / CLOCK_TICKS


def peak_rss_mb(pid: int, proc: Path = Path("/proc")) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    for line in (proc / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM line for process {pid}")


def host_cpu_counters(proc: Path = Path("/proc")) -> "tuple[int, int]":
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line."""
    for line in (proc / "stat").read_text().splitlines():
        if line.startswith("cpu "):
            values = [int(v) for v in line.split()[1:9]]
            return values[7], sum(values)
    raise ValueError("no aggregate cpu line in /proc/stat")


def steal_ratio(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    """Share of host CPU time stolen between two counter readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
