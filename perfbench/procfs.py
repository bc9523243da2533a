"""CPU, memory and steal accounting read from ``/proc`` (Linux).

The program under test runs as one or more process trees, each started
in a session of its own, so "the program's processes" are exactly the
processes whose session id is one the benchmark started.  Every reader
takes a ``proc`` root so tests can point it at a fabricated tree.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = ["ProcStat", "read_stat", "session_pids", "cpu_seconds",
           "cpu_delta", "vm_hwm_kb", "peak_rss_mb", "CpuSample",
           "read_cpu_sample", "steal_fraction", "Window",
           "WindowClock", "host_facts"]

PROC = "/proc"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ProcStat:
    """The fields of ``/proc/<pid>/stat`` the benchmark uses."""

    pid: int
    ppid: int
    session: int
    utime_ticks: int
    stime_ticks: int


def parse_stat(text: str) -> ProcStat:
    """Parse one ``/proc/<pid>/stat`` line.

    The command name (field 2) is parenthesised and may itself contain
    spaces or parentheses, so fields are counted from its *last* ``)``.
    """
    head, _, tail = text.rpartition(")")
    pid = int(head.split("(", 1)[0])
    fields = tail.split()
    # tail[0] is field 3 (state); field n sits at tail[n - 3].
    return ProcStat(pid=pid, ppid=int(fields[1]), session=int(fields[3]),
                    utime_ticks=int(fields[11]), stime_ticks=int(fields[12]))


def read_stat(pid: int, *, proc: str = PROC) -> ProcStat | None:
    """``None`` when the process is gone (or was never there)."""
    try:
        with open(os.path.join(proc, str(pid), "stat"), encoding="utf-8",
                  errors="replace") as handle:
            return parse_stat(handle.read())
    except (FileNotFoundError, ProcessLookupError):
        return None


def session_pids(sessions: Iterable[int], *, proc: str = PROC) -> list[int]:
    """Live pids belonging to any of ``sessions``."""
    wanted = set(sessions)
    pids = []
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        stat = read_stat(int(name), proc=proc)
        if stat is not None and stat.session in wanted:
            pids.append(stat.pid)
    return sorted(pids)


def cpu_seconds(pids: Iterable[int], *, proc: str = PROC) -> dict[int, float]:
    """``pid -> user + system CPU seconds`` consumed so far (all threads);
    processes already gone are left out."""
    seconds = {}
    for pid in pids:
        stat = read_stat(pid, proc=proc)
        if stat is not None:
            seconds[pid] = (stat.utime_ticks + stat.stime_ticks) / CLOCK_TICKS
    return seconds


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``cpu_seconds`` readings by the
    processes alive at the second; one born in between counts from zero."""
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def vm_hwm_kb(pid: int, *, proc: str = PROC) -> int:
    """Peak resident set (``VmHWM``) of one process in KiB; 0 when gone."""
    try:
        with open(os.path.join(proc, str(pid), "status"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def peak_rss_mb(pids: Iterable[int], *, proc: str = PROC) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MiB."""
    return sum(vm_hwm_kb(pid, proc=proc) for pid in pids) / 1024.0


@dataclass(frozen=True)
class CpuSample:
    """Host-wide CPU jiffies from the first line of ``/proc/stat``."""

    total: int
    steal: int


def read_cpu_sample(*, proc: str = PROC) -> CpuSample:
    with open(os.path.join(proc, "stat"), encoding="utf-8") as handle:
        fields = handle.readline().split()
    values = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.
    return CpuSample(total=sum(values[:8]), steal=values[7])


def steal_fraction(before: CpuSample, after: CpuSample) -> float:
    """Share of host CPU time the hypervisor stole between two samples."""
    total = after.total - before.total
    return (after.steal - before.steal) / total if total > 0 else 0.0


@dataclass(frozen=True)
class Window:
    """Readings over one window of consecutive requests."""

    requests: range
    elapsed_s: float
    cpu_s: float
    steal: float


class WindowClock:
    """Wall time, program CPU and host steal at window boundaries.

    ``read_cpu`` returns a ``cpu_seconds``-style mapping for the processes
    being accounted for; call ``close(requests)`` at each boundary.
    """

    def __init__(self, read_cpu: Callable[[], dict[int, float]]) -> None:
        self.read_cpu = read_cpu
        self.windows: list[Window] = []
        self.first = read_cpu_sample()
        self._open()

    def _open(self) -> None:
        self._steal = read_cpu_sample()
        self._cpu = self.read_cpu()
        self._started = time.perf_counter()

    def close(self, requests: range) -> None:
        elapsed = time.perf_counter() - self._started
        steal = steal_fraction(self._steal, read_cpu_sample())
        cpu = cpu_delta(self._cpu, self.read_cpu())
        self.windows.append(Window(requests, elapsed, cpu, steal))
        self._open()

    def steal(self) -> float:
        """Steal over everything since the clock started."""
        return steal_fraction(self.first, read_cpu_sample())


def _src_lines(src: str) -> int:
    lines = 0
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    lines += sum(1 for _ in handle)
    return lines


def host_facts(src: str) -> dict[str, object]:
    """What a reader needs to compare this run with another host's."""
    import networkx
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "src_lines": _src_lines(src),
    }
