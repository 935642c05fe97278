"""Host readings: CPU steal, processor count, memory, CPU time, speed."""

from __future__ import annotations

import bisect
import gc
import os
import statistics
from time import perf_counter
from typing import List, Optional, Tuple, Union

Pid = Union[int, str]


def cpu_times() -> Tuple[int, int]:
    """``(steal ticks, total ticks)`` of the aggregate ``cpu`` line."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already included in user/nice.
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of all CPU ticks between two readings that the hypervisor stole."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def nproc() -> int:
    """Processors the machine has (the run itself is pinned to one)."""
    return os.cpu_count() or 1


def _status_kib(pid: Pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"no {field} in /proc/{pid}/status")


def peak_rss_mib(pid: Pid = "self") -> float:
    """The process's peak resident set size (``VmHWM``) in MiB."""
    return _status_kib(pid, "VmHWM") / 1024.0


def rss_mib(pid: Pid = "self") -> float:
    """The process's current resident set size (``VmRSS``) in MiB."""
    return _status_kib(pid, "VmRSS") / 1024.0


def cpu_seconds(pid: Pid) -> float:
    """User plus system CPU time the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        data = handle.read()
    # Fields after the parenthesised command name; utime/stime are the
    # 14th and 15th fields of the whole line.
    fields = data[data.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


#: Duration of one reference computation on the host that defines the
#: benchmark's time scale.  Timings are reported at that speed.
REFERENCE_S = 0.001


def reference() -> int:
    """A fixed slice of interpreter work: string keys, a dict, tuples."""
    table = {}
    for i in range(1500):
        key = f"k{i}"
        table[key] = (i, key)
    return sum(value[0] for value in table.values())


class SpeedProbe:
    """Samples how long :func:`reference` takes, interleaved with the run.

    A shared VM's speed can drift by a fifth over tens of seconds with no
    CPU steal to show for it (other tenants' load), which moves every
    wall-clock number by as much.  The program's work and
    the reference slow down together, so a timing divided by the
    reference's median duration over the same period, times
    :data:`REFERENCE_S`, reads the same on a fast and a slow minute.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at the sample, duration)`` pairs.
        self.samples: List[Tuple[float, float]] = []
        #: Total time spent sampling, to subtract from timed periods.
        self.spent_s = 0.0

    def sample(self) -> None:
        # With the collector off, the sample cannot pay for a collection
        # of the program's garbage.
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        reference()
        ended = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((started, ended - started))
        self.spent_s += ended - started

    def reference_s(self, since: float, until: float) -> float:
        """Median reference duration over samples taken in [since, until],
        or over the nearest two when none was."""
        first = bisect.bisect_left(self.samples, (since,))
        last = bisect.bisect_right(self.samples, (until, float("inf")))
        if first == last:  # none inside: the samples either side
            first, last = max(first - 1, 0), first + 1
        return statistics.median(d for _, d in self.samples[first:last])

    def at_reference(self, samples: List[Tuple[float, float]]) -> List[float]:
        """``(start, duration)`` samples as durations at reference speed."""
        return [value * self.scale(at) for at, value in samples]

    def scale(self, since: float, until: Optional[float] = None) -> float:
        """Multiplier taking a duration measured over [since, until] (or
        at the instant ``since``) to the reference host's speed.  Rates
        divide by it."""
        return REFERENCE_S / self.reference_s(since, since if until is None else until)
