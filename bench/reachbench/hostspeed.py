"""Host-speed correction for the timed sections.

The hosts this benchmark runs on change speed by +-20 % for seconds at a time
(a fixed pure-Python loop took 33 ms per pass in one two-second window and
48 ms in the next, in CPU time as much as in wall-clock), and a slow phase can
outlast a run, so no statistic over a run's rounds removes it.  A small fixed
kernel timed *between* the workload's operations, every few tens of
milliseconds, slows down and speeds up with them (correlation 0.9 over
two-second windows), so each operation's time is scaled by how fast the
kernel ran next to it:

    corrected = measured * REFERENCE_KERNEL_S / (kernel time around the operation)

Corrected times are what the operation would have taken on a host on which the
kernel takes ``REFERENCE_KERNEL_S``; a change to the library moves the
measured time and not the kernel's, so it shows in full.  The kernel's own
time lies between operations and is part of no metric.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Tuple

__all__ = ["NEIGHBOURS", "REFERENCE_KERNEL_S", "HostSpeed"]

#: What one kernel pass takes on the reference host (this repo's build host at
#: its usual speed).  Only a scale: it cancels out of every comparison.
REFERENCE_KERNEL_S = 0.003

#: Kernel samples on each side of an operation that its correction is the
#: median of: enough to shrug off an interrupt landing in one sample, few
#: enough to stay within one speed phase.
NEIGHBOURS = 3


def _kernel() -> int:
    """A fixed mix of what the library's Python spends its time on."""
    table: Dict[int, int] = {}
    trail: List[int] = []
    total = 0
    for i in range(20000):
        table[i & 1023] = i
        total += (i * i) % 7
        trail.append(total)
    return total + len(table) + len(trail)


class HostSpeed:
    """Times the kernel between operations and corrects operation times."""

    def __init__(self, every_s: float = 0.04) -> None:
        self._every_s = every_s
        self._last = 0.0
        self._when: List[float] = []
        self._took: List[float] = []
        #: Seconds spent in the kernel, to be left out of the timed section.
        self.spent_s = 0.0

    def tick(self) -> None:
        """Called between operations: time the kernel if the last run is old."""
        start = time.perf_counter()
        if start - self._last < self._every_s:
            return
        _kernel()
        end = time.perf_counter()
        self._last = end
        self._when.append(start)
        self._took.append(end - start)
        self.spent_s += end - start

    def kernel_s(self) -> float:
        """Median kernel time over the whole section."""
        return statistics.median(self._took)

    def corrected(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Durations of ``(start, end)`` spans at the reference host speed."""
        when, took = self._when, self._took
        durations = []
        for start, end in spans:
            before = bisect.bisect_left(when, start)
            after = bisect.bisect_left(when, end)
            near = took[max(0, before - NEIGHBOURS) : after + NEIGHBOURS]
            durations.append((end - start) * REFERENCE_KERNEL_S / statistics.median(near))
        return durations
