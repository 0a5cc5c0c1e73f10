"""Host-speed probe: express measured host time at a fixed reference speed.

On a host shared with other tenants, every process can run up to ~2x
slower for epochs from a second to minutes long (seen on a shared
2-vCPU Xeon virtual machine).  A median over passes cannot hide an
epoch that covers a whole run.  So while an untraced pass runs, a timer signal
interrupts it every ``INTERVAL_S`` to time a short fixed reference loop.
Each measured span is then converted to *reference seconds*: every
stretch of host time between two probes is scaled by how fast the
reference loop ran around it.  The probes' own time is left out.

The reference loop is fixed pure-Python work, like the simulator's own
interpreter-bound code, and never changes: its speed is the unit.
``REFERENCE_S`` is its median time on the machine the baseline was
measured on, so a reference second is about one host second there.
"""

import signal
import statistics
import time
from bisect import bisect_left

INTERVAL_S = 0.05
REFERENCE_S = 0.00022
#: Probes on each side of a stretch whose median sets its speed.
WINDOW = 3


#: Fixed data of the reference loop: a table of a few hundred kB, like
#: the simulator's own working set between cache and memory.
_TABLE = {i: i for i in range(4096)}
_KEYS = list(range(0, 4096, 3)) * 2


def reference_loop():
    """The fixed unit of work: dict lookups, a list build and a sum."""
    get = _TABLE.get
    total = 0
    for key in _KEYS:
        total += get(key, 0)
    squares = [i * i for i in range(2000)]
    return total + sum(squares)


class HostSpeed:
    """Samples the reference loop on a timer while it is running."""

    def __init__(self):
        self.probes = []  # (start, end) host times of each probe
        self._previous = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self):
        """Total host time spent in probes."""
        return sum(end - start for start, end in self.probes)

    def median_probe_s(self):
        """Median probe time; ``REFERENCE_S`` before the first probe."""
        if not self.probes:
            return REFERENCE_S
        return statistics.median(end - start for start, end in self.probes)


def reference_seconds(probes, start, end):
    """Scale [start, end) to reference speed using ``probes``.

    The gap after probe ``j`` (up to the next probe) runs at the speed
    of the median of the probes ``j - WINDOW + 1 .. j + WINDOW``; time
    before the first probe runs at the speed of the first ones.  Time
    inside a probe is not counted.
    """
    if not probes:
        return end - start
    durations = [e - s for s, e in probes]
    ends = [e for _, e in probes]
    total = 0.0
    # Gap -1 is everything before the first probe.
    j = bisect_left(ends, start) - 1
    cursor = start
    while cursor < end:
        gap_end = probes[j + 1][0] if j + 1 < len(probes) else float("inf")
        stop = min(end, gap_end)
        if stop > cursor:
            window = durations[max(0, j - WINDOW + 1):j + WINDOW + 1]
            total += (stop - cursor) * REFERENCE_S / statistics.median(window)
        if j + 1 >= len(probes):
            break
        j += 1
        cursor = max(cursor, probes[j][1])
    return total
