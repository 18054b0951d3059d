"""Machine-speed probe: op times scaled to a fixed reference speed.

A small virtual machine shares its cores with other tenants, and the speed a
vCPU gives one thread drifts by up to 2.5x, in waves from a fraction of a
second to minutes long, and differently on each vCPU (no steal time shows:
CPU time drifts with wall time).  Two sets of runs of the same code made
minutes apart then differ by more than any useful bound.

So the benchmark times a fixed pure-Python probe, which does not touch the
program, on the thread that runs the ops and close in time to them: from a
timer signal every ``PERIOD_S`` while an in-process op runs, and in short
bursts between ops.  An op's time at reference speed is its wall time
(minus the probes run inside it) times ``REFERENCE_PROBE_S`` over the median
probe time around the op.  A change that makes the program faster lowers
this time just as it lowers the wall time.  A slower machine raises it far
less than the wall time, but not to nothing: the program's code and
the probe do not slow down by quite the same factor (on the tuning VM the
highdeg workload read about 8% faster at reference speed while the machine
ran 2.5x slow than while it ran 1.3x slow).  The wall times are kept in the
result record beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# probe time on the VM the benchmark was tuned on (2 vCPUs, Python 3.11) in
# its fast state: the scale of every "at reference speed" figure
REFERENCE_PROBE_S = 165e-6
PERIOD_S = 0.02
BURST = 3
# probes within this distance of an op's start and end count for it
MARGIN_S = 0.1
MIN_PROBES = 5


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def total(self):
        return self.a + self.b


def probe() -> int:
    """Fixed pure-Python work, about REFERENCE_PROBE_S long.

    Tuple hashing, dict updates, set operations, small objects and method
    calls: of the probes tried, this mix followed the program's own slowdowns
    most closely on all the workloads (a plain integer loop under-corrects
    the oracle workload; numpy probes follow it worse still).
    """
    counts = {}
    for i in range(400):
        key = (i % 37, i % 11, i % 5)
        counts[key] = counts.get(key, 0) + 1
    acc = len(set(counts) & {(1, 1, 1), (2, 2, 2)})
    return acc + sum(_Pair(i, i + 1).total() for i in range(300))


class Speed:
    """Probe times (start, duration) in start order, and the scale they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.ordered = True

    def sample(self, *_):
        t0 = perf_counter()
        probe()
        # a timer signal can land inside a burst's probe and append first
        self.ordered = self.ordered and (not self.starts or self.starts[-1] <= t0)
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def _order(self):
        if not self.ordered:
            pairs = sorted(zip(self.starts, self.durations))
            self.starts = [t for t, _ in pairs]
            self.durations = [d for _, d in pairs]
            self.ordered = True

    def burst(self):
        for _ in range(BURST):
            self.sample()

    def arm(self):
        """Probe from a timer signal every PERIOD_S on this (the main) thread.

        The handler stays installed after ``disarm``, so a signal already
        pending when the timer stops still only adds a probe.
        """
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @staticmethod
    def disarm():
        signal.setitimer(signal.ITIMER_REAL, 0)

    def probed_within(self, t0: float, t1: float) -> float:
        """Time spent in probes that started within [t0, t1)."""
        self._order()
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the median probe time around [t0, t1]."""
        self._order()
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_left(self.starts, t1 + MARGIN_S)
        # widen the window until it holds enough probes
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return REFERENCE_PROBE_S / statistics.median(self.durations[lo:hi])

    def at_reference(self, t0: float, t1: float) -> float:
        """The interval's time, less its probes, at reference speed."""
        return (t1 - t0 - self.probed_within(t0, t1)) * self.scale(t0, t1)
