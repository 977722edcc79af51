"""The machine's own speed, sampled while the benchmark runs.

On a shared virtual machine the same pure-Python loop can take anywhere from 1x
to 2x its best time, in phases that last from seconds to minutes and
that slow every process alike.  A timed phase measured during a slow
phase says more about the neighbours than about the program.  So a timer
signal interrupts the measuring process every ``INTERVAL_S`` seconds and
times a fixed loop of ``LOOP`` integer multiply-adds.  Each timed span is
then scaled by ``QUIET_LOOP_S`` over the loop time around it, so it reads
as seconds at the speed where that loop takes ``QUIET_LOOP_S``, about
the 2-core development machine's speed when it is quiet.  Time spent in the sampler is
subtracted from the spans it interrupts.

The loop allocates nothing, so its time does not depend on the state of
the process's heap; a dict-and-tuple loop tracked the program more
closely but varied by up to 2x between processes.  The program slows
somewhat more than this loop in slow phases (its time grew as about the
1.3th power of the loop's), so the scaling removes most, not all, of a
slow phase.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 20_000
QUIET_LOOP_S = 0.001
INTERVAL_S = 0.05
WINDOW_S = 0.5  # samples this far either side of a span also count


class SpeedProbe:
    def __init__(self):
        self.ends = []  # monotonic time each sample ended
        self.loops = []  # seconds each sample's loop took
        self.spent = 0.0  # seconds spent sampling so far

    def _sample(self, _signum, _frame):
        t0 = time.monotonic()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        t1 = time.monotonic()
        self.ends.append(t1)
        self.loops.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, t0: float, t1: float) -> float:
        """Mean of QUIET_LOOP_S / loop time over the samples in [t0, t1],
        widened by WINDOW_S when the span holds fewer than 10 samples.

        Samples are evenly spaced in time, so the mean is the time-weighted
        speed over the span; a sample slowed by a one-off interruption
        weighs little in it.
        """
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if hi - lo < 10:
            lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        return statistics.fmean(QUIET_LOOP_S / x for x in self.loops[lo:hi])
