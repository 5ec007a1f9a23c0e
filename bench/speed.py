"""Machine-speed probe: normalises wall times for a shared, noisy host.

On a small shared VM the speed of the same code drifts by tens of percent
within seconds, so raw wall times of two runs are hard to compare. The
probe runs a fixed kernel (small numpy array operations and Python calls,
the instruction mix of the package's quadrature) from a SIGALRM handler
every ``INTERVAL`` seconds: a short untimed pass that brings its code and
data back into the caches the workload has just been using, then a timed
pass of about a millisecond. The handler runs in
the main thread between bytecodes, so it samples the speed the workload
sees at that moment; this is why every workload runs in the benchmark's
own process. An operation's normalised time is its wall time, less the
time the probe took from it, scaled by the mean speed the probe saw
while it ran:

    normalised = (wall - probe time) * mean(NOMINAL_KERNEL_S / kernel s)

The kernel lives in this file and does not import the package, so no
change to the package can change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05
# kernel CPU time of a typical sample on the 2-CPU box the baseline was
# measured on; it only sets the scale of normalised times
NOMINAL_KERNEL_S = 1.0e-3
# an operation shorter than this borrows samples from around it
WINDOW_S = 0.25
KERNEL_ROUNDS = 100
# untimed warm-up pass before each timed one, so that the reading depends
# on the host's speed and not on what the interrupted code left in the
# caches
WARM_ROUNDS = 25

_X = np.linspace(0.0, 1.0, 64)


def kernel(rounds: int = KERNEL_ROUNDS) -> float:
    s = 0.0
    for i in range(rounds):
        s += float(np.sum(np.exp(-_X * _X) * np.cos(3.0 + 0.01 * i * _X)))
    return s


class SpeedProbe:
    """Samples the kernel from a timer while it is active."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.mids: list[float] = []    # sample midpoints, in time order
        self.costs: list[float] = []   # kernel CPU time of each sample
        self.walls: list[float] = []   # wall time each sample took
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel(WARM_ROUNDS)
        c0 = time.thread_time()
        kernel()
        cost = time.thread_time() - c0
        t1 = time.perf_counter()
        # CPU time, so that a sample preempted by another process still
        # measures the machine's speed rather than the scheduler's choice
        self.mids.append(0.5 * (t0 + t1))
        self.costs.append(cost)
        self.walls.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.mids, t0),
                     bisect.bisect_right(self.mids, t1))

    def normalise(self, t0: float, t1: float) -> float:
        """Normalised duration of an operation that ran from t0 to t1 in
        this process.

        The probe's own time inside the interval is taken off first. The
        speed is the mean of NOMINAL_KERNEL_S / kernel time over the
        samples in the interval, widened to at least WINDOW_S on each side
        when the interval is short; a mean over evenly spaced samples is
        the time average of the speed, which is what scales the work done."""
        busy = t1 - t0 - sum(self.walls[self._span(t0, t1)])
        pad = max(0.0, WINDOW_S - 0.5 * (t1 - t0))
        costs = self.costs[self._span(t0 - pad, t1 + pad)] or self.costs
        return busy * statistics.fmean(NOMINAL_KERNEL_S / c for c in costs)
