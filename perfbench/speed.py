"""Speed-normalised timing for a machine whose speed swings.

On a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz) whose physical cores other
tenants share, the same single-threaded code runs at speeds up to 3x apart
that switch every few seconds, and the hypervisor takes the vCPU away for
5-20% of wall time (steal). Wall times of one study then spread by 20-45%
between runs.

Two effects are separated. Time the thread does not run (steal, or another
process on its vCPU) is left out by measuring on the thread's CPU-time clock
(`now`). The speed while it runs is measured by `SpeedClock`, which runs two
fixed calibration kernels every PERIOD seconds of wall time from a SIGALRM
handler: small numpy operations driven from Python, and the same on
2048-element arrays. Their mean slowness (kernel CPU time over its nominal
time) divides each slice of CPU time between two calibrations, so a timed
region reads as the seconds it would take at nominal speed (the uncontended
speed of that machine) with the CPU to itself. Calibration time is left out.
Raw wall times are kept beside the normalised ones.

A wait that is not the machine's, such as blocking I/O, is left out too; the
benchmarked library does none in its timed calls except writing small files.
"""
from __future__ import annotations

import signal
from time import thread_time as now

import numpy as np

PERIOD = 0.01
# kernel seconds on that machine when uncontended
NOMINAL_SMALL, NOMINAL_LARGE = 3.3e-4, 1.2e-4
_SMALL = np.linspace(-1.0, 1.0, 96)
_LARGE = np.linspace(-1.0, 1.0, 2048)


def kernel(x, reps: int) -> float:
    """Elementwise numpy work and a reduction, as in the library's inner loops."""
    acc = 0.0
    for _ in range(reps):
        y = np.sqrt(x * x + 1.0) * np.exp(-x)
        acc += float(np.sum(np.where(y > 1.1, y, 0.0)))
    return acc


class SpeedClock:
    """Calibration samples (start, end on the `now` clock) taken every PERIOD
    of wall time while running.

    Normalised time is the integral of a piecewise-constant rate: between
    calibrations i and i+1 the rate is the mean of 1 / slowness of the two;
    before the first and after the last it is that sample's.
    Calibrations themselves contribute nothing. Being an integral, it adds up
    over adjacent intervals, so span self times stay consistent.
    """

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.slowness: list = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a timer tick while calibrating: skip it
            return
        self._busy = True
        t0 = now()
        kernel(_SMALL, 40)
        t1 = now()
        kernel(_LARGE, 8)
        t2 = now()
        self.slowness.append(0.5 * ((t1 - t0) / NOMINAL_SMALL + (t2 - t1) / NOMINAL_LARGE))
        self.starts.append(t0)
        self.ends.append(t2)
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._sample(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def cumulative(self, t):
        """Normalised seconds from the first calibration to CPU time(s) t
        (before it, negative, scaled by the first calibration)."""
        n = len(self.ends)
        S, E = np.array(self.starts[:n]), np.array(self.ends[:n])
        r = 1.0 / np.array(self.slowness[:n])
        rate = np.append(0.5 * (r[:-1] + r[1:]), r[-1])  # slice after calibration k
        G = np.concatenate([[0.0], np.cumsum(rate[:-1] * (S[1:] - E[:-1]))])
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(S, t, side="right") - 1
        kc = np.clip(k, 0, n - 1)
        after = G[kc] + np.maximum(t - E[kc], 0.0) * rate[kc]
        return np.where(k < 0, (t - S[0]) * r[0], after)

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds at nominal speed spent in [t0, t1] of `now`, calibrations
        excluded."""
        f0, f1 = self.cumulative([t0, t1])
        return float(f1 - f0)
