"""Host-speed reference for the benchmark's times.

The benchmark runs on shared machines whose speed drifts by tens of percent
over tens of seconds, in CPU time as well as in wall time, because other
tenants load the same cores, caches and memory.  A wall time taken alone then
measures the neighbours as much as the program.

While operations are timed, a ``SpeedSampler`` interrupts the process every
``PERIOD_S`` seconds (``SIGALRM``) and runs a fixed *reference quantum* twice:
a batched 2x2 eigen-decomposition plus a short interpreter loop, the same mix
of small-array numpy and Python overhead the program runs.  The first run
refills the caches and is not timed, so the quantum's time does not depend on
what the program left in them; the second is timed.  An operation's *scaled*
time is its wall time, less the time spent in the handler, times
``NOMINAL_QUANTUM_S`` over the typical quantum measured around it (``typical``):
the time the operation would take on a host where the quantum takes
``NOMINAL_QUANTUM_S``.  A change to the program moves its wall time but not
the quantum, so it moves the scaled time by the same factor.

Only the calling process is touched: an interval timer and a signal handler of
its own.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# About the quantum's time on a quiet 2-vCPU x86-64 host (Python 3.11, numpy
# 2.4, OpenBLAS 0.3, one BLAS thread), so that scaled times read like wall
# times there.  It fixes the scale of every reported time and stays fixed.
NOMINAL_QUANTUM_S = 2.0e-3
# At least this many quanta around an operation set its scale; a short
# operation borrows the nearest ones before and after it.
MIN_QUANTA = 9

_MATS = np.random.default_rng(12345).standard_normal((2048, 2, 2))


def quantum() -> float:
    """The reference work: fixed, independent of the program under test."""
    total = 0.0
    for _ in range(2):
        m = _MATS @ _MATS.transpose(0, 2, 1)
        total += float(np.linalg.eigvalsh(m).sum())
    for i in range(3000):
        total += i * 0.5
    return total


class SpeedSampler:
    """Times one reference quantum every ``period`` seconds while started."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []  # handler entry
        self.timed: list[float] = []  # start of the timed quantum
        self.ends: list[float] = []  # handler exit
        self._old = None

    def _sample(self):
        t0 = time.perf_counter()
        quantum()  # untimed: refills the caches the program has just used
        t1 = time.perf_counter()
        quantum()
        self.starts.append(t0)
        self.timed.append(t1)
        self.ends.append(time.perf_counter())

    def _handler(self, signum, frame):
        self._sample()

    def burst(self, seconds: float):
        """Sample back to back for ``seconds``: dense quanta next to a short timed span."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def start(self):
        for _ in range(20):  # warm the quantum's code paths before the first sample
            quantum()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        while len(self.starts) < MIN_QUANTA:  # a run shorter than MIN_QUANTA periods
            self._sample()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def interrupted(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent inside quanta."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def local_quantum(self, t0: float, t1: float) -> float:
        """Typical quantum over [t0, t1], widened to the nearest ``MIN_QUANTA``."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < min(MIN_QUANTA, n):
            # widen toward the nearer side that still has samples
            if lo > 0 and (hi >= n or t0 - self.starts[lo - 1] <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return typical([e - s for s, e in zip(self.timed[lo:hi], self.ends[lo:hi])])

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds less the quanta, the same scaled to the nominal quantum)."""
        own = (t1 - t0) - self.interrupted(t0, t1)
        return own, own * NOMINAL_QUANTUM_S / self.local_quantum(t0, t1)


def typical(times: list[float]) -> float:
    """Mean of the quanta, leaving out those that took over twice the median.

    The host switches between a fast and a slow state every tenth of a second
    or so, and a program's time integrates over both, so the mean, not the
    median, gives its speed; a quantum descheduled part-way is left out.
    """
    cap = 2.0 * statistics.median(times)
    return statistics.mean(t for t in times if t <= cap)

