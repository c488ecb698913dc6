"""Host-speed calibration of the untraced run's times.

On a shared virtual machine the speed of the host drifts: on a 2-vCPU
2.1 GHz Xeon VM a fixed numpy loop flipped between a fast and a 1.6x
slower state, for stretches from under a second to minutes, on each
vCPU independently.  A run of 30 s catches a random mix of those
stretches, so raw wall times of the same code spread by 10-40% from run
to run, and jobs of several seconds cannot be calibrated by samples
taken between jobs.

The benchmark therefore samples the host's speed while the program
runs: a SIGALRM handler, every INTERVAL_S of wall time, times one sweep
of a fixed kernel of the benchmark's own in the benchmark's thread.  The
kernel is a batched RK4 sweep with the shape of spectral3's (small
complex arrays, one Python step per grid cell, no BLAS), written here,
so no change to the program can move it.  Time spent in the handler is
taken out of the job's time, and the rest is converted to reference
seconds: each sampled interval counts as its wall time divided by the
speed factor (the kernel's time over REFERENCE_S).  A change that makes
the program slower or faster moves reference times by the same share as
wall times; the raw wall times are printed in the report beside them.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

# Time of one kernel sweep on the 2.1 GHz Xeon VM in its fast state, so
# that reference seconds read close to wall seconds there.
REFERENCE_S = 1.5e-3
INTERVAL_S = 0.05
STEPS = 32
# A stretch with fewer samples than this (set-up that takes a few
# milliseconds) is rated by this many fresh samples taken right after it.
MIN_SAMPLES = 5
LAMBDAS = 4


class Kernel:
    """The calibration sweep and its inputs, made once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = STEPS + 1
        self.p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.clam = (rng.standard_normal(LAMBDAS)
                     + 1j * rng.standard_normal(LAMBDAS)).reshape(-1, 1)
        self.v0 = np.broadcast_to(np.eye(3, dtype=complex),
                                  (LAMBDAS, 3, 3)).copy()

    def _rhs(self, p, q, v):
        dv = np.empty_like(v)
        dv[:, 0] = v[:, 1]
        dv[:, 1] = p * v[:, 0] + v[:, 2]
        dv[:, 2] = self.clam * v[:, 0] + q * v[:, 1]
        return dv

    def sweep(self) -> np.ndarray:
        h = 1.0 / STEPS
        p, q, v = self.p, self.q, self.v0
        for m in range(STEPS):
            pa, qa = p[m], q[m]
            pm, qm = 0.5 * (p[m] + p[m + 1]), 0.5 * (q[m] + q[m + 1])
            k1 = self._rhs(pa, qa, v)
            k2 = self._rhs(pm, qm, v + (h / 2) * k1)
            k3 = self._rhs(pm, qm, v + (h / 2) * k2)
            k4 = self._rhs(p[m + 1], q[m + 1], v + h * k3)
            v = v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return v

    def factor(self) -> float:
        """Speed factor now: one sweep's time over REFERENCE_S (above 1
        when the host runs slower than the reference).  The collector is
        held off so that the program's heap does not enter the time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.sweep()
            return (perf_counter() - t0) / REFERENCE_S
        finally:
            if enabled:
                gc.enable()


class Sampler:
    """Speed samples taken every INTERVAL_S while active (a context
    manager).  `mark()` before and after a stretch of work and
    `reference(wall, m0, m1)` converts its wall time."""

    def __init__(self):
        self.kernel = Kernel()
        self.inverse: list = []                       # 1/factor per sample
        self.spent = 0.0                              # seconds in handler
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.inverse.append(1.0 / self.kernel.factor())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        return len(self.inverse), self.spent

    def reference(self, wall: float, m0, m1):
        """(reference seconds, speed factor) of a stretch that took `wall`
        seconds between marks m0 and m1: the handler's time is taken out
        and the rest multiplied by the mean of 1/factor over the samples
        in the stretch, or over MIN_SAMPLES taken now if it had fewer."""
        (n0, spent0), (n1, spent1) = m0, m1
        inv = self.inverse[n0:n1]
        if len(inv) < MIN_SAMPLES:
            inv = [1.0 / self.kernel.factor() for _ in range(MIN_SAMPLES)]
        mean_inv = sum(inv) / len(inv)
        return (wall - (spent1 - spent0)) * mean_inv, 1.0 / mean_inv
