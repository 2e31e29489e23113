"""Host speed measured while the benchmark works, to take host drift out of
its timings.

On a shared machine the same deterministic compile can run 20-40% slower
for minutes at a time, because other tenants load the host.  A SpeedProbe
interrupts the process every INTERVAL_S of its own CPU time (SIGPROF) and
times a fixed reference kernel that mixes small complex eigensolves and
einsums, as in GRAPE, with dict-heavy Python, as in the compiler front end.
Dividing a timing by slowdown() = mean kernel time / REFERENCE_S gives the
seconds the work would take on a host where the kernel takes REFERENCE_S.
clock() is the wall clock minus the time spent in the kernel, so intervals
timed with it leave the sampling out.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2        # CPU seconds between two samples
REFERENCE_S = 1.0e-3    # a round figure near the kernel's time on a 2 GHz x86-64 core

_rng = np.random.default_rng(0)
_a = _rng.normal(size=(16, 8, 8)) + 1j * _rng.normal(size=(16, 8, 8))
_HERMITIAN = _a + np.conj(np.swapaxes(_a, 1, 2))


def reference_kernel() -> None:
    _, q = np.linalg.eigh(_HERMITIAN)
    np.einsum("nab,nbc,ncd->nad", q, _HERMITIAN, q.conj())
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 89] = counts.get(i % 89, 0) + i


class SpeedProbe:
    """Context manager sampling the reference kernel's time while it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0        # seconds spent inside the kernel so far
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def slowdown(self) -> float:
        """Mean kernel time over REFERENCE_S; 1.0 before the first sample."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S
