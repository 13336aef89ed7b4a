"""Host-speed correction of the benchmark's timings.

On a shared machine the speed of a vCPU drifts with what other tenants
run on the same cores, by up to about 1.5x, CPU time as much as wall
time.  Ten runs of the same commit then spread 10-34%, even with every
rep timed best-of.

So the benchmark reads a *reference loop* -- fixed interpreter and
memory work, a pure-Python loop and a NumPy sort, that belongs to the
benchmark and not to the program -- before each timed interval and
after it, and scales the interval by ``REFERENCE_S`` over the mean of
the two readings.  A timing is then reported in seconds *at reference
host speed*: what it would have taken had the loop run in
``REFERENCE_S``.  A change to the program moves the interval and not the
loop, so it moves the metric in full; a slow phase of the host moves
both, and mostly cancels.  The raw wall times are kept in the ``--json``
record.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_seconds", "Bracket"]

#: About the median of :func:`reference_seconds` on the baseline host
#: (x86_64, 2 vCPUs, Python 3.11.7); it only fixes the scale of the
#: reported times.
REFERENCE_S = 0.0085

_LOOP = 60_000
_KEYS = np.random.default_rng(0).random(400_000)
_BUF = np.empty_like(_KEYS)  # sorted in place: a reading allocates nothing
#: Repetitions of the loop per reading; the fastest one is the reading,
#: so an interrupt during one repetition does not skew it.
_REPEATS = 3


def reference_seconds() -> float:
    """Seconds the reference loop takes now (best of ``_REPEATS``)."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(_LOOP):
            s += i * i
        np.copyto(_BUF, _KEYS)
        _BUF.sort()
        best = min(best, time.perf_counter() - t0)
    return best


class Bracket:
    """Readings of the reference loop between consecutive intervals."""

    def __init__(self) -> None:
        self.readings = [reference_seconds()]

    def scale(self) -> float:
        """Take a reading; return the factor that converts the interval
        since the previous reading to reference host speed."""
        self.readings.append(reference_seconds())
        return REFERENCE_S / ((self.readings[-2] + self.readings[-1]) / 2)
