"""Event-based free-processor profile — the vectorized scheduling core.

Every placement engine in the library ultimately answers two questions
about a partially built schedule:

1. *Graham question* — at the current event time, which is the first task
   of the priority list that fits in the free processors?  (Asked by
   :func:`repro.algorithms.list_scheduling.list_schedule` and therefore by
   DEMT's list compaction, the List-Graham baselines, WSPT, Sequential and
   the dual-approximation shelf construction.)
2. *Profile question* — what is the earliest instant at which ``k``
   processors stay free for ``d`` time units?  (Asked by DEMT's
   pull-forward compaction and by the FCFS/EASY-backfilling extension.)

The seed implementation answered both by rescanning Python lists of
placements from scratch — ``O(n)`` per query, ``O(n^2)`` per schedule, and
``O(n^2)`` *per compaction pass* in DEMT's shuffle loop.  This module
replaces those rescans with two shared primitives:

* :func:`graham_starts` — the Graham list-scheduling kernel over flat numpy
  arrays of allotments and durations.  It exploits the classical burst
  property (between two completion events the free count only decreases,
  so one forward pass over the pending list is equivalent to the textbook
  restart-from-the-head loop) and scans with vectorised comparisons.  The
  start times it produces are *bit-for-bit identical* to the seed
  implementation, which the differential suite in ``tests/properties/``
  pins down.
* :class:`FreeProfile` — an incrementally maintained usage step function
  (sorted event-time array + per-interval usage counts) answering
  ``earliest_fit`` queries with vectorised violation lookups instead of a
  quadratic candidate × breakpoint rescan.

Both primitives deal in plain numbers, not tasks, so callers stay free to
map items to tasks, merged stacks, or rigid jobs however they like.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, obs
from repro.exceptions import SchedulingError

__all__ = ["FreeProfile", "graham_starts"]


def graham_starts(
    allotments: np.ndarray,
    durations: np.ndarray,
    m: int,
    *,
    start_time: float = 0.0,
    cutoff: float | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Graham list scheduling over parallel arrays; returns start times.

    Parameters
    ----------
    allotments, durations:
        Per-item processor counts and processing times, in priority order
        (earlier items are preferred whenever several fit).
    m:
        Machine size; every allotment must be ``<= m`` (the caller checks —
        the kernel would deadlock and raise otherwise).
    start_time:
        Time before which nothing may start.
    cutoff:
        Optional early-exit bound: as soon as the event clock passes
        ``cutoff`` the kernel returns ``None`` (the final makespan is then
        certainly ``> cutoff``).  Used by DEMT's shuffle loop to discard
        candidate orders that cannot beat the incumbent makespan.

    Returns
    -------
    ``(starts, order)`` where ``starts[i]`` is item ``i``'s start time and
    ``order`` (an int64 array) lists item indices in chronological
    placement order (ties in priority order) — the insertion order the seed implementation produced,
    which callers preserve so downstream float summations stay identical.

    The event loop itself lives in :mod:`repro.kernels` (pure-NumPy
    reference, optional compiled cffi backend, bit-identical).
    """
    n = len(allotments)
    if n == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    state = obs.ACTIVE
    if state is not None:
        state.count("profile.graham_starts")
    return kernels.graham_starts_core(allotments, durations, m, float(start_time), cutoff)


class FreeProfile:
    """Incremental processor-usage step function over ``[0, +inf)``.

    The profile is stored as a sorted breakpoint array ``times`` (always
    starting at 0) and a usage array where ``usage[i]`` holds on
    ``[times[i], times[i+1])`` — the last interval extends to infinity.
    All reservations are finite, so the trailing usage is always 0 and an
    ``earliest_fit`` query always has an answer.

    Intervals are half-open: a reservation ending at ``t`` frees its
    processors for one starting at ``t`` — the same convention as
    :mod:`repro.core.validation`.

    Storage is amortised: the breakpoint and usage arrays are
    over-allocated (capacity doubling) and grown in place with tail
    shifts, so ``B`` reservations cost ``O(B)`` amortised appends plus the
    shifts instead of the two fresh ``np.insert`` copies per reservation
    the seed paid (``O(B^2)`` profile growth).  Reservation *starts* must
    be ``>= 0``: the profile's domain begins at 0, and a negative start
    used to read the trailing interval's usage through Python's negative
    indexing — now it is rejected explicitly.
    """

    __slots__ = ("m", "_times", "_usage", "_size")

    _INITIAL_CAPACITY = 16

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"profile needs m >= 1 processors, got {m}")
        self.m = int(m)
        self._times = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._usage = np.zeros(self._INITIAL_CAPACITY, dtype=np.int64)
        self._size = 1  # live prefix length of both buffers

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    def usage_at(self, t: float) -> int:
        """Processors in use at instant ``t`` (half-open intervals)."""
        if t < 0:
            return 0
        i = int(np.searchsorted(self._times[: self._size], t, side="right")) - 1
        return int(self._usage[i])

    def earliest_fit(
        self, allotment: int, duration: float, *, not_before: float = 0.0
    ) -> float:
        """Earliest ``t0 >= not_before`` with ``allotment`` processors free
        over the whole window ``[t0, t0 + duration)``.

        The earliest feasible start is either ``not_before`` itself or a
        breakpoint where usage drops, so scanning breakpoint candidates is
        exact — and matches the seed's completion-time candidate scan.
        """
        if allotment > self.m:
            raise SchedulingError(
                f"allotment {allotment} exceeds machine size m={self.m}"
            )
        times, usage = self._times[: self._size], self._usage[: self._size]
        i0 = int(np.searchsorted(times, not_before, side="right")) - 1
        if i0 < 0:  # not_before precedes time 0
            i0 = 0
        ok = usage[i0:] + allotment <= self.m
        cand = np.nonzero(ok)[0]
        if cand.size == 0:  # pragma: no cover - trailing usage is always 0
            raise SchedulingError("free profile has no feasible interval")
        viol = np.nonzero(~ok)[0]
        t_cand = np.maximum(times[cand + i0], not_before)
        # First violating interval at/after each candidate; feasible iff it
        # opens no earlier than the window's end (half-open window).
        pos = np.searchsorted(viol, cand)
        feasible = pos == viol.size
        clipped = np.minimum(pos, max(viol.size - 1, 0))
        if viol.size:
            feasible |= times[viol[clipped] + i0] >= t_cand + duration
        first = int(np.argmax(feasible))
        if not feasible[first]:  # pragma: no cover - last interval is free
            raise SchedulingError("free profile has no feasible window")
        return float(t_cand[first])

    # ------------------------------------------------------------------ #
    # Updates                                                            #
    # ------------------------------------------------------------------ #
    def _insert_breakpoint(self, i: int, t: float) -> None:
        """Open a breakpoint at position ``i`` (amortised in-place shift)."""
        size = self._size
        if size == self._times.size:  # grow: capacity doubling
            self._times = np.concatenate([self._times, np.empty_like(self._times)])
            self._usage = np.concatenate([self._usage, np.empty_like(self._usage)])
        times, usage = self._times, self._usage
        times[i + 1 : size + 1] = times[i:size]
        usage[i + 1 : size + 1] = usage[i:size]
        times[i] = t
        usage[i] = usage[i - 1] if i > 0 else 0
        self._size = size + 1

    def reserve(self, start: float, duration: float, allotment: int) -> None:
        """Occupy ``allotment`` processors over ``[start, start + duration)``.

        Incremental insertion: two ``searchsorted`` + at most two breakpoint
        insertions into the over-allocated buffers, then a range add.  The
        caller is responsible for having checked capacity (normally via
        :meth:`earliest_fit`).  ``start`` must be ``>= 0`` — the profile's
        domain starts at 0 (a negative start has no interval to inherit
        usage from; the seed silently read the *trailing* interval there).
        """
        if duration <= 0:
            return
        if start < 0:
            raise SchedulingError(f"reservation start must be >= 0, got {start}")
        end = start + duration
        live = self._times[: self._size]
        i = int(np.searchsorted(live, start))
        if i == live.size or live[i] != start:
            # times[0] == 0.0 <= start, so i >= 1 and usage[i-1] is the
            # genuine preceding interval (never a wrapped trailing read).
            self._insert_breakpoint(i, start)
        live = self._times[: self._size]
        j = int(np.searchsorted(live, end))
        if j == live.size or live[j] != end:
            self._insert_breakpoint(j, end)
        self._usage[i:j] += allotment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = self._size
        peak = int(self._usage[:size].max()) if size else 0
        return f"FreeProfile(m={self.m}, breakpoints={size}, peak={peak})"
