"""Unit tests for the vectorized scheduling core (FreeProfile + kernel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profile import FreeProfile, graham_starts
from repro.exceptions import SchedulingError


class TestGrahamStarts:
    def test_empty(self):
        starts, order = graham_starts(np.array([], dtype=np.int64), np.array([]), 4)
        assert starts.size == 0 and order.tolist() == []

    def test_sequentialises_on_one_processor(self):
        starts, order = graham_starts([1, 1, 1], [2.0, 3.0, 1.0], 1)
        assert starts.tolist() == [0.0, 2.0, 5.0]
        assert order.tolist() == [0, 1, 2]

    def test_parallel_fill(self):
        # Two fit side by side; the third waits for the earliest completion.
        starts, _ = graham_starts([2, 2, 2], [4.0, 2.0, 3.0], 4)
        assert starts.tolist() == [0.0, 0.0, 2.0]

    def test_overtaking_preserves_priority_scan(self):
        # Item 1 (width 3) stalls behind item 0; item 2 (width 1) fits now
        # and legitimately overtakes — exactly Graham's rule.
        starts, order = graham_starts([2, 3, 1], [4.0, 2.0, 1.0], 3)
        assert starts[0] == 0.0
        assert starts[2] == 0.0
        assert starts[1] == 4.0
        assert order.tolist() == [0, 2, 1]

    def test_start_time_offset(self):
        starts, _ = graham_starts([1], [1.0], 2, start_time=5.5)
        assert starts[0] == 5.5

    def test_cutoff_aborts(self):
        assert graham_starts([1, 1], [10.0, 10.0], 1, cutoff=5.0) is None

    def test_cutoff_survives_when_under(self):
        result = graham_starts([1, 1], [1.0, 1.0], 2, cutoff=5.0)
        assert result is not None

    def test_simultaneous_completions_free_together(self):
        # Both finish at t=2; the wide item needs all processors at once.
        starts, _ = graham_starts([1, 1, 2], [2.0, 2.0, 1.0], 2)
        assert starts.tolist() == [0.0, 0.0, 2.0]


class TestFreeProfile:
    def test_empty_machine_starts_at_zero(self):
        prof = FreeProfile(4)
        assert prof.earliest_fit(4, 10.0) == 0.0
        assert prof.usage_at(0.0) == 0

    def test_rejects_oversized_allotment(self):
        with pytest.raises(SchedulingError):
            FreeProfile(2).earliest_fit(3, 1.0)

    def test_reserve_and_query(self):
        prof = FreeProfile(3)
        prof.reserve(0.0, 5.0, 2)
        assert prof.usage_at(2.5) == 2
        assert prof.usage_at(5.0) == 0  # half-open interval
        assert prof.earliest_fit(1, 1.0) == 0.0  # one processor still free
        assert prof.earliest_fit(2, 1.0) == 5.0

    def test_window_must_stay_free_throughout(self):
        prof = FreeProfile(2)
        prof.reserve(3.0, 1.0, 2)  # blocks [3, 4)
        # A 2-wide task of duration 4 cannot start at 0 (hits the block);
        # earliest is after the block.
        assert prof.earliest_fit(2, 4.0) == 4.0
        # Duration 3 fits exactly in [0, 3) before the block (half-open).
        assert prof.earliest_fit(2, 3.0) == 0.0

    def test_not_before(self):
        prof = FreeProfile(2)
        prof.reserve(0.0, 2.0, 1)
        assert prof.earliest_fit(1, 1.0, not_before=0.5) == 0.5
        assert prof.earliest_fit(2, 1.0, not_before=0.5) == 2.0

    def test_gap_filling(self):
        prof = FreeProfile(2)
        prof.reserve(0.0, 1.0, 2)
        prof.reserve(3.0, 1.0, 2)
        assert prof.earliest_fit(2, 2.0) == 1.0  # the [1, 3) hole
        assert prof.earliest_fit(2, 2.5) == 4.0  # too long for the hole

    def test_incremental_matches_rebuild(self):
        """Random reservations: earliest_fit equals a brute-force rescan."""
        rng = np.random.default_rng(7)
        m = 5
        prof = FreeProfile(m)
        placed: list[tuple[float, float, int]] = []
        for _ in range(60):
            a = int(rng.integers(1, m + 1))
            d = float(rng.uniform(0.1, 3.0))
            start = prof.earliest_fit(a, d)
            brute = _brute_earliest_fit(placed, a, d, m)
            assert start == brute, (placed, a, d)
            prof.reserve(start, d, a)
            placed.append((start, start + d, a))

    def test_zero_duration_reserve_is_noop(self):
        prof = FreeProfile(2)
        prof.reserve(1.0, 0.0, 2)
        assert prof.earliest_fit(2, 1.0) == 0.0


def _brute_earliest_fit(placed, allotment, duration, m):
    """The seed's quadratic candidate scan (oracle)."""
    candidates = sorted({0.0, *(e for _, e, _ in placed)})
    for t0 in candidates:
        t1 = t0 + duration
        points = [t0, *(s for s, _, _ in placed if t0 < s < t1)]
        if all(
            sum(a for s, e, a in placed if s <= p < e) + allotment <= m
            for p in points
        ):
            return t0
    return max((e for _, e, _ in placed), default=0.0)


class TestFreeProfileAmortisedGrowth:
    """PR-6 regressions: reserve() used to rebuild both breakpoint arrays
    with np.insert per call (O(n^2) growth) and wrapped a negative start
    straight into ``usage[-1]`` via the searchsorted index."""

    def test_negative_start_rejected(self):
        prof = FreeProfile(4)
        with pytest.raises(SchedulingError, match="must be >= 0"):
            prof.reserve(-1.0, 2.0, 1)

    def test_negative_start_zero_duration_still_noop(self):
        # duration <= 0 was (and stays) a silent no-op, even before the
        # start sign is inspected.
        prof = FreeProfile(4)
        prof.reserve(-5.0, 0.0, 1)
        assert prof.usage_at(0.0) == 0

    def test_capacity_doubles_not_per_insert(self):
        prof = FreeProfile(8)
        for i in range(500):
            prof.reserve(float(2 * i), 1.0, 1)
        # live breakpoints: one per reservation edge (the first start
        # coincides with the origin breakpoint)
        assert prof._size == 1000
        capacity = prof._times.size
        assert capacity >= prof._size
        # geometric doubling: capacity is 16 * 2^k and within 2x of the need
        assert capacity & (capacity - 1) == 0
        assert capacity < 2 * prof._size + 16

    def test_growth_preserves_profile_semantics(self):
        rng = np.random.default_rng(42)
        prof = FreeProfile(6)
        placed: list[tuple[float, float, int]] = []
        for _ in range(200):
            start = float(rng.integers(0, 50)) * 0.5
            duration = float(rng.integers(1, 8)) * 0.25
            allot = int(rng.integers(1, 4))
            prof.reserve(start, duration, allot)
            placed.append((start, start + duration, allot))
        for probe in np.arange(0.0, 30.0, 0.25):
            expected = sum(a for s, e, a in placed if s <= probe < e)
            assert prof.usage_at(float(probe)) == expected

    def test_earliest_fit_ignores_spare_capacity(self):
        prof = FreeProfile(2)
        for i in range(40):  # force several doublings
            prof.reserve(float(i), 1.0, 2)
        assert prof.earliest_fit(1, 1.0) == 40.0
