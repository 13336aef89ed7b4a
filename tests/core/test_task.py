"""Unit tests for repro.core.task."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import MoldableTask, rigid_task, sequential_task
from repro.exceptions import InvalidTaskError


class TestConstruction:
    def test_basic_fields(self):
        t = MoldableTask(3, [4.0, 2.5], weight=2.0, release=1.0)
        assert t.task_id == 3
        assert t.weight == 2.0
        assert t.release == 1.0
        assert t.max_procs == 2

    def test_times_are_immutable(self):
        t = MoldableTask(0, [4.0, 2.5])
        with pytest.raises(ValueError):
            t.times[0] = 1.0

    def test_accepts_list_tuple_array(self):
        for times in ([3.0, 2.0], (3.0, 2.0), np.array([3.0, 2.0])):
            t = MoldableTask(0, times)
            assert t.p(1) == 3.0

    def test_empty_vector_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [])

    def test_2d_vector_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [[1.0, 2.0]])

    def test_nan_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [1.0, float("nan")])

    def test_all_infinite_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [np.inf, np.inf])

    def test_zero_time_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [0.0, 1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [-1.0])

    @pytest.mark.parametrize(
        "times", [[-np.inf], [2.0, -np.inf], [-np.inf, np.inf], [np.inf, -np.inf]]
    )
    def test_negative_infinite_time_rejected(self, times):
        with pytest.raises(InvalidTaskError, match="strictly positive"):
            MoldableTask(0, times)

    @pytest.mark.parametrize("w", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, w):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [1.0], weight=w)

    def test_negative_release_rejected(self):
        with pytest.raises(InvalidTaskError):
            MoldableTask(0, [1.0], release=-0.5)


class TestQueries:
    def test_p_indexing_is_one_based(self):
        t = MoldableTask(0, [10.0, 6.0, 4.0])
        assert t.p(1) == 10.0
        assert t.p(2) == 6.0
        assert t.p(3) == 4.0

    def test_p_beyond_vector_is_inf(self):
        t = MoldableTask(0, [10.0])
        assert t.p(2) == float("inf")

    def test_p_zero_rejected(self):
        t = MoldableTask(0, [10.0])
        with pytest.raises(InvalidTaskError):
            t.p(0)

    def test_work(self):
        t = MoldableTask(0, [10.0, 6.0])
        assert t.work(1) == 10.0
        assert t.work(2) == 12.0

    def test_seq_and_min_time(self):
        t = MoldableTask(0, [10.0, 6.0, 4.0])
        assert t.seq_time == 10.0
        assert t.min_time == 4.0

    def test_min_work_monotonic_task_is_sequential_work(self):
        t = MoldableTask(0, [10.0, 6.0, 4.0])
        assert t.min_work == 10.0

    def test_min_work_rigid(self):
        t = rigid_task(0, procs=3, time=2.0, m=5)
        assert t.min_work == 6.0

    def test_work_vector(self):
        t = MoldableTask(0, [10.0, 6.0])
        assert np.allclose(t.work_vector, [10.0, 12.0])


class TestMonotony:
    def test_monotonic_true(self):
        assert MoldableTask(0, [10.0, 6.0, 4.5]).is_monotonic()

    def test_increasing_time_not_monotonic(self):
        assert not MoldableTask(0, [4.0, 5.0]).is_monotonic()

    def test_decreasing_work_not_monotonic(self):
        # p = [10, 4] -> work [10, 8] decreases.
        assert not MoldableTask(0, [10.0, 4.0]).is_monotonic()

    def test_constant_times_monotonic(self):
        assert MoldableTask(0, [3.0, 3.0, 3.0]).is_monotonic()

    def test_linear_speedup_monotonic(self):
        ks = np.arange(1, 9)
        assert MoldableTask(0, 8.0 / ks).is_monotonic()

    def test_inf_after_finite_not_monotonic(self):
        assert not MoldableTask(0, [3.0, np.inf, 2.0]).is_monotonic()

    def test_monotonized_fixes_times(self):
        t = MoldableTask(0, [4.0, 5.0, 3.0]).monotonized()
        assert t.is_monotonic()
        assert t.p(1) == 4.0
        assert t.p(2) == 4.0  # lowered to running min

    def test_monotonized_fixes_work(self):
        t = MoldableTask(0, [10.0, 2.0]).monotonized()
        assert t.is_monotonic()
        # Work on 2 procs must be >= 10 -> p(2) >= 5.
        assert t.p(2) == pytest.approx(5.0)

    def test_monotonized_idempotent(self):
        t = MoldableTask(0, [7.0, 9.0, 2.0, 2.5]).monotonized()
        t2 = t.monotonized()
        assert np.allclose(t.times, t2.times)

    @given(
        times=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=16)
    )
    @settings(max_examples=100)
    def test_monotonized_always_monotonic(self, times):
        t = MoldableTask(0, times).monotonized()
        assert t.is_monotonic()
        # Never slower than the original on one processor.
        assert t.p(1) == pytest.approx(times[0])


class TestTransforms:
    def test_with_release(self):
        t = MoldableTask(1, [2.0], weight=3.0)
        t2 = t.with_release(5.0)
        assert t2.release == 5.0
        assert t2.task_id == 1 and t2.weight == 3.0
        assert t.release == 0.0  # original untouched

    def test_with_id(self):
        t = MoldableTask(1, [2.0])
        assert t.with_id(9).task_id == 9

    def test_equality_and_hash(self):
        a = MoldableTask(0, [1.0, 0.6], weight=2.0)
        b = MoldableTask(0, [1.0, 0.6], weight=2.0)
        c = MoldableTask(0, [1.0, 0.7], weight=2.0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_equality_other_type(self):
        assert MoldableTask(0, [1.0]) != "task"


class TestFactories:
    def test_sequential_task(self):
        t = sequential_task(0, 5.0, m=4)
        assert t.max_procs == 4
        assert all(t.p(k) == 5.0 for k in range(1, 5))
        assert t.is_monotonic()

    def test_rigid_task(self):
        t = rigid_task(0, procs=2, time=3.0, m=4)
        assert t.p(1) == float("inf")
        assert t.p(2) == 3.0
        assert t.p(3) == float("inf")

    def test_rigid_task_bad_procs(self):
        with pytest.raises(InvalidTaskError):
            rigid_task(0, procs=5, time=1.0, m=4)
        with pytest.raises(InvalidTaskError):
            rigid_task(0, procs=0, time=1.0, m=4)


class TestSpeedupAccessors:
    def test_speedup_linear(self):
        import numpy as np

        t = MoldableTask(0, 8.0 / np.arange(1, 5))
        assert t.speedup(4) == pytest.approx(4.0)
        assert t.efficiency(4) == pytest.approx(1.0)

    def test_speedup_none(self):
        t = MoldableTask(0, [3.0, 3.0, 3.0])
        assert t.speedup(3) == pytest.approx(1.0)
        assert t.efficiency(3) == pytest.approx(1.0 / 3.0)

    def test_rigid_speedup_zero(self):
        t = rigid_task(0, procs=2, time=3.0, m=4)
        assert t.speedup(2) == 0.0  # p(1) infinite
        assert t.speedup(1) == 0.0

    def test_speedup_vector_matches_scalar(self):
        import numpy as np

        t = MoldableTask(0, [9.0, 5.0, 4.0])
        vec = t.speedup_vector
        assert np.allclose(vec, [t.speedup(1), t.speedup(2), t.speedup(3)])

    def test_speedup_vector_immutable(self):
        t = MoldableTask(0, [9.0, 5.0])
        with pytest.raises(ValueError):
            t.speedup_vector[0] = 1.0
