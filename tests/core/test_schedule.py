"""Unit tests for repro.core.schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Schedule, ScheduledTask
from repro.core.task import MoldableTask
from repro.exceptions import InvalidScheduleError

from tests.conftest import make_task


def two_task_schedule() -> Schedule:
    s = Schedule(m=4)
    s.add(make_task(0, 8.0, m=4), start=0.0, allotment=2)  # ends at 4
    s.add(make_task(1, 6.0, m=4, weight=2.0), start=4.0, allotment=3)  # ends at 6
    return s


class TestScheduledTask:
    def test_derived_fields(self):
        t = MoldableTask(0, [8.0, 5.0])
        p = ScheduledTask(t, start=2.0, allotment=2)
        assert p.duration == 5.0
        assert p.end == 7.0
        assert p.work == 10.0


class TestConstruction:
    def test_add_and_len(self):
        s = two_task_schedule()
        assert len(s) == 2
        assert 0 in s and 1 in s and 2 not in s

    def test_getitem(self):
        s = two_task_schedule()
        assert s[0].allotment == 2
        with pytest.raises(KeyError):
            s[42]

    def test_duplicate_rejected(self):
        s = two_task_schedule()
        with pytest.raises(InvalidScheduleError, match="twice"):
            s.add(make_task(0, 1.0, m=4), 0.0, 1)

    def test_allotment_out_of_range_rejected(self):
        s = Schedule(m=2)
        with pytest.raises(InvalidScheduleError):
            s.add(make_task(0, 1.0, m=2), 0.0, 3)
        with pytest.raises(InvalidScheduleError):
            s.add(make_task(0, 1.0, m=2), 0.0, 0)

    def test_forbidden_allotment_rejected(self):
        t = MoldableTask(0, [np.inf, 2.0])
        s = Schedule(m=2)
        with pytest.raises(InvalidScheduleError, match="forbidden"):
            s.add(t, 0.0, 1)

    def test_negative_start_rejected(self):
        s = Schedule(m=2)
        with pytest.raises(InvalidScheduleError):
            s.add(make_task(0, 1.0, m=2), -0.1, 1)

    def test_zero_processor_machine_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(m=0)

    def test_init_with_placements(self):
        t = make_task(0, 4.0, m=2)
        s = Schedule(2, [ScheduledTask(t, 0.0, 1)])
        assert len(s) == 1

    def test_extend(self):
        t0 = make_task(0, 4.0, m=2)
        t1 = make_task(1, 4.0, m=2)
        s = Schedule(2)
        s.extend([ScheduledTask(t0, 0.0, 1), ScheduledTask(t1, 0.0, 1)])
        assert len(s) == 2


class TestCriteria:
    def test_makespan(self):
        assert two_task_schedule().makespan() == pytest.approx(6.0)

    def test_empty_makespan(self):
        assert Schedule(m=2).makespan() == 0.0

    def test_weighted_completion_sum(self):
        # C0 = 4 (w=1), C1 = 6 (w=2) -> 4 + 12 = 16.
        assert two_task_schedule().weighted_completion_sum() == pytest.approx(16.0)

    def test_completion_times(self):
        ct = two_task_schedule().completion_times()
        assert ct[0] == pytest.approx(4.0)
        assert ct[1] == pytest.approx(6.0)


class TestUsage:
    def test_max_usage_sequentialised(self):
        assert two_task_schedule().max_usage() == 3

    def test_max_usage_overlap(self):
        s = Schedule(m=4)
        s.add(make_task(0, 8.0, m=4), 0.0, 2)
        s.add(make_task(1, 8.0, m=4), 1.0, 2)
        assert s.max_usage() == 4

    def test_empty_usage(self):
        assert Schedule(m=2).max_usage() == 0

    def test_usage_profile_steps(self):
        s = Schedule(m=4)
        s.add(make_task(0, 4.0, m=4), 0.0, 1)  # [0, 4) uses 1
        s.add(make_task(1, 4.0, m=4), 2.0, 2)  # [2, 4) adds 2 -> wait: 4/2=2, ends at 4
        profile = s.usage_profile()
        # Timeline 0, 2, 4: usage after events at 0 is 1, after 2 is 3, after 4 is 0.
        assert list(profile) == [1, 3, 0]


class TestProcessorAssignment:
    def test_assignment_valid(self):
        s = Schedule(m=4)
        s.add(make_task(0, 8.0, m=4), 0.0, 2)
        s.add(make_task(1, 8.0, m=4), 1.0, 2)
        asg = s.assign_processors()
        assert sorted(asg[0] + asg[1]) == [0, 1, 2, 3]

    def test_assignment_reuses_freed_processors(self):
        s = Schedule(m=2)
        s.add(make_task(0, 2.0, m=2), 0.0, 2)  # ends at 1
        s.add(make_task(1, 2.0, m=2), 1.0, 2)
        asg = s.assign_processors()
        assert set(asg[0]) == set(asg[1]) == {0, 1}

    def test_oversubscription_detected(self):
        s = Schedule(m=2)
        s.add(make_task(0, 4.0, m=2), 0.0, 2)
        s.add(make_task(1, 4.0, m=2), 1.0, 1)  # overlaps: 3 > 2
        with pytest.raises(InvalidScheduleError, match="over-subscribes"):
            s.assign_processors()

    def test_assignment_counts_match_allotments(self):
        s = two_task_schedule()
        asg = s.assign_processors()
        assert len(asg[0]) == 2 and len(asg[1]) == 3


class TestBulkAppend:
    """``add_rows`` (the bulk form every producer uses) rejects each input
    class ``add`` rejects, with the same exception type, and places
    nothing when it does."""

    @staticmethod
    def _instance(m: int = 4):
        from repro.core.instance import Instance

        tasks = [MoldableTask(i, [4.0, 2.0, 1.5, np.inf], weight=1.0 + i) for i in range(3)]
        return Instance(tasks, m)

    def _both_reject(self, inst, schedule_rows, schedule_add, rows, starts, allots):
        """``add_rows`` and ``add`` over the same placements raise the same type."""
        durations = [float(inst.times_matrix[r, k - 1]) if 1 <= k <= inst.m else 1.0
                     for r, k in zip(rows, allots)]
        with pytest.raises(InvalidScheduleError) as bulk:
            schedule_rows.add_rows(inst, rows, starts, allots, durations)
        with pytest.raises(InvalidScheduleError) as single:
            for r, s, k in zip(rows, starts, allots):
                schedule_add.add(inst.tasks[r], s, k)
        assert type(bulk.value) is type(single.value)

    @pytest.mark.parametrize(
        "rows,starts,allots",
        [
            ([0, 0], [0.0, 1.0], [1, 1]),  # duplicate within one append
            ([0, 1], [0.0, 0.0], [0, 1]),  # allotment 0
            ([0, 1], [0.0, 0.0], [1, 5]),  # allotment m + 1
            ([0, 1], [0.0, 0.0], [1, 4]),  # p(4) = +inf
            ([0, 1], [0.0, -0.5], [1, 2]),  # negative start
        ],
        ids=["duplicate", "allotment-0", "allotment-m+1", "inf-duration", "negative-start"],
    )
    def test_rejects_what_add_rejects(self, rows, starts, allots):
        inst = self._instance()
        bulk, single = Schedule(inst.m), Schedule(inst.m)
        self._both_reject(inst, bulk, single, rows, starts, allots)
        assert len(bulk) == 0 and bulk.makespan() == 0.0

    def test_inf_duration_given_directly_rejected(self):
        inst = self._instance()
        with pytest.raises(InvalidScheduleError, match="forbidden"):
            Schedule(inst.m).add_rows(inst, [0], [0.0], [1], [np.inf])

    def test_duplicate_across_appends(self):
        inst = self._instance()
        bulk, single = Schedule(inst.m), Schedule(inst.m)
        bulk.add_rows(inst, [0, 1], [0.0, 0.0], [1, 1], [4.0, 4.0])
        single.add(inst.tasks[0], 0.0, 1)
        single.add(inst.tasks[1], 0.0, 1)
        self._both_reject(inst, bulk, single, [2, 1], [4.0, 4.0], [1, 1])
        assert len(bulk) == 2 and bulk.task_ids() == {0, 1}
        with pytest.raises(InvalidScheduleError, match="twice"):
            bulk.add(inst.tasks[0], 9.0, 1)

    def test_block_matches_single_adds(self):
        inst = self._instance()
        bulk = Schedule(inst.m)
        bulk.add_rows(inst, [2, 0], [0.0, 1.0], [2, 1], [2.0, 4.0])
        single = Schedule(inst.m)
        single.add(inst.tasks[2], 0.0, 2)
        single.add(inst.tasks[0], 1.0, 1)
        assert [(p.task.task_id, p.start, p.allotment, p.duration, p.end) for p in bulk] == [
            (p.task.task_id, p.start, p.allotment, p.duration, p.end) for p in single
        ]
        assert bulk.weighted_completion_sum() == single.weighted_completion_sum()
        assert bulk[0].task is inst.tasks[0]


class TestPlacementTable:
    def test_columns_in_insertion_order(self):
        s = two_task_schedule()
        s.add(make_task(7, 2.0, m=4, weight=3.0), 1.0, 1)
        c = s.columns()
        assert c.task_id.tolist() == [0, 1, 7]
        assert c.start.tolist() == [0.0, 4.0, 1.0]
        assert c.allotment.tolist() == [2, 3, 1]
        assert c.end.tolist() == (c.start + c.duration).tolist()
        assert c.weight.tolist() == [1.0, 2.0, 3.0]
        assert not c.start.flags.writeable

    def test_views_are_python_scalars(self):
        p = next(iter(two_task_schedule()))
        assert type(p.start) is float and type(p.end) is float
        assert type(p.allotment) is int

    def test_weighted_sum_is_builtin_left_to_right(self):
        s = Schedule(m=1)
        weights = [1e16, 1.0, -1e16 + 2.0, 3.0]
        for i, w in enumerate(weights):
            s.add(MoldableTask(i, [1.0], weight=abs(w)), float(i), 1)
        expected = sum(abs(w) * (i + 1.0) for i, w in enumerate(weights))
        assert s.weighted_completion_sum() == expected

    def test_appending_invalidates_cached_views(self):
        s = two_task_schedule()
        assert len(s.placements) == 2 and s.max_usage() == 3
        s.add(make_task(2, 4.0, m=4), 0.0, 1)
        assert len(s.placements) == 3 and 2 in s and s[2].start == 0.0
        assert s.max_usage() == 3
