"""Unit tests for repro.core.validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.task import MoldableTask
from repro.core.validation import is_feasible, validate_schedule
from repro.exceptions import InvalidScheduleError

from tests.conftest import make_instance, make_task


def valid_pair() -> tuple[Schedule, Instance]:
    inst = make_instance(n=3, m=4, seq_time=8.0)
    s = Schedule(m=4)
    s.add(inst[0], 0.0, 2)
    s.add(inst[1], 0.0, 2)
    s.add(inst[2], 4.0, 4)
    return s, inst


class TestHappyPath:
    def test_valid_schedule_passes(self):
        s, inst = valid_pair()
        validate_schedule(s, inst)  # must not raise
        assert is_feasible(s, inst)

    def test_empty_schedule_on_empty_instance(self):
        validate_schedule(Schedule(m=2), Instance([], 2))

    def test_partial_schedule_allowed_when_opted_in(self):
        inst = make_instance(n=3, m=4)
        s = Schedule(m=4)
        s.add(inst[0], 0.0, 1)
        validate_schedule(s, inst, require_all_tasks=False)
        assert not is_feasible(s, inst)


class TestViolations:
    def test_wrong_machine_size(self):
        s, inst = valid_pair()
        with pytest.raises(InvalidScheduleError, match="m="):
            validate_schedule(s, Instance(list(inst), 8))

    def test_missing_task(self):
        inst = make_instance(n=2, m=4)
        s = Schedule(m=4)
        s.add(inst[0], 0.0, 1)
        with pytest.raises(InvalidScheduleError, match="never scheduled"):
            validate_schedule(s, inst)

    def test_foreign_task(self):
        inst = make_instance(n=1, m=4)
        s = Schedule(m=4)
        s.add(inst[0], 0.0, 1)
        s.add(make_task(99, 2.0, m=4), 0.0, 1)
        with pytest.raises(InvalidScheduleError, match="unknown task ids"):
            validate_schedule(s, inst)

    def test_oversubscription(self):
        inst = make_instance(n=3, m=4, seq_time=8.0)
        s = Schedule(m=4)
        s.add(inst[0], 0.0, 2)
        s.add(inst[1], 0.0, 2)
        s.add(inst[2], 1.0, 2)  # 6 procs in use during [1, 4)
        with pytest.raises(InvalidScheduleError, match="over-subscribed"):
            validate_schedule(s, inst)

    def test_release_violation(self):
        t = MoldableTask(0, [2.0, 1.0], release=5.0)
        inst = Instance([t], 2)
        s = Schedule(m=2)
        s.add(t, 0.0, 1)
        with pytest.raises(InvalidScheduleError, match="release"):
            validate_schedule(s, inst)
        # Off-line algorithms may opt out.
        validate_schedule(s, inst, check_releases=False)

    def test_duration_shorter_than_p_k(self):
        # The bulk append stores the durations it is given; the validator
        # must catch a duration that disagrees with the task's p(k).
        inst = make_instance(n=1, m=4, seq_time=8.0)
        s = Schedule(m=4)
        s.add_rows(inst, [0], [0.0], [2], [inst[0].p(2) / 2])
        with pytest.raises(InvalidScheduleError, match="duration"):
            validate_schedule(s, inst)

    def test_back_to_back_tasks_are_fine(self):
        # End at exactly t and start at t must not be flagged as overlap.
        inst = make_instance(n=2, m=2, seq_time=4.0)
        s = Schedule(m=2)
        s.add(inst[0], 0.0, 2)  # ends at 2.0
        s.add(inst[1], 2.0, 2)
        validate_schedule(s, inst)

    def test_tiny_float_noise_tolerated(self):
        inst = make_instance(n=2, m=2, seq_time=4.0)
        s = Schedule(m=2)
        s.add(inst[0], 0.0, 2)
        s.add(inst[1], 2.0 - 1e-12, 2)
        validate_schedule(s, inst)


class TestPropertyBased:
    @given(
        starts=st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_sequentialised_schedules_always_valid(self, starts, data):
        """Tasks stacked one after another on the full machine never overlap."""
        m = data.draw(st.integers(min_value=1, max_value=8))
        tasks = [make_task(i, 4.0, m=m) for i in range(len(starts))]
        inst = Instance(tasks, m)
        s = Schedule(m=m)
        t = 0.0
        for task in tasks:
            s.add(task, t, m)
            t += task.p(m)
        validate_schedule(s, inst)

    @given(n=st.integers(min_value=2, max_value=10))
    @settings(max_examples=30)
    def test_all_parallel_at_capacity_valid(self, n):
        """n unit tasks on 1 proc each with m = n fill the machine exactly."""
        tasks = [make_task(i, 1.0, m=n, speedup="none") for i in range(n)]
        inst = Instance(tasks, n)
        s = Schedule(m=n)
        for task in tasks:
            s.add(task, 0.0, 1)
        validate_schedule(s, inst)
        assert s.max_usage() == n
