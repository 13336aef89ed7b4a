"""Unit + property tests for repro.algorithms.list_scheduling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.list_scheduling import ListItem, schedule_items
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import validate_schedule
from repro.exceptions import SchedulingError

from tests.conftest import make_task


class TestListItem:
    def test_duration_plain(self):
        it = ListItem(make_task(0, 8.0, m=4), 2)
        assert it.duration == pytest.approx(4.0)

    def test_duration_stack(self):
        a, b = make_task(0, 2.0, m=4, speedup="none"), make_task(1, 3.0, m=4, speedup="none")
        it = ListItem(a, 1, stack=(a, b))
        assert it.duration == pytest.approx(5.0)


class TestListSchedule:
    def test_greedy_packing(self):
        # m=4: tasks of width 2, 2, 2 and unit length -> two at t=0, one at t=1.
        tasks = [make_task(i, 2.0, m=4, speedup="none") for i in range(3)]
        items = [ListItem(t, 2) for t in tasks]
        s = schedule_items(items, 4)
        starts = sorted(s[t.task_id].start for t in tasks)
        assert starts == [0.0, 0.0, 2.0]

    def test_priority_respected_among_fitting(self):
        # Width-3 first in list gets the machine before two width-2s.
        big = make_task(0, 2.0, m=4, speedup="none")
        small1 = make_task(1, 2.0, m=4, speedup="none")
        items = [ListItem(big, 3), ListItem(small1, 2)]
        s = schedule_items(items, 4)
        assert s[0].start == 0.0
        assert s[1].start == pytest.approx(2.0)

    def test_backfilling_overtakes_stalled_head(self):
        # Head needs 4 procs; a width-1 task behind it can start immediately.
        blocker = make_task(0, 2.0, m=4, speedup="none")
        head = make_task(1, 2.0, m=4, speedup="none")
        filler = make_task(2, 2.0, m=4, speedup="none")
        items = [ListItem(blocker, 3), ListItem(head, 4), ListItem(filler, 1)]
        s = schedule_items(items, 4)
        assert s[0].start == 0.0
        assert s[2].start == 0.0  # backfilled
        assert s[1].start == pytest.approx(2.0)

    def test_stack_materialised_sequentially(self):
        a = make_task(0, 2.0, m=4, speedup="none")
        b = make_task(1, 3.0, m=4, speedup="none")
        items = [ListItem(a, 1, stack=(a, b))]
        s = schedule_items(items, 4)
        assert s[0].start == 0.0 and s[0].allotment == 1
        assert s[1].start == pytest.approx(2.0) and s[1].allotment == 1

    def test_start_time_floor(self):
        t = make_task(0, 1.0, m=2, speedup="none")
        s = schedule_items([ListItem(t, 1)], 2, start_time=5.0)
        assert s[0].start == pytest.approx(5.0)

    def test_append_to_existing_schedule(self):
        existing = Schedule(2)
        t0 = make_task(0, 1.0, m=2, speedup="none")
        existing.add(t0, 0.0, 1)
        t1 = make_task(1, 1.0, m=2, speedup="none")
        out = schedule_items([ListItem(t1, 1)], 2, schedule=existing, start_time=1.0)
        assert out is existing and len(out) == 2

    def test_oversized_allotment_rejected(self):
        t = make_task(0, 1.0, m=8, speedup="none")
        with pytest.raises(SchedulingError):
            schedule_items([ListItem(t, 9)], 8)

    def test_infinite_duration_rejected(self):
        from repro.core.task import rigid_task

        t = rigid_task(0, procs=2, time=1.0, m=4)
        with pytest.raises(SchedulingError):
            schedule_items([ListItem(t, 1)], 4)

    def test_empty_list(self):
        s = schedule_items([], 4)
        assert len(s) == 0

    def test_never_idle_while_work_fits(self):
        # Graham property: makespan <= 2 * max(total_work/m, longest task)
        # for allotment-1 tasks (classical bound sanity check).
        tasks = [make_task(i, float(i % 5 + 1), m=4, speedup="none") for i in range(20)]
        items = [ListItem(t, 1) for t in tasks]
        s = schedule_items(items, 4)
        total_work = sum(t.seq_time for t in tasks)
        longest = max(t.seq_time for t in tasks)
        assert s.makespan() <= total_work / 4 + longest + 1e-9

    @given(
        widths=st.lists(st.integers(1, 5), min_size=1, max_size=25),
        lengths=st.lists(st.floats(0.5, 9.0), min_size=25, max_size=25),
        m=st.integers(5, 8),
    )
    @settings(max_examples=60)
    def test_property_feasible_and_complete(self, widths, lengths, m):
        tasks = [make_task(i, lengths[i], m=m, speedup="none") for i in range(len(widths))]
        inst = Instance(tasks, m)
        items = [ListItem(t, w) for t, w in zip(tasks, widths)]
        s = schedule_items(items, m)
        validate_schedule(s, inst)

    @given(
        widths=st.lists(st.integers(1, 4), min_size=2, max_size=15),
        m=st.integers(4, 6),
    )
    @settings(max_examples=60)
    def test_property_graham_bound(self, widths, m):
        """List scheduling respects the multiprocessor Graham bound: the
        last-finishing task (width w) was waiting whenever usage exceeded
        m - w, so Cmax <= W / (m - w_max + 1) + D_max."""
        tasks = [make_task(i, 3.0, m=m, speedup="none") for i in range(len(widths))]
        items = [ListItem(t, w) for t, w in zip(tasks, widths)]
        s = schedule_items(items, m)
        W = sum(3.0 * w for w in widths)
        w_max = max(widths)
        assert s.makespan() <= W / (m - w_max + 1) + 3.0 + 1e-9
