"""Unit tests for repro.algorithms.compaction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.compaction import (
    Batches,
    list_compaction,
    pull_forward,
    shelf_placement,
)
from repro.algorithms.list_scheduling import ListItem
from repro.core.instance import Instance
from repro.core.validation import validate_schedule

from tests.conftest import make_task


def make_batches(m=4):
    """Two batches: [A(2x2), B(2x1)] then [C(4x3)] with windows at t=4, 8."""
    a = make_task(0, 4.0, m=m, speedup="none")
    b = make_task(1, 4.0, m=m, speedup="none")
    c = make_task(2, 6.0, m=m, speedup="none")
    batch0 = [ListItem(a, 2), ListItem(b, 1)]
    batch1 = [ListItem(c, 3)]
    return [batch0, batch1], [4.0, 8.0]


class TestShelfPlacement:
    def test_tasks_start_at_batch_start(self):
        batches, starts = make_batches()
        s = shelf_placement(Batches.from_items(batches, 4), starts)
        assert s[0].start == 4.0 and s[1].start == 4.0
        assert s[2].start == 8.0

    def test_mismatched_lengths_rejected(self):
        batches, _ = make_batches()
        with pytest.raises(ValueError):
            shelf_placement(Batches.from_items(batches, 4), [1.0])

    def test_feasible(self):
        batches, starts = make_batches()
        tasks = [it.task for b in batches for it in b]
        inst = Instance(tasks, 4)
        validate_schedule(shelf_placement(Batches.from_items(batches, 4), starts), inst)


class TestPullForward:
    def test_everything_pulled_to_zero_when_room(self):
        batches, _ = make_batches()
        s = pull_forward(Batches.from_items(batches, 4))
        assert s[0].start == 0.0 and s[1].start == 0.0
        # C needs 3 procs; 2+1 busy until 4 -> starts at 4.
        assert s[2].start == pytest.approx(4.0)

    def test_no_overtaking(self):
        # Batch order [wide, narrow]: narrow may start with wide (both fit),
        # but if wide is delayed the narrow one must not start before it...
        # pull_forward preserves *placement* order yet allows earlier start
        # times when processors are genuinely free.  Construct a case where
        # overtaking would be possible and assert it does not happen.
        blocker = make_task(0, 8.0, m=4, speedup="none")  # 2 procs, [0, 8)
        wide = make_task(1, 4.0, m=4, speedup="none")  # needs 3 -> waits to 8
        narrow = make_task(2, 4.0, m=4, speedup="none")  # 1 proc, could start 0
        batches = [[ListItem(blocker, 2)], [ListItem(wide, 3), ListItem(narrow, 1)]]
        s = pull_forward(Batches.from_items(batches, 4))
        assert s[1].start == pytest.approx(8.0)
        # narrow is placed after wide but may still fill the early hole:
        # pull-forward starts it at 0 because 2 procs are free there.
        assert s[2].start == pytest.approx(0.0)

    def test_feasible(self):
        batches, _ = make_batches()
        tasks = [it.task for b in batches for it in b]
        inst = Instance(tasks, 4)
        validate_schedule(pull_forward(Batches.from_items(batches, 4)), inst)


class TestListCompaction:
    def test_flattens_and_backfills(self):
        batches, _ = make_batches()
        s = list_compaction(Batches.from_items(batches, 4))
        assert s[0].start == 0.0 and s[1].start == 0.0
        assert s[2].start == pytest.approx(4.0)

    def test_stack_items_supported(self):
        a = make_task(0, 1.0, m=4, speedup="none")
        b = make_task(1, 1.5, m=4, speedup="none")
        batches = [[ListItem(a, 1, stack=(a, b))]]
        s = list_compaction(Batches.from_items(batches, 4))
        assert s[1].start == pytest.approx(1.0)

    def test_never_worse_than_shelf(self):
        batches, starts = make_batches()
        shelf = shelf_placement(Batches.from_items(batches, 4), starts)
        compact = list_compaction(Batches.from_items(batches, 4))
        assert compact.makespan() <= shelf.makespan() + 1e-9
        assert (
            compact.weighted_completion_sum()
            <= shelf.weighted_completion_sum() + 1e-9
        )


class TestRefinementChain:
    """The paper presents the three strategies as successive improvements."""

    @given(
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50)
    def test_property_chain_feasible_and_ordered(self, widths, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        m = 4
        # Durations capped at the smallest batch window (4.0) so the shelf
        # placement is feasible by construction (DEMT's admissibility filter
        # provides the same guarantee in the real pipeline).
        tasks = [
            make_task(i, float(rng.uniform(1, 4)), m=m, speedup="none")
            for i in range(len(widths))
        ]
        inst = Instance(tasks, m)
        # Split into batches of up to m total width, windows doubling
        # (window j spans [4 * 2^j, 4 * 2^(j+1)], always >= any duration).
        batches, starts, cur, width, t = [], [], [], 0, 4.0
        for task, w in zip(tasks, widths):
            if width + w > m:
                batches.append(cur)
                starts.append(t)
                t *= 2
                cur, width = [], 0
            cur.append(ListItem(task, w))
            width += w
        if cur:
            batches.append(cur)
            starts.append(t)

        shelf = shelf_placement(Batches.from_items(batches, m), starts)
        pulled = pull_forward(Batches.from_items(batches, m))
        compact = list_compaction(Batches.from_items(batches, m))
        for sched in (shelf, pulled, compact):
            validate_schedule(sched, inst)
        # Pull-forward never delays a task past its shelf start (no
        # overtaking, disjoint windows): strictly dominated makespan.
        assert pulled.makespan() <= shelf.makespan() + 1e-9
        # List compaction allows overtaking, which can in principle create
        # Graham anomalies relative to pull-forward — so only dominance over
        # the naive shelves is asserted (the geometric windows leave ample
        # slack for the greedy scheduler).
        assert compact.makespan() <= shelf.makespan() + 1e-9
