"""Unit tests for repro.algorithms.merge.

The columnar merge is checked twice: against hand-built cases below, and
differentially against the seed's object merge,
:func:`repro.algorithms.reference.reference_merge_small_tasks`, which it
must reproduce exactly — stack members, stack weights to the last bit,
and the untouched tasks in input order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.merge import merge_small_tasks
from repro.algorithms.reference import MergedStack, reference_merge_small_tasks
from repro.core.task import MoldableTask, rigid_task

from tests.conftest import make_task


def seq(task_id, time, weight=1.0):
    return make_task(task_id, time, m=4, speedup="none", weight=weight)


def merge(tasks, batch_length, **kw):
    """Run the columnar merge on task objects; return ``(stacks as task-id
    tuples, stack weights, untouched task ids)``."""
    seq_times = np.array([t.seq_time for t in tasks], dtype=np.float64)
    weights = np.array([t.weight for t in tasks], dtype=np.float64)
    ids = np.array([t.task_id for t in tasks], dtype=np.int64)
    stacks, stack_weights, untouched = merge_small_tasks(
        seq_times, weights, ids, batch_length, **kw
    )
    assert untouched.dtype.kind == "i"
    return (
        [tuple(int(ids[p]) for p in s) for s in stacks],
        stack_weights,
        [int(ids[p]) for p in untouched],
    )


def durations(stacks, tasks):
    by_id = {t.task_id: t for t in tasks}
    return [sum(by_id[i].seq_time for i in s) for s in stacks]


class TestMergedStack:
    def test_aggregates(self):
        s = MergedStack((seq(0, 2.0, weight=3.0), seq(1, 1.5, weight=1.0)))
        assert s.duration == pytest.approx(3.5)
        assert s.weight == pytest.approx(4.0)
        assert s.task_ids == (0, 1)
        assert len(s) == 2


class TestMergeSmallTasks:
    def test_threshold_is_half_batch(self):
        small = seq(0, 4.0)
        large = seq(1, 4.1)
        stacks, _, untouched = merge([small, large], batch_length=8.0)
        assert stacks == [(0,)]
        assert untouched == [1]

    def test_decreasing_weight_order_within_stacks(self):
        tasks = [seq(0, 1.0, weight=1.0), seq(1, 1.0, weight=5.0), seq(2, 1.0, weight=3.0)]
        stacks, weights, _ = merge(tasks, batch_length=10.0)
        assert stacks == [(1, 2, 0)]  # heaviest first
        assert weights == [9.0]

    def test_stack_duration_capped_by_batch_length(self):
        tasks = [seq(i, 3.0) for i in range(5)]  # each <= 4.0 = t/2
        stacks, _, _ = merge(tasks, batch_length=8.0)
        assert all(d <= 8.0 + 1e-12 for d in durations(stacks, tasks))
        # 3+3 fits in 8, a third does not -> stacks of size 2,2,1.
        assert sorted(len(s) for s in stacks) == [1, 2, 2]

    def test_all_tasks_preserved(self):
        tasks = [seq(i, 0.5 + 0.3 * i, weight=float(i + 1)) for i in range(7)]
        stacks, _, untouched = merge(tasks, batch_length=4.0)
        merged_ids = [tid for s in stacks for tid in s]
        assert sorted(merged_ids + untouched) == list(range(7))

    def test_untouched_keep_input_order(self):
        tasks = [seq(5, 9.0), seq(1, 1.0), seq(3, 7.0), seq(0, 6.0)]
        _, _, untouched = merge(tasks, batch_length=8.0)
        assert untouched == [5, 3, 0]

    def test_parallel_tasks_with_small_seq_time_are_merged(self):
        # Merging only looks at p(1); a moldable task with small p(1)
        # is a merge candidate like any sequential one.
        t = make_task(0, 2.0, m=4, speedup="linear")
        stacks, _, untouched = merge([t], batch_length=8.0)
        assert stacks == [(0,)] and not untouched

    def test_rigid_task_never_merged(self):
        t = rigid_task(0, procs=2, time=1.0, m=4)  # p(1) = inf
        for length in (8.0, math.inf):
            stacks, _, untouched = merge([t], batch_length=length)
            assert not stacks and untouched == [0]

    def test_empty_input(self):
        stacks, weights, untouched = merge([], batch_length=4.0)
        assert stacks == [] and weights == [] and untouched == []

    def test_invalid_batch_length(self):
        with pytest.raises(ValueError):
            merge([], batch_length=0.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            merge([], batch_length=1.0, small_threshold_factor=0.0)
        with pytest.raises(ValueError):
            merge([], batch_length=1.0, small_threshold_factor=1.5)

    def test_custom_threshold(self):
        t = seq(0, 4.0)
        stacks, _, untouched = merge([t], 8.0, small_threshold_factor=0.25)
        assert untouched == [0]  # 4 > 0.25*8
        stacks, _, untouched = merge([t], 8.0, small_threshold_factor=0.5)
        assert len(stacks) == 1

    @given(
        times=st.lists(st.floats(0.1, 3.9), min_size=1, max_size=20),
        weights=st.lists(st.floats(1.0, 10.0), min_size=20, max_size=20),
    )
    @settings(max_examples=60)
    def test_property_partition_and_caps(self, times, weights):
        tasks = [seq(i, t, weight=weights[i]) for i, t in enumerate(times)]
        stacks, _, untouched = merge(tasks, batch_length=8.0)
        # Partition: every task appears exactly once.
        ids = sorted([tid for s in stacks for tid in s] + untouched)
        assert ids == sorted(t.task_id for t in tasks)
        # Every stack respects the batch length (all inputs are <= t/2 here,
        # so untouched must be empty).
        assert not untouched
        assert all(d <= 8.0 + 1e-9 for d in durations(stacks, tasks))
        # At most one stack holds a single task *by necessity*: greedy
        # first-fit by weight can strand singles, but total stacked time
        # above one batch forces multi-task stacks somewhere.
        if sum(times) > 8.0:
            assert len(stacks) >= 2


# ---------------------------------------------------------------------- #
# Differential: columnar merge vs the seed's object merge                #
# ---------------------------------------------------------------------- #
#: Sequential times on a coarse grid, so stacks often fill a batch of 8
#: exactly (``current + p == batch_length``), plus rigid tasks (+inf) and
#: arbitrary floats.
P1 = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 16.0, math.inf]),
    st.floats(1e-3, 20.0),
)
#: Few distinct weights, so equal weights (broken by id) are common.
WEIGHT = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 10.0))


def _task(task_id: int, p1: float, weight: float) -> MoldableTask:
    times = [p1, 1.0] if math.isinf(p1) else [p1, p1 / 1.5]
    return MoldableTask(task_id, times, weight=weight)


class TestMatchesReferenceMerge:
    @given(
        rows=st.lists(st.tuples(P1, WEIGHT), max_size=40),
        ids=st.permutations(range(40)),
        batch_length=st.sampled_from([8.0, 5.0, 1e-3, 1e13, math.inf]),
        factor=st.sampled_from([0.5, 1.0, 1e-12, 0.25, 0.7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_columnar_merge_matches_object_merge(self, rows, ids, batch_length, factor):
        tasks = [_task(ids[k], p1, w) for k, (p1, w) in enumerate(rows)]
        ref_stacks, ref_rest = reference_merge_small_tasks(
            tasks, batch_length, small_threshold_factor=factor
        )
        stacks, weights, untouched = merge(tasks, batch_length, small_threshold_factor=factor)
        assert stacks == [s.task_ids for s in ref_stacks]
        assert weights == [s.weight for s in ref_stacks]  # bit for bit
        assert untouched == [t.task_id for t in ref_rest]

    def test_exact_fit_stays_in_the_stack(self):
        tasks = [seq(0, 4.0, weight=2.0), seq(1, 4.0, weight=2.0), seq(2, 4.0, weight=1.0)]
        stacks, _, _ = merge(tasks, 8.0, small_threshold_factor=1.0)
        assert stacks == [(0, 1), (2,)]
        assert stacks == [s.task_ids for s in reference_merge_small_tasks(
            tasks, 8.0, small_threshold_factor=1.0)[0]]

    def test_tiny_factor_merges_once_the_batch_is_long_enough(self):
        tasks = [seq(i, 1.0) for i in range(3)]
        assert merge(tasks, 8.0, small_threshold_factor=1e-12)[0] == []
        stacks, _, _ = merge(tasks, 1e13, small_threshold_factor=1e-12)
        assert stacks == [(0, 1, 2)]
