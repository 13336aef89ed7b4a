"""Unit tests for repro.core.instance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.instance import Instance
from repro.core.task import MoldableTask, rigid_task
from repro.exceptions import InvalidInstanceError

from tests.conftest import make_instance, make_task


class TestConstruction:
    def test_basic(self):
        inst = make_instance(n=3, m=4)
        assert inst.n == 3 and inst.m == 4
        assert len(inst) == 3

    def test_iteration_preserves_order(self):
        inst = make_instance(n=5, m=4)
        assert [t.task_id for t in inst] == [0, 1, 2, 3, 4]

    def test_duplicate_ids_rejected(self):
        t = MoldableTask(0, [1.0])
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            Instance([t, MoldableTask(0, [2.0])], 2)

    @pytest.mark.parametrize(
        "ids, unique",
        [([5, 2, 9], True), ([9, 5, 2], True), ([5, 2, 5], False), ([2, 2, 7], False)],
    )
    def test_from_arrays_id_uniqueness(self, ids, unique):
        times = np.ones((3, 2))
        if unique:
            assert Instance.from_arrays(times, task_ids=np.array(ids)).task_ids.tolist() == ids
        else:
            with pytest.raises(InvalidInstanceError, match="duplicate"):
                Instance.from_arrays(times, task_ids=np.array(ids))

    def test_zero_processors_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance([MoldableTask(0, [1.0])], 0)

    def test_task_infeasible_within_m_rejected(self):
        # Rigid task on 4 procs, machine has only 2.
        t = rigid_task(0, procs=4, time=1.0)
        with pytest.raises(InvalidInstanceError, match="no feasible allotment"):
            Instance([t], 2)

    @pytest.mark.parametrize(
        "row", [[2.0, -np.inf], [-np.inf, np.inf], [-np.inf, -np.inf]]
    )
    def test_from_arrays_rejects_negative_infinity(self, row):
        times = np.array([[3.0, 2.0], row])
        with pytest.raises(InvalidInstanceError, match="strictly positive"):
            Instance.from_arrays(times)

    def test_empty_instance_allowed(self):
        inst = Instance([], 4)
        assert inst.n == 0

    def test_getitem_and_lookup(self):
        inst = make_instance(n=3, m=2)
        assert inst[1].task_id == 1
        assert inst.task_by_id(2).task_id == 2
        with pytest.raises(KeyError):
            inst.task_by_id(99)


class TestDerived:
    def test_times_matrix_shape_and_padding(self):
        short = MoldableTask(0, [4.0, 2.0])  # shorter than m
        inst = Instance([short], 4)
        tm = inst.times_matrix
        assert tm.shape == (1, 4)
        assert tm[0, 0] == 4.0 and tm[0, 1] == 2.0
        assert np.isinf(tm[0, 2]) and np.isinf(tm[0, 3])

    def test_times_matrix_truncation(self):
        long = MoldableTask(0, [4.0, 2.0, 1.0, 0.5])
        inst = Instance([long], 2)
        assert inst.times_matrix.shape == (1, 2)

    def test_weights_vector(self):
        inst = Instance(
            [MoldableTask(0, [1.0], weight=2.0), MoldableTask(1, [1.0], weight=5.0)], 2
        )
        assert np.allclose(inst.weights, [2.0, 5.0])

    def test_tmin(self):
        inst = make_instance(n=2, m=4, seq_time=8.0, speedup="linear")
        assert inst.tmin == pytest.approx(2.0)  # 8/4

    def test_max_min_time(self):
        a = MoldableTask(0, [8.0, 4.0])
        b = MoldableTask(1, [10.0, 10.0])
        inst = Instance([a, b], 2)
        assert inst.max_min_time == 10.0

    def test_min_total_work_linear_speedup(self):
        # Perfect speedup: minimal work = sequential work for each task.
        inst = make_instance(n=3, m=4, seq_time=8.0, speedup="linear")
        assert inst.min_total_work == pytest.approx(3 * 8.0)

    def test_is_offline(self):
        inst = make_instance(n=2)
        assert inst.is_offline()
        t = MoldableTask(0, [1.0], release=3.0)
        assert not Instance([t], 1).is_offline()
        assert Instance([t], 1).max_release == 3.0


@st.composite
def _floor_task_vectors(draw):
    """``(vectors, m)``: ragged vectors shorter and longer than ``m``,
    rigid rows (one finite entry among ``+inf``) and non-monotone rows."""
    m = draw(st.integers(1, 9))
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(["ragged", "rigid", "nonmonotone"]))
        seq = draw(st.floats(0.5, 100.0))
        if shape == "ragged":
            alpha = draw(st.floats(0.0, 1.5))
            times = [seq / k**alpha for k in range(1, draw(st.integers(1, m + 4)) + 1)]
        elif shape == "rigid":
            low = draw(st.integers(1, m))
            times = [math.inf] * (low - 1) + [seq] + [math.inf] * draw(st.integers(0, 3))
        else:
            times = draw(
                st.lists(st.one_of(st.just(math.inf), st.floats(0.5, 100.0)),
                         min_size=m, max_size=m)
            )
            times[draw(st.integers(0, m - 1))] = seq
        vectors.append(times)
    return vectors, m


class TestFloors:
    """``tmin``, ``min_times``, ``max_min_time`` and ``min_total_work``
    are, bit for bit, the NumPy reductions over the padded/truncated time
    matrix (``min_times`` takes an object-backed task's minimum over its
    full vector), on every kernel backend and on both representations."""

    @given(_floor_task_vectors())
    @settings(max_examples=150, deadline=None)
    @example(([[4.0, 2.0, 1.0, 0.5], [3.0], [math.inf, 2.0]], 2))
    @example(([[5.0], [2.0, 1.0], [3.0, math.inf]], 1))  # m = 1
    def test_floors_are_the_numpy_reductions(self, case):
        vectors, m = case
        tm = np.array([(v + [math.inf] * m)[:m] for v in vectors], dtype=np.float64)
        ks = np.arange(1, m + 1, dtype=np.float64)
        row_min = np.min(tm, axis=1)
        full_min = np.array([min(v) if len(v) > m else r for v, r in zip(vectors, row_min)])
        before = kernels.backend_name()
        try:
            for backend in kernels.available_backend_names():
                kernels.set_backend(backend)
                tasks = [MoldableTask(i, v) for i, v in enumerate(vectors)]
                for inst, min_times in (
                    (Instance(tasks, m), full_min),
                    (Instance.from_arrays(tm), row_min),
                ):
                    assert inst.times_matrix.tobytes() == tm.tobytes()
                    assert inst.tmin == float(np.min(tm))
                    assert inst.min_times.tolist() == min_times.tolist()
                    assert inst.max_min_time == float(np.max(row_min))
                    assert inst.min_total_work == float(np.min(tm * ks, axis=1).sum())
        finally:
            kernels.set_backend(before)

    @pytest.mark.parametrize(
        "inst",
        [Instance([], 3), Instance.from_arrays(np.empty((0, 3)))],
        ids=["objects", "arrays"],
    )
    def test_empty_instance_floors(self, inst):
        with pytest.raises(ValueError):
            inst.tmin
        with pytest.raises(ValueError):
            inst.max_min_time
        assert inst.min_total_work == 0.0
        assert inst.min_times.shape == (0,)


class TestRestrict:
    def test_restrict_keeps_machine_and_ids(self):
        inst = make_instance(n=5, m=8)
        sub = inst.restrict([1, 3])
        assert sub.m == 8
        assert sorted(t.task_id for t in sub) == [1, 3]

    def test_restrict_missing_id_raises(self):
        inst = make_instance(n=3)
        with pytest.raises(KeyError):
            inst.restrict([0, 42])

    def test_restrict_empty(self):
        inst = make_instance(n=3)
        assert inst.restrict([]).n == 0
