"""Unit tests for the FCFS / EASY-backfilling baseline (§1.2)."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.core.allotment import minimal_area_allotment
from repro.core.instance import Instance
from repro.core.task import MoldableTask, rigid_task
from repro.core.validation import validate_schedule
from repro.exceptions import SchedulingError
from repro.extensions.fcfs import RIGIDIFY_BLOCK_ROWS, FcfsBackfillScheduler, rigidify
from repro.simulator.online import get_policy
from repro.workloads.generator import generate_workload
from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, trace_instance

from tests.conftest import make_instance, make_task

TRACES = Path(__file__).resolve().parents[1] / "data" / "traces"
SLACKS = (1.0, 1.5, 2.0, math.inf)


def reference_rigidify(instance: Instance, *, slack: float = 2.0) -> dict[int, int]:
    """The per-task loop :func:`rigidify` replaced: one
    ``minimal_area_allotment`` per task.  The oracle it must match."""
    allotments: dict[int, int] = {}
    for task in instance:
        deadline = task.min_time * slack
        best = minimal_area_allotment(task, deadline, m=instance.m)
        if best is None:
            raise SchedulingError(f"task {task.task_id} cannot meet its own deadline")
        allotments[task.task_id] = best[0]
    return allotments


def outcome(fn, instance: Instance, slack: float):
    """The allotments ``fn`` returns, or the error it raises."""
    try:
        return fn(instance, slack=slack)
    except SchedulingError as exc:
        return ("SchedulingError", str(exc))


def assert_matches_reference(instance: Instance) -> None:
    for slack in SLACKS:
        got = outcome(rigidify, instance, slack)
        want = outcome(reference_rigidify, instance, slack)
        assert got == want, slack
        if isinstance(got, dict):
            assert list(got) == list(want)  # instance order
            assert all(type(k) is int for k in got.values())


class TestRigidify:
    def test_allotments_feasible(self):
        inst = generate_workload("cirne", n=20, m=16, seed=71)
        allot = rigidify(inst)
        for t in inst:
            k = allot[t.task_id]
            assert 1 <= k <= 16
            # Meets the slack-deadline by construction.
            assert t.p(k) <= 2.0 * t.min_time + 1e-9

    def test_sequential_tasks_get_one_proc(self):
        inst = make_instance(n=3, m=8, seq_time=4.0, speedup="none")
        allot = rigidify(inst)
        assert all(k == 1 for k in allot.values())

    @pytest.mark.parametrize("slack", [0.5, math.nan])
    def test_invalid_slack(self, slack):
        inst = make_instance(n=1, m=2)
        with pytest.raises(ValueError, match="slack must be >= 1"):
            rigidify(inst, slack=slack)


class TestRigidifyMatchesReference:
    """The columnar :func:`rigidify` against the per-task loop it replaced,
    compared with ``==`` for every slack in :data:`SLACKS`."""

    @pytest.mark.parametrize(
        "kind", ["weakly_parallel", "highly_parallel", "mixed", "cirne"]
    )
    def test_generator_families(self, kind):
        assert_matches_reference(generate_workload(kind, n=60, m=24, seed=75))

    @pytest.mark.parametrize("model", list(MOLDABILITY_MODELS))
    @pytest.mark.parametrize(
        "fixture, m",
        [("cirne_small.swf", 32), ("bursty_quirks.swf", 16), ("wide_jobs.swf", 24)],
    )
    def test_trace_models(self, fixture, m, model):
        trace = load_trace(TRACES / fixture)
        assert_matches_reference(trace_instance(trace, m, model, online=True))

    def test_vector_longer_than_m_uses_its_full_minimum(self):
        """The deadline comes from the fastest time over the whole vector
        (4 at k=3, so 8 at slack 2), not from the row minimum of the
        truncated matrix (6, which would make k=1 the cheapest)."""
        inst = Instance([MoldableTask(0, [10.0, 6.0, 4.0])], 2)
        assert rigidify(inst) == reference_rigidify(inst) == {0: 2}
        assert_matches_reference(inst)

    def test_unreachable_fastest_time_raises_like_the_reference(self):
        inst = Instance([make_task(0, 5.0, m=2), MoldableTask(7, [10.0, 6.0, 4.0])], 2)
        with pytest.raises(SchedulingError, match="task 7 cannot meet"):
            rigidify(inst, slack=1.0)
        assert_matches_reference(inst)

    def test_short_vectors_rigid_tasks_and_area_ties(self):
        m = 6
        tasks = [
            MoldableTask(0, [3.0, 2.0]),  # shorter than m: +inf padded
            MoldableTask(1, [6.0, 3.0, 2.0]),  # areas 6, 6, 6: first k wins
            MoldableTask(2, [8.0, 4.0, 3.0, 2.0, 1.6, 1.5]),  # ties at k=1..2, 4..5
            rigid_task(3, 4, 5.0, m=m),
            rigid_task(4, 1, 2.0),
            MoldableTask(5, [math.inf, 9.0, math.inf, 4.0]),
        ]
        inst = Instance(tasks, m)
        assert rigidify(inst) == {0: 1, 1: 2, 2: 4, 3: 4, 4: 1, 5: 4}
        assert_matches_reference(inst)

    @pytest.mark.parametrize(
        "n", [RIGIDIFY_BLOCK_ROWS - 1, RIGIDIFY_BLOCK_ROWS, RIGIDIFY_BLOCK_ROWS + 1]
    )
    def test_block_boundaries(self, n):
        assert_matches_reference(generate_workload("mixed", n=n, m=8, seed=n))

    def test_block_boundaries_object_backed(self):
        """Vectors longer and shorter than ``m`` on both sides of a block
        boundary.  At slack 1 the first block raises, at slack 1.5 the
        second; at slack 2 every long task gets the allotment its full
        minimum implies."""
        b, m = RIGIDIFY_BLOCK_ROWS, 4
        tasks = [make_task(i, 1.0 + i % 7, m=m, speedup="sqrt") for i in range(b + 2)]
        tasks[b - 2] = MoldableTask(b - 2, [10.0, 6.0, 4.0, 3.0, 2.0])
        tasks[b - 1] = MoldableTask(b - 1, [9.0, 5.0])
        tasks[b] = MoldableTask(b, [10.0, 6.0, 4.0, 3.0, 2.0])
        tasks[b + 1] = MoldableTask(b + 1, [10.0, 6.0, 4.0, 3.5, 2.0])
        inst = Instance(tasks, m)
        with pytest.raises(SchedulingError, match=f"task {b - 2} "):
            rigidify(inst, slack=1.0)
        with pytest.raises(SchedulingError, match=f"task {b + 1} "):
            rigidify(inst, slack=1.5)
        allot = rigidify(inst, slack=2.0)
        assert [allot[i] for i in range(b - 2, b + 2)] == [3, 1, 3, 3]
        assert_matches_reference(inst)

    def test_empty_instance(self):
        assert rigidify(Instance([], 4)) == reference_rigidify(Instance([], 4)) == {}


class TestFcfs:
    def test_pure_fcfs_start_order_matches_submission(self):
        inst = make_instance(n=6, m=2, seq_time=3.0, speedup="none")
        s = FcfsBackfillScheduler(backfill=False).schedule(inst)
        validate_schedule(s, inst)
        starts = [s[i].start for i in range(6)]
        assert starts == sorted(starts)  # ids are submission order

    def test_feasible_on_paper_workloads(self):
        for kind in ("weakly_parallel", "cirne"):
            inst = generate_workload(kind, n=30, m=16, seed=72)
            for backfill in (False, True):
                s = FcfsBackfillScheduler(backfill=backfill).schedule(inst)
                validate_schedule(s, inst)

    def test_backfill_never_delays_head(self):
        # Head (wide) job's start with EASY equals its start without.
        wide = MoldableTask(0, [8.0] * 4)
        tail = [MoldableTask(i, [2.0] * 4) for i in range(1, 5)]
        # Make the machine busy so the wide job queues: a long narrow job first.
        first = MoldableTask(9, [10.0] * 4)
        inst = Instance([first, wide, *tail], 4)
        plain = FcfsBackfillScheduler(backfill=False).schedule(inst)
        easy = FcfsBackfillScheduler(backfill=True).schedule(inst)
        assert easy[0].start <= plain[0].start + 1e-9

    def test_backfill_improves_utilisation(self):
        # FCFS head-of-line blocking: narrow jobs behind a wide one.
        # EASY should finish no later (usually earlier).
        inst = generate_workload("mixed", n=40, m=16, seed=73)
        plain = FcfsBackfillScheduler(backfill=False).schedule(inst)
        easy = FcfsBackfillScheduler(backfill=True).schedule(inst)
        validate_schedule(easy, inst)
        assert easy.makespan() <= plain.makespan() * 1.05

    def test_names(self):
        assert FcfsBackfillScheduler(backfill=True).name == "FCFS+EASY"
        assert FcfsBackfillScheduler(backfill=False).name == "FCFS"

    @pytest.mark.parametrize("slack", [0.5, math.nan])
    def test_invalid_slack_rejected_at_construction(self, slack):
        with pytest.raises(ValueError, match="slack must be >= 1"):
            FcfsBackfillScheduler(slack=slack)

    def test_later_job_fills_an_earlier_hole_unlike_online_fcfs(self):
        """Off-line FCFS places each job at its earliest fit, so the third
        job starts in the hole beside the first; on-line ``fcfs`` starts
        only the queue head, so it waits behind the wide second job."""
        m = 4
        inst = Instance(
            [rigid_task(0, 2, 10.0, m=m), rigid_task(1, 4, 1.0, m=m), rigid_task(2, 2, 1.0, m=m)],
            m,
        )
        offline = FcfsBackfillScheduler(backfill=False).schedule(inst)
        online = get_policy("fcfs").run(inst).schedule
        validate_schedule(offline, inst)
        validate_schedule(online, inst)
        assert [offline[i].start for i in range(3)] == [0.0, 10.0, 0.0]
        assert [online[i].start for i in range(3)] == [0.0, 10.0, 11.0]

    def test_empty(self):
        s = FcfsBackfillScheduler().schedule(Instance([], 4))
        assert len(s) == 0

    def test_demt_beats_fcfs_on_minsum(self):
        """The paper's motivation: moldability + smart selection beats the
        production FCFS queue on the user criterion."""
        from repro.algorithms.demt import schedule_demt

        inst = generate_workload("cirne", n=60, m=32, seed=74)
        demt = schedule_demt(inst)
        fcfs = FcfsBackfillScheduler(backfill=True).schedule(inst)
        assert (
            demt.weighted_completion_sum() <= fcfs.weighted_completion_sum() * 1.05
        )
