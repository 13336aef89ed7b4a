"""Failure injection: corrupt valid artefacts, assert detection.

The validation layer and the simulator are the library's safety net; these
tests verify that every class of corruption a buggy algorithm could
introduce is actually caught (a validator that silently passes bad
schedules would invalidate every reported ratio).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.demt import schedule_demt
from repro.core.instance import Instance
from repro.core.schedule import Schedule, ScheduledTask
from repro.core.validation import is_feasible, validate_schedule
from repro.exceptions import InvalidScheduleError, SchedulingError
from repro.simulator import ClusterSimulator
from repro.workloads.generator import generate_workload


@pytest.fixture()
def setup():
    inst = generate_workload("cirne", n=15, m=8, seed=201)
    sched = schedule_demt(inst)
    return inst, sched


def rebuild(sched: Schedule, mutate, extra=()) -> Schedule:
    """Copy a schedule through a placement-level mutation function (plus
    ``extra`` placements).  ``Schedule(m, placements)`` adopts placements
    as they are and rejects only a duplicate id, so every corruption
    reaches the validator."""
    kept = [q for i, p in enumerate(sched) if (q := mutate(i, p)) is not None]
    return Schedule(sched.m, [*kept, *extra])


class TestScheduleCorruptions:
    def test_baseline_is_valid(self, setup):
        inst, sched = setup
        validate_schedule(sched, inst)

    def test_dropped_task_detected(self, setup):
        inst, sched = setup
        bad = rebuild(sched, lambda i, p: None if i == 3 else p)
        with pytest.raises(InvalidScheduleError, match="never scheduled"):
            validate_schedule(bad, inst)

    def test_time_compression_overlap_detected(self, setup):
        """Shrinking all start times by 2x over-subscribes the machine."""
        inst, sched = setup
        bad = rebuild(
            sched, lambda i, p: ScheduledTask(p.task, p.start * 0.4, p.allotment)
        )
        assert not is_feasible(bad, inst)

    def test_allotment_inflation_detected(self, setup):
        """Doubling every allotment must blow the capacity sweep."""
        inst, sched = setup
        bad = rebuild(
            sched,
            lambda i, p: ScheduledTask(
                p.task, p.start, min(inst.m, p.allotment * 2 + 3)
            ),
        )
        assert not is_feasible(bad, inst)

    def test_negative_start_detected(self, setup):
        inst, sched = setup
        bad = rebuild(
            sched,
            lambda i, p: ScheduledTask(p.task, p.start - 100.0, p.allotment)
            if i == 0
            else p,
        )
        with pytest.raises(InvalidScheduleError):
            validate_schedule(bad, inst)

    def test_foreign_task_detected(self, setup):
        inst, sched = setup
        from tests.conftest import make_task

        intruder = make_task(999, 1.0, m=8)
        bad = rebuild(sched, lambda i, p: p, extra=[ScheduledTask(intruder, 0.0, 1)])
        with pytest.raises(InvalidScheduleError, match="unknown task"):
            validate_schedule(bad, inst)

    def test_machine_size_mismatch_detected(self, setup):
        inst, sched = setup
        other = Instance(list(inst.tasks), 16)
        with pytest.raises(InvalidScheduleError, match="m="):
            validate_schedule(sched, other)


class TestSimulatorCatchesWhatValidationCatches:
    """The event-driven replay is an independent oracle: corruptions that
    violate capacity must fail there too."""

    def test_overlap_fails_in_replay(self, setup):
        inst, sched = setup
        bad = rebuild(
            sched, lambda i, p: ScheduledTask(p.task, p.start * 0.3, p.allotment)
        )
        if not is_feasible(bad, inst):  # only meaningful when truly broken
            with pytest.raises(SchedulingError):
                ClusterSimulator(8).execute(bad)

    def test_valid_schedules_always_replay(self, setup):
        inst, sched = setup
        ClusterSimulator(8).execute(sched, inst)  # must not raise


class TestDocumentCorruptions:
    def test_truncated_json_rejected(self, setup):
        from repro.io.json_io import instance_to_json, instance_from_json

        inst, _ = setup
        text = instance_to_json(inst)
        with pytest.raises(Exception):
            instance_from_json(text[: len(text) // 2])

    def test_tampered_schedule_json_caught_by_validation(self, setup):
        """Tampering with starts in the JSON must surface at validation."""
        import json

        from repro.io.json_io import schedule_from_json, schedule_to_json

        inst, sched = setup
        doc = json.loads(schedule_to_json(sched))
        for entry in doc["placements"]:
            entry["start"] = 0.0  # everything at once
        bad = schedule_from_json(json.dumps(doc), inst)
        assert not is_feasible(bad, inst)

    def test_corrupt_swf_line_rejected(self):
        from repro.exceptions import ModelError
        from repro.io.swf import read_swf

        with pytest.raises(ModelError):
            read_swf("1 two 3 4 5\n")
