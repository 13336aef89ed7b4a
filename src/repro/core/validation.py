"""Schedule feasibility validation.

Every algorithm's test suite runs its output through
:func:`validate_schedule`.  The checks encode the problem definition of §2:

1. every task of the instance is scheduled exactly once;
2. allotments are integers in ``[1, m]`` with a finite processing time;
3. every duration is exactly the task's ``p_i(k)`` at its allotment ``k``;
4. start times are non-negative and respect release dates;
5. at every instant the total allotment of running tasks is ``<= m``
   (count-feasibility, which for identical processors without contiguity
   implies an explicit processor assignment exists — see
   :mod:`repro.core.schedule`).

Validation is exact up to a small absolute tolerance on the time axis to
absorb floating-point noise from compaction arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.exceptions import InvalidScheduleError

__all__ = ["validate_schedule", "is_feasible", "TIME_EPS"]

#: Absolute slack on time comparisons (floating-point dust, not semantics).
#: This is *the* time epsilon of the library: the validator, the event log,
#: the discrete-event engine and the on-line policy kernel all compare
#: timestamps against this one constant, so "simultaneous" means the same
#: thing in every layer (two events within TIME_EPS of each other are one
#: instant).  Import it from :mod:`repro.core` rather than redefining a
#: local tolerance.
TIME_EPS = 1e-9


def validate_schedule(
    schedule: Schedule,
    instance: Instance,
    *,
    require_all_tasks: bool = True,
    check_releases: bool = True,
) -> None:
    """Raise :class:`InvalidScheduleError` on the first violated constraint.

    Parameters
    ----------
    schedule, instance:
        The schedule under test and the instance it claims to solve.
    require_all_tasks:
        When ``True`` (default) the schedule must place *exactly* the
        instance's tasks.  Batch algorithms validating a partial schedule
        can pass ``False`` (placed tasks must still belong to the instance).
    check_releases:
        Enforce ``start >= release`` (disable for off-line algorithms that
        legitimately ignore release dates).
    """
    if schedule.m != instance.m:
        raise InvalidScheduleError(
            f"schedule built for m={schedule.m} but instance has m={instance.m}"
        )

    instance_ids = {t.task_id for t in instance}
    scheduled_ids = schedule.task_ids()
    foreign = scheduled_ids - instance_ids
    if foreign:
        raise InvalidScheduleError(f"schedule places unknown task ids {sorted(foreign)}")
    if require_all_tasks:
        missing = instance_ids - scheduled_ids
        if missing:
            raise InvalidScheduleError(f"tasks never scheduled: {sorted(missing)}")

    for p in schedule:
        if p.allotment < 1 or p.allotment > instance.m:
            raise InvalidScheduleError(
                f"task {p.task.task_id}: allotment {p.allotment} outside [1, {instance.m}]"
            )
        if not np.isfinite(p.duration):
            raise InvalidScheduleError(
                f"task {p.task.task_id}: infinite duration for allotment {p.allotment}"
            )
        if p.duration != p.task.p(p.allotment):
            raise InvalidScheduleError(
                f"task {p.task.task_id}: duration {p.duration} on {p.allotment} "
                f"processors, but p({p.allotment}) = {p.task.p(p.allotment)}"
            )
        if p.start < -TIME_EPS:
            raise InvalidScheduleError(
                f"task {p.task.task_id}: negative start {p.start}"
            )
        if check_releases and p.start < p.task.release - TIME_EPS:
            raise InvalidScheduleError(
                f"task {p.task.task_id}: starts at {p.start} before release "
                f"{p.task.release}"
            )

    _check_capacity(schedule)


def _check_capacity(schedule: Schedule) -> None:
    """Sweep the event timeline and verify usage never exceeds ``m``."""
    c = schedule.columns()
    if not c.start.size:
        return
    starts, ends, allot = c.start, c.end, c.allotment

    # Merge events; at equal times process ends before starts (half-open
    # intervals [start, end) — a task ending at t frees its processors for a
    # task starting at t).
    events = np.concatenate(
        [
            np.stack([starts, np.ones_like(starts), allot.astype(np.float64)], axis=1),
            np.stack([ends, np.zeros_like(ends), -allot.astype(np.float64)], axis=1),
        ]
    )
    # Collapse time values within tolerance so that start==end comparisons
    # are robust to floating point noise introduced by compaction.
    order = np.lexsort((events[:, 1], events[:, 0]))
    events = events[order]
    usage = 0.0
    i = 0
    n_events = events.shape[0]
    while i < n_events:
        t = events[i, 0]
        # Apply all events within TIME_EPS of t, ends first (already sorted
        # by the (time, kind) lexsort since kind 0 < kind 1).
        j = i
        while j < n_events and events[j, 0] <= t + TIME_EPS:
            usage += events[j, 2]
            j += 1
        if usage > schedule.m + 1e-6:
            raise InvalidScheduleError(
                f"machine over-subscribed at t={t:.6g}: usage {usage:.6g} > m={schedule.m}"
            )
        i = j


def is_feasible(schedule: Schedule, instance: Instance, **kwargs: bool) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, instance, **kwargs)
    except InvalidScheduleError:
        return False
    return True
