"""Graham list scheduling for moldable tasks with *fixed* allotments.

Given a priority-ordered list of ``(task, allotment)`` pairs, the scheduler
never leaves processors idle while some listed task fits: at every event
(time 0 and every task completion) it scans the remaining list in order and
starts each task whose allotment fits in the currently free processors.
This is the classical multiprocessor list scheduling of Garey & Graham
(paper ref [11]) extended to multi-processor tasks, and it is the engine
behind

* the compaction step of DEMT (§3.2 — "a list algorithm with the batch
  ordering"), and
* the three List-Graham baselines of §4.1 (shelf order, weighted LPTF,
  SAF), WSPT and Sequential.

A list is given as arrays: per item an allotment and a duration, per
*member* an instance row.  An item is one task, or a merged stack of small
sequential tasks run back to back on one processor inside the item's
reservation (its members, in execution order).  The simulation is the
kernel :func:`repro.core.profile.graham_starts`; :func:`list_schedule`
expands its start times into member placements and appends them to a
:class:`~repro.core.schedule.Schedule` as one block — no per-item object
is built.  :class:`ListItem` is the object form of one entry (DEMT's
:attr:`~repro.algorithms.demt.DemtResult.batches`, the seed oracles);
:func:`schedule_items` converts a list of them into the arrays.  The
output is bit-for-bit identical to the seed's pending-list rescan
(``repro.algorithms.reference.reference_list_schedule``), which the
differential suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.instance import Instance
from repro.core.profile import graham_starts
from repro.core.schedule import Schedule, check_columns
from repro.core.task import MoldableTask
from repro.exceptions import InvalidScheduleError

__all__ = ["ListItem", "list_schedule", "place_items", "schedule_items"]


@dataclass(frozen=True)
class ListItem:
    """One entry of the priority list.

    ``stack`` optionally carries tasks to run back-to-back *inside* the
    item's reservation (used when a merged stack of small sequential tasks
    is scheduled as a single allotment-1 unit).  When ``stack`` is empty the
    item is the single ``task``.
    """

    task: MoldableTask
    allotment: int
    stack: tuple[MoldableTask, ...] = ()

    @property
    def duration(self) -> float:
        if self.stack:
            return sum(t.seq_time for t in self.stack)
        return self.task.p(self.allotment)


def list_schedule(
    instance: Instance,
    rows: np.ndarray,
    allotments: np.ndarray,
    durations: np.ndarray,
    *,
    members: np.ndarray | None = None,
    schedule: Schedule | None = None,
    start_time: float = 0.0,
) -> Schedule:
    """Run Graham list scheduling over a list of ``instance``'s rows.

    Parameters
    ----------
    instance:
        The tasks, and the machine size ``m = instance.m``.
    rows:
        The members' instance rows, item after item (one per item when
        ``members`` is ``None``).
    allotments, durations:
        Per item, in priority order (earlier items are preferred whenever
        several fit).  A task's duration is ``p(allotment)``; a stack's is
        the left-to-right sum of its members' ``p(1)`` from 0.
    members:
        Optional per-item member counts.  An item with several members is
        a stack: its members run on one processor, the first at the item's
        start ``t``, the next at ``t + p₁``, then ``(t + p₁) + p₂``, ...
    schedule:
        Optional schedule to append to (must use the same ``m``); placements
        already present are *not* considered to occupy processors — callers
        schedule into a fresh machine unless they pass ``start_time`` beyond
        the existing horizon.
    start_time:
        Time before which nothing may start (used by the on-line batch
        framework to anchor a batch after the previous one).

    The placements are appended in the kernel's chronological placement
    order (stack members in place) — the insertion order the seed
    produced, so metric summations match it exactly.  The allotments and
    durations get :meth:`Schedule.add`'s checks once, before the kernel
    runs; duplicates are rejected by the append.  Returns the (possibly
    shared) :class:`Schedule`.
    """
    m = instance.m
    out = schedule if schedule is not None else Schedule(m)
    allot = np.asarray(allotments, dtype=np.int64)
    if not allot.size:
        return out
    dur = np.asarray(durations, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    if members is None:
        first = rows
    else:
        members = np.asarray(members, dtype=np.int64)
        first = rows[np.cumsum(members) - members]
    check_columns(m, allot, dur, lambda i: int(instance.task_ids[first[i]]))
    if start_time < 0:
        raise InvalidScheduleError(
            f"task {int(instance.task_ids[first[0]])}: negative start time {start_time}"
        )
    starts, order = graham_starts(allot, dur, m, start_time=start_time)
    return place_items(out, instance, rows, allot, dur, starts, order, members)


def place_items(
    schedule: Schedule,
    instance: Instance,
    rows: np.ndarray,
    allotments: np.ndarray,
    durations: np.ndarray,
    starts: np.ndarray,
    order: np.ndarray,
    members: np.ndarray | None = None,
) -> Schedule:
    """Append items to ``schedule``: item ``i`` at ``starts[i]``, in the
    item order ``order``, each stack's members in place and back to back.

    The one materialisation path of list scheduling and of DEMT's shelf
    and pull-forward placements.  The caller has checked the allotments
    and durations (:func:`~repro.core.schedule.check_columns`) and that
    the starts are non-negative; the append rejects duplicate tasks.
    """
    if members is None:
        if len(order) == 1:  # one item: nothing to reorder
            r, s, k, d = rows, starts, allotments, durations
        else:
            r, s, k, d = rows[order], starts[order], allotments[order], durations[order]
    else:
        r, s, k, d = _expand(instance, rows, members, starts, allotments, durations, order)
    schedule._append(instance.task_ids[r], s, k, d, s + d, [(instance, r)])
    return schedule


def _expand(instance, rows, counts, starts, allot, dur, order):
    """Member columns ``(rows, starts, allotments, durations)`` in
    placement order, every stack expanded in place."""
    c = counts[order]
    base = np.cumsum(c) - c  # first output position of each placed item
    pos = np.arange(int(c.sum())) - np.repeat(base, c)  # position in its item
    r = rows[np.repeat((np.cumsum(counts) - counts)[order], c) + pos]
    s = np.repeat(starts[order], c)
    k = np.repeat(allot[order], c)
    d = np.repeat(dur[order], c)
    stacked = c > 1
    if stacked.any():
        member = np.repeat(stacked, c)
        k[member] = 1
        d[member] = instance.times_matrix[r[member], 0]
        # Back to back from the item's start, accumulated left to right.
        s_list, d_list = s.tolist(), d.tolist()
        for o, n in zip(base[stacked].tolist(), c[stacked].tolist()):
            t = s_list[o]
            for j in range(o, o + n - 1):
                t += d_list[j]
                s_list[j + 1] = t
        s = np.array(s_list, dtype=np.float64)
    return r, s, k, d


def schedule_items(
    items: Sequence[ListItem],
    m: int,
    *,
    schedule: Schedule | None = None,
    start_time: float = 0.0,
) -> Schedule:
    """:func:`list_schedule` over :class:`ListItem` objects.

    A conversion only: the items' tasks (stack members in order) become
    the rows of an object-backed :class:`Instance` on ``m`` processors,
    and the list runs through :func:`list_schedule`.
    """
    out = schedule if schedule is not None else Schedule(m)
    if not items:
        return out
    tasks = [t for it in items for t in (it.stack or (it.task,))]
    return list_schedule(
        Instance(tasks, m),
        np.arange(len(tasks)),
        np.array([it.allotment for it in items], dtype=np.int64),
        np.array([it.duration for it in items], dtype=np.float64),
        members=np.array([len(it.stack) or 1 for it in items], dtype=np.int64),
        schedule=out,
        start_time=start_time,
    )
