"""Schedules: the output of every algorithm in the library.

A schedule is a set of decisions ``(task, start, allotment)``.  Because the
cluster is homogeneous and allocations need not be contiguous, feasibility
only requires that at every instant the total allotment of running tasks is
at most ``m`` (a *count-feasible* schedule).  Count-feasibility implies an
explicit processor assignment exists without migration — at any task's start
the running tasks hold at most ``m - k`` processors, so ``k`` free ones can
be picked greedily; :meth:`Schedule.assign_processors` materialises one such
assignment for the simulator and for Gantt rendering.

A :class:`Schedule` is a *placement table*: parallel columns in insertion
order — task id, start, allotment, duration, end, weight and release —
plus the instance rows (or task objects) the placements come from.
Producers append whole blocks (:meth:`Schedule.add_rows`, the bulk form of
:meth:`Schedule.add`, with the same checks); the criteria read the columns
(:meth:`Schedule.columns`).  :class:`ScheduledTask` objects are *views*,
built only when a caller iterates, looks a task up by id or validates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.task import MoldableTask
from repro.exceptions import InvalidScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only (instance imports task)
    from repro.core.instance import Instance

__all__ = ["ScheduledTask", "Schedule", "PlacementColumns"]


@dataclass(frozen=True)
class ScheduledTask:
    """One scheduling decision.

    Attributes
    ----------
    task:
        The moldable task being placed.
    start:
        Start time (``>= 0``; ``>= task.release`` in on-line settings).
    allotment:
        Number of processors ``k`` the task runs on for its whole duration.
    duration:
        Processing time ``p(allotment)`` — derived, precomputed once (the
        metric sweeps read it per placement, and ``p()`` is not free).
    end:
        Completion time ``C_i = start + p(allotment)`` — derived likewise.
    """

    task: MoldableTask
    start: float
    allotment: int
    duration: float = field(init=False)
    end: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "duration", self.task.p(self.allotment))
        object.__setattr__(self, "end", self.start + self.duration)

    @classmethod
    def _view(
        cls, task: MoldableTask, start: float, allotment: int, duration: float, end: float
    ) -> "ScheduledTask":
        """A view of one row of a :class:`Schedule`'s table: the stored
        duration and end are taken as they are, not re-derived (the
        validator compares the stored duration with ``p(allotment)``)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "task", task)
        object.__setattr__(obj, "start", start)
        object.__setattr__(obj, "allotment", allotment)
        object.__setattr__(obj, "duration", duration)
        object.__setattr__(obj, "end", end)
        return obj

    @property
    def work(self) -> float:
        """Gantt area ``allotment * duration``."""
        return self.allotment * self.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledTask(id={self.task.task_id}, start={self.start:.3g}, "
            f"k={self.allotment}, end={self.end:.3g})"
        )


class PlacementColumns(NamedTuple):
    """The placement table of a :class:`Schedule`, in insertion order.

    ``end[i]`` is ``start[i] + duration[i]``; ``weight`` and ``release``
    are the placed tasks' own.  The arrays are read-only.
    """

    task_id: np.ndarray
    start: np.ndarray
    allotment: np.ndarray
    duration: np.ndarray
    end: np.ndarray
    weight: np.ndarray
    release: np.ndarray


#: Up to this many rows the checks read Python scalars: one numpy
#: reduction costs about as much as a list of this length.
_SMALL = 32


def check_columns(
    m: int, allotments: np.ndarray, durations: np.ndarray, ids, starts=None
) -> None:
    """The checks of :meth:`Schedule.add`, over whole columns: every
    allotment in ``[1, m]``, every duration finite and, when ``starts``
    is given, no negative start.

    ``ids`` (a sequence, or a callable of a position) names the first
    offender in the :class:`~repro.exceptions.InvalidScheduleError`.
    List scheduling runs these before its kernel and appends without
    repeating them.
    """
    n = allotments.size
    if not n:
        return
    if n <= _SMALL:
        allot = allotments.tolist()
        lo, hi = min(allot), max(allot)
        total = sum(durations.tolist())
        negative = starts is not None and any(map((0.0).__gt__, starts.tolist()))
    else:
        lo, hi = allotments.min(), allotments.max()
        total = durations.sum()
        negative = starts is not None and bool((starts < 0).any())
    if lo < 1 or hi > m:
        i = int(np.flatnonzero((allotments < 1) | (allotments > m))[0])
        raise InvalidScheduleError(
            f"task {_id_at(ids, i)}: allotment {int(allotments[i])} outside [1, {m}]"
        )
    # The sum of finite values may still overflow: only then does the
    # elementwise test decide.
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(durations))
        if bad.size:
            i = int(bad[0])
            raise InvalidScheduleError(
                f"task {_id_at(ids, i)}: allotment {int(allotments[i])} is "
                f"forbidden (p=inf)"
            )
    if negative:
        i = int(np.flatnonzero(starts < 0)[0])
        raise InvalidScheduleError(
            f"task {_id_at(ids, i)}: negative start time {float(starts[i])}"
        )


def _id_at(ids, i: int) -> int:
    return ids(i) if callable(ids) else int(ids[i])


class Schedule:
    """A placement table; see the module docstring.

    Build one with :meth:`add` (one placement) or :meth:`add_rows` (a block
    of instance rows), both checked; list scheduling and the on-line loops
    append whole blocks.  ``Schedule(m, placements)`` adopts existing
    :class:`ScheduledTask` objects as they are and rejects only duplicate
    ids.  Criteria (`makespan`, weighted completion sum, ...) read the
    columns; :mod:`repro.core.metrics` wraps them and validation lives in
    :mod:`repro.core.validation`.
    """

    def __init__(self, m: int, placements: Iterable[ScheduledTask] = ()) -> None:
        if m < 1:
            raise InvalidScheduleError(f"schedule needs m >= 1 processors, got {m}")
        self.m = int(m)
        # Appended blocks, in order: ``(ids, start, allotment, duration,
        # end, segments)``, where ``segments`` say where the block's task
        # objects come from, in row order — ``(instance, rows)`` pairs, or
        # ``(None, tasks)`` for placements made one at a time.
        self._blocks: list[tuple] = []
        self._ids: set[int] = set()
        # Everything derived from the blocks (joined columns, views, the
        # id index, the usage profile), dropped on every append.
        self._cache: dict = {}
        # Placements made one at a time, not yet folded into a block.
        self._open: list[ScheduledTask] = []
        for p in placements:
            tid = p.task.task_id
            if tid in self._ids:
                raise InvalidScheduleError(f"task {tid} scheduled twice")
            self._ids.add(tid)
            self._open.append(p)

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #
    def add(self, task: MoldableTask, start: float, allotment: int) -> ScheduledTask:
        """Place ``task`` at ``start`` on ``allotment`` processors.

        Raises
        ------
        InvalidScheduleError
            If the task is already placed, the allotment is out of range or
            forbidden (``p(k) = +inf``), or the start time is negative.
        """
        if task.task_id in self._ids:
            raise InvalidScheduleError(f"task {task.task_id} scheduled twice")
        if allotment < 1 or allotment > self.m:
            raise InvalidScheduleError(
                f"task {task.task_id}: allotment {allotment} outside [1, {self.m}]"
            )
        if start < 0:
            raise InvalidScheduleError(
                f"task {task.task_id}: negative start time {start}"
            )
        placement = ScheduledTask(task, float(start), int(allotment))
        if not math.isfinite(placement.duration):
            raise InvalidScheduleError(
                f"task {task.task_id}: allotment {allotment} is forbidden (p=inf)"
            )
        self._ids.add(task.task_id)
        self._open.append(placement)
        self._changed()
        return placement

    def extend(self, placements: Iterable[ScheduledTask]) -> None:
        """Add several placements (same checks as :meth:`add`)."""
        for p in placements:
            self.add(p.task, p.start, p.allotment)

    def add_rows(
        self,
        instance: "Instance",
        rows,
        starts,
        allotments,
        durations,
    ) -> None:
        """Place the tasks of ``instance``'s ``rows`` in one block.

        The bulk form of :meth:`add`: placement ``i`` is row ``rows[i]`` at
        ``starts[i]`` on ``allotments[i]`` processors for ``durations[i]``
        (its end is ``starts[i] + durations[i]``).  The block is rejected
        with :class:`~repro.exceptions.InvalidScheduleError`, and nothing
        is placed, on every input :meth:`add` rejects: a task placed twice
        (within the block or already in the schedule), an allotment
        outside ``[1, m]``, a non-finite duration or a negative start.
        The durations are stored as given; :func:`~repro.core.validation.
        validate_schedule` compares them with ``p(allotment)``.
        """
        # Copies: the table must not change when the caller's arrays do.
        rows = np.array(rows, dtype=np.intp)
        start = np.array(starts, dtype=np.float64)
        allot = np.array(allotments, dtype=np.int64)
        dur = np.array(durations, dtype=np.float64)
        if not (start.shape == allot.shape == dur.shape == rows.shape) or rows.ndim != 1:
            raise ValueError("rows, starts, allotments and durations must be parallel 1-D")
        ids = instance.task_ids[rows]
        check_columns(self.m, allot, dur, ids, start)
        self._append(ids, start, allot, dur, start + dur, [(instance, rows)])

    def _append(self, ids, start, allot, dur, end, segments) -> None:
        """Append a block whose allotments, durations and starts the
        caller has checked; duplicate ids are rejected here."""
        id_list = ids.tolist()
        if len(id_list) == 1:
            duplicate = id_list[0] in self._ids
        else:
            new = set(id_list)
            duplicate = len(new) != len(id_list) or not self._ids.isdisjoint(new)
        if duplicate:
            seen = set(self._ids)
            for tid in id_list:
                if tid in seen:
                    raise InvalidScheduleError(f"task {tid} scheduled twice")
                seen.add(tid)
        self._fold()
        self._ids.update(id_list)
        self._blocks.append((ids, start, allot, dur, end, segments))
        self._changed()

    def _fold(self) -> None:
        """Turn the placements made one at a time into a block."""
        ps = self._open
        if not ps:
            return
        self._open = []
        self._blocks.append((
            np.array([p.task.task_id for p in ps], dtype=np.int64),
            np.array([p.start for p in ps], dtype=np.float64),
            np.array([p.allotment for p in ps], dtype=np.int64),
            np.array([p.duration for p in ps], dtype=np.float64),
            np.array([p.end for p in ps], dtype=np.float64),
            [(None, [p.task for p in ps])],
        ))

    def _changed(self) -> None:
        if self._cache:
            self._cache.clear()

    def _shifted(self, now: float) -> tuple:
        """``(ids, start, allotment, duration, end, segments, cut)`` of
        this schedule moved ``now`` later: each start is ``now + start``
        and each end ``start + duration`` of the moved start, while
        ``cut`` is ``max(now + end)`` — the two ends differ in the last
        ulp, and the on-line batch loops pin both."""
        ids, start, allot, dur, end = self._base()
        start = now + start
        cut = float((now + end).max()) if end.size else now
        return ids, start, allot, dur, start + dur, self._segments(), cut

    # ------------------------------------------------------------------ #
    # The table                                                          #
    # ------------------------------------------------------------------ #
    def _base(self) -> tuple:
        """``(ids, start, allotment, duration, end)``, all blocks joined."""
        base = self._cache.get("joined")
        if base is None:
            self._fold()
            blocks = self._blocks
            if len(blocks) == 1:
                base = blocks[0][:5]
            elif blocks:
                base = tuple(np.concatenate(col) for col in list(zip(*blocks))[:5])
            else:
                base = tuple(
                    np.empty(0, dtype=dtype)
                    for dtype in (np.int64, np.float64, np.int64, np.float64, np.float64)
                )
            self._cache["joined"] = base
        return base

    def columns(self) -> PlacementColumns:
        """The placement table (read-only arrays, insertion order)."""
        table = self._cache.get("table")
        if table is None:
            weights, releases = [], []
            for source, index in self._segments():
                if source is None:
                    weights.append(np.array([t.weight for t in index], dtype=np.float64))
                    releases.append(np.array([t.release for t in index], dtype=np.float64))
                else:
                    weights.append(source.weights[index])
                    releases.append(source.releases[index])
            cols = list(self._base())
            for part in (weights, releases):
                cols.append(
                    part[0] if len(part) == 1
                    else np.concatenate(part) if part
                    else np.empty(0, dtype=np.float64)
                )
            for col in cols:  # the table's own arrays, never written again
                col.setflags(write=False)
            table = self._cache["table"] = PlacementColumns(*cols)
        return table

    def _segments(self) -> list:
        self._fold()
        return [seg for block in self._blocks for seg in block[5]]

    def _view_list(self) -> list[ScheduledTask]:
        views = self._cache.get("views")
        if views is None:
            c = self.columns()
            tasks: list[MoldableTask] = []
            for source, index in self._segments():
                if source is None:
                    tasks += index
                else:
                    objs = source.tasks
                    tasks += [objs[r] for r in index.tolist()]
            view = ScheduledTask._view
            views = self._cache["views"] = [
                view(t, s, k, d, e)
                for t, s, k, d, e in zip(
                    tasks, c.start.tolist(), c.allotment.tolist(),
                    c.duration.tolist(), c.end.tolist(),
                )
            ]
        return views

    # ------------------------------------------------------------------ #
    # Container protocol                                                 #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._view_list())

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._ids

    def __getitem__(self, task_id: int) -> ScheduledTask:
        positions = self._cache.get("positions")
        if positions is None:
            ids = self.columns().task_id.tolist()
            positions = self._cache["positions"] = dict(zip(ids, range(len(ids))))
        try:
            return self._view_list()[positions[task_id]]
        except KeyError:
            raise KeyError(f"task {task_id} not scheduled") from None

    @property
    def placements(self) -> Sequence[ScheduledTask]:
        """All placements, in insertion order."""
        return tuple(self._view_list())

    def task_ids(self) -> set[int]:
        """Ids of all scheduled tasks."""
        return set(self._ids)

    # ------------------------------------------------------------------ #
    # Derived quantities                                                 #
    # ------------------------------------------------------------------ #
    def completion_times(self) -> dict[int, float]:
        """Mapping ``task_id -> C_i``."""
        ids, _, _, _, end = self._base()
        return dict(zip(ids.tolist(), end.tolist()))

    def makespan(self) -> float:
        """``Cmax = max_i C_i`` (0 for an empty schedule)."""
        end = self._base()[4]
        return float(end.max()) if end.size else 0.0

    def weighted_completion_sum(self) -> float:
        """``sum_i w_i * C_i`` — the paper's minsum criterion.

        Summed left to right in insertion order (the builtin ``sum`` of the
        products, not numpy's pairwise sum): the value is the seed's to
        the last bit.
        """
        c = self.columns()
        return float(sum((c.weight * c.end).tolist()))

    def max_usage(self) -> int:
        """Peak number of processors simultaneously in use."""
        profile = self.usage_profile()
        if profile.size == 0:
            return 0
        return int(profile.max())

    def usage_profile(self) -> np.ndarray:
        """Processor usage between consecutive events.

        Returns the usage over each interval of the event timeline (one
        entry per gap between consecutive distinct start/end times).
        """
        events = self._cache.get("events")
        if events is None:
            events = self._cache["events"] = self._events()
        return events[1]

    def _events(self) -> tuple[np.ndarray, np.ndarray]:
        """(timeline, usage) — usage[i] holds between timeline[i] and [i+1]."""
        c = self.columns()
        if not c.start.size:
            return np.array([]), np.array([], dtype=np.int64)
        starts, ends, allot = c.start, c.end, c.allotment
        timeline = np.unique(np.concatenate([starts, ends]))
        # +k at start, -k at end, cumulative over the timeline.
        delta = np.zeros(timeline.size, dtype=np.int64)
        si = np.searchsorted(timeline, starts)
        ei = np.searchsorted(timeline, ends)
        np.add.at(delta, si, allot)
        np.add.at(delta, ei, -allot)
        usage = np.cumsum(delta)
        return timeline, usage

    # ------------------------------------------------------------------ #
    # Explicit processor assignment                                      #
    # ------------------------------------------------------------------ #
    def assign_processors(self) -> dict[int, tuple[int, ...]]:
        """Assign concrete processor ids ``0..m-1`` to every placement.

        Greedy sweep in start-time order; succeeds for every count-feasible
        schedule (see module docstring).  Raises
        :class:`InvalidScheduleError` if the schedule over-subscribes the
        machine (so it doubles as a feasibility check).
        """
        c = self.columns()
        ids, starts = c.task_id.tolist(), c.start.tolist()
        allots, ends = c.allotment.tolist(), c.end.tolist()
        free: list[int] = list(range(self.m))  # ids currently free (sorted-ish)
        # Event sweep in (start, insertion) order; a placement's processors
        # return to the pool once its end is reached.
        order = sorted(range(len(ids)), key=lambda i: (starts[i], i))
        assignment: dict[int, tuple[int, ...]] = {}
        heap: list[tuple[float, int]] = []
        held: dict[int, tuple[int, ...]] = {}
        for idx in order:
            start, k = starts[idx], allots[idx]
            while heap and heap[0][0] <= start + 1e-12:
                _, done = heapq.heappop(heap)
                free.extend(held.pop(done))
            if len(free) < k:
                raise InvalidScheduleError(
                    f"schedule over-subscribes the machine at t={start:.6g}: "
                    f"task {ids[idx]} needs {k}, only {len(free)} free"
                )
            free.sort()
            procs = tuple(free[:k])
            del free[:k]
            held[idx] = procs
            heapq.heappush(heap, (ends[idx], idx))
            assignment[ids[idx]] = procs
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(m={self.m}, tasks={len(self)}, Cmax={self.makespan():.4g})"
