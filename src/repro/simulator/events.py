"""Typed event log for simulated executions, and the event-window queue.

Two pieces live here:

* :class:`EventLog` — the append-only, time-ordered record of what a
  simulated execution did.  Per-job ``STARTED`` / ``COMPLETED`` lookups
  are O(1) through an index maintained on append (the seed scanned the
  whole log per query, which made
  :meth:`~repro.simulator.engine.ExecutionTrace.busy_time` quadratic);
  :meth:`EventLog.of_kind` answers from per-kind lists maintained the
  same way.  The index keeps the *latest* occurrence per (kind, job):
  under the fault plane a crashed job restarts from scratch, and its
  post-restart START/COMPLETED are the ones ``start_of`` /
  ``completion_of`` / ``busy_time`` must report.
* :class:`EventWindowQueue` — the event core of
  :class:`~repro.simulator.engine.ClusterSimulator` and of the windowed
  oracles in :mod:`repro.simulator.windowed`: a min-heap of
  ``(time, priority, id)`` tuples drained in windows of width
  :data:`~repro.core.validation.TIME_EPS`, each window sorted by
  ``(priority, time, id)`` so that ties resolve deterministically and
  completions free resources before simultaneous starts allocate them.
  The FCFS dispatchers and the faulty batch loop run the same windowing
  in one kernel each (:func:`repro.kernels.fcfs_starts_core`,
  :func:`repro.kernels.faulty_batch_core`), and the batch policies cut
  their batches with the same ``t + TIME_EPS`` arrival window.

Boundary semantics (pinned by the test suite, on both sides of the
epsilon):

* **Windows do not chain.**  A window is anchored at its earliest event
  ``t0`` and closes at ``t0 + TIME_EPS`` exactly; an event at
  ``t0 + 1.5·TIME_EPS`` — even one pushed while handling the window at
  ``t0`` — belongs to a *later* window.  Chained windows would let a
  dense event run extend "simultaneity" without bound.
* **The log's tolerance is anchored at the high-water mark.**
  :meth:`EventLog.append` accepts an event iff its time is within
  ``TIME_EPS`` of the *latest time ever appended* — not of the previous
  event's time, which would let each slightly-early event drag the
  acceptance boundary backwards without bound (the dual of the window
  chaining bug).  The test is the window's own form, ``tmax <= time +
  TIME_EPS``, so every order a window hands out is accepted: a window
  anchored at ``t0`` that admits an event at ``tmax`` has already
  checked ``tmax <= t0 + TIME_EPS`` with the same rounding.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.validation import TIME_EPS

__all__ = [
    "EventKind",
    "Event",
    "EventLog",
    "EventWindowQueue",
]


class EventKind(enum.Enum):
    """What happened at a log entry."""

    SUBMITTED = "submitted"
    BATCH_STARTED = "batch_started"
    STARTED = "started"
    COMPLETED = "completed"
    #: Fault-plane events (:mod:`repro.faults.failures`): a machine left
    #: or rejoined the capacity profile (``procs`` carries its id), or a
    #: running job was evicted by a capacity drop and will restart from
    #: scratch (``job_id`` is the victim).
    MACHINE_DOWN = "machine_down"
    MACHINE_UP = "machine_up"
    CRASHED = "crashed"


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence.

    ``procs`` carries the concrete processor ids for START/COMPLETE events;
    ``job_id`` is ``-1`` for batch markers.
    """

    time: float
    kind: EventKind
    job_id: int = -1
    procs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"negative event time {self.time}")


@dataclass
class EventLog:
    """Append-only, time-ordered collection of events.

    ``start_of`` / ``completion_of`` answer in O(1) from a per-job index
    maintained incrementally, and :meth:`of_kind` from per-kind lists
    maintained the same way.  The per-job index keeps the **latest**
    occurrence: when the fault plane restarts a crashed job from scratch,
    its pre-crash START/COMPLETED are superseded by the attempt that
    actually finished.
    """

    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: dict[tuple[EventKind, int], Event] = {}
        self._by_kind: dict[EventKind, list[Event]] = {}
        self._tmax = -math.inf
        for e in self.events:
            self._remember(e)

    def _remember(self, event: Event) -> None:
        if event.kind in (EventKind.STARTED, EventKind.COMPLETED):
            self._index[(event.kind, event.job_id)] = event
        self._by_kind.setdefault(event.kind, []).append(event)
        if event.time > self._tmax:
            self._tmax = event.time

    def append(self, event: Event) -> None:
        if self._tmax > event.time + TIME_EPS:
            raise ValueError(
                f"event at {event.time} appended after {self._tmax}"
            )
        self.events.append(event)
        self._remember(event)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        """All events of one kind, in append (time) order — O(result)."""
        return list(self._by_kind.get(kind, ()))

    def start_of(self, job_id: int) -> Event:
        """The latest START event of ``job_id`` (KeyError if absent)."""
        try:
            return self._index[(EventKind.STARTED, job_id)]
        except KeyError:
            raise KeyError(f"job {job_id} never started") from None

    def completion_of(self, job_id: int) -> Event:
        """The latest COMPLETED event of ``job_id`` (KeyError if absent)."""
        try:
            return self._index[(EventKind.COMPLETED, job_id)]
        except KeyError:
            raise KeyError(f"job {job_id} never completed") from None


class EventWindowQueue:
    """Min-heap of ``(time, priority, id)`` drained in TIME_EPS windows.

    Events within :data:`~repro.core.validation.TIME_EPS` of the window's
    first event form one processing instant, returned sorted by
    ``(priority, time, id)``: at equal times, lower priorities act first
    (by convention completions come first, so processors are freed before
    simultaneous submissions are logged and starts allocate).  Pushes made
    while a window is being handled land in the heap and surface in a
    later window — the exact semantics of the seed simulator loop, which
    the dispatch kernels reproduce.  Windows are anchored, not chained:
    the window at ``t0`` closes at ``t0 + TIME_EPS`` no matter what is
    pushed while it is handled.
    """

    __slots__ = ("_heap",)

    def __init__(self, events: Iterable[tuple[float, int, int]] = ()) -> None:
        self._heap: list[tuple[float, int, int]] = list(events)
        heapq.heapify(self._heap)

    def push(self, time: float, priority: int, ident: int) -> None:
        heapq.heappush(self._heap, (time, priority, ident))

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def pop_window(self) -> list[tuple[float, int, int]]:
        """Pop every event within TIME_EPS of the earliest one, sorted by
        ``(priority, time, id)``."""
        heap = self._heap
        window = [heapq.heappop(heap)]
        t0 = window[0][0]
        while heap and heap[0][0] <= t0 + TIME_EPS:
            window.append(heapq.heappop(heap))
        window.sort(key=lambda e: (e[1], e[0], e[2]))
        return window
