"""Typed event log for simulated executions, and the shared event spine.

Three pieces live here:

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
* :class:`EventWindowQueue` — the event core shared by
  :class:`~repro.simulator.engine.ClusterSimulator` and the on-line
  policies of :mod:`repro.simulator.online`: a min-heap of
  ``(time, priority, id)`` tuples drained in windows of width
  :data:`~repro.core.validation.TIME_EPS`, each window sorted by
  ``(priority, time, id)`` so that ties resolve deterministically and
  completions free resources before simultaneous starts allocate them.
* :class:`EventSpine` — the incremental event spine the batch policies
  and the simulator engine run on: an :class:`EventWindowQueue` with
  typed :class:`Transition` priorities, a per-job running index, an
  incremental free-capacity count (``used`` / ``free``) and an
  incremental busy-time integral, all O(log n) per event.  The FCFS
  dispatchers and the faulty batch loop run the same windowing in one
  kernel each (:func:`repro.kernels.fcfs_starts_core`,
  :func:`repro.kernels.faulty_batch_core`).

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
  chaining bug).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.core.validation import TIME_EPS

__all__ = [
    "EventKind",
    "Event",
    "EventLog",
    "EventWindowQueue",
    "Transition",
    "EventSpine",
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
        if event.time < self._tmax - TIME_EPS:
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
    later window — the exact semantics of the seed simulator loop, now
    shared with the on-line policies.  Windows are anchored, not chained:
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


class Transition(enum.IntEnum):
    """Typed event priorities of the spine's heap.

    The integer values *are* the within-window ordering: at equal times,
    FINISH frees capacity first, CANCEL tombstones are resolved next,
    ARRIVAL enqueues before capacity changes RESERVE, and START allocates
    last.  The relative order of the subsets each consumer uses matches
    the untyped priorities the pre-spine loops pushed (completions 0,
    submissions/arrivals and capacity changes in between, starts last),
    so schedules stay bit-identical.
    """

    FINISH = 0
    CANCEL = 1
    ARRIVAL = 2
    RESERVE = 3
    START = 4


#: Counter names per :class:`Transition` value (``.get`` fallback keeps
#: untyped priorities pushed through the raw queue API from crashing the
#: tally).
_TRANSITION_COUNTERS = {
    0: "spine.transitions.finish",
    1: "spine.transitions.cancel",
    2: "spine.transitions.arrival",
    3: "spine.transitions.reserve",
    4: "spine.transitions.start",
}


class EventSpine(EventWindowQueue):
    """The incremental event core: windowed heap + running-set profile.

    One :class:`EventWindowQueue` that also *owns the simulation state*
    every consumer used to rebuild ad hoc:

    * the **running set** — ``start(job, k, now, end)`` allocates ``k``
      processors and schedules the FINISH transition; ``finish(job, t)``
      resolves it;
    * the **free-capacity count** — ``used`` / ``free`` are O(1);
    * the **busy-time integral** — ``busy_time`` accumulates
      ``k · (finish − start)`` per completed run, so utilization needs
      no post-hoc log scan;
    * the **arrival tape** — ``load_arrivals`` + ``take_arrivals`` /
      ``next_arrival`` expose a release-sorted arrival cursor with the
      shared ``t + TIME_EPS`` batch-cut windowing, so batch policies and
      the heap agree on what "has arrived" means.

    Every operation is O(log n) amortised.  ``m`` is the capacity the
    ``free`` property reports against.
    """

    __slots__ = (
        "m",
        "_used",
        "_busy",
        "_running",
        "_rel",
        "_arr_ids",
        "_arr_head",
    )

    def __init__(
        self, m: int, events: Iterable[tuple[float, int, int]] = ()
    ) -> None:
        super().__init__(events)
        self.m = int(m)
        self._used = 0
        self._busy = 0.0
        #: job -> (start, allotment)
        self._running: dict[int, tuple[float, int]] = {}
        self._rel = None
        self._arr_ids = None
        self._arr_head = 0

    # -- typed pushes -------------------------------------------------

    def at(self, time: float, transition: Transition, ident: int = -1) -> None:
        """Schedule a typed transition (a ``push`` with a named priority)."""
        self.push(time, int(transition), ident)

    def pop_window(self) -> list[tuple[float, int, int]]:
        """Windowed pop (see :meth:`EventWindowQueue.pop_window`) plus the
        observability tally: per-:class:`Transition` counters and the
        window-depth histogram.  Pure bookkeeping — the returned window is
        exactly the superclass's, and the disabled path adds one attribute
        load and an ``is``-check."""
        window = super().pop_window()
        state = obs.ACTIVE
        if state is not None:
            counters = _TRANSITION_COUNTERS
            for _t, priority, _i in window:
                state.count(counters.get(priority, "spine.transitions.other"))
            state.observe("spine.window_depth", len(window))
        return window

    # -- running set / capacity profile -------------------------------

    @property
    def used(self) -> int:
        """Processors currently allocated to running jobs."""
        return self._used

    @property
    def free(self) -> int:
        """Processors currently free (against the live capacity ``m``)."""
        return self.m - self._used

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def busy_time(self) -> float:
        """Processor-seconds of *completed* work so far (crashes excluded)."""
        return self._busy

    def __contains__(self, job: int) -> bool:
        return job in self._running

    def start(self, job: int, k: int, now: float, end: float) -> None:
        """Allocate ``k`` processors to ``job`` and schedule its FINISH."""
        self._running[job] = (now, k)
        self._used += k
        self.push(end, int(Transition.FINISH), job)

    def finish(self, job: int, time: float) -> tuple[float, int]:
        """Resolve a popped FINISH transition: release the job's
        processors, credit its busy time and return ``(start,
        allotment)``."""
        start, k = self._running.pop(job)
        self._used -= k
        self._busy += k * (time - start)
        return start, k

    # -- arrival tape --------------------------------------------------

    def load_arrivals(self, releases, idents) -> None:
        """Attach the release-sorted arrival tape (parallel arrays of
        release times and task ids, already in arrival order)."""
        self._rel = releases
        self._arr_ids = idents
        self._arr_head = 0

    def next_arrival(self) -> "float | None":
        """Release time of the next unconsumed arrival (None when done)."""
        if self._rel is None or self._arr_head >= len(self._rel):
            return None
        return float(self._rel[self._arr_head])

    def take_arrivals(self, now: float) -> tuple[int, int]:
        """Consume every arrival released by ``now`` (inclusive of the
        shared ``TIME_EPS`` batch-cut window) and return its half-open
        index range ``(lo, hi)`` on the arrival tape.  When nothing has
        arrived yet the range is empty and the cursor does not move."""
        lo = self._arr_head
        hi = int(np.searchsorted(self._rel, now + TIME_EPS, side="right"))
        if hi <= lo:
            return lo, lo
        self._arr_head = hi
        state = obs.ACTIVE
        if state is not None:
            # The tape is the batch policies' arrival path (the FCFS
            # policies count the arrivals of their kernel's windows; both
            # land on the same counter, and no policy uses both).
            state.count("spine.transitions.arrival", hi - lo)
        return lo, hi
