"""Discrete-event execution of schedules on a simulated cluster.

:class:`ClusterSimulator.execute` replays a :class:`~repro.core.schedule.
Schedule` against a :class:`~repro.simulator.cluster.Cluster`: jobs are
started at their scheduled times on concrete processor ids and release them
on completion.  The replay is an *independent* feasibility oracle — it
shares no code with :mod:`repro.core.validation` — and produces the typed
event log plus summary statistics that the examples and the on-line
framework build on.  It runs on an
:class:`~repro.simulator.events.EventWindowQueue`, with the event
priorities below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError
from repro.simulator.cluster import Cluster
from repro.simulator.events import Event, EventKind, EventLog, EventWindowQueue

__all__ = ["ExecutionTrace", "ClusterSimulator"]

#: Event priorities within a window: completions free processors before
#: submissions are logged, and both before starts allocate.
FINISH, ARRIVAL, START = 0, 1, 2

#: Observability counter per priority; the ``spine.`` names predate this
#: loop and are kept so traces stay comparable.
_COUNTERS = (
    "spine.transitions.finish",
    "spine.transitions.arrival",
    "spine.transitions.start",
)


@dataclass
class ExecutionTrace:
    """Everything observed while executing a schedule."""

    log: EventLog
    makespan: float
    processor_assignment: dict[int, tuple[int, ...]]
    completion_times: dict[int, float] = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.processor_assignment)

    def busy_time(self) -> float:
        """Total processor-seconds consumed.

        One indexed log lookup per completed job (the
        :class:`~repro.simulator.events.EventLog` keeps a per-job event
        index), summed in completion order, so this is linear in the
        number of jobs even on archive-scale executions.
        """
        total = 0.0
        for job_id, end in self.completion_times.items():
            start = self.log.start_of(job_id).time
            total += len(self.processor_assignment[job_id]) * (end - start)
        return total

    def utilization(self, m: int) -> float:
        """Busy fraction of the ``m x makespan`` rectangle."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_time() / (m * self.makespan)


class ClusterSimulator:
    """Replays schedules event by event on an explicit processor pool."""

    def __init__(self, m: int) -> None:
        self.m = int(m)

    def execute(self, schedule: Schedule, instance: Instance | None = None) -> ExecutionTrace:
        """Execute ``schedule``; raise :class:`SchedulingError` on conflicts.

        When ``instance`` is given, submission events are logged at release
        dates and a job starting before its release is an error — the
        execution-level counterpart of the validation module's static
        check.
        """
        if schedule.m != self.m:
            raise SchedulingError(
                f"schedule built for m={schedule.m}, simulator has m={self.m}"
            )
        cluster = Cluster(self.m)
        log = EventLog()

        placements = {p.task.task_id: p for p in schedule}
        all_events: list[tuple[float, int, int]] = []
        if instance is not None:
            for task in instance:
                all_events.append((task.release, ARRIVAL, task.task_id))
        for job_id, p in placements.items():
            all_events.append((p.start, START, job_id))
            if instance is not None and p.start < p.task.release - TIME_EPS:
                raise SchedulingError(
                    f"job {job_id} starts at {p.start} before release {p.task.release}"
                )
        assignment: dict[int, tuple[int, ...]] = {}
        completion_times: dict[int, float] = {}

        # Events within TIME_EPS of each other form one processing window,
        # handled completions-first: shifted schedules (on-line batches) can
        # place a start one ulp before the completion that frees its
        # processors, and the static validator tolerates exactly this noise.
        queue = EventWindowQueue(all_events)
        while queue:
            window = queue.pop_window()
            state = obs.ACTIVE
            if state is not None:
                for _t, kind, _j in window:
                    state.count(_COUNTERS[kind])
                state.observe("spine.window_depth", len(window))
            for time, kind, job_id in window:
                if kind == FINISH:
                    procs = cluster.release(job_id)
                    completion_times[job_id] = time
                    log.append(Event(time, EventKind.COMPLETED, job_id, procs))
                elif kind == ARRIVAL:
                    log.append(Event(time, EventKind.SUBMITTED, job_id))
                else:
                    p = placements[job_id]
                    try:
                        procs = cluster.allocate(job_id, p.allotment)
                    except SchedulingError as exc:
                        raise SchedulingError(
                            f"at t={time:.6g}: {exc} (schedule is infeasible)"
                        ) from exc
                    assignment[job_id] = procs
                    queue.push(p.end, FINISH, job_id)
                    log.append(Event(time, EventKind.STARTED, job_id, procs))

        makespan = max(completion_times.values(), default=0.0)
        return ExecutionTrace(
            log=log,
            makespan=makespan,
            processor_assignment=assignment,
            completion_times=completion_times,
        )
