"""On-line scheduling policies (§2.2 and the §1.2 baselines), pluggable.

Jobs arrive over time (release dates).  An :class:`OnlinePolicy` decides,
without seeing the future, when and how wide each job runs; the registry
:data:`ONLINE_POLICIES` makes the policy a first-class, sweepable campaign
axis (trace replays, arrival sweeps and Pareto fronts all take a policy
name):

``batch``
    The paper's framework (Shmoys–Wein–Williamson [21]): while batch ``k``
    executes, arriving jobs queue up; when the batch completes, all queued
    jobs are scheduled as one off-line instance by a pluggable off-line
    scheduler.  If that scheduler is a ρ-approximation for the makespan,
    the wrapper is ``2ρ``-competitive — this is how the paper derives its
    ``3 + ε`` on-line guarantee from the ``3/2 + ε`` off-line DEMT, and
    the wrapper deployed on Icluster2.  :class:`BatchPolicy` is the
    production kernel: batch sub-instances are built by **zero-copy
    columnar restriction** (:meth:`repro.core.instance.Instance.
    from_arrays` over row slices) instead of the seed's per-task object
    rebuilds, each batch's placement table is shifted with one vector add
    per column, and the run's schedule is appended once.  The seed
    implementation survives verbatim as
    :class:`repro.simulator.reference.ReferenceBatchScheduler`, the
    differential oracle the tests pin this kernel against bit for bit.
``fcfs`` / ``fcfs-backfill``
    The §1.2 production-scheduler baselines, lifted from
    :mod:`repro.extensions.fcfs` into the on-line setting: jobs are
    rigidified on arrival and started first-come-first-served by one
    dispatch kernel (``fcfs-backfill`` adds EASY backfilling — later
    jobs may jump ahead only if they cannot delay the queue head's
    reservation).
``greedy-interval``
    The batch wrapper around the plain Shmoys-style interval scheduler
    (:class:`repro.extensions.greedy_interval.GreedyIntervalScheduler`) —
    the structural ablation of the batch policy.
``reservation``
    The batch wrapper scheduling each batch around administrator
    reservations (:mod:`repro.extensions.reservations`), the §5
    time-varying-capacity extension.  Requires a ``reservations=``
    argument, so the trace-replay CLI exposes every policy except this
    one.

All policies window events as
:class:`~repro.simulator.engine.ClusterSimulator` does — the batch
policies cut each batch at ``now + TIME_EPS`` on a release-sorted
arrival cursor, the FCFS dispatchers window events in
:func:`repro.kernels.fcfs_starts_core`, both with the
:data:`~repro.core.validation.TIME_EPS` of the simulator's
:class:`~repro.simulator.events.EventWindowQueue` — so "simultaneous"
means the same thing when a schedule is produced and when it is replayed
on the simulated cluster.  The tests pin the batch policies bit for bit
against the seed
:class:`~repro.simulator.reference.ReferenceBatchScheduler`, and the FCFS
dispatchers, on every kernel backend, against their Python loop in
:mod:`repro.simulator.windowed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import kernels, obs
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError

__all__ = [
    "OnlineResult",
    "OnlinePolicy",
    "BatchPolicy",
    "FcfsOnlinePolicy",
    "GreedyIntervalPolicy",
    "ReservationPolicy",
    "OnlineBatchScheduler",
    "ONLINE_POLICIES",
    "ENGINE_DRIVEN_POLICIES",
    "ZERO_CONFIG_POLICIES",
    "get_policy",
]


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an on-line run.

    Attributes
    ----------
    schedule:
        The combined schedule (release-date feasible).
    batch_starts:
        Start time of every executed batch (empty for immediate policies,
        which make one decision per job instead of per batch).
    batch_contents:
        Task ids scheduled in each batch (parallel to ``batch_starts``).
    """

    schedule: Schedule
    batch_starts: tuple[float, ...]
    batch_contents: tuple[frozenset[int], ...]

    @property
    def n_batches(self) -> int:
        return len(self.batch_starts)


class OnlinePolicy:
    """One on-line scheduling discipline: ``run(instance) -> OnlineResult``.

    Subclasses must set :attr:`name` (the registry/cache identity) and
    implement :meth:`run`; they share the arrival ordering helper so every
    policy agrees on what order jobs "appear" in.
    """

    #: Registry name; also the policy axis of replay cell keys.
    name: str = "abstract"

    def run(self, instance: Instance) -> OnlineResult:
        raise NotImplementedError

    @staticmethod
    def _arrival_order(instance: Instance) -> np.ndarray:
        """Indices of the instance's rows sorted by ``(release, task_id)``
        — computed columnar, no task objects materialised."""
        return np.lexsort((instance.task_ids, instance.releases))


class BatchPolicy(OnlinePolicy):
    """The paper's batch-doubling wrapper, on the columnar kernel.

    Parameters
    ----------
    offline:
        A callable ``Instance -> Schedule`` (e.g.
        :func:`repro.algorithms.demt.schedule_demt`).  The sub-instances it
        receives are off-line (releases stripped); its output is shifted to
        the batch start.

    Batches follow the arrival process: the first batch starts at the
    earliest release; batch ``k+1`` starts when batch ``k`` completes (or
    at the next release if the machine went idle with an empty queue).
    Arrivals within :data:`~repro.core.validation.TIME_EPS` of the batch
    cut count as arrived — the same windowing the simulator engine applies
    when it replays the result (the seed used a private ``1e-12`` here).

    Each batch's sub-instance is a zero-copy columnar restriction: the
    arrival-sorted columns are gathered **once** (or shared outright with
    the parent instance when it already is in arrival order — the common
    case for traces), and every batch is then one contiguous row *slice*
    handed to :meth:`~repro.core.instance.Instance.from_arrays` with
    validation skipped — no per-batch gather, no
    :class:`~repro.core.task.MoldableTask` rebuilds, no parent-task index
    materialisation.  Sub-instances keep their real release columns, so
    placements carry release metadata without re-binding.  The arrival
    cursor is a row index into the release-sorted columns, advanced by
    one ``searchsorted`` per batch; its ``t + TIME_EPS`` batch-cut window
    is the same one the simulator engine applies when it replays the
    result.  Under :mod:`repro.obs` each batch counts its arrivals on
    ``spine.transitions.arrival``.

    Each batch's schedule is read as its placement table: starts move to
    ``now + start`` in one vector add, ends are ``start + duration`` of
    the moved starts, and the next batch starts at ``max(now + end)`` of
    the engine's own ends.  The shifted columns of all batches are
    appended to the result once, at the end of the run.
    """

    name = "batch"

    def __init__(self, offline: Callable[[Instance], Schedule] | None = None) -> None:
        if offline is None:
            from repro.algorithms.demt import schedule_demt

            offline = schedule_demt
        self.offline = offline

    def _schedule_batch(self, sub: Instance, now: float) -> Schedule:
        """Hook: produce the off-line schedule of one batch (time origin 0
        at ``now``).  Subclasses may use ``now`` (reservations do)."""
        return self.offline(sub)

    def run(self, instance: Instance) -> OnlineResult:
        """Schedule ``instance`` respecting release dates."""
        state = obs.ACTIVE
        if state is None:
            return self._run_impl(instance)
        with state.span("policy:" + self.name, "algorithm"):
            return self._run_impl(instance)

    def _run_impl(self, instance: Instance) -> OnlineResult:
        m = instance.m
        out = Schedule(m)
        n = instance.n
        if n == 0:
            return OnlineResult(out, (), ())

        # Arrival-sorted columnar view, gathered once: each batch is a
        # contiguous row slice (adopted zero-copy by ``from_arrays``).
        # Traces and generators already emit arrival order, so the common
        # case shares the parent's read-only buffers outright.
        order = self._arrival_order(instance)
        if np.array_equal(order, np.arange(n)):
            rel = instance.releases
            times = instance.times_matrix
            weights = instance.weights
            ids = instance.task_ids
        else:
            rel = np.ascontiguousarray(instance.releases[order])
            times = np.ascontiguousarray(instance.times_matrix[order])
            weights = np.ascontiguousarray(instance.weights[order])
            ids = np.ascontiguousarray(instance.task_ids[order])

        shifted: list[tuple] = []  # each batch's table, moved to its start
        batch_starts: list[float] = []
        batch_contents: list[frozenset[int]] = []

        lo = 0  # arrival cursor: rows before it are scheduled
        now = float(rel[0])
        while lo < n:
            # Jobs that have arrived by `now` (within the shared event
            # window) form the next batch; if none, jump to the next
            # arrival (idle gap).
            hi = int(np.searchsorted(rel, now + TIME_EPS, side="right"))
            if hi <= lo:
                now = float(rel[lo])
                continue
            sl = slice(lo, hi)
            members = frozenset(ids[sl].tolist())
            state = obs.ACTIVE
            if state is not None:
                state.count("spine.transitions.arrival", hi - lo)
                state.count("online.batches")
                state.observe("online.batch_size", hi - lo)

            # Off-line sub-instance at time origin 0: a zero-copy row
            # slice of the arrival-sorted columns (real releases kept —
            # the engines schedule from origin 0 and never read them, and
            # placements then carry correct release metadata for free).
            sub = Instance.from_arrays(
                times[sl],
                weights[sl],
                rel[sl],
                m,
                task_ids=ids[sl],
                validate=False,
            )
            batch_schedule = self._schedule_batch(sub, now)
            if len(batch_schedule) != hi - lo or batch_schedule.task_ids() != members:
                raise SchedulingError(
                    "off-line scheduler did not place exactly the batch's tasks"
                )
            # Shift into the batch window with one vector add per column.
            # The next batch cut is the engine's ends shifted as one sum,
            # not the shifted placements' own ends (see Schedule._shifted).
            *table, cut = batch_schedule._shifted(now)
            shifted.append(table)
            batch_starts.append(now)
            batch_contents.append(members)
            lo, now = hi, cut

        # One append per run: the batches' columns joined, their task
        # sources kept.
        cols = list(zip(*shifted))
        out._append(
            *(col[0] if len(col) == 1 else np.concatenate(col) for col in cols[:5]),
            [seg for segs in cols[5] for seg in segs],
        )
        return OnlineResult(
            schedule=out,
            batch_starts=tuple(batch_starts),
            batch_contents=tuple(batch_contents),
        )


class OnlineBatchScheduler(BatchPolicy):
    """Historical name of the batch policy (kept as the public API).

    ``OnlineBatchScheduler(offline).run(instance)`` behaves exactly like
    ``BatchPolicy(offline).run(instance)``; the seed implementation it
    replaced lives on as :class:`repro.simulator.reference.
    ReferenceBatchScheduler`, the differential oracle of the test suite.
    """


class GreedyIntervalPolicy(BatchPolicy):
    """The batch wrapper around the plain interval-doubling scheduler.

    The structural ablation of :class:`BatchPolicy`: same arrival
    batching, but each batch is scheduled by
    :class:`~repro.extensions.greedy_interval.GreedyIntervalScheduler`
    (geometric batches, no merging, no compaction, no shuffling).  The
    ``offline`` argument is ignored — the engine *is* the policy here.
    """

    name = "greedy-interval"

    def __init__(self, offline: Callable | None = None) -> None:
        from repro.extensions.greedy_interval import GreedyIntervalScheduler

        super().__init__(GreedyIntervalScheduler().schedule)


class ReservationPolicy(BatchPolicy):
    """Batch policy scheduling around administrator reservations (§5).

    Each batch is placed by :class:`~repro.extensions.reservations.
    ReservationScheduler` against the capacity profile *as seen from the
    batch start*: a reservation ``[s, e)`` in absolute time becomes
    ``[max(0, s - now), e - now)`` for the batch starting at ``now``
    (expired reservations vanish).  ``offline`` configures the DEMT used
    for batch ordering when it is a :class:`~repro.algorithms.demt.
    DemtScheduler`; other callables fall back to the default DEMT.
    """

    name = "reservation"

    def __init__(
        self,
        reservations: "Sequence",
        offline: Callable[[Instance], Schedule] | None = None,
    ) -> None:
        super().__init__(offline)
        self.reservations = tuple(reservations)

    def _schedule_batch(self, sub: Instance, now: float) -> Schedule:
        from repro.algorithms.demt import DemtScheduler
        from repro.extensions.reservations import Reservation, ReservationScheduler

        shifted = [
            Reservation(max(0.0, r.start - now), r.end - now, r.procs)
            for r in self.reservations
            if r.end - now > TIME_EPS
        ]
        demt = self.offline if isinstance(self.offline, DemtScheduler) else None
        return ReservationScheduler(shifted, demt).schedule(sub)


class FcfsOnlinePolicy(OnlinePolicy):
    """Immediate FCFS (optionally EASY-backfilled) as one kernel call.

    The §1.2 baseline of :mod:`repro.extensions.fcfs`, run genuinely
    on-line: jobs are rigidified (fixed user-request allotments via
    :func:`~repro.extensions.fcfs.rigidify`) and dispatched at arrival
    and completion events — no batching, no clairvoyance.  With
    ``backfill=True`` a job that cannot start computes its reservation
    (the earliest instant enough processors will have been freed) and
    later arrivals may jump ahead only if they terminate by then, so the
    queue head is never delayed — EASY semantics.

    The whole event loop is one kernel call,
    :func:`repro.kernels.fcfs_starts_core` (``REPRO_KERNELS`` picks its
    backend).  It windows events exactly as the
    :class:`~repro.simulator.events.EventWindowQueue` does: windows of
    width :data:`~repro.core.validation.TIME_EPS` anchored at their
    earliest event, FINISH transitions freeing processors before
    simultaneous ARRIVALs dispatch, arrivals ordered by
    ``(release, task_id)``.  The policy rigidifies, gathers the
    allotment and duration columns, makes the call and appends the
    started rows to the schedule once; under
    :mod:`repro.obs` it records the ``spine.transitions.*`` counters and
    the ``spine.window_depth`` histogram from the window depths the
    kernel returns.
    """

    def __init__(self, backfill: bool = True, slack: float = 2.0) -> None:
        if not slack >= 1.0:
            raise ValueError(f"slack must be >= 1, got {slack}")
        self.backfill = bool(backfill)
        self.slack = float(slack)
        self.name = "fcfs-backfill" if backfill else "fcfs"

    def run(self, instance: Instance) -> OnlineResult:
        state = obs.ACTIVE
        if state is None:
            return self._run_impl(instance)
        with state.span("policy:" + self.name, "algorithm"):
            return self._run_impl(instance)

    def _run_impl(self, instance: Instance) -> OnlineResult:
        from repro.extensions.fcfs import rigidify

        out = Schedule(instance.m)
        n = instance.n
        if n == 0:
            return OnlineResult(out, (), ())

        allot = rigidify(instance, slack=self.slack)  # in instance order
        ks = np.fromiter(allot.values(), dtype=np.int64, count=n)
        durations = instance.times_matrix[np.arange(n), ks - 1]
        rows, starts, depths = kernels.fcfs_starts_core(
            instance.releases,
            instance.task_ids,
            ks,
            durations,
            instance.m,
            self.backfill,
            TIME_EPS,
        )
        state = obs.ACTIVE
        if state is not None:
            # Every job arrives once and finishes once.
            state.count("spine.transitions.arrival", n)
            state.count("spine.transitions.finish", n)
            for depth in depths.tolist():
                state.observe("spine.window_depth", depth)
        out.add_rows(instance, rows, starts, ks[rows], durations[rows])
        return OnlineResult(out, (), ())


#: Policy name -> factory.  Factories accept the keyword arguments their
#: class documents (``offline=`` for the batch family, ``backfill`` /
#: ``slack`` for FCFS, ``reservations=`` for the reservation policy).
ONLINE_POLICIES: dict[str, Callable[..., OnlinePolicy]] = {
    "batch": BatchPolicy,
    "fcfs": lambda offline=None, **kw: FcfsOnlinePolicy(backfill=False, **kw),
    "fcfs-backfill": lambda offline=None, **kw: FcfsOnlinePolicy(backfill=True, **kw),
    "greedy-interval": GreedyIntervalPolicy,
    "reservation": ReservationPolicy,
}

#: Policies whose behavior depends on the ``offline`` engine.  The rest
#: (the immediate FCFS variants, the fixed-engine greedy-interval) ignore
#: it — sweeping them across engines would just repeat one measurement.
ENGINE_DRIVEN_POLICIES = ("batch", "reservation")

#: Policies constructible without extra configuration — the set exposed
#: as replay modes, swept by ``--front`` and raced by the bench grid.
#: (``reservation`` needs a reservations argument and is library-only.)
ZERO_CONFIG_POLICIES = tuple(p for p in ONLINE_POLICIES if p != "reservation")


def get_policy(
    spec: "str | OnlinePolicy",
    *,
    offline: Callable[[Instance], Schedule] | None = None,
    **kwargs,
) -> OnlinePolicy:
    """Resolve a policy spec: a registry name or an instance (passthrough).

    ``offline`` configures the off-line engine of the batch-family
    policies; the immediate policies ignore it (they take no engine).

    >>> get_policy("batch").name
    'batch'
    >>> get_policy("fcfs").backfill
    False
    """
    if isinstance(spec, OnlinePolicy):
        return spec
    try:
        factory = ONLINE_POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown on-line policy {spec!r}; available: "
            f"{', '.join(ONLINE_POLICIES)}"
        ) from None
    return factory(offline=offline, **kwargs)
