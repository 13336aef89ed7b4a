"""Machine-failure processes and crash-and-restart batch execution.

Failures use the *capacity abstraction*: the simulator never tracks which
physical processor a job occupies, only how many machines are up.  A
:class:`FailureTrace` is a sorted sequence of capacity-change events
(machine ``i`` down at ``t``, up at ``t'``), realised deterministically
from a :class:`FailureModel` (exponential MTBF/MTTR renewals per machine,
seeded through :func:`repro.utils.rng.derive_rng` — bit-identical in any
process).  Beyond the trace ``horizon`` every machine is up.

:class:`FaultyBatchPolicy` runs the paper's batch framework under both
fault axes at once:

* **misestimation** — each batch is *planned* by the off-line engine on
  the estimates matrix (a :mod:`repro.faults.noise` model applied to the
  truth), but *executed* with the true durations.  Jobs that run longer
  than planned can leave no room for a later planned start: that start
  is **deferred** to the next batch.
* **failures** — capacity-change events interleave with the batch's
  starts and completions on the shared incremental
  :class:`~repro.simulator.events.EventSpine` (FINISH transitions free
  capacity first, RESERVE capacity changes apply second, STARTs allocate
  last).  When a drop leaves the running set over capacity, victims are
  evicted LIFO (latest start, then largest id —
  :meth:`~repro.simulator.events.EventSpine.evict_latest`): the job
  **crashes**, its work so far is lost, and it restarts *from scratch*
  in a later batch — the crash-and-restart semantics of checkpoint-free
  clusters.  A crashed job's pending FINISH stays in the heap as a
  tombstone (it still anchors event windows, exactly like the pre-spine
  loop's stale completions) and resolves to nothing.

The realised schedule holds only the successful (completed) placements
with their true durations, so it validates against the truth instance;
the :class:`~repro.simulator.events.EventLog` records the whole story
(``BATCH_STARTED`` / ``STARTED`` / ``COMPLETED`` / ``CRASHED`` /
``MACHINE_DOWN`` / ``MACHINE_UP``) for forensics and tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import ModelError, SchedulingError
from repro.faults.noise import NoiseModel, parse_noise, perturb_instance
from repro.simulator.events import Event, EventKind, EventLog, EventSpine, Transition
from repro.simulator.online import BatchPolicy
from repro.utils.rng import derive_rng

__all__ = [
    "FailureTrace",
    "FailureModel",
    "ExponentialFailures",
    "FAILURE_MODELS",
    "parse_failures",
    "generate_failures",
    "FaultyOnlineResult",
    "FaultyBatchPolicy",
]


@dataclass(frozen=True)
class FailureTrace:
    """Sorted capacity-change events over ``m`` machines up to ``horizon``.

    ``events`` holds ``(time, machine, delta)`` triples, ``delta`` being
    ``-1`` (machine went down) or ``+1`` (came back); sorted by
    ``(time, machine, delta)``.  Every down has a matching up at or
    before ``horizon`` — beyond the horizon all machines are up.
    """

    m: int
    horizon: float
    events: tuple[tuple[float, int, int], ...] = ()
    spec: str = "none"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ModelError(f"need at least one machine, got {self.m}")
        balance = 0
        for _t, mach, delta in self.events:
            if delta not in (-1, 1) or not 0 <= mach < self.m:
                raise ModelError(f"bad failure event ({_t}, {mach}, {delta})")
            balance += delta
        if balance != 0:
            raise ModelError("every machine down needs a matching up event")

    @property
    def n_failures(self) -> int:
        """Number of down events (machine-failure incidents)."""
        return sum(1 for _t, _m, d in self.events if d < 0)

    def downtime(self) -> float:
        """Total machine-seconds of lost capacity over the horizon."""
        lost, down_at = 0.0, {}
        for t, mach, delta in self.events:
            if delta < 0:
                down_at[mach] = t
            else:
                lost += t - down_at.pop(mach)
        return lost

    def availability(self) -> float:
        """Mean fraction of capacity that was up over the horizon."""
        if self.horizon <= 0:
            return 1.0
        return 1.0 - self.downtime() / (self.m * self.horizon)

    def capacity_profile(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(times, capacity)`` step function (capacity after each time)."""
        times, caps, cap = [0.0], [self.m], self.m
        for t, _mach, delta in self.events:
            cap += delta
            if times and abs(t - times[-1]) <= TIME_EPS:
                caps[-1] = cap
            else:
                times.append(t)
                caps.append(cap)
        return np.asarray(times), np.asarray(caps)


class FailureModel:
    """One failure process: ``realize(m, horizon) -> FailureTrace``."""

    name: str = "abstract"
    seed: int = 0

    @property
    def spec(self) -> str:
        raise NotImplementedError

    def realize(self, m: int, horizon: float) -> FailureTrace:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


@dataclass(frozen=True)
class NoFailures(FailureModel):
    """``none``: machines never die."""

    name = "none"
    seed: int = 0

    @property
    def spec(self) -> str:
        return "none"

    def realize(self, m: int, horizon: float) -> FailureTrace:
        return FailureTrace(m=m, horizon=float(horizon), events=(), spec="none")


@dataclass(frozen=True)
class ExponentialFailures(FailureModel):
    """``exp:<mtbf>:<mttr>``: independent exponential renewals per machine.

    Machine ``i`` alternates up periods ``~ Exp(mtbf)`` and repair
    periods ``~ Exp(mttr)``, drawn from the stateless stream
    ``derive_rng(seed, "failures", i)`` — the trace for a given
    ``(spec, m, horizon)`` is a pure function, identical in any process.
    Repairs still in progress at the horizon are truncated to it.
    """

    mtbf: float = 50.0
    mttr: float = 5.0
    seed: int = 0
    name = "exp"

    def __post_init__(self) -> None:
        if not (self.mtbf > 0 and self.mttr > 0):
            raise ModelError(
                f"exp failures need positive mtbf/mttr, got {self.mtbf}/{self.mttr}"
            )

    @property
    def spec(self) -> str:
        base = f"exp:{self.mtbf:g}:{self.mttr:g}"
        return f"{base}@{self.seed}" if self.seed else base

    def realize(self, m: int, horizon: float) -> FailureTrace:
        horizon = float(horizon)
        events: list[tuple[float, int, int]] = []
        for mach in range(m):
            rng = derive_rng(self.seed, "failures", self.spec, mach)
            t = float(rng.exponential(self.mtbf))
            while t < horizon:
                repair = float(rng.exponential(self.mttr))
                up_at = min(t + repair, horizon)
                events.append((t, mach, -1))
                events.append((up_at, mach, +1))
                t = up_at + float(rng.exponential(self.mtbf))
        events.sort()
        return FailureTrace(m=m, horizon=horizon, events=tuple(events), spec=self.spec)


#: Model name -> factory of ``(params, seed)`` (``params`` = tuple of
#: ``:``-separated arguments after the name).
FAILURE_MODELS: dict[str, Callable] = {
    "none": lambda params, seed: NoFailures(),
    "exp": lambda params, seed: ExponentialFailures(
        mtbf=float(params[0]) if params else 50.0,
        mttr=float(params[1]) if len(params) > 1 else 5.0,
        seed=seed,
    ),
}


def parse_failures(spec: "str | FailureModel") -> FailureModel:
    """Resolve a failure spec (``name[:param[:param]][@seed]``).

    >>> parse_failures("exp:100:10").mtbf
    100.0
    >>> parse_failures("none").spec
    'none'
    """
    if isinstance(spec, FailureModel):
        return spec
    body, seed = spec, 0
    if "@" in body:
        body, seed_s = body.rsplit("@", 1)
        try:
            seed = int(seed_s)
        except ValueError:
            raise ModelError(f"failure seed must be an int, got {spec!r}") from None
    parts = body.split(":")
    name, params = parts[0], tuple(parts[1:])
    try:
        factory = FAILURE_MODELS[name]
    except KeyError:
        raise ModelError(
            f"unknown failure model {name!r}; available: {', '.join(FAILURE_MODELS)}"
        ) from None
    try:
        return factory(params, seed)
    except (ValueError, IndexError):
        raise ModelError(f"bad failure parameter in {spec!r}") from None


def generate_failures(
    m: int, horizon: float, model: "str | FailureModel"
) -> FailureTrace:
    """Realise ``model`` over ``m`` machines up to ``horizon``."""
    return parse_failures(model).realize(m, horizon)


@dataclass(frozen=True)
class FaultyOnlineResult:
    """Outcome of a faulty on-line run.

    Like :class:`~repro.simulator.online.OnlineResult` plus the fault
    forensics: the number of crash-and-restart evictions and
    capacity-driven start deferrals, and the full event log.
    """

    schedule: Schedule
    batch_starts: tuple[float, ...]
    batch_contents: tuple[frozenset[int], ...]
    crashes: int = 0
    deferrals: int = 0
    log: EventLog = field(default_factory=EventLog)

    @property
    def n_batches(self) -> int:
        return len(self.batch_starts)


#: Spine transitions of the faulty batch simulation: FINISH frees
#: capacity, then RESERVE capacity changes apply, then STARTs allocate.
_FINISH = int(Transition.FINISH)
_RESERVE = int(Transition.RESERVE)
_START = int(Transition.START)


class FaultyBatchPolicy(BatchPolicy):
    """The batch framework under misestimation and machine failures.

    Parameters
    ----------
    offline:
        The per-batch off-line engine (defaults to DEMT), exactly as in
        :class:`~repro.simulator.online.BatchPolicy`.
    noise:
        A :mod:`repro.faults.noise` model or spec; batches are *planned*
        on the perturbed (estimated) matrix, *executed* with the truth.
    failures:
        A :class:`FailureTrace` (or ``None`` for no failures).  Its
        ``m`` must match the instance's.
    max_restarts:
        Hard per-job crash budget; exceeding it raises
        :class:`~repro.exceptions.SchedulingError` instead of looping
        (only reachable with hand-crafted pathological traces).

    With ``noise="none"`` and ``failures=None`` the realised schedule is
    exactly :class:`~repro.simulator.online.BatchPolicy`'s (pinned by the
    tests) — the faulty path degenerates to the nominal one.
    """

    name = "faulty-batch"

    def __init__(
        self,
        offline: "Callable[[Instance], Schedule] | None" = None,
        *,
        noise: "str | NoiseModel" = "none",
        failures: "FailureTrace | None" = None,
        max_restarts: int = 1000,
    ) -> None:
        super().__init__(offline)
        self.noise = parse_noise(noise)
        self.failures = failures
        self.max_restarts = int(max_restarts)

    def _run_impl(self, instance: Instance) -> FaultyOnlineResult:  # noqa: C901
        """Plan on estimates, execute the truth, survive the failures.

        (Called through :meth:`BatchPolicy.run`, which adds the
        ``policy:faulty-batch`` span when observability is enabled.)
        """
        truth = instance
        m = truth.m
        trace = self.failures
        if trace is not None and trace.m != m:
            raise SchedulingError(
                f"failure trace is over {trace.m} machines, instance has {m}"
            )
        cap_events = trace.events if trace is not None else ()

        out = Schedule(m)
        log = EventLog()
        if truth.n == 0:
            return FaultyOnlineResult(out, (), (), log=log)

        est = perturb_instance(truth, self.noise)
        truth_times = truth.times_matrix
        est_times = est.times_matrix
        weights = truth.weights
        ids = truth.task_ids
        row_of = {int(tid): i for i, tid in enumerate(ids.tolist())}
        # Completed runs in completion order: rows, starts, allotments and
        # true durations, appended to the schedule once at the end.
        done_rows: list[int] = []
        done_starts: list[float] = []
        done_allots: list[int] = []
        done_durs: list[float] = []

        # Pending queue: (release, id).  Crashes and deferrals push jobs
        # back with their crash/deferral instant as the new release.
        pending: list[tuple[float, int]] = [
            (float(r), int(tid)) for r, tid in zip(truth.releases, ids)
        ]
        heapq.heapify(pending)
        restarts: dict[int, int] = {}

        capacity = m
        cap_ptr = 0  # next un-applied capacity event
        # Latest instant any event was witnessed (logged / applied): a new
        # batch can never start before it, so the log stays time-ordered
        # and capacity state never leaks backwards across batches.
        witnessed = 0.0

        def apply_capacity(t: float, mach: int, delta: int) -> None:
            nonlocal capacity, witnessed
            capacity += delta
            witnessed = max(witnessed, t)
            kind = EventKind.MACHINE_UP if delta > 0 else EventKind.MACHINE_DOWN
            log.append(Event(t, kind, procs=(mach,)))

        batch_starts: list[float] = []
        batch_contents: list[frozenset[int]] = []
        crashes = deferrals = 0

        now = pending[0][0]
        while pending:
            now = max(now, pending[0][0])
            # Catch up idle-time capacity changes (nothing runs between
            # batches, so they cannot evict — just log and apply).
            while cap_ptr < len(cap_events) and cap_events[cap_ptr][0] <= now:
                apply_capacity(*cap_events[cap_ptr])
                cap_ptr += 1

            # Heap pops come out (release, id)-sorted — the same batch
            # member order :class:`BatchPolicy` derives via lexsort, so a
            # fault-free run hands the off-line engine identical inputs.
            batch: list[int] = []
            while pending and pending[0][0] <= now + TIME_EPS:
                batch.append(heapq.heappop(pending)[1])
            idx = np.asarray([row_of[j] for j in batch], dtype=np.intp)

            # Plan the batch on the *estimates* (time origin 0 at `now`).
            sub = Instance.from_arrays(
                est_times[idx],
                weights[idx],
                None,
                m,
                task_ids=ids[idx],
                validate=False,
            )
            plan = self._schedule_batch(sub, now)
            if len(plan) != len(batch) or plan.task_ids() != set(batch):
                raise SchedulingError(
                    "off-line scheduler did not place exactly the batch's tasks"
                )
            log.append(Event(now, EventKind.BATCH_STARTED))
            batch_starts.append(now)
            batch_contents.append(frozenset(batch))
            obs_state = obs.ACTIVE
            if obs_state is not None:
                obs_state.count("online.batches")
                obs_state.observe("online.batch_size", len(batch))

            # Execute: starts at their planned offsets, completions at the
            # *true* durations, capacity events interleaved — all on one
            # batch-local spine (FINISH / RESERVE / START transitions).
            spine = EventSpine(m)
            alloc: dict[int, int] = {}
            durs: dict[int, float] = {}  # true duration of the running run
            horizon_t = now
            c = plan.columns()
            for jid, k, start in zip(
                c.task_id.tolist(), c.allotment.tolist(), c.start.tolist()
            ):
                alloc[jid] = k
                s = now + start
                spine.at(s, Transition.START, jid)
                horizon_t = max(horizon_t, s + float(truth_times[row_of[jid], k - 1]))
            batch_cap_end = cap_ptr
            while (
                batch_cap_end < len(cap_events)
                and cap_events[batch_cap_end][0] <= horizon_t + TIME_EPS
            ):
                spine.at(
                    cap_events[batch_cap_end][0], Transition.RESERVE, batch_cap_end
                )
                batch_cap_end += 1

            unresolved = len(alloc)
            started_any = False
            batch_end = now

            def evict_over_capacity(t: float) -> None:
                nonlocal crashes, unresolved, batch_end
                batch_end = max(batch_end, t)
                while spine.used > capacity and spine.n_running:
                    victim, _s, _k = spine.evict_latest()
                    restarts[victim] = restarts.get(victim, 0) + 1
                    if restarts[victim] > self.max_restarts:
                        raise SchedulingError(
                            f"job {victim} crashed more than {self.max_restarts} times"
                        )
                    log.append(Event(t, EventKind.CRASHED, job_id=victim))
                    heapq.heappush(pending, (t, victim))
                    crashes += 1
                    unresolved -= 1

            while unresolved > 0:
                if not spine:  # pragma: no cover - every start is queued
                    raise SchedulingError("faulty batch simulation stalled")
                for t, prio, ident in spine.pop_window():
                    if prio == _RESERVE:
                        if ident == cap_ptr:  # skipped events never reach here
                            apply_capacity(*cap_events[cap_ptr])
                            cap_ptr += 1
                            evict_over_capacity(t)
                        continue
                    jid = ident
                    if prio == _FINISH:
                        resolved = spine.finish(jid, t)
                        if resolved is None:
                            continue  # crashed after this FINISH was queued
                        s, k = resolved
                        done_rows.append(row_of[jid])
                        done_starts.append(s)
                        done_allots.append(k)
                        done_durs.append(durs[jid])
                        log.append(Event(t, EventKind.COMPLETED, job_id=jid))
                        unresolved -= 1
                        batch_end = max(batch_end, t)
                        continue
                    # A planned start: allocate if it fits the *current*
                    # capacity, else defer the job to a later batch.
                    k = alloc[jid]
                    if k <= capacity - spine.used:
                        dur = float(truth_times[row_of[jid], k - 1])
                        durs[jid] = dur
                        spine.start(jid, k, t, t + dur)
                        started_any = True
                        log.append(Event(t, EventKind.STARTED, job_id=jid))
                    else:
                        heapq.heappush(pending, (t, jid))
                        deferrals += 1
                        unresolved -= 1
                        batch_end = max(batch_end, t)

            witnessed = max(witnessed, batch_end)
            if started_any or not pending:
                now = witnessed
                continue
            # Nothing could start (capacity too low for every planned
            # start): wait for the next capacity recovery, or the next
            # genuinely later arrival, rather than spinning in place.
            future = [t for t, _m2, d in cap_events[cap_ptr:] if d > 0 and t > now]
            later = [r for r, _j in pending if r > now + TIME_EPS]
            candidates = future + later
            if not candidates:  # pragma: no cover - traces always recover
                raise SchedulingError("batch cannot start and capacity never recovers")
            now = max(min(candidates), witnessed)

        out.add_rows(truth, done_rows, done_starts, done_allots, done_durs)
        obs_state = obs.ACTIVE
        if obs_state is not None:
            if crashes:
                obs_state.count("faults.crashes", crashes)
            if deferrals:
                obs_state.count("faults.deferrals", deferrals)
        return FaultyOnlineResult(
            schedule=out,
            batch_starts=tuple(batch_starts),
            batch_contents=tuple(batch_contents),
            crashes=crashes,
            deferrals=deferrals,
            log=log,
        )
