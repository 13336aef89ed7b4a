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
  starts and completions in ``TIME_EPS`` event windows (FINISH
  transitions free capacity first, RESERVE capacity changes apply
  second, STARTs allocate last).  When a drop leaves the running set
  over capacity, victims are evicted LIFO (latest start, then largest
  id): the job **crashes**, its work so far is lost, and it restarts
  *from scratch* in a later batch — the crash-and-restart semantics of
  checkpoint-free clusters.  A crashed job's pending FINISH stays queued
  as a stale event (it still anchors an event window, exactly like the
  windowed oracle loop's stale completions) and resolves to nothing.

The execution of one planned batch — the windows, evictions, deferrals
and the batch's log records — is one kernel call,
:func:`repro.kernels.faulty_batch_core` (``REPRO_KERNELS`` picks its
backend); the policy keeps the idle-time capacity catch-up, batch
formation, the off-line engine call, the plan check and the restart
budget.

The realised schedule holds only the successful (completed) placements
with their true durations, so it validates against the truth instance;
the :class:`~repro.simulator.events.EventLog` records the whole story
(``BATCH_STARTED`` / ``STARTED`` / ``COMPLETED`` / ``CRASHED`` /
``MACHINE_DOWN`` / ``MACHINE_UP``) for forensics and tests.  It is
stored as columns and built on first read of
:attr:`FaultyOnlineResult.log`; its time-order checks run on the columns
at the end of the run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import kernels, obs
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import ModelError, SchedulingError
from repro.faults.noise import NoiseModel, parse_noise, perturb_instance
from repro.simulator.events import Event, EventKind, EventLog
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


#: Event kinds of the log codes :func:`repro.kernels.faulty_batch_core`
#: returns.
_LOG_KINDS = {
    kernels.LOG_BATCH_STARTED: EventKind.BATCH_STARTED,
    kernels.LOG_STARTED: EventKind.STARTED,
    kernels.LOG_COMPLETED: EventKind.COMPLETED,
    kernels.LOG_CRASHED: EventKind.CRASHED,
    kernels.LOG_MACHINE_DOWN: EventKind.MACHINE_DOWN,
    kernels.LOG_MACHINE_UP: EventKind.MACHINE_UP,
}
_MACHINE_CODES = (kernels.LOG_MACHINE_DOWN, kernels.LOG_MACHINE_UP)


class FaultyOnlineResult:
    """Outcome of a faulty on-line run.

    Like :class:`~repro.simulator.online.OnlineResult` plus the fault
    forensics: the number of crash-and-restart evictions and
    capacity-driven start deferrals, and the full event log.  The policy
    stores the log as columns — times, kind codes and job (or machine)
    ids, see :func:`repro.kernels.faulty_batch_core` — and :attr:`log`
    builds the :class:`~repro.simulator.events.EventLog` from them on
    first read; a ``log`` given to the constructor is kept as is.
    """

    def __init__(
        self,
        schedule: Schedule,
        batch_starts: tuple[float, ...],
        batch_contents: tuple[frozenset[int], ...],
        crashes: int = 0,
        deferrals: int = 0,
        log: "EventLog | None" = None,
        *,
        log_columns: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        self.schedule = schedule
        self.batch_starts = batch_starts
        self.batch_contents = batch_contents
        self.crashes = crashes
        self.deferrals = deferrals
        self._log = log
        self._log_columns = log_columns

    @property
    def log(self) -> EventLog:
        """The run's :class:`~repro.simulator.events.EventLog`."""
        if self._log is None:
            events: list[Event] = []
            if self._log_columns is not None:
                times, kinds, refs = (col.tolist() for col in self._log_columns)
                for t, code, ref in zip(times, kinds, refs):
                    if code in _MACHINE_CODES:
                        events.append(Event(t, _LOG_KINDS[code], procs=(ref,)))
                    else:
                        events.append(Event(t, _LOG_KINDS[code], job_id=ref))
            self._log = EventLog(events)
        return self._log

    @property
    def n_batches(self) -> int:
        return len(self.batch_starts)


def _check_log_times(times: np.ndarray) -> None:
    """The checks :class:`~repro.simulator.events.Event` and
    :meth:`~repro.simulator.events.EventLog.append` make, on the log's
    time column: the first record with a negative time, or more than
    ``TIME_EPS`` before the latest time logged before it, raises their
    :class:`ValueError`.  The test is ``latest > time + TIME_EPS``, the
    form an event window admits events in, so a START logged after a
    RESERVE at its window's far edge passes."""
    if times.size == 0:
        return
    before = np.empty_like(times)
    before[0] = -np.inf
    np.fmax.accumulate(times[:-1], out=before[1:])
    bad = np.flatnonzero((times < 0) | (before > times + TIME_EPS))
    if bad.size:
        i = int(bad[0])
        t = float(times[i])
        if t < 0:
            raise ValueError(f"negative event time {t}")
        raise ValueError(f"event at {t} appended after {float(before[i])}")


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
        if truth.n == 0:
            return FaultyOnlineResult(out, (), ())

        # The failure trace as columns, once per run: the kernel reads the
        # arrays, the idle catch-up below the lists.
        n_cap = len(cap_events)
        cap_t = [e[0] for e in cap_events]
        cap_delta = [e[2] for e in cap_events]
        cap_cols = (
            np.array(cap_t, dtype=np.float64),
            np.array([e[1] for e in cap_events], dtype=np.int64),
            np.array(cap_delta, dtype=np.int64),
        )

        est = perturb_instance(truth, self.noise)
        truth_times = truth.times_matrix
        est_times = est.times_matrix
        weights = truth.weights
        ids = truth.task_ids
        # Task ids -> instance rows, one searchsorted per lookup.
        id_order = np.argsort(ids, kind="stable")
        sorted_ids = ids[id_order]
        # Completed runs, one block per batch in completion order: rows,
        # starts, allotments and true durations, appended to the schedule
        # once at the end; the log's columns likewise.
        done_cols: list[tuple] = []
        log_cols: list[tuple] = []

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

        batch_starts: list[float] = []
        batch_contents: list[frozenset[int]] = []
        crashes = deferrals = 0
        transitions = [0, 0, 0]
        depths: list[np.ndarray] = []
        obs_state = obs.ACTIVE

        now = pending[0][0]
        while pending:
            now = max(now, pending[0][0])
            # Catch up idle-time capacity changes (nothing runs between
            # batches, so they cannot evict — just log and apply).
            idle = cap_ptr
            while cap_ptr < n_cap and cap_t[cap_ptr] <= now:
                capacity += cap_delta[cap_ptr]
                witnessed = max(witnessed, cap_t[cap_ptr])
                cap_ptr += 1
            if cap_ptr > idle:
                up = cap_cols[2][idle:cap_ptr] > 0
                log_cols.append((
                    cap_cols[0][idle:cap_ptr],
                    np.where(up, kernels.LOG_MACHINE_UP, kernels.LOG_MACHINE_DOWN),
                    cap_cols[1][idle:cap_ptr],
                ))

            # Heap pops come out (release, id)-sorted — the same batch
            # member order :class:`BatchPolicy` derives via lexsort, so a
            # fault-free run hands the off-line engine identical inputs.
            batch: list[int] = []
            while pending and pending[0][0] <= now + TIME_EPS:
                batch.append(heapq.heappop(pending)[1])
            idx = id_order[np.searchsorted(sorted_ids, batch)]

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
            batch_starts.append(now)
            batch_contents.append(frozenset(batch))
            if obs_state is not None:
                obs_state.count("online.batches")
                obs_state.observe("online.batch_size", len(batch))

            # Execute: starts at their planned offsets, completions at the
            # *true* durations, capacity events interleaved — one kernel
            # call per batch (FINISH / RESERVE / START windows).
            c = plan.columns()
            rows = id_order[np.searchsorted(sorted_ids, c.task_id)]
            durs = truth_times[rows, c.allotment - 1]
            res = kernels.faulty_batch_core(
                now, c.task_id, c.allotment, c.start, durs, *cap_cols,
                cap_ptr, capacity, witnessed, TIME_EPS,
            )
            for t, victim in zip(res.crash_times.tolist(), res.crash_ids.tolist()):
                restarts[victim] = restarts.get(victim, 0) + 1
                if restarts[victim] > self.max_restarts:
                    raise SchedulingError(
                        f"job {victim} crashed more than {self.max_restarts} times"
                    )
                heapq.heappush(pending, (t, victim))
            for t, jid in zip(res.defer_times.tolist(), res.defer_ids.tolist()):
                heapq.heappush(pending, (t, jid))
            crashes += len(res.crash_ids)
            deferrals += len(res.defer_ids)
            done = res.done
            done_cols.append((rows[done], res.done_starts, c.allotment[done], durs[done]))
            log_cols.append((res.log_times, res.log_kinds, res.log_refs))
            capacity, cap_ptr, witnessed = res.capacity, res.cap_ptr, res.witnessed
            if obs_state is not None:
                transitions = [a + b for a, b in zip(transitions, res.transitions)]
                depths.append(res.depths)

            if res.started_any or not pending:
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

        log_times, log_kinds, log_refs = (np.concatenate(col) for col in zip(*log_cols))
        _check_log_times(log_times)
        out.add_rows(truth, *(np.concatenate(col) for col in zip(*done_cols)))
        if obs_state is not None:
            for name, count in zip(("finish", "reserve", "start"), transitions):
                if count:
                    obs_state.count("spine.transitions." + name, count)
            for depth in np.concatenate(depths).tolist():
                obs_state.observe("spine.window_depth", depth)
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
            log_columns=(log_times, log_kinds, log_refs),
        )
