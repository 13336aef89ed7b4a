"""Frozen Python loops of two on-line disciplines, kept as differential oracles.

The FCFS dispatcher (which re-sorts its running set per EASY reservation
query) and the faulty batch loop (a per-batch untyped queue on the
:class:`~repro.simulator.events.EventWindowQueue` and a hand-rolled
running dict) live here *verbatim*, as they stood before the event-spine
port that preceded their kernels.  They are intentionally unoptimised
snapshots and the only second implementation of these two loops, which
now run as kernels (:func:`repro.kernels.fcfs_starts_core`,
:func:`repro.kernels.faulty_batch_core`):
``tests/simulator/test_policy_oracles.py`` runs both paths on random
instances, fault-injected runs included, and requires bit-identical
schedules, and ``tests/kernels/test_kernel_backends.py`` and
``tests/kernels/test_faulty_batch.py`` run every backend of the two
kernels against the loops here on tie-heavy inputs, so any behavioural
drift in either port is caught against code that provably produced the
golden corpora.  The batch policies need no copy here: they are pinned
against the seed
:class:`~repro.simulator.reference.ReferenceBatchScheduler`.

Do not "fix" or optimise this module; it exists to stay behind.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError
from repro.faults.failures import FaultyBatchPolicy, FaultyOnlineResult
from repro.faults.noise import perturb_instance
from repro.simulator.events import Event, EventKind, EventLog, EventWindowQueue
from repro.simulator.online import FcfsOnlinePolicy, OnlineResult

__all__ = ["WindowedFcfsPolicy", "WindowedFaultyBatchPolicy"]

#: The untyped event priorities of the faulty loop.
_PRIO_COMPLETE, _PRIO_CAPACITY, _PRIO_START = 0, 1, 2


class WindowedFcfsPolicy(FcfsOnlinePolicy):
    """The PR 5 FCFS dispatcher: hand-rolled running dict + free counter,
    per-query sort in the EASY reservation bound."""

    def __init__(self, backfill: bool = True, slack: float = 2.0) -> None:
        super().__init__(backfill=backfill, slack=slack)
        self.name = (
            "windowed-fcfs-backfill" if self.backfill else "windowed-fcfs"
        )

    def run(self, instance: Instance) -> OnlineResult:
        from repro.extensions.fcfs import rigidify

        m = instance.m
        out = Schedule(m)
        if instance.n == 0:
            return OnlineResult(out, (), ())

        allot = rigidify(instance, slack=self.slack)
        task_of = instance.task_by_id
        durations = {tid: task_of(tid).p(k) for tid, k in allot.items()}
        row_of = dict(zip(allot, range(len(allot))))  # rigidify keeps instance order
        placed: list[tuple] = []  # (row, start, allotment, duration)

        queue = EventWindowQueue((t.release, 1, t.task_id) for t in instance)
        waiting: list[int | None] = []  # arrival order; None = backfilled
        head_i = 0
        running: dict[int, tuple[float, int]] = {}  # id -> (end, allotment)
        free = m

        def start(job_id: int, now: float) -> None:
            nonlocal free
            k = allot[job_id]
            duration = durations[job_id]
            free -= k
            running[job_id] = (now + duration, k)
            placed.append((row_of[job_id], now, k, duration))
            queue.push(now + duration, 0, job_id)

        def reservation_time(k: int) -> float:
            avail = free
            for end, held in sorted(running.values()):
                avail += held
                if avail >= k:
                    return end
            raise SchedulingError(  # pragma: no cover - k <= m always frees
                f"allotment {k} can never be satisfied"
            )

        tombstones = 0

        def start_waiting(now: float) -> None:
            nonlocal head_i, tombstones
            if tombstones * 2 > len(waiting) - head_i:
                live = [j for j in waiting[head_i:] if j is not None]
                waiting[:] = live
                head_i = 0
                tombstones = 0
            while head_i < len(waiting):
                head = waiting[head_i]
                if head is None:  # backfilled earlier
                    head_i += 1
                    tombstones -= 1
                    continue
                if allot[head] <= free:
                    start(head, now)
                    head_i += 1
                    continue
                if not self.backfill:
                    return
                t_res = reservation_time(allot[head])
                for i in range(head_i + 1, len(waiting)):
                    cand = waiting[i]
                    if (
                        cand is not None
                        and allot[cand] <= free
                        and now + durations[cand] <= t_res + TIME_EPS
                    ):
                        start(cand, now)
                        waiting[i] = None
                        tombstones += 1
                return

        while queue:
            window = queue.pop_window()
            now = window[0][0]
            for _time, priority, job_id in window:
                if priority == 0:  # completion
                    _, k = running.pop(job_id)
                    free += k
                else:  # arrival
                    waiting.append(job_id)
            start_waiting(now)

        if head_i < len(waiting) and any(
            j is not None for j in waiting[head_i:]
        ):  # pragma: no cover - every start enqueues a completion
            raise SchedulingError("FCFS policy stalled with jobs waiting")
        out.add_rows(instance, *zip(*placed))
        return OnlineResult(out, (), ())


class WindowedFaultyBatchPolicy(FaultyBatchPolicy):
    """The PR 7 faulty loop: per-batch untyped queue, hand-rolled running
    dict, eviction by max() over the dict per capacity drop."""

    name = "windowed-faulty-batch"

    def run(self, instance: Instance) -> FaultyOnlineResult:  # noqa: C901
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
        placed: list[tuple] = []  # (row, start, allotment, duration)

        pending: list[tuple[float, int]] = [
            (float(r), int(tid)) for r, tid in zip(truth.releases, ids)
        ]
        heapq.heapify(pending)
        restarts: dict[int, int] = {}

        capacity = m
        cap_ptr = 0  # next un-applied capacity event
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
            while cap_ptr < len(cap_events) and cap_events[cap_ptr][0] <= now:
                apply_capacity(*cap_events[cap_ptr])
                cap_ptr += 1

            batch: list[int] = []
            while pending and pending[0][0] <= now + TIME_EPS:
                batch.append(heapq.heappop(pending)[1])
            idx = np.asarray([row_of[j] for j in batch], dtype=np.intp)

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

            queue = EventWindowQueue()
            alloc: dict[int, int] = {}
            horizon_t = now
            for p in plan:
                jid = p.task.task_id
                alloc[jid] = p.allotment
                s = now + p.start
                queue.push(s, _PRIO_START, jid)
                horizon_t = max(
                    horizon_t, s + float(truth_times[row_of[jid], p.allotment - 1])
                )
            batch_cap_end = cap_ptr
            while (
                batch_cap_end < len(cap_events)
                and cap_events[batch_cap_end][0] <= horizon_t + TIME_EPS
            ):
                queue.push(cap_events[batch_cap_end][0], _PRIO_CAPACITY, batch_cap_end)
                batch_cap_end += 1

            unresolved = len(alloc)
            running: dict[int, tuple[float, int, float]] = {}  # id -> (s, k, dur)
            used = 0
            started_any = False
            batch_end = now

            def evict_over_capacity(t: float) -> None:
                nonlocal used, crashes, unresolved, batch_end
                batch_end = max(batch_end, t)
                while used > capacity and running:
                    victim = max(running, key=lambda j: (running[j][0], j))
                    _s, k, _d = running.pop(victim)
                    used -= k
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
                if not queue:  # pragma: no cover - every start is queued
                    raise SchedulingError("faulty batch simulation stalled")
                for t, prio, ident in queue.pop_window():
                    if prio == _PRIO_CAPACITY:
                        if ident == cap_ptr:  # skipped events never reach here
                            apply_capacity(*cap_events[cap_ptr])
                            cap_ptr += 1
                            evict_over_capacity(t)
                        continue
                    jid = ident
                    if prio == _PRIO_COMPLETE:
                        if jid not in running:
                            continue  # crashed after this completion was queued
                        s, k, dur = running.pop(jid)
                        used -= k
                        placed.append((row_of[jid], s, k, dur))
                        log.append(Event(t, EventKind.COMPLETED, job_id=jid))
                        unresolved -= 1
                        batch_end = max(batch_end, t)
                        continue
                    k = alloc[jid]
                    if k <= capacity - used:
                        dur = float(truth_times[row_of[jid], k - 1])
                        running[jid] = (t, k, dur)
                        used += k
                        started_any = True
                        log.append(Event(t, EventKind.STARTED, job_id=jid))
                        queue.push(t + dur, _PRIO_COMPLETE, jid)
                    else:
                        heapq.heappush(pending, (t, jid))
                        deferrals += 1
                        unresolved -= 1
                        batch_end = max(batch_end, t)

            witnessed = max(witnessed, batch_end)
            if started_any or not pending:
                now = witnessed
                continue
            future = [t for t, _m2, d in cap_events[cap_ptr:] if d > 0 and t > now]
            later = [r for r, _j in pending if r > now + TIME_EPS]
            candidates = future + later
            if not candidates:  # pragma: no cover - traces always recover
                raise SchedulingError("batch cannot start and capacity never recovers")
            now = max(min(candidates), witnessed)

        out.add_rows(truth, *zip(*placed))
        return FaultyOnlineResult(
            schedule=out,
            batch_starts=tuple(batch_starts),
            batch_contents=tuple(batch_contents),
            crashes=crashes,
            deferrals=deferrals,
            log=log,
        )

