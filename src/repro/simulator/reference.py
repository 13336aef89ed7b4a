"""Seed on-line batch scheduler, preserved as the differential oracle.

This is the pre-refactor :class:`OnlineBatchScheduler` of
:mod:`repro.simulator.online`, kept **verbatim** (object-per-task
sub-instances, its original ``1e-12`` arrival cut) so the test suite can
pin the production :class:`~repro.simulator.online.BatchPolicy` — the
columnar kernel running on the unified :data:`~repro.core.validation.
TIME_EPS` — bit-for-bit against the seed semantics, exactly like
:mod:`repro.algorithms.reference` preserves the seed scheduling
algorithms.

The two implementations agree placement-for-placement on every instance
whose arrival gaps exceed ``1e-9`` (every trace and every generator in
this repository); they intentionally differ on sub-nanosecond arrival
gaps, where the seed's private ``1e-12`` cut disagreed with the simulator
engine's event windowing — see the boundary-case tests in
``tests/simulator/test_policies.py``.

It is the oracle of the batch policies:
``tests/simulator/test_policy_oracles.py`` pins ``batch`` and
``greedy-interval`` against this loop around the same engine
(``reservation``, whose batches depend on their start time, is pinned by
its recorded goldens).  The FCFS dispatcher and the faulty loop have no
seed version; their Python loops, frozen before they became kernels,
live in :mod:`repro.simulator.windowed`.

Do not "fix" or optimise this module: its value is that it does not move.
"""

from __future__ import annotations

from typing import Callable

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError

__all__ = ["ReferenceBatchScheduler"]


class ReferenceBatchScheduler:
    """Seed batch-doubling wrapper around any off-line scheduler.

    Semantics of the seed implementation, frozen: tasks sorted by
    ``(release, task_id)``, batches cut at ``now + 1e-12``, off-line
    sub-instances rebuilt task object by task object with releases
    stripped.
    """

    def __init__(self, offline: Callable[[Instance], Schedule]) -> None:
        self.offline = offline

    def run(self, instance: Instance) -> "OnlineResult":
        from repro.simulator.online import OnlineResult

        m = instance.m
        out = Schedule(m)
        if instance.n == 0:
            return OnlineResult(out, (), ())

        pending = sorted(instance.tasks, key=lambda t: (t.release, t.task_id))
        head = 0
        now = pending[0].release
        batch_starts: list[float] = []
        batch_contents: list[frozenset[int]] = []

        while head < len(pending):
            cut = head
            while cut < len(pending) and pending[cut].release <= now + 1e-12:
                cut += 1
            if cut == head:
                now = pending[head].release
                continue
            arrived = pending[head:cut]
            head = cut

            sub = Instance([t.with_release(0.0) for t in arrived], m)
            batch_schedule = self.offline(sub)
            if batch_schedule.task_ids() != {t.task_id for t in arrived}:
                raise SchedulingError(
                    "off-line scheduler did not place exactly the batch's tasks"
                )
            by_id = {t.task_id: t for t in arrived}
            batch_end = now
            for p in batch_schedule:
                out.add(by_id[p.task.task_id], now + p.start, p.allotment)
                batch_end = max(batch_end, now + p.end)
            batch_starts.append(now)
            batch_contents.append(frozenset(t.task_id for t in arrived))
            now = batch_end

        return OnlineResult(
            schedule=out,
            batch_starts=tuple(batch_starts),
            batch_contents=tuple(batch_contents),
        )
