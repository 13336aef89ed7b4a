"""FCFS with EASY backfilling — the production-scheduler baseline (§1.2).

The paper's related work: "the basic idea in job schedulers is to queue
jobs and to schedule them one after the other using some simple rules like
FCFS with priorities.  MAUI scheduler extends the model with additional
features like fairness and backfilling."  This module provides that
reference point so DEMT can be compared against what clusters actually ran
in 2004:

* jobs are *rigidified* first (:func:`rigidify`) — FCFS queues ignore
  moldability, the user's fixed request is simulated by picking each
  task's minimal-area allotment under a deadline heuristic;
* jobs are placed in submission order, each at the earliest time enough
  processors stay free for its whole duration around the jobs placed
  before it.  A later job may therefore start *before* an earlier one, in
  a hole the earlier one could not use.  The on-line ``fcfs`` policy
  (:class:`~repro.simulator.online.FcfsOnlinePolicy`) never does that: it
  starts only the queue head, so the two differ even when every job is
  released at time 0;
* **EASY backfilling**: when the queue head does not fit, a reservation
  is computed for it (the earliest time enough processors will be free),
  and later jobs may jump ahead *only if* they terminate before that
  reservation (they never delay the head).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import Instance
from repro.core.profile import FreeProfile
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError

__all__ = ["rigidify", "FcfsBackfillScheduler"]

#: Rows of the time matrix :func:`rigidify` processes per numpy pass.  Its
#: temporaries stay O(block x m) rather than the size of the whole
#: ``(n, m)`` matrix, which would raise the peak memory of an archive
#: replay for no speed gain.
RIGIDIFY_BLOCK_ROWS = 1024


def rigidify(instance: Instance, *, slack: float = 2.0) -> dict[int, int]:
    """Choose a fixed allotment per task, emulating user requests.

    Users of rigid systems request "enough processors to finish in
    reasonable time".  We model this as the minimal-*area* allotment that
    meets the deadline ``slack * (fastest duration)`` — frugal in work,
    as a user paying for node-hours would be, but not pathologically
    sequential.

    Per task this is :func:`~repro.core.allotment.minimal_area_allotment`
    at the deadline ``slack * task.min_time`` (the fastest time over the
    task's full vector, which may extend past ``m``), first ``k`` on area
    ties.  All tasks are solved at once from
    :attr:`Instance.times_matrix`, in blocks of
    :data:`RIGIDIFY_BLOCK_ROWS` rows, with the same float products and
    comparisons, so the allotments are identical.  Returns ``{task_id:
    k}`` in instance order.

    Raises
    ------
    ValueError
        If ``slack`` is not ``>= 1`` (NaN included).
    SchedulingError
        If a task's fastest time needs more than ``m`` processors and no
        allotment within ``m`` meets the deadline.
    """
    if not slack >= 1.0:
        raise ValueError(f"slack must be >= 1, got {slack}")
    times = instance.times_matrix
    n, m = times.shape
    deadlines = instance.min_times * slack
    ks = np.arange(1, m + 1, dtype=np.float64)
    allot = np.empty(n, dtype=np.int64)
    for lo in range(0, n, RIGIDIFY_BLOCK_ROWS):
        hi = lo + RIGIDIFY_BLOCK_ROWS
        block = times[lo:hi]
        feasible = block <= deadlines[lo:hi, None]
        met = feasible.any(axis=1)
        if not met.all():
            task_id = instance.task_ids[lo + int(np.argmin(met))]
            raise SchedulingError(f"task {task_id} cannot meet its own deadline")
        areas = np.where(feasible, block * ks, np.inf)
        allot[lo:hi] = areas.argmin(axis=1) + 1
    return dict(zip(instance.task_ids.tolist(), allot.tolist()))


@dataclass
class _Queued:
    task_id: int
    allotment: int
    duration: float


class FcfsBackfillScheduler:
    """First-come-first-served with optional EASY backfilling.

    Parameters
    ----------
    backfill:
        ``True`` enables EASY backfilling (the MAUI-style improvement);
        ``False`` places each job, in submission order, at its earliest
        fit in the free-processor profile of the jobs placed before it.
        A later job can then start before an earlier one, in a hole the
        earlier one was too wide for; the on-line ``fcfs`` policy
        (:class:`~repro.simulator.online.FcfsOnlinePolicy`) never starts a
        later job first.
    slack:
        Passed to :func:`rigidify`; must be ``>= 1``.

    Submission order is task-id order (the §4.1 generators assign ids in
    generation order, which stands in for arrival order in the off-line
    setting).
    """

    def __init__(self, backfill: bool = True, slack: float = 2.0) -> None:
        if not slack >= 1.0:
            raise ValueError(f"slack must be >= 1, got {slack}")
        self.backfill = backfill
        self.slack = slack
        self.name = "FCFS+EASY" if backfill else "FCFS"

    def schedule(self, instance: Instance) -> Schedule:
        out = Schedule(instance.m)
        if instance.n == 0:
            return out
        allot = rigidify(instance, slack=self.slack)
        queue = [
            _Queued(t.task_id, allot[t.task_id], t.p(allot[t.task_id]))
            for t in sorted(instance, key=lambda t: t.task_id)
        ]
        # The incremental free-processor profile replaces the seed's full
        # rescan of all prior placements per earliest-fit query.
        profile = FreeProfile(instance.m)

        def place(job: _Queued, start: float) -> None:
            out.add(instance.task_by_id(job.task_id), start, job.allotment)
            profile.reserve(start, job.duration, job.allotment)

        while queue:
            head = queue[0]
            head_start = profile.earliest_fit(head.allotment, head.duration)
            if not self.backfill:
                place(head, head_start)
                queue.pop(0)
                continue

            # EASY: give the head its reservation, then scan the rest for
            # jobs that fit *now* without pushing the head past it.
            place(head, head_start)
            queue.pop(0)
            i = 0
            while i < len(queue):
                cand = queue[i]
                start = profile.earliest_fit(cand.allotment, cand.duration)
                # Backfill only if the candidate starts before the head's
                # reservation and ends by it (it can then never delay any
                # not-yet-reserved job either, since it uses only holes).
                if start + cand.duration <= head_start + TIME_EPS:
                    place(cand, start)
                    queue.pop(i)
                else:
                    i += 1
        return out
