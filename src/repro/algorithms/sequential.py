"""Sequential baseline (§4.1).

"Each task is scheduled on a single processor.  A list algorithm is used,
scheduling large processing time first (LPTF)."

Every task gets allotment 1 and the classical LPT list order; Graham list
scheduling then fills the ``m`` processors greedily.  Rigid tasks that
cannot run on one processor fall back to their *minimal feasible*
allotment (the library supports them even though the paper's workloads are
all 1-feasible).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.list_scheduling import list_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = ["SequentialScheduler", "schedule_sequential"]


class SequentialScheduler:
    """The Sequential (1 processor per task, LPTF) baseline."""

    name = "Sequential"

    def schedule(self, instance: Instance) -> Schedule:
        if instance.n == 0:
            return Schedule(instance.m)
        tm = instance.times_matrix
        finite = np.isfinite(tm)
        # One processor, or the smallest allotment with a finite time
        # (rigid-task support).
        allot = np.where(finite[:, 0], 1, np.argmax(finite, axis=1) + 1)
        dur = tm[np.arange(instance.n), allot - 1]
        order = np.lexsort((instance.task_ids, -dur))
        return list_schedule(instance, order, allot[order], dur[order])


def schedule_sequential(instance: Instance) -> Schedule:
    """Functional form of :class:`SequentialScheduler`."""
    return SequentialScheduler().schedule(instance)
