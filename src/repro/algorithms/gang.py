"""Gang scheduling baseline (§4.1).

"Each task is scheduled on all processors.  The tasks are sorted using the
ratio of the weight over the execution time.  This algorithm is optimal for
instances with linear speedup."

Each task occupies the whole machine, so the schedule is a single sequence;
ordering by decreasing ``w_i / p_i`` is Smith's rule on the equivalent
single machine, which is exactly why Gang is minsum-optimal when speedup is
linear (then the machine behaves like one processor that is ``m`` times
faster and the areas are allotment-independent).

Tasks that cannot use all ``m`` processors (shorter vectors, forbidden
allotments) run on their *fastest* feasible allotment instead — they still
block the whole machine, faithfully to the gang discipline.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = ["GangScheduler", "schedule_gang"]


class GangScheduler:
    """The Gang baseline; see module docstring."""

    name = "Gang"

    def schedule(self, instance: Instance) -> Schedule:
        tm = instance.times_matrix
        out = Schedule(instance.m)
        if instance.n == 0:
            return out
        # Fastest feasible allotment per task (the whole machine for tasks
        # that can use it).
        k_fast = np.argmin(tm, axis=1) + 1
        durations = tm[np.arange(instance.n), k_fast - 1]
        order = np.lexsort((instance.task_ids, -(instance.weights / durations)))
        # One after the other from 0: each start is the running sum of the
        # durations before it, added left to right.
        d = durations[order]
        starts = list(itertools.accumulate(d.tolist()[:-1], initial=0.0))
        out.add_rows(instance, order, starts, k_fast[order], d)
        return out


def schedule_gang(instance: Instance) -> Schedule:
    """Functional form of :class:`GangScheduler`."""
    return GangScheduler().schedule(instance)
