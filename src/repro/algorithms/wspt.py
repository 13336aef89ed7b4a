"""WSPT — weighted shortest processing time, a modern minsum baseline.

Not one of the paper's six algorithms: WSPT (Smith's rule) is *the*
classical order for ``sum w_i C_i`` on identical machines — decreasing
``w_i / p_i``.  It is included as an extra comparator because it is
exactly the opposite reading of the paper's ambiguous LPTF sentence (see
:mod:`repro.algorithms.list_graham`), and our reproduction found it to be
a genuinely strong minsum heuristic at heavy load: on the highly-parallel
workload at ``n = 2m`` it overtakes DEMT (at ``m = 200``, 40 runs, seed
2004: minsum ratio 2.01 against DEMT's 2.50; pinned at ``m = 48`` by
``tests/algorithms/test_wspt.py::TestWspt::test_overtakes_demt_at_heavy_load``).

Allotments come from the dual approximation, like the other list
baselines; only the order differs.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.dual_approx import DualApproxResult, dual_approximation
from repro.algorithms.list_scheduling import list_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = ["WsptScheduler", "schedule_wspt"]


class WsptScheduler:
    """Graham list scheduling in Smith order (decreasing ``w/p``)."""

    name = "WSPT"

    def __init__(self, dual: DualApproxResult | None = None) -> None:
        self.dual = dual

    def schedule(self, instance: Instance) -> Schedule:
        if instance.n == 0:
            return Schedule(instance.m)
        dual = self.dual if self.dual is not None else dual_approximation(instance)
        allot, _ = dual.row_allotments(instance)
        dur = instance.times_matrix[np.arange(instance.n), allot - 1]
        order = np.lexsort((instance.task_ids, (-instance.weights) / dur))
        return list_schedule(instance, order, allot[order], dur[order])


def schedule_wspt(instance: Instance, dual: DualApproxResult | None = None) -> Schedule:
    """Functional form of :class:`WsptScheduler`."""
    return WsptScheduler(dual).schedule(instance)
