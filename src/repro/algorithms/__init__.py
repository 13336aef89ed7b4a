"""Scheduling algorithms: the paper's DEMT contribution and all substrates.

Layout
------
* :mod:`repro.algorithms.knapsack` — weight-maximising knapsack selection
  (the batch-content selector of §3.2);
* :mod:`repro.algorithms.merge` — stacking of small sequential tasks by
  decreasing weight (§3.2);
* :mod:`repro.algorithms.dual_approx` — Mounié–Trystram two-shelf dual
  approximation of the optimal makespan (the paper's substrate [7]);
* :mod:`repro.algorithms.list_scheduling` — Graham list scheduling for
  moldable tasks with fixed allotments (used by compaction and baselines);
* :mod:`repro.algorithms.compaction` — naive shelf placement, pull-forward
  and full list compaction of batch schedules;
* :mod:`repro.algorithms.demt` — the bi-criteria algorithm itself;
* :mod:`repro.algorithms.gang`, :mod:`repro.algorithms.sequential`,
  :mod:`repro.algorithms.list_graham` — the §4.1 baselines.

Every scheduler exposes ``schedule(instance) -> Schedule`` plus a module
function; :data:`ALGORITHM_REGISTRY` maps the paper's algorithm names to
callables for the experiment harness.
"""

from repro.algorithms.knapsack import knapsack_select, KnapsackItem
from repro.algorithms.merge import merge_small_tasks
from repro.algorithms.dual_approx import dual_approximation, DualApproxResult
from repro.algorithms.list_scheduling import list_schedule, ListItem
from repro.algorithms.compaction import (
    shelf_placement,
    pull_forward,
    list_compaction,
)
from repro.algorithms.demt import DemtScheduler, schedule_demt
from repro.algorithms.gang import GangScheduler, schedule_gang
from repro.algorithms.sequential import SequentialScheduler, schedule_sequential
from repro.algorithms.list_graham import (
    ListGrahamScheduler,
    schedule_list_graham,
    LIST_ORDERINGS,
)
from repro.algorithms.registry import ALGORITHM_REGISTRY, get_algorithm

__all__ = [
    "knapsack_select",
    "KnapsackItem",
    "merge_small_tasks",
    "dual_approximation",
    "DualApproxResult",
    "list_schedule",
    "ListItem",
    "shelf_placement",
    "pull_forward",
    "list_compaction",
    "DemtScheduler",
    "schedule_demt",
    "GangScheduler",
    "schedule_gang",
    "SequentialScheduler",
    "schedule_sequential",
    "ListGrahamScheduler",
    "schedule_list_graham",
    "LIST_ORDERINGS",
    "ALGORITHM_REGISTRY",
    "get_algorithm",
]
