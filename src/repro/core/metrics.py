"""Criteria and derived statistics on schedules.

The two criteria the paper optimises jointly (§2.2):

* :func:`makespan` — ``Cmax = max_i C_i`` (system-administrator view);
* :func:`weighted_completion_sum` — ``sum_i w_i C_i`` (user view, "minsum").

Plus auxiliary statistics used by the experiment analysis (utilisation,
total work, stretch).  All functions are read-only and accept any
:class:`~repro.core.schedule.Schedule`; they read its placement table
(sums left to right in insertion order, like the seed's loops).
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Schedule

__all__ = [
    "makespan",
    "completion_sum",
    "weighted_completion_sum",
    "total_work",
    "utilization",
    "max_stretch",
    "mean_weighted_flow",
]


def makespan(schedule: Schedule) -> float:
    """Latest completion time ``Cmax`` (0.0 for an empty schedule)."""
    return schedule.makespan()


def completion_sum(schedule: Schedule) -> float:
    """Unweighted sum of completion times ``sum_i C_i``."""
    return float(sum(schedule.columns().end.tolist()))


def weighted_completion_sum(schedule: Schedule) -> float:
    """Weighted sum of completion times ``sum_i w_i C_i``."""
    return schedule.weighted_completion_sum()


def total_work(schedule: Schedule) -> float:
    """Total Gantt area ``sum_i k_i * p_i(k_i)`` consumed by the schedule."""
    c = schedule.columns()
    return float(sum((c.allotment * c.duration).tolist()))


def utilization(schedule: Schedule) -> float:
    """Fraction of the ``m x Cmax`` rectangle actually busy (0 if empty).

    The complement of the paper's "idle time" that the administrator wants
    low (§2.1).
    """
    cmax = schedule.makespan()
    if cmax <= 0:
        return 0.0
    return total_work(schedule) / (schedule.m * cmax)


def max_stretch(schedule: Schedule) -> float:
    """Largest slowdown ``C_i / p_i(min-time allotment)`` over tasks.

    A fairness-flavoured statistic; 1.0 means every task ran as if alone on
    the machine.  Useful in the analysis of the on-line extension.
    """
    worst = 0.0
    for p in schedule:
        ref = p.task.min_time
        if ref > 0:
            worst = max(worst, (p.end - p.task.release) / ref)
    return worst


def mean_weighted_flow(schedule: Schedule) -> float:
    """Average of ``w_i (C_i - r_i)`` — equals minsum/n for off-line inputs."""
    if len(schedule) == 0:
        return 0.0
    c = schedule.columns()
    return float(np.mean(c.weight * (c.end - c.release)))
