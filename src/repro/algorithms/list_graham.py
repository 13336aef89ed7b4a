"""List-Graham baselines (§4.1).

"All the 3 algorithms are multiprocessor list scheduling [11].  Every task
is alloted using the number of processors selected by [7]."  The allotments
come from the dual-approximation result; only the list *order* changes:

* ``shelf`` — "keep the order of [7], listing first tasks of the large
  shelf, then the tasks of the small shelf, then the small tasks": big-shelf
  tasks, then non-sequential small-shelf tasks, then the small sequential
  tasks (``p(1) ≤ λ/2``); each group longest-first;
* ``lptf`` — weighted largest processing time first: "a classical variant,
  with a very good behavior for Cmax criterion, but the tasks are in fact
  sorted using the ratio between weight and their execution time".  The
  order consistent with both halves of that sentence (an LPT-flavoured,
  Cmax-oriented list that is *not* minsum-optimised — its plotted minsum
  ratios are among the worst) is *largest weighted processing time first*,
  i.e. decreasing ``p_i(k_i) / w_i``.  The opposite reading (decreasing
  ``w_i / p_i``) is Smith's rule, which would make LPTF the best minsum
  baseline and contradict the published figures;
* ``saf`` — smallest area first: increasing ``k_i · p_i(k_i)``, "almost
  the opposite of LPTF", aimed at the ``sum w_i C_i`` criterion.

The paper plots them as "List Scheduling", "LPTF" and "SAF".
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.dual_approx import DualApproxResult, dual_approximation
from repro.algorithms.list_scheduling import list_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = ["ListGrahamScheduler", "schedule_list_graham", "LIST_ORDERINGS"]

#: The three published orderings.
LIST_ORDERINGS: tuple[str, ...] = ("shelf", "lptf", "saf")


class ListGrahamScheduler:
    """Graham list scheduling with dual-approximation allotments.

    Parameters
    ----------
    ordering:
        One of :data:`LIST_ORDERINGS`.
    dual:
        Optionally a precomputed :class:`DualApproxResult` for the instance
        (the experiment harness shares one across the three orderings and
        the lower bound; when omitted it is computed on the fly).
    """

    def __init__(self, ordering: str = "shelf", dual: DualApproxResult | None = None):
        if ordering not in LIST_ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; choose from {LIST_ORDERINGS}"
            )
        self.ordering = ordering
        self.dual = dual
        self.name = {"shelf": "List Scheduling", "lptf": "LPTF", "saf": "SAF"}[ordering]

    def schedule(self, instance: Instance) -> Schedule:
        if instance.n == 0:
            return Schedule(instance.m)
        dual = self.dual if self.dual is not None else dual_approximation(instance)
        allot, in_big = dual.row_allotments(instance)
        dur = instance.times_matrix[np.arange(instance.n), allot - 1]
        key = _ORDER_KEYS[self.ordering](instance, allot, dur, in_big, dual.lam)
        # One lexsort: the ordering's key, ties by task id.
        order = np.lexsort((instance.task_ids, *key))
        return list_schedule(instance, order, allot[order], dur[order])


#: Per ordering, the sort keys over the instance rows, least significant
#: first (``np.lexsort`` order).
_Keys = Callable[[Instance, np.ndarray, np.ndarray, np.ndarray, float], tuple]


def _shelf_key(instance, allot, dur, in_big, lam) -> tuple:
    # Group 0: the big shelf; 2: the "small tasks" of the MT scheme
    # (p(1) <= lam/2); 1: the rest of the small shelf.  Longest first.
    seq = instance.times_matrix[:, 0]
    small = (seq <= lam / 2.0) & np.isfinite(seq)
    group = np.where(in_big, 0, np.where(small, 2, 1))
    return (-dur, group)


def _lptf_key(instance, allot, dur, in_big, lam) -> tuple:
    return ((-dur) / instance.weights,)


def _saf_key(instance, allot, dur, in_big, lam) -> tuple:
    return (allot * dur,)


_ORDER_KEYS: dict[str, _Keys] = {"shelf": _shelf_key, "lptf": _lptf_key, "saf": _saf_key}


def schedule_list_graham(
    instance: Instance,
    ordering: str = "shelf",
    dual: DualApproxResult | None = None,
) -> Schedule:
    """Functional form of :class:`ListGrahamScheduler`."""
    return ListGrahamScheduler(ordering, dual).schedule(instance)
