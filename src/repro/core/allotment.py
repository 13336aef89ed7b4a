"""Canonical allotment selection.

Two selection rules recur throughout the paper:

* the **minimal allotment for a deadline** ``t`` — the smallest ``k`` with
  ``p(k) <= t`` (the paper's ``allot_i``, used by the knapsack selection and
  by the dual-approximation shelves).  For monotonic tasks the smallest
  feasible ``k`` is also the one of smallest work, i.e. the cheapest way to
  meet the deadline.
* the **minimal-area allotment under a deadline** — ``argmin_k k * p(k)``
  subject to ``p(k) <= t`` (the quantity ``S_{i,j}`` of the lower-bound LP,
  §3.3).  Identical to the former for monotonic tasks, but kept separate so
  non-monotonic inputs are still handled exactly.

Both come in scalar (one task) and vectorised (whole instance) flavours; the
vectorised forms operate on the ``(n, m)`` processing-time matrix exposed by
:class:`repro.core.instance.Instance`.  DEMT's batch selection calls
:func:`minimal_allotments`; :func:`minimal_area_allotments` is the reference
the dual-approximation sweep kernel and the LP bound's tests compare
against (the bound itself takes ``S_{i,j}`` for every interval from one
pass over the matrix, in :mod:`repro.bounds.minsum_lp`).
"""

from __future__ import annotations

import numpy as np

from repro.core.task import MoldableTask

__all__ = [
    "minimal_allotment",
    "minimal_allotments",
    "minimal_area_allotment",
    "minimal_area_allotments",
]


def minimal_allotment(task: MoldableTask, deadline: float, m: int | None = None) -> int | None:
    """Smallest ``k <= m`` with ``p(k) <= deadline``, or ``None`` if none.

    >>> from repro.core.task import MoldableTask
    >>> t = MoldableTask(0, [10.0, 6.0, 4.5])
    >>> minimal_allotment(t, 6.0)
    2
    >>> minimal_allotment(t, 1.0) is None
    True
    """
    limit = task.max_procs if m is None else min(m, task.max_procs)
    times = task.times[:limit]
    ok = times <= deadline
    if not ok.any():
        return None
    return int(np.argmax(ok)) + 1


def minimal_allotments(times_matrix: np.ndarray, deadline: float) -> np.ndarray:
    """Vectorised :func:`minimal_allotment` over an ``(n, m)`` time matrix.

    Returns an ``(n,)`` int array; ``0`` encodes "no feasible allotment"
    (instead of ``None``) so the result stays a flat array.
    """
    ok = times_matrix <= deadline
    any_ok = ok.any(axis=1)
    # argmax returns 0 for all-False rows; mask those to 0 afterwards.
    allot = ok.argmax(axis=1) + 1
    allot[~any_ok] = 0
    return allot.astype(np.int64)


def minimal_area_allotment(
    task: MoldableTask, deadline: float, m: int | None = None
) -> tuple[int, float] | None:
    """Allotment of minimal area meeting ``deadline``; ``None`` if impossible.

    Returns ``(k, area)`` with ``area = k * p(k)`` minimal among feasible
    ``k``.  This is the per-task quantity ``S_{i,j}`` of the paper's LP
    lower bound.
    """
    limit = task.max_procs if m is None else min(m, task.max_procs)
    times = task.times[:limit]
    ks = np.arange(1, limit + 1, dtype=np.float64)
    feasible = times <= deadline
    if not feasible.any():
        return None
    areas = np.where(feasible, ks * times, np.inf)
    k = int(np.argmin(areas)) + 1
    return k, float(areas[k - 1])


def minimal_area_allotments(times_matrix: np.ndarray, deadline: float) -> np.ndarray:
    """Vectorised minimal feasible area per task (``+inf`` if infeasible).

    ``times_matrix`` is the ``(n, m)`` matrix of ``p_i(k)``; the result is an
    ``(n,)`` float array of ``S_{i, j}`` values for the interval whose upper
    end is ``deadline``.  (The dual approximation's probes take both
    minimal allotments and areas, under ``λ`` and ``λ/2``, from one kernel
    sweep instead: :func:`repro.kernels.dual_sweep_core`.)
    """
    ks = np.arange(1, times_matrix.shape[1] + 1, dtype=np.float64)
    return np.min(times_matrix * ks, axis=1, where=times_matrix <= deadline, initial=np.inf)
