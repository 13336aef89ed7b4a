"""Weight-maximising knapsack selection (§3.2).

The DEMT batch loop selects, among the tasks admissible in the current
batch, a subset of maximal total weight whose allotments fit on the ``m``
processors.  The paper writes the recurrence

    W(i, j) = max( W(i-1, j), W(i-1, j - allot_i) + w_i )

with ``W`` initialised to ``-inf`` for ``j < 0`` and ``0`` otherwise; the
largest ``W(n, ·)`` is the maximal weight schedulable in the batch.  The
complexity is ``O(n m)``.

This module implements exactly that dynamic program (vectorised over the
capacity axis) plus the choice reconstruction the paper leaves implicit.
The hot DP loops are dispatched through :mod:`repro.kernels` (pure-NumPy
reference, optional compiled cffi backend — bit-identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import kernels

__all__ = [
    "KnapsackItem",
    "KnapsackResult",
    "knapsack_select",
    "knapsack_select_indices",
]


@dataclass(frozen=True)
class KnapsackItem:
    """One selectable unit: a task (or a merged stack of small tasks).

    Attributes
    ----------
    key:
        Caller-defined identifier (task id or stack index).
    allotment:
        Processors consumed if selected (``>= 1``).
    weight:
        Value added to the objective if selected (``> 0``).
    """

    key: object
    allotment: int
    weight: float

    def __post_init__(self) -> None:
        if self.allotment < 1:
            raise ValueError(f"item {self.key!r}: allotment must be >= 1, got {self.allotment}")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"item {self.key!r}: weight must be finite and >= 0")


@dataclass(frozen=True)
class KnapsackResult:
    """Outcome of :func:`knapsack_select`."""

    selected: tuple[KnapsackItem, ...]
    total_weight: float
    used_processors: int

    @property
    def selected_keys(self) -> tuple[object, ...]:
        return tuple(item.key for item in self.selected)


def knapsack_select(items: Sequence[KnapsackItem], m: int) -> KnapsackResult:
    """Maximise total weight of items whose allotments sum to at most ``m``.

    Exact 0/1 knapsack with integer capacity (the allotment axis), solved by
    the paper's ``O(n m)`` dynamic program.  Ties are broken toward using
    *fewer* processors, which leaves room for the compaction step to pull
    later batches forward.

    >>> items = [KnapsackItem("a", 2, 5.0), KnapsackItem("b", 2, 4.0),
    ...          KnapsackItem("c", 3, 6.0)]
    >>> res = knapsack_select(items, m=4)
    >>> sorted(res.selected_keys)
    ['a', 'b']
    >>> res.total_weight
    9.0
    """
    if m < 0:
        raise ValueError(f"capacity must be non-negative, got {m}")
    n = len(items)
    if n == 0 or m == 0:
        return KnapsackResult((), 0.0, 0)
    chosen_idx, total, used = knapsack_select_indices(
        [it.allotment for it in items], [it.weight for it in items], m
    )
    chosen = tuple(items[i] for i in chosen_idx)
    return KnapsackResult(chosen, total, used)


def knapsack_select_indices(
    allotments: Sequence[int], weights: Sequence[float], m: int
) -> tuple[list[int], float, int]:
    """Array-level core of :func:`knapsack_select`.

    Takes parallel allotment/weight sequences and returns
    ``(selected indices, total weight, used processors)`` — the DEMT batch
    loop calls this directly so the hot path skips item-object overhead.
    """
    n = len(allotments)
    if n == 0 or m == 0:
        return [], 0.0, 0
    allot_arr = np.ascontiguousarray(allotments, dtype=np.int64)
    weight_arr = np.ascontiguousarray(weights, dtype=np.float64)
    # Short-circuit: when every item fits simultaneously, the optimum is
    # "take everything" — the common case for DEMT's late batches, whose
    # shrinking pools stop filling the machine.  Restricted to strictly
    # positive weights, where it provably matches the DP (a zero-weight
    # item never survives the DP's strict-improvement test, and with
    # positive weights the DP's reconstruction keeps every item).  The
    # total is accumulated in index order, exactly like the DP rows, so
    # the reported weight is bit-identical.
    if bool(np.all(weight_arr > 0)):  # False for NaN too: fall to the DP
        used = int(allot_arr.sum())
        if used <= m:
            total = 0.0
            for w in weight_arr.tolist():
                total += w
            return list(range(n)), float(total), used
    # DP + reconstruction through the kernel layer (bit-identical across
    # backends; see repro.kernels).  The reconstruction picks the smallest
    # capacity achieving the maximal weight — fewest processors used for
    # the same weight — with an *exact* `best[q] >= total` comparison: a
    # tolerance would accept a capacity whose optimum is a strictly
    # lighter selection when item weights differ by less than it, and the
    # reconstruction would then not reproduce the reported total.
    return kernels.knapsack_select_core(allot_arr, weight_arr, m)


def knapsack_min_work(
    work_a: np.ndarray,
    cost_a: np.ndarray,
    work_b: np.ndarray,
    m: int,
) -> tuple[np.ndarray, float]:
    """Binary-choice knapsack *minimising* work (dual-approximation helper).

    Each task ``i`` either goes to option A — consuming ``cost_a[i]``
    processors of a shared budget ``m`` and contributing ``work_a[i]`` — or
    to option B — consuming no budget and contributing ``work_b[i]``
    (``+inf`` when option B is unavailable, which forces A).

    Returns ``(in_a, total_work)`` where ``in_a`` is a boolean vector of the
    optimal assignment.  ``total_work = +inf`` when no assignment fits (some
    forced-A tasks exceed the budget).

    This is the knapsack at the heart of the Mounié–Trystram two-shelf
    feasibility test: A = big shelf (duration ≤ λ), B = small shelf
    (duration ≤ λ/2); minimising total work while respecting the big-shelf
    width decides whether λ can possibly be beaten.
    """
    cost = _checked_costs(work_a, cost_a, work_b, m)
    # dp[q] = min work with big-shelf width exactly <= q, walked back from
    # capacity m through the strict via_a < via_b choices; runs through
    # the kernel layer (bit-identical across backends).
    return kernels.knapsack_min_work_core(
        np.ascontiguousarray(work_a, dtype=np.float64),
        cost,
        np.ascontiguousarray(work_b, dtype=np.float64),
        m,
    )


def knapsack_min_work_value(
    work_a: np.ndarray,
    cost_a: np.ndarray,
    work_b: np.ndarray,
    m: int,
) -> float:
    """Objective value of :func:`knapsack_min_work`, without reconstruction.

    Same dynamic program, same float operations in the same order (so
    feasibility decisions based on the value are identical), but no choice
    matrix — the dual-approximation binary search only needs the value for
    all but its final, accepted probe.  Runs through the kernel layer,
    with the same input checks as :func:`knapsack_min_work`.
    """
    cost = _checked_costs(work_a, cost_a, work_b, m)
    return kernels.knapsack_min_work_value_core(
        np.ascontiguousarray(work_a, dtype=np.float64),
        cost,
        np.ascontiguousarray(work_b, dtype=np.float64),
        m,
    )


def _checked_costs(work_a, cost_a, work_b, m: int) -> np.ndarray:
    """``cost_a`` as int64, once the inputs of both min-work paths pass
    their checks (:class:`ValueError` otherwise): matching lengths, a
    non-negative capacity, finite and non-negative costs.

    A non-finite cost has no int64 value, and the DP walks capacities back
    by the cost: both are rejected before dispatch, on every backend.  An
    integer cost array costs one pass (its minimum); a float one is
    truncated toward zero after the check, like the old ``int(c)``.
    """
    n = work_a.size
    if not (cost_a.size == n and work_b.size == n):
        raise ValueError("work_a, cost_a and work_b must have the same length")
    if m < 0:
        raise ValueError(f"capacity must be non-negative, got {m}")
    if n:
        if cost_a.dtype.kind in "iu":
            # A short row is cheaper to scan as Python ints than to reduce.
            ok = (min(cost_a.tolist()) if n <= 32 else cost_a.min()) >= 0
        else:  # NaN fails both comparisons
            ok = cost_a.min() >= 0 and cost_a.max() < np.inf
        if not ok:
            raise ValueError("cost_a must be finite and non-negative")
    return np.ascontiguousarray(cost_a, dtype=np.int64)
