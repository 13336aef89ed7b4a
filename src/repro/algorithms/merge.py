"""Merging of small sequential tasks (§3.2).

Before the knapsack selection of a batch of length ``t``, the paper stacks
tasks that "can be run in less than half the batch size on one processor":
several such tasks are executed back-to-back on a single processor inside
the batch, so the knapsack sees them as *one* item of allotment 1 whose
weight is the sum of the stacked weights.  To pack as much weight as
possible the stacking is done "by decreasing weight order".

The stack building is a greedy first-fit by decreasing weight: tasks are
appended to the current stack while the accumulated sequential time stays
within the batch length ``t``; a task that does not fit opens a new stack.
Because every candidate lasts at most ``t/2``, every stack except possibly
the last holds at least two tasks — that is the point of the merge: weight
density per processor goes up.

The merge works on columns — each candidate's ``p(1)``, weight and id —
so DEMT's batch loop hands it slices of the instance arrays and builds
task objects only for the items its knapsack keeps.  The seed's object
version is kept as the oracle
:func:`repro.algorithms.reference.reference_merge_small_tasks`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["merge_small_tasks"]


def merge_small_tasks(
    seq_times: np.ndarray,
    weights: np.ndarray,
    task_ids: np.ndarray,
    batch_length: float,
    *,
    small_threshold_factor: float = 0.5,
) -> tuple[list[list[int]], list[float], np.ndarray]:
    """Stack small sequential tasks; return ``(stacks, stack_weights, untouched)``.

    Parameters
    ----------
    seq_times, weights, task_ids:
        Parallel ``(n,)`` columns of the candidate tasks: sequential time
        ``p(1)``, weight and id.
    batch_length:
        The batch length ``t``; a task is *small* when
        ``p(1) <= small_threshold_factor * t``.
    small_threshold_factor:
        The paper uses one half ("less than half the batch size").  Exposed
        for the ablation study.

    Returns
    -------
    stacks:
        Each stack's members as positions into the columns, in execution
        order.  Stacks are filled by decreasing weight (ties by id), each of
        total duration ``<= batch_length``.  Singleton stacks may appear (a
        small task that did not combine with others); they are still
        knapsack items of allotment 1.
    stack_weights:
        Each stack's summed weight, accumulated left to right.
    untouched:
        Positions of the tasks that are not small, in input order; the
        caller gives them their regular minimal allotment for the batch.

    >>> stacks, w, rest = merge_small_tasks(
    ...     np.array([1.0, 9.0, 2.0]), np.array([1.0, 1.0, 3.0]),
    ...     np.array([0, 1, 2]), 8.0)
    >>> stacks, w, rest.tolist()
    ([[2, 0]], [4.0], [1])
    """
    if batch_length <= 0:
        raise ValueError(f"batch length must be positive, got {batch_length}")
    if not 0 < small_threshold_factor <= 1:
        raise ValueError(
            f"small_threshold_factor must lie in (0, 1], got {small_threshold_factor}"
        )
    threshold = small_threshold_factor * batch_length
    small = seq_times <= threshold
    if threshold == math.inf:
        # A task with no sequential mode (p(1) = +inf: rigid jobs wider
        # than one processor) can never be stacked — an infinite threshold
        # must not sweep it in.  Below a finite threshold it never is.
        small &= np.isfinite(seq_times)
    small_pos = small.nonzero()[0]
    if not small_pos.size:
        return [], [], np.arange(seq_times.size)

    order = small_pos[np.lexsort((task_ids[small_pos], -weights[small_pos]))]
    stacks: list[list[int]] = []
    stack_weights: list[float] = []
    current: list[int] = []
    current_time = current_weight = 0.0
    # Python floats, summed left to right: the stack boundaries and weights
    # are the seed's to the last bit (a pairwise np.sum would not be).
    for pos, p, w in zip(order.tolist(), seq_times[order].tolist(), weights[order].tolist()):
        if current and current_time + p > batch_length:
            stacks.append(current)
            stack_weights.append(current_weight)
            current = []
            current_time = current_weight = 0.0
        current.append(pos)
        current_time += p
        current_weight += w
    stacks.append(current)
    stack_weights.append(current_weight)
    return stacks, stack_weights, (~small).nonzero()[0]
