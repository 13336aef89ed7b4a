"""Batch-schedule compaction (§3.2).

DEMT first conceptually places each selected batch in its time window
``[t_j, t_{j+1}]``.  The paper then describes three successive refinements:

1. :func:`shelf_placement` — "we start all the selected tasks of one batch
   at the same time" (the naive schedule; kept for the ablation study);
2. :func:`pull_forward` — "a straightforward improvement is to start a task
   at an earlier time if all the processors it uses are idle": tasks keep
   their batch order but each starts as early as the free-processor profile
   allows, without reordering;
3. :func:`list_compaction` — "a further improvement is to use a list
   algorithm with the batch ordering and a local ordering within the
   batches": full Graham list scheduling over the concatenated batch lists
   (tasks from a later batch may overtake a stalled earlier one).

All three take the same input: the :class:`Batches` table produced by the
DEMT selection loop — every selected item (a task at its allotment, or a
merged stack of small sequential tasks) as array rows, batch after batch,
already locally ordered within each batch.  All three append their
placements to a :class:`~repro.core.schedule.Schedule` through the one
materialisation path of list scheduling
(:func:`~repro.algorithms.list_scheduling.place_items`).

Both non-trivial refinements run on the vectorized core of
:mod:`repro.core.profile`: pull-forward maintains one incremental
:class:`~repro.core.profile.FreeProfile` instead of rescanning all prior
placements per task, and list compaction feeds the item arrays to the
:func:`~repro.core.profile.graham_starts` kernel.  DEMT's shuffle
optimisation compacts the *same* items ten-plus times in different batch
orders: :func:`order_metrics` scores a candidate order's
``(Cmax, sum w_i C_i)`` straight from the kernel's start times and the
items' weight columns, so only the winning order is placed.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.algorithms.list_scheduling import ListItem, list_schedule, place_items
from repro.core.instance import Instance
from repro.core.profile import FreeProfile, graham_starts
from repro.core.schedule import Schedule, check_columns

__all__ = [
    "Batches",
    "shelf_placement",
    "pull_forward",
    "list_compaction",
    "order_metrics",
]


class Batches(NamedTuple):
    """DEMT's selected batches as one item table, in batch order.

    The items of batch ``j`` are rows ``bounds[j]:bounds[j + 1]``, in
    their local order.  Per item:

    ``allotment``, ``duration``
        The list-scheduling inputs; a stack runs on one processor for the
        left-to-right sum of its members' ``p(1)``.
    ``weight``
        The task's weight, or the stack's summed weight.
    ``offset``
        The item's weighted completion mass relative to its own start:
        ``w * p(k)`` for a task, ``sum_j w_j * (cumulative end of member
        j)`` for a stack — placed at ``t``, the item adds
        ``weight * t + offset`` to ``sum w_i C_i``.
    ``members``, ``stacked``
        The member count (1 for a task) and whether the item is a merged
        stack (a stack may hold one task); both ``None`` when no item is.

    ``rows`` holds the members' rows of ``instance``, item after item.
    """

    instance: Instance
    bounds: np.ndarray
    allotment: np.ndarray
    duration: np.ndarray
    weight: np.ndarray
    offset: np.ndarray
    members: np.ndarray | None
    stacked: np.ndarray | None
    rows: np.ndarray

    @property
    def n_batches(self) -> int:
        return len(self.bounds) - 1

    def item_order(self, order: Sequence[int] | None) -> np.ndarray | None:
        """Item positions of the batches taken in ``order`` (``None``: the
        table's own order)."""
        if order is None:
            return None
        lengths = np.diff(self.bounds)[order]
        first = self.bounds[:-1][order]
        shift = first - (np.cumsum(lengths) - lengths)
        return np.repeat(shift, lengths) + np.arange(len(self.allotment))

    def member_rows(self, items: np.ndarray | None) -> np.ndarray:
        """The members' rows of the items at positions ``items``."""
        if items is None:
            return self.rows
        if self.members is None:
            return self.rows[items]
        counts = self.members[items]
        first = (np.cumsum(self.members) - self.members)[items]
        return self.rows[np.repeat(first - (np.cumsum(counts) - counts), counts)
                         + np.arange(len(self.rows))]

    def items(self) -> list[list[ListItem]]:
        """The batches as :class:`ListItem` lists (stacks as ``stack``)."""
        tasks = self.instance.tasks
        rows = self.rows.tolist()
        bounds = self.bounds.tolist()
        out: list[list[ListItem]] = []
        pos = 0
        for j in range(self.n_batches):
            batch = []
            for i in range(bounds[j], bounds[j + 1]):
                count = 1 if self.members is None else int(self.members[i])
                members = rows[pos : pos + count]
                pos += count
                if self.stacked is not None and self.stacked[i]:
                    stack = tuple(tasks[r] for r in members)
                    batch.append(ListItem(stack[0], 1, stack=stack))
                else:
                    batch.append(ListItem(tasks[members[0]], int(self.allotment[i])))
            out.append(batch)
        return out

    @classmethod
    def from_items(cls, batches: Sequence[Sequence[ListItem]], m: int) -> "Batches":
        """The table of :class:`ListItem` batches: their tasks become the
        rows of an object-backed instance on ``m`` processors."""
        items = [it for batch in batches for it in batch]
        tasks = [t for it in items for t in (it.stack or (it.task,))]
        weights, offsets = [], []
        for it in items:
            if it.stack:
                w = acc = end = 0.0
                for task in it.stack:
                    end += task.seq_time
                    w += task.weight
                    acc += task.weight * end
                weights.append(w)
                offsets.append(acc)
            else:
                weights.append(it.task.weight)
                offsets.append(it.task.weight * it.duration)
        any_stack = any(it.stack for it in items)
        return cls(
            Instance(tasks, m),
            np.cumsum([0] + [len(b) for b in batches], dtype=np.int64),
            np.array([it.allotment for it in items], dtype=np.int64),
            np.array([it.duration for it in items], dtype=np.float64),
            np.array(weights, dtype=np.float64),
            np.array(offsets, dtype=np.float64),
            np.array([len(it.stack) or 1 for it in items]) if any_stack else None,
            np.array([bool(it.stack) for it in items]) if any_stack else None,
            np.arange(len(tasks)),
        )


def shelf_placement(batches: Batches, batch_starts: Sequence[float]) -> Schedule:
    """Naive placement: every item of batch ``j`` starts at ``batch_starts[j]``.

    Feasible by construction because the knapsack selection capped each
    batch's total allotment at ``m`` — provided every item's duration fits
    in its batch window, which the DEMT admissibility filter guarantees.
    """
    if batches.n_batches != len(batch_starts):
        raise ValueError(
            f"{batches.n_batches} batches but {len(batch_starts)} start times"
        )
    starts = np.repeat(np.asarray(batch_starts, dtype=np.float64), np.diff(batches.bounds))
    return _place_in_order(batches, starts)


def pull_forward(batches: Batches) -> Schedule:
    """Order-preserving compaction.

    Tasks are taken strictly in (batch, local) order; each starts at the
    earliest instant where enough processors are free *given the placements
    already made*.  No overtaking: a huge stalled task does not let smaller
    successors slip past it earlier than its own start.
    """
    profile = FreeProfile(batches.instance.m)
    starts = []
    for allotment, duration in zip(batches.allotment.tolist(), batches.duration.tolist()):
        start = profile.earliest_fit(allotment, duration)
        starts.append(start)
        profile.reserve(start, duration, allotment)
    return _place_in_order(batches, np.array(starts, dtype=np.float64))


def _place_in_order(batches: Batches, starts: np.ndarray) -> Schedule:
    """Place every item at its start, in table order (checked like add)."""
    inst = batches.instance
    out = Schedule(inst.m)
    if not len(batches.allotment):
        return out
    counts = batches.members
    first = batches.rows if counts is None else batches.rows[np.cumsum(counts) - counts]
    check_columns(inst.m, batches.allotment, batches.duration,
                  lambda i: int(inst.task_ids[first[i]]), starts)
    return place_items(
        out, inst, batches.rows, batches.allotment, batches.duration, starts,
        np.arange(len(starts)), batches.members,
    )


def list_compaction(batches: Batches, order: Sequence[int] | None = None) -> Schedule:
    """Full Graham list compaction with the batch ordering (the DEMT
    default); ``order`` permutes the batches (default: table order)."""
    items = batches.item_order(order)

    def pick(column):
        return column if items is None or column is None else column[items]

    return list_schedule(
        batches.instance,
        batches.member_rows(items),
        pick(batches.allotment),
        pick(batches.duration),
        members=pick(batches.members),
    )


def order_metrics(
    batches: Batches,
    order: Sequence[int],
    *,
    cmax_cutoff: float | None = None,
) -> tuple[float, float] | None:
    """``(Cmax, sum w_i C_i)`` of ``list_compaction`` in batch order ``order``.

    Runs the Graham kernel on the permuted item arrays and reads both
    criteria off the start times — no :class:`Schedule` is built.  Returns
    ``None`` when ``cmax_cutoff`` is given and the makespan provably
    exceeds it (the shuffle loop's reject-fast path).
    """
    items = batches.item_order(order)
    dur = batches.duration[items]
    result = graham_starts(
        batches.allotment[items], dur, batches.instance.m, cutoff=cmax_cutoff
    )
    if result is None:
        return None
    starts, _ = result
    cmax = float(np.max(starts + dur)) if starts.size else 0.0
    if cmax_cutoff is not None and cmax > cmax_cutoff:
        return None
    # np.sum (pairwise) rather than a BLAS dot: candidate ranking must not
    # depend on which BLAS the platform links.
    minsum = float(np.sum(starts * batches.weight[items]) + np.sum(batches.offset[items]))
    return cmax, minsum
