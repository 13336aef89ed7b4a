"""Seed (pre-vectorization) scheduling implementations, kept as oracles.

When the ``O(n^2)`` per-pass rescans of the seed release were replaced by
the vectorized core of :mod:`repro.core.profile`, the originals moved here
verbatim instead of being deleted.  They are *specifications*: slow,
obviously-correct Python that the fast path must match bit-for-bit.

Used by

* ``tests/properties/`` — the differential suite runs both paths on a
  randomized corpus and asserts identical placements;
* ``tests/algorithms/test_demt.py`` — :class:`ReferenceDemtScheduler`
  is the oracle of the production DEMT loop;
* ``tests/algorithms/test_merge.py`` — :func:`reference_merge_small_tasks`
  is the oracle of the columnar merge.

Nothing in the library's production paths imports this module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.list_scheduling import ListItem
from repro.core.schedule import Schedule
from repro.core.task import MoldableTask
from repro.exceptions import SchedulingError
from repro.utils.rng import make_rng

__all__ = [
    "reference_list_schedule",
    "reference_pull_forward",
    "reference_list_compaction",
    "reference_earliest_fit",
    "MergedStack",
    "reference_merge_small_tasks",
    "ReferenceDemtScheduler",
]


def _place(schedule: Schedule, item: ListItem, start: float) -> None:
    """The seed's materialisation of one item (task or stack)."""
    if item.stack:
        t = start
        for task in item.stack:
            schedule.add(task, t, 1)
            t += task.seq_time
    else:
        schedule.add(item.task, start, item.allotment)


def reference_list_schedule(
    items: Sequence[ListItem],
    m: int,
    *,
    schedule: Schedule | None = None,
    start_time: float = 0.0,
) -> Schedule:
    """The seed's Graham list scheduling (rescan of the pending list)."""
    for it in items:
        if it.allotment > m:
            raise SchedulingError(
                f"task {it.task.task_id}: allotment {it.allotment} exceeds m={m}"
            )
        if not np.isfinite(it.duration):
            raise SchedulingError(
                f"task {it.task.task_id}: infinite duration for allotment {it.allotment}"
            )

    out = schedule if schedule is not None else Schedule(m)
    pending: list[ListItem] = list(items)
    free = m
    now = float(start_time)
    running: list[tuple[float, int]] = []  # (end_time, allotment) min-heap

    while pending:
        started_any = True
        while started_any:
            started_any = False
            for idx, it in enumerate(pending):
                if it.allotment <= free:
                    _place(out, it, now)
                    heapq.heappush(running, (now + it.duration, it.allotment))
                    free -= it.allotment
                    del pending[idx]
                    started_any = True
                    break
        if not pending:
            break
        if not running:  # pragma: no cover - defensive
            raise SchedulingError("list scheduling deadlocked (item larger than machine?)")
        end, allot = heapq.heappop(running)
        free += allot
        now = end
        while running and running[0][0] <= now:
            _, a = heapq.heappop(running)
            free += a
    return out


def reference_earliest_fit(
    placed: list[tuple[float, float, int]],
    allotment: int,
    duration: float,
    m: int,
) -> float:
    """The seed's quadratic earliest-fit over a list of placements."""
    candidates = sorted({0.0, *(end for _, end, _ in placed)})
    for t0 in candidates:
        t1 = t0 + duration
        points = [t0, *(s for s, _, _ in placed if t0 < s < t1)]
        if all(
            sum(a for s, e, a in placed if s <= point < e) + allotment <= m
            for point in points
        ):
            return t0
    return max((end for _, end, _ in placed), default=0.0)  # pragma: no cover


def reference_pull_forward(
    batches: Sequence[Sequence[ListItem]], m: int
) -> Schedule:
    """The seed's order-preserving compaction (full profile rescans)."""
    out = Schedule(m)
    placed: list[tuple[float, float, int]] = []
    for items in batches:
        for it in items:
            start = reference_earliest_fit(placed, it.allotment, it.duration, m)
            _place(out, it, start)
            placed.append((start, start + it.duration, it.allotment))
    return out


def reference_list_compaction(
    batches: Sequence[Sequence[ListItem]], m: int
) -> Schedule:
    """The seed's full Graham list compaction with the batch ordering."""
    flat: list[ListItem] = [it for items in batches for it in items]
    return reference_list_schedule(flat, m)


@dataclass(frozen=True)
class MergedStack:
    """A pile of sequential tasks run back-to-back on one processor.

    ``tasks`` are ordered as they will execute (decreasing weight, so the
    heaviest completes first — the right order for ``sum w_i C_i`` by the
    classical exchange argument at equal processing slots).
    """

    tasks: tuple[MoldableTask, ...]

    @property
    def duration(self) -> float:
        """Total sequential time of the stack."""
        return sum(t.seq_time for t in self.tasks)

    @property
    def weight(self) -> float:
        """Aggregated knapsack weight."""
        return sum(t.weight for t in self.tasks)

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(t.task_id for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


def reference_merge_small_tasks(
    tasks: Sequence[MoldableTask],
    batch_length: float,
    *,
    small_threshold_factor: float = 0.5,
) -> tuple[list[MergedStack], list[MoldableTask]]:
    """The seed's object merge of small sequential tasks; returns
    ``(stacks, untouched)``.

    Parameters
    ----------
    tasks:
        Candidate tasks for the current batch.
    batch_length:
        The batch length ``t``; a task is *small* when
        ``p(1) <= small_threshold_factor * t``.
    small_threshold_factor:
        The paper uses one half ("less than half the batch size").  Exposed
        for the ablation study.

    Returns
    -------
    stacks:
        Maximal-weight-first stacks of small tasks, each of total duration
        ``<= batch_length``.  Singleton stacks may appear (a small task that
        did not combine with others); they are still knapsack items of
        allotment 1.
    untouched:
        Tasks that are not small; the caller gives them their regular
        minimal allotment for the batch.
    """
    if batch_length <= 0:
        raise ValueError(f"batch length must be positive, got {batch_length}")
    if not 0 < small_threshold_factor <= 1:
        raise ValueError(
            f"small_threshold_factor must lie in (0, 1], got {small_threshold_factor}"
        )
    threshold = small_threshold_factor * batch_length
    # A task with no sequential mode (p(1) = +inf: rigid jobs wider than
    # one processor) can never be stacked, whatever the threshold — an
    # infinite threshold (overlong doubling rounds) must not sweep it in.
    small: list[MoldableTask] = []
    untouched: list[MoldableTask] = []
    for t in tasks:
        is_small = t.seq_time <= threshold and math.isfinite(t.seq_time)
        (small if is_small else untouched).append(t)

    small.sort(key=lambda t: (-t.weight, t.task_id))
    stacks: list[MergedStack] = []
    current: list[MoldableTask] = []
    current_time = 0.0
    for task in small:
        if current and current_time + task.seq_time > batch_length:
            stacks.append(MergedStack(tuple(current)))
            current = []
            current_time = 0.0
        current.append(task)
        current_time += task.seq_time
    if current:
        stacks.append(MergedStack(tuple(current)))
    return stacks, untouched


def reference_minimal_area_allotments(
    times_matrix: np.ndarray, deadline: float
) -> np.ndarray:
    """The seed's per-deadline area-matrix rebuild."""
    n, m = times_matrix.shape
    ks = np.arange(1, m + 1, dtype=np.float64)
    areas = np.where(times_matrix <= deadline, times_matrix * ks, np.inf)
    return areas.min(axis=1)


def reference_knapsack_min_work(
    work_a: np.ndarray,
    cost_a: np.ndarray,
    work_b: np.ndarray,
    m: int,
) -> tuple[np.ndarray, float]:
    """The seed's min-work knapsack (fresh allocations every row)."""
    n = work_a.size
    if not (cost_a.size == n and work_b.size == n):
        raise ValueError("work_a, cost_a and work_b must have the same length")
    if m < 0:
        raise ValueError(f"capacity must be non-negative, got {m}")

    INF = np.inf
    dp = np.full(m + 1, 0.0)
    choice = np.zeros((n, m + 1), dtype=bool)  # True = option A
    for i in range(n):
        a_cost = int(cost_a[i])
        via_b = dp + work_b[i]
        if a_cost <= m and np.isfinite(work_a[i]):
            via_a = np.full(m + 1, INF)
            via_a[a_cost:] = dp[: m + 1 - a_cost] + work_a[i]
        else:
            via_a = np.full(m + 1, INF)
        take_a = via_a < via_b
        choice[i] = take_a
        dp = np.where(take_a, via_a, via_b)

    total = float(dp[m])
    if not np.isfinite(total):
        return np.zeros(n, dtype=bool), INF
    q = m
    in_a = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        if choice[i, q]:
            in_a[i] = True
            q -= int(cost_a[i])
    return in_a, total


def reference_feasibility_check(instance, lam):
    """The seed's necessary-condition test for "makespan <= lam exists"."""
    from repro.core.allotment import minimal_allotments

    if lam <= 0:
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    tm = instance.times_matrix
    m = instance.m

    g_big = minimal_allotments(tm, lam)
    if (g_big == 0).any():
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    g_small = minimal_allotments(tm, lam / 2.0)
    work_big = reference_minimal_area_allotments(tm, lam)
    work_small = reference_minimal_area_allotments(tm, lam / 2.0)

    in_big, total = reference_knapsack_min_work(
        work_a=work_big,
        cost_a=g_big.astype(np.float64),
        work_b=work_small,
        m=m,
    )
    if not np.isfinite(total) or total > m * lam * (1 + 1e-12):
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    allot = np.where(in_big, g_big, g_small).astype(np.int64)
    return True, in_big, allot


def reference_dual_approximation(instance, *, rel_tol=1e-3, max_iter=80):
    """The seed's binary search + two-shelf construction, end to end."""
    from repro.algorithms.dual_approx import DualApproxResult

    if instance.n == 0:
        return DualApproxResult(0.0, 0.0, {}, frozenset(), _prebuilt=Schedule(instance.m))

    lo = max(instance.max_min_time, instance.min_total_work / instance.m)

    feasible, in_big, allot = reference_feasibility_check(instance, lo)
    if not feasible:
        hi = lo * 2.0
        for _ in range(max_iter):
            feasible, in_big, allot = reference_feasibility_check(instance, hi)
            if feasible:
                break
            lo = hi
            hi *= 2.0
        else:  # pragma: no cover - defensive
            raise SchedulingError("dual approximation did not find a feasible lambda")
        for _ in range(max_iter):
            if hi - lo <= rel_tol * lo:
                break
            mid = 0.5 * (lo + hi)
            ok, ib, al = reference_feasibility_check(instance, mid)
            if ok:
                hi, in_big, allot = mid, ib, al
            else:
                lo = mid
        lam = hi
    else:
        lam = lo

    tasks = instance.tasks
    big_items = [
        ListItem(tasks[i], int(allot[i])) for i in range(len(tasks)) if in_big[i]
    ]
    small_items = [
        ListItem(tasks[i], int(allot[i])) for i in range(len(tasks)) if not in_big[i]
    ]
    big_items.sort(key=lambda it: (-it.allotment, it.task.task_id))
    small_items.sort(key=lambda it: (-it.duration, it.task.task_id))
    schedule = reference_list_schedule(big_items + small_items, instance.m)
    allotments = {t.task_id: int(allot[i]) for i, t in enumerate(instance.tasks)}
    big_ids = frozenset(t.task_id for i, t in enumerate(instance.tasks) if in_big[i])
    return DualApproxResult(
        lower_bound=float(lo),
        lam=float(lam),
        allotments=allotments,
        big_shelf=big_ids,
        _prebuilt=schedule,
    )


# Imported late to avoid a cycle (demt imports compaction at module load).
from repro.algorithms.demt import DemtScheduler  # noqa: E402


class ReferenceDemtScheduler(DemtScheduler):
    """DEMT running entirely on the seed's implementations.

    Seed dual approximation, seed object selection loop (per-task
    admissibility scan, object merge, item-object knapsack), seed
    compaction and seed shuffle loop — the full pre-vectorization
    behavior, for the differential tests.
    """

    name = "DEMT(reference)"

    def _schedule_detailed_impl(self, instance):
        """The seed's pipeline glue, over :class:`ListItem` batches."""
        from repro.algorithms.demt import DemtResult

        if instance.n == 0:
            return DemtResult(schedule=Schedule(instance.m))
        dual = self._dual(instance)
        cstar = dual.lam * self.guess_relaxation
        batches, starts, t_grid, K, extensions = self._select_batches(instance, cstar)
        schedule = self._compact(batches, starts, instance.m)
        improvement = 0.0
        if self.shuffle_rounds > 0 and len(batches) > 1 and self.compaction == "list":
            schedule, improvement = self._shuffle_optimise(batches, instance.m, schedule)
        return DemtResult(
            schedule=schedule,
            batches=batches,
            batch_starts=starts,
            cmax_estimate=cstar,
            t_grid=t_grid,
            K=K,
            dual=dual,
            shuffle_improvement=improvement,
            extension_batches=extensions,
        )

    def _dual(self, instance):
        return reference_dual_approximation(instance)

    def _select_batches(self, instance, cstar):
        tmin = instance.tmin
        if not (cstar > 0 and np.isfinite(cstar)):  # pragma: no cover - defensive
            raise SchedulingError(f"invalid C*max estimate {cstar}")
        K = max(0, int(math.floor(math.log2(cstar / tmin))))
        t_grid = [cstar / 2 ** (K - j) for j in range(K + 2)]

        remaining = {t.task_id: t for t in instance.tasks}
        batches = []
        starts = []
        extensions = 0
        j = 0
        max_batches = K + 2 + instance.n
        t_last = t_grid[-1]
        k_max = min(900, 1024 - math.frexp(t_last)[1]) if math.isfinite(t_last) else 900
        while remaining and j < max_batches:
            length = (
                t_grid[j]
                if j < len(t_grid)
                else math.ldexp(t_last, min(j - K - 1, k_max))
            )
            start = length
            selected = self._select_one_batch(
                list(remaining.values()), length, instance.m
            )
            if selected:
                batches.append(selected)
                starts.append(start)
                extensions += j >= len(t_grid)
                for it in selected:
                    for task in it.stack or (it.task,):
                        del remaining[task.task_id]
            j += 1
        if remaining:  # pragma: no cover - defensive
            raise SchedulingError(
                f"batch selection left {len(remaining)} tasks unplaced"
            )
        return batches, starts, t_grid, K, extensions

    def _select_one_batch(self, tasks, length, m):
        from repro.algorithms.knapsack import KnapsackItem, knapsack_select
        from repro.core.allotment import minimal_allotment

        admissible = [t for t in tasks if minimal_allotment(t, length, m=m) is not None]
        if not admissible:
            return []
        stacks, rest = reference_merge_small_tasks(
            admissible, length, small_threshold_factor=self.small_threshold_factor
        )
        items = []
        payload = {}
        for s_idx, stack in enumerate(stacks):
            key = ("stack", s_idx)
            items.append(KnapsackItem(key, 1, stack.weight))
            payload[key] = ListItem(stack.tasks[0], 1, stack=stack.tasks)
        for task in rest:
            key = ("task", task.task_id)
            allot = minimal_allotment(task, length, m=m)
            assert allot is not None
            items.append(KnapsackItem(key, allot, task.weight))
            payload[key] = ListItem(task, allot)

        result = knapsack_select(items, m)
        chosen = [payload[k] for k in result.selected_keys]
        chosen.sort(
            key=lambda it: (
                -(sum(t.weight for t in it.stack) if it.stack else it.task.weight)
                / it.duration,
                it.task.task_id,
            )
        )
        return chosen

    def _compact(self, batches, starts, m):
        if self.compaction == "shelf":
            from repro.algorithms.compaction import Batches, shelf_placement

            return shelf_placement(Batches.from_items(batches, m), starts)
        if self.compaction == "pull_forward":
            return reference_pull_forward(batches, m)
        return reference_list_compaction(batches, m)

    def _shuffle_optimise(self, batches, m, baseline):
        rng = make_rng(self.seed)
        best = baseline
        best_minsum = baseline.weighted_completion_sum()
        base_cmax = baseline.makespan()
        order = np.arange(len(batches))
        for _ in range(self.shuffle_rounds):
            rng.shuffle(order)
            candidate = reference_list_compaction([batches[i] for i in order], m)
            if candidate.makespan() <= base_cmax * (1 + 1e-12):
                minsum = candidate.weighted_completion_sum()
                if minsum < best_minsum:
                    best, best_minsum = candidate, minsum
        gain = (baseline.weighted_completion_sum() - best_minsum) / max(
            baseline.weighted_completion_sum(), 1e-300
        )
        return best, gain
