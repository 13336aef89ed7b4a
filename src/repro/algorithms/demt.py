"""DEMT — the paper's bi-criteria batch scheduling algorithm (§3.2).

The algorithm, following the pseudo-code of the paper:

1. Compute the approximate optimal makespan ``C*max`` with the
   dual-approximation algorithm (:mod:`repro.algorithms.dual_approx`).
2. Let ``t_min = min_{i,k} p_i(k)`` and ``K = floor(log2(C*max / t_min))``;
   define the geometric grid ``t_j = C*max / 2^(K-j)`` so that batch ``j``
   occupies the window ``[t_j, t_{j+1}]`` of length ``t_j`` (each batch
   doubles the previous one, the structure borrowed from Shmoys et al.).
3. For each batch ``j`` (and, as a robustness extension, further doubling
   batches until every task is placed):

   a. admissible tasks are those with some allotment meeting the batch
      length;
   b. small sequential tasks (``p(1) ≤ t_j / 2``) are merged by decreasing
      weight (:mod:`repro.algorithms.merge`);
   c. a weight-maximising knapsack (:mod:`repro.algorithms.knapsack`)
      selects the batch content under the ``m``-processor budget, each item
      priced at its minimal allotment for the batch length;
   d. selected tasks leave the pool.

4. The batched schedule is compacted with a Graham list algorithm in batch
   order (:mod:`repro.algorithms.compaction`), and
5. the batch order is shuffled several times, keeping the best compacted
   schedule ("this only leads to small improvements").

Within a batch, items are ordered by decreasing ``weight / duration``
(Smith ratio) — the paper only asks for "a local ordering within the
batches" without fixing one; the choice is benched in the ablations.

The paper states ``O(m n K)`` for the selection loop: ``K + 1`` batches,
each a knapsack over at most ``n`` items and ``m`` processors.  The
doubling extension of step 3 goes beyond the paper and runs up to
``K + 2 + n`` rounds, so the worst case is ``O(m n (K + n))``.  The
extension is not a corner case: on a 3000-job archive
(``synthesize_swf(3000, 64, 200400, load=0.8)``, the ``replay-demt``
benchmark's first part) under the ``rigid`` model, off-line, DEMT builds
453 batches with ``K = 12``, and 439 of them come from the extension.
Each compaction pass adds ``O(n^2)``.

The whole pipeline is columnar: the pool of unplaced tasks is an array of
instance rows, each round scans it with array operations, and the items the
knapsack keeps are collected as rows of one
:class:`~repro.algorithms.compaction.Batches` table, locally ordered with
one ``np.lexsort`` at the end.  Compaction and the shuffle read that table;
:class:`~repro.algorithms.list_scheduling.ListItem` objects are built only
if a caller reads :attr:`DemtResult.batches`.  The seed's object loop is
the oracle :class:`repro.algorithms.reference.ReferenceDemtScheduler`.  A
scheduler keeps no per-call state, so threads may share one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro import obs
from repro.algorithms.compaction import (
    Batches,
    list_compaction,
    order_metrics,
    pull_forward,
    shelf_placement,
)
from repro.algorithms.dual_approx import DualApproxResult, dual_approximation
from repro.algorithms.knapsack import knapsack_select_indices
from repro.algorithms.list_scheduling import ListItem
from repro.algorithms.merge import merge_small_tasks
from repro.core.allotment import minimal_allotments
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.utils.rng import make_rng

__all__ = ["DemtScheduler", "DemtResult", "schedule_demt", "BATCH_ORDERINGS"]

#: Compaction strategies, in increasing refinement order (§3.2).
COMPACTION_MODES = ("shelf", "pull_forward", "list")

#: Intra-batch orderings (§3.2 only asks for "a local ordering within the
#: batches"; ``smith`` is the library's long-standing choice and the
#: others are swept by the Pareto trade-off subsystem).
BATCH_ORDERINGS = ("smith", "weight", "duration", "id")


class DemtResult:
    """Full trace of a DEMT run (useful for tests, ablations and plots).

    ``table`` holds the selected batches as arrays; :attr:`batches` is
    their :class:`ListItem` form, built on first access (or given as is
    by the object-level oracle).  ``extension_batches`` counts the batches
    whose length comes from the doubling extension beyond ``t_grid``.
    """

    def __init__(
        self,
        schedule: Schedule,
        batches: list[list[ListItem]] | None = None,
        batch_starts: list[float] | None = None,
        cmax_estimate: float = 0.0,
        t_grid: list[float] | None = None,
        K: int = 0,
        dual: DualApproxResult | None = None,
        shuffle_improvement: float = 0.0,  # relative minsum gain from shuffling
        extension_batches: int = 0,
        *,
        table: Batches | None = None,
    ) -> None:
        self.schedule = schedule
        self._batches = batches
        self.batch_starts = [] if batch_starts is None else batch_starts
        self.cmax_estimate = cmax_estimate
        self.t_grid = [] if t_grid is None else t_grid
        self.K = K
        self.dual = dual
        self.shuffle_improvement = shuffle_improvement
        self.extension_batches = extension_batches
        self.table = table

    @property
    def batches(self) -> list[list[ListItem]]:
        """The selected batches as :class:`ListItem` lists, in batch order."""
        if self._batches is None:
            self._batches = [] if self.table is None else self.table.items()
        return self._batches

    @property
    def n_batches(self) -> int:
        if self._batches is None and self.table is not None:
            return self.table.n_batches
        return len(self.batches)


class DemtScheduler:
    """The bi-criteria batch algorithm of Dutot, Eyraud, Mounié & Trystram.

    Parameters
    ----------
    shuffle_rounds:
        Number of random batch-order shuffles tried after the first
        compaction (0 disables the optimisation; the paper shuffles
        "several times").
    compaction:
        ``"list"`` (paper's final choice), ``"pull_forward"`` or ``"shelf"``
        (the two intermediate refinements, kept for the ablation study).
    small_threshold_factor:
        Fraction of the batch length under which a sequential task counts
        as *small* for the merge step (paper: one half).  This is the
        merge threshold knob of the trade-off sweeps.
    batch_ordering:
        Local ordering inside a batch: ``"smith"`` (decreasing
        weight/duration, the default), ``"weight"`` (decreasing weight),
        ``"duration"`` (shortest first) or ``"id"`` (submission order).
    guess_relaxation:
        Multiplier ``>= 1`` applied to the dual-approximation makespan
        guess ``C*max`` before the batch geometry is built.  ``1.0`` (the
        default) is the paper's algorithm; relaxing the guess widens the
        early batches, trading makespan for weighted completion time —
        one axis of the bi-criteria sweep.
    seed:
        RNG seed for the shuffle optimisation (deterministic by default).
    """

    name = "DEMT"

    def __init__(
        self,
        shuffle_rounds: int = 10,
        compaction: str = "list",
        small_threshold_factor: float = 0.5,
        batch_ordering: str = "smith",
        guess_relaxation: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if compaction not in COMPACTION_MODES:
            raise ValueError(
                f"unknown compaction {compaction!r}; choose from {COMPACTION_MODES}"
            )
        if shuffle_rounds < 0:
            raise ValueError(f"shuffle_rounds must be >= 0, got {shuffle_rounds}")
        if batch_ordering not in BATCH_ORDERINGS:
            raise ValueError(
                f"unknown batch ordering {batch_ordering!r}; choose from {BATCH_ORDERINGS}"
            )
        if not guess_relaxation >= 1.0:
            raise ValueError(
                f"guess_relaxation must be >= 1.0, got {guess_relaxation}"
            )
        self.shuffle_rounds = shuffle_rounds
        self.compaction = compaction
        self.small_threshold_factor = small_threshold_factor
        self.batch_ordering = batch_ordering
        self.guess_relaxation = guess_relaxation
        self.seed = seed

    # ------------------------------------------------------------------ #
    def schedule(self, instance: Instance) -> Schedule:
        """Return the compacted bi-criteria schedule."""
        return self.schedule_detailed(instance).schedule

    def schedule_detailed(self, instance: Instance) -> DemtResult:
        """Run the full pipeline and expose every intermediate artefact."""
        state = obs.ACTIVE
        if state is None:
            return self._schedule_detailed_impl(instance)
        with state.span("demt", "algorithm"):
            result = self._schedule_detailed_impl(instance)
        state.count("demt.batches", result.n_batches)
        state.count("demt.extension_batches", result.extension_batches)
        return result

    def _schedule_detailed_impl(self, instance: Instance) -> DemtResult:
        if instance.n == 0:
            return DemtResult(schedule=Schedule(instance.m))

        dual = self._dual(instance)
        # Multiplying by the default 1.0 is exact in IEEE arithmetic, so
        # the un-relaxed path stays bit-identical to the paper's algorithm.
        cstar = dual.lam * self.guess_relaxation
        table, starts, t_grid, K, extensions = self._select_batches(instance, cstar)
        schedule = self._compact(table, starts)

        improvement = 0.0
        if self.shuffle_rounds > 0 and table.n_batches > 1 and self.compaction == "list":
            schedule, improvement = self._shuffle_optimise(table, schedule)

        return DemtResult(
            schedule=schedule,
            batch_starts=starts,
            cmax_estimate=cstar,
            t_grid=t_grid,
            K=K,
            dual=dual,
            shuffle_improvement=improvement,
            extension_batches=extensions,
            table=table,
        )

    def _dual(self, instance: Instance) -> DualApproxResult:
        """Makespan-estimate hook (the reference scheduler swaps in the
        seed's implementation here for differential benchmarking)."""
        return dual_approximation(instance)

    # ------------------------------------------------------------------ #
    # Phase 1: batch geometry and content selection                      #
    # ------------------------------------------------------------------ #
    def _select_batches(
        self, instance: Instance, cstar: float
    ) -> tuple[Batches, list[float], list[float], int, int]:
        """``(table, batch starts, t_grid, K, extension batches)``."""
        tmin = instance.tmin
        if not (cstar > 0 and np.isfinite(cstar)):  # pragma: no cover - defensive
            raise SchedulingError(f"invalid C*max estimate {cstar}")
        K = max(0, int(math.floor(math.log2(cstar / tmin))))
        # t_j = cstar / 2^(K-j); batch j spans [t_j, t_{j+1}], length t_j.
        t_grid = [cstar / 2 ** (K - j) for j in range(K + 2)]

        # Columnar pool: the instance rows of the unplaced tasks, kept in
        # instance order.  Every round scans it as arrays; the chosen items
        # are collected as rows and become the table after the loop.
        times = instance.times_matrix
        seq_times, weights, task_ids = times[:, 0], instance.weights, instance.task_ids
        n = instance.n
        pool = np.arange(n)
        plain_rows: list[np.ndarray] = []  # per batch: the chosen tasks' rows
        plain_allots: list[np.ndarray] = []
        stacks_taken: list[list[int]] = []  # every chosen stack's member rows
        sizes: list[tuple[int, int]] = []  # per batch: (stacks, tasks) chosen
        starts: list[float] = []
        extensions = 0

        j = 0
        # Extension beyond the paper's `for j = 0..K`: keep doubling until
        # every task is placed (the knapsack may not fit all of them in the
        # nominal K+1 batches when the machine is narrow).
        max_batches = K + 2 + n
        # The doubling exponent is clamped so `length` stays finite
        # however many extension rounds a narrow machine needs: by then
        # every task is admissible anyway, and an infinite length
        # poisons the merge threshold and the shelf starts.  The clamp
        # must bound the *product*, not just the exponent: with
        # t_grid[-1] above ~2e37 even small exponents overflowed the
        # old `t_grid[-1] * 2.0 ** min(j - K - 1, 900)` form, so the
        # extension saturates at the largest finite doubling instead
        # (ldexp is exact, bit-identical to the multiply when finite).
        t_last = t_grid[-1]
        k_max = min(900, 1024 - math.frexp(t_last)[1]) if math.isfinite(t_last) else 900
        while pool.size and j < max_batches:
            extension = j >= len(t_grid)
            length = t_grid[j] if not extension else math.ldexp(t_last, min(j - K - 1, k_max))
            j += 1
            # (a) admissibility: some allotment meets the batch length.
            # Until the first batch is taken the pool is the whole instance.
            allots = minimal_allotments(times if pool.size == n else times[pool], length)
            admissible = allots.nonzero()[0]  # positions in the pool
            if not admissible.size:
                continue
            if admissible.size == n:
                rows, p1, w, ids = pool, seq_times, weights, task_ids
            else:
                rows = pool
                if admissible.size < pool.size:
                    rows, allots = pool[admissible], allots[admissible]
                p1, w, ids = seq_times[rows], weights[rows], task_ids[rows]
            # (b) merge small sequential tasks by decreasing weight.
            stacks, stack_weights, rest = merge_small_tasks(
                p1, w, ids, length, small_threshold_factor=self.small_threshold_factor
            )
            # (c) knapsack items: stacks first (allotment 1), then the
            # untouched tasks at their minimal allotment, in pool order —
            # the DP processes them in this order.
            ns = len(stacks)
            if ns:
                cand_allots = np.concatenate((np.ones(ns, np.int64), allots[rest]))
                cand_weights = np.concatenate((stack_weights, w[rest]))
                cand_ids = np.concatenate((ids[[s[0] for s in stacks]], ids[rest]))
            else:
                cand_allots, cand_weights, cand_ids = allots, w, ids
            picked = self._choose(cand_allots, cand_weights, cand_ids, instance.m)
            if not len(picked):
                continue
            if ns:
                picked = np.asarray(picked, dtype=np.intp)
                chosen = picked[picked < ns].tolist()
                pos = rest[picked[picked >= ns] - ns]  # positions in `rows`
                members = [stacks[i] for i in chosen]
                stacks_taken += [rows[m].tolist() for m in members]
                taken = np.concatenate([pos, *members]) if members else pos
            else:
                chosen = ()
                pos = taken = picked
            if len(pos) == len(rows):
                # Every candidate task is chosen (the batch is sorted
                # afterwards, so their order here does not matter).
                plain_rows.append(rows)
                plain_allots.append(allots)
            else:
                plain_rows.append(rows[pos])
                plain_allots.append(allots[pos])
            sizes.append((len(chosen), len(pos)))
            starts.append(length)  # window is [t_j, t_{j+1}] and t_j == length
            extensions += extension
            # (d) the chosen tasks leave the pool, which stays in instance order.
            if len(taken) == pool.size:
                pool = pool[:0]
            else:
                keep = np.ones(pool.size, dtype=bool)
                keep[admissible[taken]] = False
                pool = pool[keep]
        if pool.size:  # pragma: no cover - defensive
            raise SchedulingError(f"batch selection left {pool.size} tasks unplaced")
        table = self._table(instance, plain_rows, plain_allots, stacks_taken, sizes)
        return table, starts, t_grid, K, extensions

    def _table(
        self,
        instance: Instance,
        plain_rows: list[np.ndarray],
        plain_allots: list[np.ndarray],
        stacks_taken: list[list[int]],
        sizes: list[tuple[int, int]],
    ) -> Batches:
        """The chosen items as one table, each batch in its local order."""
        times, weights, task_ids = instance.times_matrix, instance.weights, instance.task_ids
        rows = plain_rows[0] if len(plain_rows) == 1 else np.concatenate(plain_rows)
        allot = plain_allots[0] if len(plain_allots) == 1 else np.concatenate(plain_allots)
        dur = times[rows, allot - 1]
        wsum = weights[rows]
        offset = wsum * dur
        counts = stacked = None
        n_stacks = len(stacks_taken)
        if n_stacks:
            # A stack's duration, weight and offset accumulate over its
            # members left to right from 0.0, like ListItem.duration.
            flat = [r for members in stacks_taken for r in members]
            p1 = times[flat, 0].tolist()
            w1 = weights[flat].tolist()
            s_dur, s_w, s_off = [], [], []
            i = 0
            for members in stacks_taken:
                end = w = acc = 0.0
                for p, wt in zip(p1[i : i + len(members)], w1[i : i + len(members)]):
                    end += p
                    w += wt
                    acc += wt * end
                i += len(members)
                s_dur.append(end)
                s_w.append(w)
                s_off.append(acc)
            lead = np.concatenate((task_ids[[m[0] for m in stacks_taken]], task_ids[rows]))
            counts = np.array([len(m) for m in stacks_taken] + [1] * len(rows), dtype=np.int64)
            stacked = np.arange(len(counts)) < n_stacks
            rows = np.concatenate((np.array(flat, dtype=rows.dtype), rows))
            allot = np.concatenate((np.ones(n_stacks, np.int64), allot))
            dur = np.concatenate((s_dur, dur))
            wsum = np.concatenate((s_w, wsum))
            offset = np.concatenate((s_off, offset))
        bounds = np.array([0, *itertools.accumulate(s + t for s, t in sizes)])
        table = Batches(instance, bounds, allot, dur, wsum, offset, counts, stacked, rows)
        if len(allot) == 1:
            return table
        # Local ordering inside each batch (default: Smith ratio), ties by
        # the item's first task id; the batch index leads the sort keys.
        if not n_stacks:
            lead = task_ids[rows]
        batches = np.arange(len(sizes))
        batch = np.concatenate((
            np.repeat(batches, [s for s, _ in sizes]),
            np.repeat(batches, [t for _, t in sizes]),
        ))
        key = _BATCH_SORT_KEYS[self.batch_ordering](wsum, dur, lead)
        perm = np.lexsort((lead, key, batch))
        return table._replace(
            allotment=allot[perm],
            duration=dur[perm],
            weight=wsum[perm],
            offset=offset[perm],
            members=None if counts is None else counts[perm],
            stacked=None if stacked is None else stacked[perm],
            rows=table.member_rows(perm),
        )

    def _choose(
        self,
        allotments: np.ndarray,
        weights: np.ndarray,
        lead_ids: np.ndarray,
        m: int,
    ) -> list[int]:
        """Indices of the items that form the batch: the paper's
        weight-maximising knapsack under ``m`` processors.  The A1
        ablation swaps in a greedy choice here, breaking its ties by
        ``lead_ids`` (each item's first task id)."""
        return knapsack_select_indices(allotments, weights, m)[0]

    # ------------------------------------------------------------------ #
    # Phase 2: compaction and shuffle optimisation                       #
    # ------------------------------------------------------------------ #
    def _compact(self, batches: Batches, starts: list[float]) -> Schedule:
        state = obs.ACTIVE
        if state is not None:
            state.count("demt.compaction_passes")
        if self.compaction == "shelf":
            return shelf_placement(batches, starts)
        if self.compaction == "pull_forward":
            return pull_forward(batches)
        return list_compaction(batches)

    def _shuffle_optimise(
        self, batches: Batches, baseline: Schedule
    ) -> tuple[Schedule, float]:
        """Shuffle the batch order, keep the best compacted schedule.

        "Best" is the smallest ``sum w_i C_i`` among candidates whose
        makespan does not exceed the baseline's — the bi-criteria spirit of
        the paper (the shuffle must not trade one criterion away for the
        other).

        Candidate orders are scored through the metric-only kernel path
        (:func:`~repro.algorithms.compaction.order_metrics`); only the
        winning order is materialised into a schedule.
        """
        rng = make_rng(self.seed)
        base_minsum = baseline.weighted_completion_sum()
        best_minsum = base_minsum
        base_cmax = baseline.makespan()
        cutoff = base_cmax * (1 + 1e-12)
        best_order: np.ndarray | None = None
        order = np.arange(batches.n_batches)
        state = obs.ACTIVE
        if state is not None:
            state.count("demt.shuffle_candidates", self.shuffle_rounds)
        for _ in range(self.shuffle_rounds):
            rng.shuffle(order)
            metrics = order_metrics(batches, order, cmax_cutoff=cutoff)
            if metrics is not None and metrics[1] < best_minsum:
                best_minsum = metrics[1]
                best_order = order.copy()
        if best_order is None:
            return baseline, 0.0
        best = list_compaction(batches, best_order)
        # Recompute the winner's minsum from the materialised schedule so
        # the reported gain uses the same summation as every other metric
        # (the kernel-side dot product can differ in the last few ulps).
        exact = best.weighted_completion_sum()
        if exact >= base_minsum:  # pragma: no cover - ulp-level tie
            return baseline, 0.0
        return best, (base_minsum - exact) / max(base_minsum, 1e-300)


#: Sort keys of the intra-batch orderings over the item columns (weight,
#: duration, first task id); ties go by the first task id, so every
#: ordering stays deterministic.
_BATCH_SORT_KEYS = {
    "smith": lambda w, d, lead: (-w) / d,
    "weight": lambda w, d, lead: -w,
    "duration": lambda w, d, lead: d,
    "id": lambda w, d, lead: lead,
}


def schedule_demt(
    instance: Instance,
    *,
    shuffle_rounds: int = 10,
    compaction: str = "list",
    small_threshold_factor: float = 0.5,
    batch_ordering: str = "smith",
    guess_relaxation: float = 1.0,
    seed: int | np.random.Generator | None = 0,
) -> Schedule:
    """Functional form of :class:`DemtScheduler` (the paper's algorithm)."""
    return DemtScheduler(
        shuffle_rounds=shuffle_rounds,
        compaction=compaction,
        small_threshold_factor=small_threshold_factor,
        batch_ordering=batch_ordering,
        guess_relaxation=guess_relaxation,
        seed=seed,
    ).schedule(instance)
