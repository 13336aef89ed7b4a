"""Dual approximation of the optimal makespan (paper substrate [7]).

The best known off-line makespan algorithm for moldable tasks (Mounié,
Rapine, Trystram; Dutot, Mounié, Trystram, *Handbook of Scheduling* ch. 26)
is a **dual approximation**: guess a target ``λ``; either *certify* that no
schedule of makespan ``≤ λ`` exists, or build a schedule of length
``≤ 3λ/2``.  A binary search on ``λ`` then sandwiches the optimum.

Feasibility test for a guess ``λ`` (all conditions are *necessary* for a
schedule of makespan ``≤ λ`` to exist, so a rejection is a certified lower
bound):

1. every task must have an allotment with ``p_i(k) ≤ λ``;
2. consider the optimal schedule's partition of tasks into *big* ones
   (duration ``> λ/2``) and *small* ones (duration ``≤ λ/2``):

   * every big task is running at instant ``λ/2``, so the big tasks'
     allotments sum to ``≤ m``; each big task consumes at least its minimal
     allotment for deadline ``λ`` and contributes at least its minimal area
     under deadline ``λ``;
   * every small task contributes at least its minimal area under deadline
     ``λ/2``;
   * the total work is at most ``m λ``.

   Minimising total work over all big/small assignments that respect the
   width budget (a binary-choice knapsack,
   :func:`repro.algorithms.knapsack.knapsack_min_work`) therefore yields a
   value ``W*``; ``W* > m λ`` certifies infeasibility.

Search: starting from the closed-form floor ``max(max_i min_k p_i(k),
W_min / m)`` (the instance's cached row floors, one compiled pass of
:func:`repro.kernels.row_floor_core`), double until a guess is accepted,
then bisect the bracket until it is within ``rel_tol`` — one ``λ`` at a
time, exactly the probe sequence of the seed search
(``reference_dual_approximation``).  Each probe is one compiled sweep
over the time matrix (:func:`repro.kernels.dual_sweep_core`: minimal
allotments and areas under ``λ`` and ``λ/2``) plus a value-only decision
(:func:`_decide`) that settles most guesses with two sums and runs the
min-work DP (:func:`repro.kernels.knapsack_min_work_value_core`)
otherwise.  The search keeps the sweep of its last accepted probe, so
the accepted ``λ*`` is never swept twice: its shelf assignment is
reconstructed from that probe's sweep by the reconstructing DP
(:func:`repro.kernels.knapsack_min_work_core`), through the same helper
as :func:`feasibility_check`.

Construction for an accepted ``λ``: big-shelf tasks start at time 0 with
their minimal allotments (their widths fit in ``m`` by the knapsack); the
small-shelf tasks are list-scheduled behind them in decreasing-duration
order.  For monotonic workloads this lands within the expected ``3λ/2``
envelope in practice; the class is also reused by DEMT (for its
``C*max`` estimate) and by the List-Graham baselines (for their allotments
and the shelf ordering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import kernels, obs
from repro.algorithms.knapsack import knapsack_min_work, knapsack_min_work_value
from repro.algorithms.list_scheduling import list_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError

__all__ = ["DualApproxResult", "dual_approximation", "feasibility_check"]

#: Guard bands of the feasibility tests, derived from the library-wide
#: time-comparison epsilon so a retuned :data:`TIME_EPS` moves every layer
#: together (they were hardcoded ``1e-12``/``1e-9`` literals before and
#: got missed by the TIME_EPS unification).  ``TIME_EPS / 1000.0`` is
#: *exactly* ``1e-12`` in IEEE double (the ``* 1e-3`` form is not), so the
#: derived constants are bit-identical to the old literals.
#:
#: * ``_BUDGET_EPS`` widens the work budget ``m·λ`` — the knapsack's total
#:   is a long float sum, and a probe must not flip infeasible over
#:   rounding in the last few ulps.
#: * ``_SUM_GUARD`` pads the closed-form sum bounds that decide most
#:   probes without running the DP: their one-shot ``np.sum`` uses a
#:   different pairwise order than the DP's accumulation, so only
#:   decisions clear of the band are taken without it.
_BUDGET_EPS = TIME_EPS / 1000.0
_SUM_GUARD = TIME_EPS

#: One λ's sweep: ``(g_big, g_small, work_big, work_small)`` of
#: :func:`repro.kernels.dual_sweep_core`.
_Sweep = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: :func:`feasibility_check`'s answer for a rejected ``λ``.
_REJECTED = (False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class DualApproxResult:
    """Outcome of the dual-approximation binary search.

    Attributes
    ----------
    lower_bound:
        Certified lower bound on the optimal makespan: every ``λ`` below it
        fails a necessary feasibility condition.
    lam:
        The accepted target ``λ*`` (the paper's "approximate C*max" that
        seeds the DEMT batch geometry).  ``lam / lower_bound ≤ 1 + rel_tol``
        whenever the bisection closes within ``max_iter`` steps (see
        :func:`dual_approximation`).
    allotments:
        Mapping ``task_id -> k`` chosen at ``λ*`` (big-shelf tasks get their
        minimal allotment for ``λ*``, small-shelf tasks for ``λ*/2``).
    big_shelf:
        Ids of tasks placed on the big shelf at ``λ*`` (duration class
        ``(λ/2, λ]``); the complement went to the small shelf.
    schedule:
        A feasible schedule built from the two-shelf partition.  Built
        lazily on first access: the heaviest consumers of this class (DEMT,
        the List-Graham baselines, the lower bounds) only read ``lam`` /
        ``allotments`` and never pay for the construction.
    """

    lower_bound: float
    lam: float
    allotments: dict[int, int]
    big_shelf: frozenset[int]
    _instance: "Instance | None" = None
    _prebuilt: "Schedule | None" = None
    _allot: "np.ndarray | None" = field(default=None, compare=False, repr=False)
    _in_big: "np.ndarray | None" = field(default=None, compare=False, repr=False)

    @cached_property
    def schedule(self) -> Schedule:
        if self._prebuilt is not None:
            return self._prebuilt
        assert self._instance is not None
        return _build_two_shelf_schedule(self._instance, *self.row_allotments(self._instance))

    def row_allotments(self, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
        """``(allotment, in big shelf)`` of every row of ``instance``.

        The arrays of the search itself when ``instance`` is the one it
        ran on; otherwise looked up by task id in :attr:`allotments` and
        :attr:`big_shelf`.
        """
        if instance is self._instance and self._allot is not None:
            return self._allot, self._in_big
        ids = instance.task_ids.tolist()
        allot = np.fromiter(map(self.allotments.__getitem__, ids), np.int64, len(ids))
        in_big = np.fromiter(map(self.big_shelf.__contains__, ids), bool, len(ids))
        return allot, in_big

    @property
    def makespan(self) -> float:
        return self.schedule.makespan()


def feasibility_check(instance: Instance, lam: float) -> tuple[bool, np.ndarray, np.ndarray]:
    """Necessary-condition test for "a schedule of makespan ``≤ lam`` exists".

    Returns ``(feasible, in_big, allot)`` where, for an accepted ``lam``,
    ``in_big`` is the boolean big-shelf assignment minimising total work and
    ``allot`` the per-task allotments of that assignment.  For a rejected
    ``lam`` the arrays are empty.
    """
    if lam <= 0:
        return _REJECTED
    return _shelves(instance.m, lam, *kernels.dual_sweep_core(instance.times_matrix, lam))


def _shelves(
    m: int,
    lam: float,
    g_big: np.ndarray,
    g_small: np.ndarray,
    work_big: np.ndarray,
    work_small: np.ndarray,
) -> tuple[bool, np.ndarray, np.ndarray]:
    """:func:`feasibility_check` from one sweep of ``lam`` (the four
    vectors of :func:`repro.kernels.dual_sweep_core`): the reconstructing
    min-work DP gives the big-shelf assignment and its total work."""
    # g_big = 0: cannot meet lam at all; g_small = 0: cannot be a small task.
    if (g_big == 0).any():
        return _REJECTED
    in_big, total = knapsack_min_work(work_a=work_big, cost_a=g_big, work_b=work_small, m=m)
    if not np.isfinite(total) or total > m * lam * (1.0 + _BUDGET_EPS):
        return _REJECTED
    allot = np.where(in_big, g_big, g_small).astype(np.int64)
    return True, in_big, allot


def _decide(
    m: int,
    lam: float,
    g_big: np.ndarray,
    work_big: np.ndarray,
    work_small: np.ndarray,
) -> bool:
    """Value-only feasibility decision from precomputed per-λ vectors.

    Same tests, same dynamic-program float sequence as
    :func:`feasibility_check` — the binary search probes through this and
    reconstructs once at the accepted ``λ*``, from that probe's sweep.
    """
    if lam <= 0:
        return False
    if (g_big == 0).any():
        return False
    # Sum bounds decide most probes without the knapsack: the optimum W*
    # satisfies sum(work_big) <= W* <= sum(work_small) (work_big is the
    # elementwise min since a looser deadline never costs area).  The
    # guard band keeps decisions identical to the DP's despite its
    # different float summation order (ulp-level differences).
    budget = m * lam * (1.0 + _BUDGET_EPS)
    lower = float(np.sum(work_big))
    if lower > budget * (1.0 + _SUM_GUARD):
        return False
    upper = float(np.sum(work_small))
    if np.isfinite(upper) and upper <= budget * (1.0 - _SUM_GUARD):
        return True

    total = knapsack_min_work_value(
        work_a=work_big,
        cost_a=g_big,
        work_b=work_small,
        m=m,
    )
    return np.isfinite(total) and total <= budget


def _probe(instance: Instance, lam: float) -> _Sweep | None:
    """Value-only feasibility of one guess: one sweep, one decision.

    Returns the sweep of an accepted ``lam`` (the four vectors of
    :func:`repro.kernels.dual_sweep_core`), from which the search
    reconstructs the shelves of its ``λ*``; ``None`` when rejected.
    """
    state = obs.ACTIVE
    if state is None:
        return _probe_impl(instance, lam)
    state.count("dual.probes")
    with state.span("dual.probe", "kernel"):
        return _probe_impl(instance, lam)


def _probe_impl(instance: Instance, lam: float) -> _Sweep | None:
    sweep = kernels.dual_sweep_core(instance.times_matrix, lam)
    g_big, _, work_big, work_small = sweep
    return sweep if _decide(instance.m, lam, g_big, work_big, work_small) else None


def dual_approximation(
    instance: Instance,
    *,
    rel_tol: float = 1e-3,
    max_iter: int = 80,
) -> DualApproxResult:
    """Binary search on ``λ`` + two-shelf construction.

    ``rel_tol`` controls the gap between the certified lower bound and the
    accepted ``λ*``; the default (0.1%) is far below the algorithmic
    approximation factors at play.  ``max_iter`` caps the doubling phase
    and the bisection phase separately.  The gap ``lam / lower_bound ≤ 1 +
    rel_tol`` holds only when the bisection closes within ``max_iter``
    steps; a smaller cap returns a sound but looser bracket (``max_iter=1``
    stops after one bisection step).  Raises :class:`ValueError` for a
    non-finite or non-positive ``rel_tol`` or ``max_iter < 1``, and
    :class:`SchedulingError` when ``max_iter`` doublings find no feasible
    ``λ``.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    state = obs.ACTIVE
    if state is None:
        return _dual_approximation_impl(instance, rel_tol=rel_tol, max_iter=max_iter)
    with state.span("dual_approximation", "algorithm"):
        return _dual_approximation_impl(instance, rel_tol=rel_tol, max_iter=max_iter)


def _dual_approximation_impl(
    instance: Instance,
    *,
    rel_tol: float,
    max_iter: int,
) -> DualApproxResult:
    if instance.n == 0:
        return DualApproxResult(0.0, 0.0, {}, frozenset(), _prebuilt=Schedule(instance.m))

    # Closed-form certified lower bounds: tallest unavoidable task and the
    # area argument.  Both are also implied by feasibility_check, but they
    # give the search a tight floor for free.
    lo = max(instance.max_min_time, instance.min_total_work / instance.m)

    # Probe with the value-only test, keeping the sweep of the last
    # accepted guess; the shelf assignment of λ* is reconstructed from it
    # below (deterministic, so this splits the seed's combined probe
    # without changing any outcome).  The probes are the seed search's,
    # in its order.
    sweep = _probe(instance, lo)
    if sweep is not None:
        # The closed-form bound itself passes the test: accept it directly
        # (searching below `lo` is pointless — it is already certified).
        lam = lo
    else:
        hi = lo * 2.0
        for _ in range(max_iter):
            sweep = _probe(instance, hi)
            if sweep is not None:
                break
            lo = hi
            hi *= 2.0
        else:
            raise SchedulingError("dual approximation did not find a feasible lambda")
        for _ in range(max_iter):
            if hi - lo <= rel_tol * lo:
                break
            mid = 0.5 * (lo + hi)
            accepted = _probe(instance, mid)
            if accepted is not None:
                hi, sweep = mid, accepted
            else:
                lo = mid
        lam = hi

    feasible, in_big, allot = _shelves(instance.m, lam, *sweep)
    if not feasible:  # pragma: no cover - probe and full check agree
        raise SchedulingError(f"accepted lambda {lam} failed the full check")

    # Built from the id vector, not the task objects: bounds-only cells on
    # array-backed instances never materialise a single MoldableTask.
    ids = instance.task_ids
    allotments = dict(zip(ids.tolist(), allot.tolist()))
    big_ids = frozenset(ids[in_big].tolist())
    return DualApproxResult(
        lower_bound=float(lo),
        lam=float(lam),
        allotments=allotments,
        big_shelf=big_ids,
        _instance=instance,
        _allot=allot,
        _in_big=in_big,
    )


def _build_two_shelf_schedule(
    instance: Instance, allot: np.ndarray, in_big: np.ndarray
) -> Schedule:
    """Materialise the accepted partition into a feasible schedule.

    Big-shelf tasks are listed first (they anchor at time 0 because their
    total width fits in ``m``), then small-shelf tasks in decreasing
    duration; Graham list scheduling slots the small tasks into the gaps
    left by the staggered big-shelf completions.  Ties go by task id.
    """
    dur = instance.times_matrix[np.arange(instance.n), allot - 1]
    ids = instance.task_ids
    big, small = np.flatnonzero(in_big), np.flatnonzero(~in_big)
    # Big shelf: widest first so the shelf packs left-to-right deterministically.
    big = big[np.lexsort((ids[big], -allot[big]))]
    # Small shelf: longest processing time first (LPT keeps the tail short).
    small = small[np.lexsort((ids[small], -dur[small]))]
    order = np.concatenate((big, small))
    return list_schedule(instance, order, allot[order], dur[order])
