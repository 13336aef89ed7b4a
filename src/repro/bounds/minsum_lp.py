"""LP-relaxation lower bound on ``sum w_i C_i`` (§3.3 — the paper's new bound).

Formulation
-----------
The time horizon is divided into geometric intervals.  With ``x_{i,j} = 1``
iff task ``i`` ends within interval ``I_j``, the paper states:

    minimise    sum_{i,j} w_i t_j x_{i,j}
    subject to  sum_j x_{i,j} >= 1                          (each task ends)
                sum_{l<=j} sum_i S_{i,l} x_{i,l} <= m t_{j+1}   (surface)
                x_{i,j} in {0,1}   (relaxed to [0,1])

where ``S_{i,j}`` is the minimal area task ``i`` can occupy if it ends by
``t_{j+1}`` (``+inf`` if impossible, which simply forbids the variable).
Every feasible schedule induces a feasible ``x`` whose objective does not
exceed its minsum, so the LP optimum — and a fortiori the relaxed optimum —
lower-bounds the optimal ``sum w_i C_i``.

Three strictness refinements to the published text:

* a **leading interval** ``(0, t_0]`` — the paper's grid starts at
  ``t_0 > 0``, and a task completing before ``t_0`` would otherwise be
  charged ``w t_0 > w C_i``, breaking the bound;
* an **open last interval** ``(t_{K+1}, inf)`` with no surface constraint —
  an optimal *minsum* schedule may exceed the makespan-based horizon, and
  without this interval such schedules would have no image in the LP;
* **per-task objective coefficients**: a task ending within interval
  ``(a, b]`` satisfies ``C_i >= a`` *and* ``C_i >= min_{k: p_i(k) <= b}
  p_i(k)`` (it cannot finish faster than its fastest allotment able to meet
  the interval), so the coefficient is ``w_i * max(a, fastest_i(b))``
  instead of the paper's plain ``w_i a``.  This keeps the leading interval
  from being free and tightens every early interval, while remaining a
  valid lower bound.

Solver path
-----------
The model has at most ``n (K+3)`` variables and ``n + K + 2``
constraints.  Its constraint matrix is assembled with numpy directly in
column-wise (CSC) form, and ``S`` and ``fastest`` for every interval come
from one pass over the time matrix.  :func:`solve_highs` hands the model
to HiGHS through scipy's binding, ``scipy.optimize._highspy._core``, the
module that ``linprog(method="highs")`` and ``milp`` call themselves.  It
passes the same arrays with the same options, so the objective and ``x``
are bit for bit theirs (``tests/bounds/test_minsum_lp.py`` checks this
against both).  What it skips is their wrapper: input checks, a
CSR-to-CSC copy, and a per-column loop that builds bound marginals the
bound never reads.

Over the 144 LPs of one ``paper-campaign`` pass of the benchmark suite at
seed 2004, timed best of 7 and taking the median of 3 runs (shared 2-vCPU
x86_64 VM), the bound takes 1.30 s.  HiGHS's own run is 0.95 s of that,
the call around it 0.17 s and the model assembly 0.18 s.  Through
``linprog`` it took 2.07 s: 0.97 s in HiGHS, 0.76 s in the wrapper and
0.37 s in the assembly, which swept the time matrix once per interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize._highspy._core as _highs

from repro.core.instance import Instance
from repro.exceptions import SolverError

__all__ = ["MinsumBound", "minsum_lower_bound", "build_time_grid", "solve_highs"]


def _highs_options(**values) -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    for name, value in values.items():
        setattr(options, name, value)
    return options


#: ``linprog(method="highs")``'s options: presolve on, dual simplex, no
#: debug checks, no output.
_LP_OPTIONS = _highs_options(
    presolve="on",
    simplex_strategy=_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
    highs_debug_level=_highs.HighsDebugLevel.kHighsDebugLevelNone,
    log_to_console=False,
    output_flag=False,
)
#: ``milp``'s options: HiGHS's defaults with the console log off.
_ILP_OPTIONS = _highs_options(log_to_console=False)


@dataclass(frozen=True)
class MinsumBound:
    """Result of the LP (or ILP) relaxation.

    Attributes
    ----------
    value:
        The lower bound on ``sum w_i C_i``.
    boundaries:
        Interval boundaries ``0 = b_0 < b_1 < ... < b_J`` (the last interval
        extends beyond ``b_J`` to infinity).
    x:
        The optimal relaxed assignment, shape ``(n, J+1)`` — column ``j``
        is the mass of "task ends in interval j".  Useful for diagnostics.
    integral:
        ``True`` when solved as an ILP (exact interval-indexed bound)
        rather than its LP relaxation.
    """

    value: float
    boundaries: np.ndarray
    x: np.ndarray
    integral: bool = False


def build_time_grid(instance: Instance, cmax_estimate: float) -> np.ndarray:
    """Geometric boundaries ``t_0 .. t_{K+1}`` as defined in §3.2.

    ``K = floor(log2(C*max / t_min))`` and ``t_j = C*max / 2^(K-j)``, so the
    grid runs from just above the smallest possible task duration up to
    twice the makespan estimate, doubling at each step.
    """
    tmin = instance.tmin
    if cmax_estimate <= 0 or not np.isfinite(cmax_estimate):
        raise ValueError(f"invalid C*max estimate {cmax_estimate}")
    K = max(0, int(math.floor(math.log2(cmax_estimate / tmin))))
    return np.array([cmax_estimate / 2 ** (K - j) for j in range(K + 2)])


def solve_highs(
    c: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rhs: np.ndarray,
    *,
    integral: bool = False,
) -> tuple[float, np.ndarray]:
    """Minimise ``c @ x`` subject to ``A @ x <= rhs`` and ``0 <= x <= 1``.

    ``A`` is given column-wise (CSC): the rows of column ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``, with values from ``data``.  The
    model goes to HiGHS as ``linprog(method="highs")`` hands it over, with
    the same options; ``integral=True`` makes every column integer and
    takes ``milp``'s options instead.  Returns the optimal objective and
    ``x``.

    Raises
    ------
    SolverError
        HiGHS did not report an optimal model status.
    """
    num_col, num_row = c.size, rhs.size
    lp = _highs.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [0.0] * num_col
    lp.col_upper_ = [1.0] * num_col
    lp.row_lower_ = [-np.inf] * num_row
    lp.row_upper_ = rhs.tolist()
    matrix = lp.a_matrix_
    matrix.num_col_ = num_col
    matrix.num_row_ = num_row
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.start_ = indptr.tolist()
    matrix.index_ = indices.tolist()
    matrix.value_ = data.tolist()
    if integral:
        lp.integrality_ = [_highs.HighsVarType.kInteger] * num_col

    highs = _highs._Highs()
    highs.passOptions(_ILP_OPTIONS if integral else _LP_OPTIONS)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverError(
            f"HiGHS {'MILP' if integral else 'LP'} failed: model status "
            f"{highs.modelStatusToString(status)}"
        )
    return highs.getInfo().objective_function_value, np.array(highs.getSolution().col_value)


def minsum_lower_bound(
    instance: Instance,
    cmax_estimate: float | None = None,
    *,
    integral: bool = False,
) -> MinsumBound:
    """Compute the §3.3 lower bound on the weighted completion-time sum.

    Parameters
    ----------
    instance:
        The scheduling instance.
    cmax_estimate:
        The makespan estimate anchoring the grid (the paper reuses the
        dual-approximation value; when omitted it is computed here).
    integral:
        Solve the integer program instead of its relaxation.  The paper
        notes the relaxed bound "might be weaker, but is much faster to
        compute".  No campaign or ablation passes ``integral=True``; only
        the tests (``tests/bounds/``) solve the ILP, to check it against
        the relaxation and the exact optimum.
    """
    if instance.n == 0:
        return MinsumBound(0.0, np.array([0.0]), np.zeros((0, 1)), integral)
    if cmax_estimate is None:
        from repro.algorithms.dual_approx import dual_approximation

        cmax_estimate = dual_approximation(instance).lam

    grid = build_time_grid(instance, cmax_estimate)
    # Interval structure: boundaries b = [0, t_0, ..., t_{K+1}] and a final
    # open interval.  Interval j (0-based) = (b_j, b_{j+1}] for j < J-1,
    # and (b_{J-1}, inf) for j = J-1.  Objective coefficient of interval j
    # is its lower boundary b_j.
    b = np.concatenate([[0.0], grid])
    J = b.size  # number of intervals (last one open-ended)
    n, m = instance.n, instance.m
    tm = instance.times_matrix
    weights = instance.weights

    # S[i, j]: minimal area of task i if it ends by the interval's upper
    # boundary; the open last interval uses the unconstrained minimum.
    # fastest[i, j]: the fastest duration among allotments meeting the same
    # deadline (drives the refined objective coefficients).  One pass over
    # the time matrix: each p_i(k) is filed under cell (i, j) of the first
    # interval j whose upper boundary it meets (J - 1, the open one, if
    # none), and a running min along the intervals adds it to every later
    # one.  A min is exact, so this equals a masked min per interval.
    cell = (np.searchsorted(b[1:], tm) + J * np.arange(n)[:, None]).ravel()
    S = np.full(n * J, np.inf)
    fastest = np.full(n * J, np.inf)
    np.minimum.at(S, cell, (tm * np.arange(1, m + 1, dtype=np.float64)).ravel())
    np.minimum.at(fastest, cell, tm.ravel())
    S = np.minimum.accumulate(S.reshape(n, J), axis=1)
    fastest = np.minimum.accumulate(fastest.reshape(n, J), axis=1)

    # Variable layout: one variable per allowed pair, row-major over (i, j).
    ii, jj = np.nonzero(np.isfinite(S))
    c = weights[ii] * np.maximum(b[jj], fastest[ii, jj])

    # Constraint matrix, column-wise.  Rows: coverage -sum_j x_{i,j} <= -1
    # for each task (row i); surface, for each bounded interval l,
    # cumulative area <= m * b_{l+1} (row n + l).  Column (i, j) holds -1 in
    # row i, then S[i, j] in rows n + j .. n + J - 2: an interval counts
    # toward its own surface and every later one.  Slot 0 of a column is
    # the coverage row and slot s >= 1 the surface row n + s - 1, so row
    # indices ascend within each column.
    v, s = np.nonzero((np.arange(J) > jj[:, None]) | (np.arange(J) == 0))
    indptr = np.concatenate([[0], np.cumsum(J - jj)])
    indices = np.where(s == 0, ii[v], n - 1 + s)
    data = np.where(s == 0, -1.0, S[ii, jj][v])
    rhs = np.concatenate([np.full(n, -1.0), m * b[1:]])

    value, xs = solve_highs(c, indptr, indices, data, rhs, integral=integral)
    x = np.zeros((n, J))
    x[ii, jj] = xs
    return MinsumBound(value=value, boundaries=b, x=x, integral=integral)
