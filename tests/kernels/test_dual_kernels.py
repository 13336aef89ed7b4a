"""Differential suite for the dual approximation's three kernels.

``row_floor_core`` (every row's smallest time and smallest area, the
search's closed-form floor), ``dual_sweep_core`` (minimal allotments and
minimal areas under ``λ`` and ``λ/2`` in one pass over the time matrix)
and ``knapsack_min_work_core`` (the min-work DP with its reconstruction)
must return the NumPy reference's bits on the compiled backend whenever
it builds here, and the reference must agree with the scalar allotment
functions and the seed DP of ``algorithms/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.algorithms.knapsack import knapsack_min_work, knapsack_min_work_value
from repro.algorithms.reference import reference_knapsack_min_work
from repro.core.allotment import minimal_allotments, minimal_area_allotments

NUMPY = kernels.load_backend("numpy")


def _compiled() -> tuple:
    """The compiled backend whenever it builds, imported past the
    import-time smoke gate: a backend the gate rejects still fails here,
    instead of dropping out of the comparison."""
    try:
        from repro.kernels import _cffi
    except ImportError:
        return ()
    return (_cffi,)


OTHERS = _compiled()

INF = math.inf


# --------------------------------------------------------------------- #
# One-λ sweep                                                           #
# --------------------------------------------------------------------- #
#: Times drawn from a small grid hit ``p(k) == λ`` and ``p(k) == λ/2``
#: exactly for the grid λs below; rows are unsorted (non-monotone).
_time = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.just(INF),
    st.floats(min_value=0.01, max_value=100.0),
)
_lam = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 8.0]),
    st.floats(min_value=0.01, max_value=200.0),
    st.just(INF),
    st.floats(min_value=-10.0, max_value=0.0),
    st.just(math.nan),
)


@st.composite
def _sweep_cases(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(0, 10))
    rows = [draw(st.lists(_time, min_size=m, max_size=m)) for _ in range(n)]
    times = np.array(rows, dtype=np.float64).reshape(n, m)
    return times, draw(_lam)


def _sweep_bits(out):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in out]


@given(_sweep_cases())
@settings(max_examples=200, deadline=None)
@example((np.array([[4.0, 2.0, 1.0], [INF, 3.0, 2.0], [8.0, 1.0, 5.0]]), 4.0))
@example((np.array([[INF]]), INF))
@example((np.empty((0, 3)), 2.0))
@example((np.array([[2.0], [1.0]]), 2.0))  # m = 1, ties at λ and λ/2
@example((np.array([[1.0, 0.5]]), 0.0))
@example((np.array([[1.0, 0.5]]), -1.0))
def test_dual_sweep_backends_and_scalar_functions(case):
    times, lam = case
    ref = NUMPY.dual_sweep_core(times, lam)
    g_big, g_small, work_big, work_small = ref
    assert g_big.dtype == g_small.dtype == np.int64
    assert work_big.dtype == work_small.dtype == np.float64
    for mod in OTHERS:
        assert _sweep_bits(mod.dual_sweep_core(times, lam)) == _sweep_bits(ref), mod.name

    # The reference is the scalar allotment functions, bit for bit.
    for deadline, g, work in ((lam, g_big, work_big), (lam / 2.0, g_small, work_small)):
        assert g.tobytes() == minimal_allotments(times, deadline).tobytes()
        assert work.tobytes() == minimal_area_allotments(times, deadline).tobytes()


def test_dual_sweep_reads_non_contiguous_input():
    """A Fortran-ordered or sliced matrix gives the same bits as its
    C-contiguous copy."""
    rng = np.random.default_rng(2)
    base = rng.uniform(0.5, 20.0, size=(12, 9))
    base[rng.random(base.shape) < 0.2] = INF
    for times in (np.asfortranarray(base), base[:, ::2], base[::3]):
        want = _sweep_bits(NUMPY.dual_sweep_core(np.ascontiguousarray(times), 6.0))
        for mod in (NUMPY, *OTHERS):
            assert _sweep_bits(mod.dual_sweep_core(times, 6.0)) == want, mod.name


# --------------------------------------------------------------------- #
# Row floors                                                            #
# --------------------------------------------------------------------- #
@st.composite
def _floor_cases(draw):
    """Odd and even widths (the C loop takes two columns a step), rows
    of ``+inf``, and NaNs, which ``np.min`` propagates."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(0, 10))
    cell = st.one_of(_time, st.just(math.nan))
    rows = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]
    return np.array(rows, dtype=np.float64).reshape(n, m)


@given(_floor_cases())
@settings(max_examples=200, deadline=None)
@example(np.empty((0, 3)))
@example(np.array([[INF, INF, INF], [2.0, 0.5, 1.0]]))
@example(np.array([[math.nan, 1.0, 2.0], [3.0, 0.5, math.nan], [1.0, math.nan, INF]]))
@example(np.array([[3.0], [INF]]))  # m = 1
def test_row_floor_backends(times):
    ref = NUMPY.row_floor_core(times)
    ks = np.arange(1, times.shape[1] + 1, dtype=np.float64)
    want = (np.min(times, axis=1), np.min(times * ks, axis=1))
    assert _sweep_bits(ref) == _sweep_bits(want)
    for mod in OTHERS:
        assert _sweep_bits(mod.row_floor_core(times)) == _sweep_bits(ref), mod.name


def test_row_floor_reads_non_contiguous_input():
    rng = np.random.default_rng(4)
    base = rng.uniform(0.5, 20.0, size=(12, 9))
    base[rng.random(base.shape) < 0.2] = INF
    for times in (np.asfortranarray(base), base[:, ::2], base[::3], base[:, 1:]):
        want = _sweep_bits(NUMPY.row_floor_core(np.ascontiguousarray(times)))
        for mod in (NUMPY, *OTHERS):
            assert _sweep_bits(mod.row_floor_core(times)) == want, mod.name


@pytest.mark.parametrize("n", [0, 3])
def test_row_floor_needs_a_column(n):
    for mod in (NUMPY, *OTHERS):
        with pytest.raises(ValueError):
            mod.row_floor_core(np.empty((n, 0)))


# --------------------------------------------------------------------- #
# Min-work DP with reconstruction                                       #
# --------------------------------------------------------------------- #
_work = st.one_of(
    st.sampled_from([1.0, 2.5, 4.0]),
    st.floats(min_value=0.0, max_value=1e6),
    st.just(INF),
)
_minwork_cases = st.tuples(
    st.lists(st.tuples(_work, st.integers(0, 14), _work), min_size=0, max_size=16),
    st.integers(0, 12),
)


@given(_minwork_cases)
@settings(max_examples=200, deadline=None)
@example(([(4.0, 2, 6.0), (2.5, 1, 2.5), (INF, 3, 3.0)], 4))  # work_a >= work_b rows
@example(([(1.0, 9, 5.0), (2.0, 3, 7.0)], 4))  # cost_a > m
@example(([(INF, 1, 5.0), (1.0, 2, INF)], 3))  # work_a = +inf, forced option A
@example(([(1.0, 5, INF)], 4))  # infeasible total
@example(([(1.0, 3, 10.0), (1.0, 3, 10.0)], 3))  # the budget admits one of two
def test_min_work_backends_and_seed_oracle(case):
    rows, m = case
    work_a = np.array([r[0] for r in rows], dtype=np.float64)
    cost = np.array([r[1] for r in rows], dtype=np.int64)
    work_b = np.array([r[2] for r in rows], dtype=np.float64)

    in_a, total = NUMPY.knapsack_min_work_core(work_a, cost, work_b, m)
    assert in_a.dtype == np.bool_ and in_a.shape == work_a.shape
    for mod in OTHERS:
        got_in, got_total = mod.knapsack_min_work_core(work_a, cost, work_b, m)
        assert got_in.dtype == np.bool_, mod.name
        assert got_in.tobytes() == in_a.tobytes(), mod.name
        assert np.float64(got_total).tobytes() == np.float64(total).tobytes(), mod.name

    # Same value as the value-only DP when finite, +inf (and no pick)
    # otherwise; the seed DP reconstructs the same assignment.
    value = NUMPY.knapsack_min_work_value_core(work_a, cost, work_b, m)
    if math.isfinite(value):
        assert np.float64(total).tobytes() == np.float64(value).tobytes()
        assert int(cost[in_a].sum()) <= m
    else:
        assert total == INF and not in_a.any()
    seed_in, seed_total = reference_knapsack_min_work(work_a, cost.astype(np.float64), work_b, m)
    assert seed_in.tobytes() == in_a.tobytes()
    assert np.float64(seed_total).tobytes() == np.float64(total).tobytes()

    # The public wrapper dispatches to the active backend.
    wrapped_in, wrapped_total = knapsack_min_work(work_a, cost.astype(np.float64), work_b, m)
    assert wrapped_in.tobytes() == in_a.tobytes()
    assert np.float64(wrapped_total).tobytes() == np.float64(total).tobytes()
    wrapped_value = knapsack_min_work_value(work_a, cost.astype(np.float64), work_b, m)
    assert np.float64(wrapped_value).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("bad", [-1.0, math.nan, INF])
def test_min_work_rejects_costs_the_dp_cannot_index(bad):
    with pytest.raises(ValueError, match="cost_a"):
        knapsack_min_work(np.ones(2), np.array([1.0, bad]), np.full(2, 2.0), 4)


@pytest.mark.parametrize("mod", OTHERS, ids=lambda mod: mod.name)
def test_compiled_min_work_checks_its_buffers(mod):
    """The C walk indexes ``dp[q - cost]``: the wrapper refuses negative
    costs and mismatched lengths before passing any pointer."""
    with pytest.raises(ValueError, match="non-negative"):
        mod.knapsack_min_work_core(np.ones(2), np.array([1, -3]), np.full(2, 2.0), 4)
    with pytest.raises(ValueError, match="same length"):
        mod.knapsack_min_work_core(np.ones(2), np.array([1]), np.full(2, 2.0), 4)
