"""Unit + property tests for the LP-relaxation minsum lower bound.

Besides the bound's own properties, three checks pin its assembly and
solve.  All capture the model where the bound hands it to
``minsum_lp.solve_highs`` (the ``solved_models`` fixture):

* **Goldens** — value, interval boundaries and a sha256 over the model
  handed to the solver, on a frozen corpus, compared with ``==`` against
  ``tests/data/minsum_lp_goldens.json``;
* **Reference assembly** — the per-entry loop assembler the columnar one
  replaced is kept below as an oracle; the captured ``c``, ``b_ub`` and
  CSR arrays must equal it exactly;
* **Solver equivalence** — ``solve_highs`` must return the objective and
  ``x`` of scipy's ``linprog(method="highs")`` (``milp`` for the ILP) on
  the same model, bit for bit.

Regenerate the goldens only for intentional changes:
``PYTHONPATH=src python tests/data/make_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import repro.bounds.minsum_lp as minsum_lp
from repro.algorithms.demt import schedule_demt
from repro.algorithms.dual_approx import dual_approximation
from repro.bounds.minsum_lp import build_time_grid, minsum_lower_bound, solve_highs
from repro.core.allotment import minimal_area_allotments
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.exceptions import SolverError
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload
from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, trace_instance

from tests.conftest import make_instance

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DOC = json.loads((DATA / "minsum_lp_goldens.json").read_text())
GOLDENS = GOLDEN_DOC["cells"]
FAMILIES = ("weakly_parallel", "highly_parallel", "mixed", "cirne")


class TestTimeGrid:
    def test_doubles_and_ends_at_twice_estimate(self):
        inst = make_instance(n=4, m=4, seq_time=8.0)
        grid = build_time_grid(inst, cmax_estimate=10.0)
        assert grid[-1] == pytest.approx(20.0)
        for a, b in zip(grid, grid[1:]):
            assert b == pytest.approx(2 * a)

    def test_first_point_at_least_tmin(self):
        inst = make_instance(n=4, m=4, seq_time=8.0)
        grid = build_time_grid(inst, cmax_estimate=13.7)
        assert grid[0] >= inst.tmin - 1e-12

    def test_invalid_estimate(self):
        inst = make_instance(n=1, m=2)
        with pytest.raises(ValueError):
            build_time_grid(inst, 0.0)


class TestMinsumBound:
    def test_empty_instance(self):
        res = minsum_lower_bound(Instance([], 4), cmax_estimate=1.0)
        assert res.value == 0.0

    def test_single_task_bound_positive_and_valid(self):
        t = MoldableTask(0, [4.0, 2.5], weight=3.0)
        inst = Instance([t], 2)
        res = minsum_lower_bound(inst)
        # Optimal completion is 2.5 -> minsum 7.5; bound must not exceed it
        # and should be positive (the task cannot finish before 1.25).
        assert 0.0 < res.value <= 7.5 + 1e-9

    def test_bound_below_every_algorithm(self):
        from repro.algorithms.registry import PAPER_ALGORITHMS, get_algorithm

        inst = generate_workload("mixed", n=30, m=16, seed=41)
        dual = dual_approximation(inst)
        lb = minsum_lower_bound(inst, dual.lam).value
        for name in PAPER_ALGORITHMS:
            s = get_algorithm(name).schedule(inst)
            assert lb <= s.weighted_completion_sum() + 1e-6, name

    def test_relaxation_weaker_than_ilp(self):
        """§3.3: the relaxed bound 'might be weaker, but is much faster'."""
        inst = generate_workload("cirne", n=10, m=4, seed=42)
        lam = dual_approximation(inst).lam
        lp = minsum_lower_bound(inst, lam, integral=False)
        ilp = minsum_lower_bound(inst, lam, integral=True)
        assert lp.value <= ilp.value + 1e-6
        assert ilp.integral and not lp.integral

    def test_x_rows_cover_each_task(self):
        inst = generate_workload("highly_parallel", n=12, m=8, seed=43)
        res = minsum_lower_bound(inst)
        assert res.x.shape[0] == 12
        assert (res.x.sum(axis=1) >= 1 - 1e-6).all()

    def test_boundaries_start_at_zero(self):
        inst = generate_workload("mixed", n=8, m=4, seed=44)
        res = minsum_lower_bound(inst)
        assert res.boundaries[0] == 0.0
        assert (np.diff(res.boundaries) > 0).all()

    def test_weights_scale_bound(self):
        base = generate_workload("mixed", n=10, m=4, seed=45)
        lam = dual_approximation(base).lam
        doubled = Instance(
            [MoldableTask(t.task_id, t.times, weight=2 * t.weight) for t in base],
            base.m,
        )
        a = minsum_lower_bound(base, lam).value
        b = minsum_lower_bound(doubled, lam).value
        assert b == pytest.approx(2 * a, rel=1e-6)

    def test_bound_grows_with_load(self):
        small = generate_workload("cirne", n=10, m=8, seed=46)
        big = generate_workload("cirne", n=40, m=8, seed=46)
        assert minsum_lower_bound(big).value > minsum_lower_bound(small).value

    @given(seed=st.integers(0, 9999), n=st.integers(1, 5), m=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_property_lower_bounds_exact_optimum(self, seed, n, m):
        """The heart of §3.3: LP value <= optimal minsum (verified against
        the exhaustive solver on tiny instances)."""
        from repro.bounds.exact import exact_reference

        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n):
            seq = float(rng.uniform(1, 10))
            alpha = float(rng.uniform(0, 1))
            times = seq / np.arange(1, m + 1) ** alpha
            tasks.append(MoldableTask(i, times, weight=float(rng.uniform(1, 10))))
        inst = Instance(tasks, m)
        exact = exact_reference(inst)
        lb = minsum_lower_bound(inst).value
        assert lb <= exact.minsum + 1e-6
        # Sanity: the bound is not trivially zero on non-trivial instances.
        assert lb > 0.0

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=10, deadline=None)
    def test_property_ilp_also_below_optimum(self, seed):
        from repro.bounds.exact import exact_reference

        rng = np.random.default_rng(seed)
        tasks = [
            MoldableTask(
                i,
                float(rng.uniform(1, 8)) / np.arange(1, 4) ** float(rng.uniform(0, 1)),
                weight=float(rng.uniform(1, 5)),
            )
            for i in range(4)
        ]
        inst = Instance(tasks, 3)
        exact = exact_reference(inst)
        ilp = minsum_lower_bound(inst, integral=True).value
        assert ilp <= exact.minsum + 1e-6


@pytest.fixture
def solved_models(monkeypatch):
    """Record every model handed to ``solve_highs`` as ``(c, A, b_ub)``
    (A in the CSC form the solver gets), forwarding to the real solver."""
    models: list[tuple] = []
    real_solve = minsum_lp.solve_highs

    def solve_highs(c, indptr, indices, data, rhs, *, integral=False):
        A = sparse.csc_matrix((data, indices, indptr), shape=(rhs.size, c.size))
        models.append((c, A, rhs))
        return real_solve(c, indptr, indices, data, rhs, integral=integral)

    monkeypatch.setattr(minsum_lp, "solve_highs", solve_highs)
    return models


def _model_sha256(c, A, b_ub) -> str:
    """The model digest of ``make_goldens.py``: ``c``, ``b_ub`` and the CSR
    arrays of ``A``, index arrays as int64."""
    A = sparse.csr_matrix(A)
    h = hashlib.sha256()
    for arr in (
        c,
        b_ub,
        A.indptr.astype(np.int64),
        A.indices.astype(np.int64),
        A.data,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _golden_instance(cell: dict) -> Instance:
    if cell["model"] is None:
        kind, n, m = cell["source"], cell["n"], cell["m"]
        seed = derive_rng(GOLDEN_DOC["_meta"]["seed"], "minsum_lp", kind, n, m)
        return generate_workload(kind, n=n, m=m, seed=seed)
    trace = load_trace(DATA / "traces" / cell["source"])
    return trace_instance(trace, cell["m"], cell["model"], online=False)


class TestGoldenCorpus:
    def test_corpus_covers_families_fixtures_and_ilp(self):
        synthetic = {
            (c["source"], c["n"], c["m"], c["integral"])
            for c in GOLDENS
            if c["model"] is None
        }
        assert synthetic == (
            {(k, n, 200, False) for k in FAMILIES for n in (25, 100, 400)}
            | {("mixed", n, 64, False) for n in (200, 400)}
            | {(k, 10, 8, True) for k in FAMILIES}
        )
        traced = {(c["source"], c["model"]) for c in GOLDENS if c["model"]}
        assert traced == {
            (f.name, model)
            for f in (DATA / "traces").glob("*.swf")
            for model in MOLDABILITY_MODELS
        }

    @pytest.mark.parametrize(
        "cell",
        GOLDENS,
        ids=[
            f"{c['source']}-{c['model'] or 'gen'}-n{c['n']}-m{c['m']}"
            + ("-ilp" if c["integral"] else "")
            for c in GOLDENS
        ],
    )
    def test_bound_and_model_reproduce_goldens(self, cell, solved_models):
        inst = _golden_instance(cell)
        assert inst.n == cell["n"]
        lam = dual_approximation(inst).lam
        res = minsum_lower_bound(inst, lam, integral=cell["integral"])
        (model,) = solved_models
        got = (res.value, res.boundaries.tolist(), _model_sha256(*model))
        # Full-precision equality, no approx.
        assert got == (cell["value"], cell["boundaries"], cell["model_sha256"])


def _loop_model(instance: Instance, cmax_estimate: float):
    """The per-entry loop assembly the columnar one replaced, kept as the
    oracle: ``(c, A, b_ub)`` with ``A`` in CSR form."""
    grid = build_time_grid(instance, cmax_estimate)
    b = np.concatenate([[0.0], grid])
    J = b.size
    n, m = instance.n, instance.m
    tm = instance.times_matrix
    weights = instance.weights

    S = np.empty((n, J))
    fastest = np.empty((n, J))
    for j in range(J - 1):
        S[:, j] = minimal_area_allotments(tm, b[j + 1])
        fastest[:, j] = np.where(tm <= b[j + 1], tm, np.inf).min(axis=1)
    ks = np.arange(1, m + 1, dtype=np.float64)
    S[:, J - 1] = (tm * ks).min(axis=1)
    fastest[:, J - 1] = tm.min(axis=1)

    allowed = np.isfinite(S)
    var_index = -np.ones((n, J), dtype=np.int64)
    flat_allowed = np.argwhere(allowed)
    for v, (i, j) in enumerate(flat_allowed):
        var_index[i, j] = v
    n_vars = flat_allowed.shape[0]

    c = np.array(
        [weights[i] * max(b[j], fastest[i, j]) for i, j in flat_allowed]
    )

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []
    row = 0
    for i in range(n):
        for j in range(J):
            v = var_index[i, j]
            if v >= 0:
                rows.append(row)
                cols.append(int(v))
                vals.append(-1.0)
        rhs.append(-1.0)
        row += 1
    for j in range(J - 1):
        for l in range(j + 1):
            for i in range(n):
                v = var_index[i, l]
                if v >= 0:
                    rows.append(row)
                    cols.append(int(v))
                    vals.append(float(S[i, l]))
        rhs.append(float(m * b[j + 1]))
        row += 1

    A = sparse.coo_matrix((vals, (rows, cols)), shape=(row, n_vars)).tocsr()
    return c, A, np.array(rhs)


def _assert_model_matches_loops(inst, cmax_estimate, models, **kwargs):
    res = minsum_lower_bound(inst, cmax_estimate, **kwargs)
    (got,) = models
    want = _loop_model(inst, cmax_estimate)
    for name, g, w in zip(("c", "A", "b_ub"), got, want):
        if name == "A":
            assert g.has_canonical_format  # row indices ascend in each column
            g = g.tocsr()
            assert g.shape == w.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(g, part), getattr(w, part)), part
        else:
            assert np.array_equal(g, w), name
    return res


class TestColumnarAssembly:
    """The model handed to the solver equals the loop assembler's exactly."""

    @pytest.mark.parametrize("n", (1, 2, 25, 137))
    @pytest.mark.parametrize("m", (1, 7, 64, 200))
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_generated_families(self, kind, m, n, solved_models):
        inst = generate_workload(kind, n=n, m=m, seed=derive_rng(13, kind, n, m))
        _assert_model_matches_loops(
            inst, dual_approximation(inst).lam, solved_models
        )

    def test_estimate_below_tmin_leaves_first_interval_empty(self, solved_models):
        inst = generate_workload("mixed", n=12, m=8, seed=derive_rng(13, "low"))
        estimate = 0.75 * inst.tmin
        assert math.floor(math.log2(estimate / inst.tmin)) < 0  # K clamps to 0
        res = _assert_model_matches_loops(inst, estimate, solved_models)
        ((_, A, _),) = solved_models
        assert A[inst.n].nnz == 0  # surface row 0: nothing fits (0, t_0]
        assert (res.x[:, 0] == 0).all()

    def test_estimate_far_above_dual_gives_many_intervals(self, solved_models):
        inst = generate_workload("cirne", n=30, m=16, seed=derive_rng(13, "high"))
        lam = dual_approximation(inst).lam
        res = _assert_model_matches_loops(inst, 64 * lam, solved_models)
        assert res.boundaries.size > 10

    def test_rigid_task_has_no_early_variables(self, solved_models):
        rigid = MoldableTask(0, [np.inf, np.inf, 5.0])
        tasks = [rigid] + [
            MoldableTask(i, [1.0 * i, 0.6 * i, 0.5 * i], weight=1.0 + i)
            for i in (1, 2)
        ]
        inst = Instance(tasks, 3)
        res = _assert_model_matches_loops(
            inst, dual_approximation(inst).lam, solved_models
        )
        early = res.boundaries[1:] < 5.0  # intervals ending before p(3)
        assert early.any()
        assert (res.x[0, : early.size][early] == 0).all()

    def test_vectors_shorter_and_longer_than_m(self, solved_models):
        tasks = [
            MoldableTask(0, [6.0, 3.5]),
            MoldableTask(1, [9.0, 5.0, 3.6, 3.0, 2.6, 2.4, 2.2], weight=2.0),
            MoldableTask(2, [4.0, 2.2, 1.6, 1.3, 1.1], weight=0.5),
        ]
        inst = Instance(tasks, 5)
        _assert_model_matches_loops(
            inst, dual_approximation(inst).lam, solved_models
        )

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_integral(self, kind, solved_models):
        inst = generate_workload(kind, n=8, m=6, seed=derive_rng(13, kind, "ilp"))
        res = _assert_model_matches_loops(
            inst, dual_approximation(inst).lam, solved_models, integral=True
        )
        assert res.integral


def _scipy_solve(c, A, b_ub, integral):
    """The same model through scipy's public API: ``linprog(method="highs")``
    for the LP, ``milp`` with every column integer for the ILP."""
    if integral:
        res = milp(
            c,
            constraints=LinearConstraint(A, -np.inf, b_ub),
            integrality=np.ones(c.size),
            bounds=Bounds(0, 1),
        )
    else:
        res = linprog(c, A_ub=A, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    assert res.success, res.message
    return res.fun, res.x


class TestSolveHighsMatchesScipy:
    """``solve_highs`` returns the objective and ``x`` that ``linprog`` and
    ``milp`` return on the same model, bit for bit.  A scipy whose
    ``_highspy`` changes fails here instead of moving a bound."""

    @staticmethod
    def _check(inst, models, integral=False):
        res = minsum_lower_bound(inst, dual_approximation(inst).lam, integral=integral)
        ((c, A, b_ub),) = models
        value, x = solve_highs(c, A.indptr, A.indices, A.data, b_ub, integral=integral)
        want_value, want_x = _scipy_solve(c, A, b_ub, integral)
        assert value == want_value == res.value
        assert np.array_equal(x, want_x)

    @pytest.mark.parametrize("n", (25, 137))
    @pytest.mark.parametrize("m", (1, 8, 64, 200))
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_generated_families(self, kind, m, n, solved_models):
        inst = generate_workload(kind, n=n, m=m, seed=derive_rng(27, kind, n, m))
        self._check(inst, solved_models)

    @pytest.mark.parametrize(
        "cell",
        [c for c in GOLDENS if c["model"] or c["integral"]],
        ids=lambda c: f"{c['source']}-{c['model'] or 'ilp'}",
    )
    def test_trace_fixtures_and_ilp_cells(self, cell, solved_models):
        self._check(_golden_instance(cell), solved_models, integral=cell["integral"])


class TestSolverError:
    # Two columns, a coverage row -x_0 - x_1 <= -1 and a surface row
    # x_0 + x_1 <= rhs[1]: feasible at rhs[1] = 1.5, infeasible at 1/2.
    MODEL = (
        np.array([1.0, 2.0]),
        np.array([0, 2, 4]),
        np.array([0, 1, 0, 1]),
        np.array([-1.0, 1.0, -1.0, 1.0]),
    )

    @pytest.mark.parametrize("integral", (False, True))
    def test_feasible_model_solves(self, integral):
        value, x = solve_highs(*self.MODEL, np.array([-1.0, 1.5]), integral=integral)
        assert value == 1.0
        assert x.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("integral", (False, True))
    def test_infeasible_model_names_the_model_status(self, integral):
        kind = "MILP" if integral else "LP"
        with pytest.raises(SolverError, match=f"HiGHS {kind} failed: model status Infeasible"):
            solve_highs(*self.MODEL, np.array([-1.0, 0.5]), integral=integral)
