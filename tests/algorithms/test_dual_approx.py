"""Unit + property tests for the Mounié–Trystram dual approximation."""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.algorithms import dual_approx, reference
from repro.algorithms.dual_approx import (
    DualApproxResult,
    dual_approximation,
    feasibility_check,
)
from repro.algorithms.reference import reference_dual_approximation
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import validate_schedule
from repro.exceptions import SchedulingError
from repro.workloads.generator import generate_workload

from tests.conftest import make_instance, make_task
from tests.data.make_goldens import dual_golden_instance, dual_result_doc

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DOC = json.loads((DATA / "dual_goldens.json").read_text())
GOLDENS = GOLDEN_DOC["cells"]
GOLDEN_IDS = [
    f"{c['source']}{'-' + c['model'] if c['model'] else ''}-n{c['n']}-m{c['m']}" for c in GOLDENS
]


class TestFeasibilityCheck:
    def test_rejects_lambda_below_min_time(self):
        inst = make_instance(n=2, m=4, seq_time=8.0, speedup="linear")
        # Fastest possible duration is 2.0 (8/4); lam=1 must be rejected.
        ok, _, _ = feasibility_check(inst, 1.0)
        assert not ok

    def test_rejects_lambda_below_area_bound(self):
        # 4 tasks of constant work 8 on m=2: area bound = 16.
        inst = make_instance(n=4, m=2, seq_time=8.0, speedup="linear")
        ok, _, _ = feasibility_check(inst, 10.0)
        assert not ok

    def test_accepts_generous_lambda(self):
        inst = make_instance(n=3, m=4, seq_time=8.0)
        ok, in_big, allot = feasibility_check(inst, 100.0)
        assert ok
        assert in_big.shape == (3,) and allot.shape == (3,)
        assert (allot >= 1).all()

    def test_big_shelf_width_respected(self):
        inst = make_instance(n=8, m=4, seq_time=8.0, speedup="none")
        # lam = 8: every task needs the full length on 1 proc -> all big.
        ok, in_big, allot = feasibility_check(inst, 8.0)
        if ok:
            assert allot[in_big].sum() <= 4

    def test_non_positive_lambda(self):
        inst = make_instance(n=1, m=2)
        assert not feasibility_check(inst, 0.0)[0]
        assert not feasibility_check(inst, -1.0)[0]


class TestDualApproximation:
    def test_empty_instance(self):
        res = dual_approximation(Instance([], 4))
        assert res.lower_bound == 0.0 and res.makespan == 0.0

    def test_single_task(self):
        t = MoldableTask(0, [8.0, 4.0, 3.0, 2.5])
        res = dual_approximation(Instance([t], 4))
        # Only the task's fastest time bounds from below; the schedule must
        # be feasible and finish within its sequential time.
        assert res.lower_bound == pytest.approx(2.5)
        validate_schedule(res.schedule, Instance([t], 4))
        assert res.makespan <= 8.0 + 1e-9

    def test_lower_bound_below_accepted_lambda(self):
        inst = make_instance(n=6, m=4, seq_time=8.0)
        res = dual_approximation(inst)
        assert res.lower_bound <= res.lam * (1 + 1e-9)

    def test_schedule_feasible_and_complete(self):
        inst = make_instance(n=10, m=4, seq_time=6.0, speedup="sqrt")
        res = dual_approximation(inst)
        validate_schedule(res.schedule, inst)

    def test_allotments_cover_all_tasks(self):
        inst = make_instance(n=7, m=8)
        res = dual_approximation(inst)
        assert set(res.allotments) == {t.task_id for t in inst}
        assert all(1 <= k <= 8 for k in res.allotments.values())

    def test_perfect_speedup_lower_bound_tight(self):
        # n identical linear tasks, work w each: C* = n*w/m exactly.
        n, m, w = 8, 4, 8.0
        inst = make_instance(n=n, m=m, seq_time=w, speedup="linear")
        res = dual_approximation(inst)
        assert res.lower_bound == pytest.approx(n * w / m)

    def test_sequential_tasks_lower_bound(self):
        # Tasks with no speedup: LB = max(total/m, longest).
        inst = make_instance(n=4, m=2, seq_time=6.0, speedup="none")
        res = dual_approximation(inst)
        assert res.lower_bound == pytest.approx(max(4 * 6.0 / 2, 6.0))

    def test_big_shelf_ids_subset(self):
        inst = make_instance(n=9, m=4, seq_time=5.0, speedup="sqrt")
        res = dual_approximation(inst)
        assert res.big_shelf <= {t.task_id for t in inst}

    @pytest.mark.parametrize("kind", ["weakly_parallel", "highly_parallel", "mixed", "cirne"])
    def test_ratio_reasonable_on_paper_workloads(self, kind):
        inst = generate_workload(kind, n=40, m=32, seed=11)
        res = dual_approximation(inst)
        validate_schedule(res.schedule, inst)
        # Dual approximation targets 3/2; the list construction may add a
        # little, but it must remain far from the trivial 2x regime.
        assert res.makespan / res.lower_bound < 2.0

    def test_rel_tol_controls_gap(self):
        inst = generate_workload("mixed", n=20, m=8, seed=3)
        tight = dual_approximation(inst, rel_tol=1e-4)
        loose = dual_approximation(inst, rel_tol=0.3)
        assert tight.lam <= loose.lam * (1 + 0.3 + 1e-9)
        assert tight.lower_bound <= tight.lam <= tight.lower_bound * (1 + 1e-3)

    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 8),
        seed=st.integers(0, 9999),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_sound_on_random_instances(self, n, m, seed):
        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n):
            seq = float(rng.uniform(1, 10))
            profile = seq / np.arange(1, m + 1) ** float(rng.uniform(0, 1))
            tasks.append(MoldableTask(i, profile, weight=float(rng.uniform(1, 10))))
        inst = Instance(tasks, m)
        res = dual_approximation(inst)
        validate_schedule(res.schedule, inst)
        # LB never exceeds what an actual schedule achieved.
        assert res.lower_bound <= res.makespan + 1e-9
        # LB dominates the two closed-form bounds.
        assert res.lower_bound >= inst.max_min_time - 1e-9
        assert res.lower_bound >= inst.min_total_work / m - 1e-9


class TestKnobValidation:
    """``lam / lower_bound <= 1 + rel_tol`` needs a finite positive
    tolerance and at least one probe per search phase."""

    @staticmethod
    def _inst():
        return generate_workload("mixed", n=50, m=16, seed=3)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_rejects_non_finite_or_non_positive_rel_tol(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            dual_approximation(self._inst(), rel_tol=rel_tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            dual_approximation(self._inst(), max_iter=max_iter)

    def test_rejects_before_the_empty_shortcut(self):
        with pytest.raises(ValueError, match="rel_tol"):
            dual_approximation(Instance([], 4), rel_tol=math.nan)

    def test_gap_holds_when_the_bisection_closes(self):
        res = dual_approximation(self._inst())
        assert res.lower_bound < res.lam <= res.lower_bound * (1 + 1e-3)

    def test_max_iter_one_stops_short_of_the_gap(self):
        """One bisection step cannot close a doubled bracket: the result
        stays sound (certified floor, accepted λ) but the documented gap
        does not hold."""
        inst = self._inst()
        res = dual_approximation(inst, max_iter=1)
        assert res.lam / res.lower_bound == 1.5
        assert feasibility_check(inst, res.lam)[0]
        assert not feasibility_check(inst, res.lower_bound)[0]


# ---------------------------------------------------------------------- #
# Golden corpus                                                          #
# ---------------------------------------------------------------------- #
class TestGoldenCorpus:
    """Certified lower bound, accepted λ, allotment/shelf rows and small
    two-shelf schedules, recorded before the compiled probes and compared
    at full precision."""

    def test_corpus_covers_families_shapes_and_archive(self):
        grid = {(c["source"], c["n"], c["m"]) for c in GOLDENS if c["model"] is None}
        assert {
            (kind, n, m)
            for kind in ("weakly_parallel", "highly_parallel", "mixed", "cirne")
            for n, m in ((25, 13), (400, 200), (1000, 64))
        } <= grid
        assert {"ragged", "rigid", "nonmonotone"} <= {source for source, _, _ in grid}
        assert any(m == 1 for _, _, m in grid)
        assert {c["model"] for c in GOLDENS if c["source"] == "archive"} == {
            "rigid", "linear", "downey", "recurrence-highly", "recurrence-weakly"
        }
        # Both search paths: the floor accepted at once, and doubling +
        # bisection (the accepted λ then lies above the certified bound).
        assert any(c["lam"] == c["lower_bound"] for c in GOLDENS)
        assert sum(c["lam"] > c["lower_bound"] for c in GOLDENS) >= 8
        assert sum("schedule_sha256" in c for c in GOLDENS) >= 10

    @pytest.mark.parametrize("cell", GOLDENS, ids=GOLDEN_IDS)
    def test_dual_reproduces_golden(self, cell):
        inst = dual_golden_instance(cell)
        got = dual_result_doc(dual_approximation(inst), inst)
        meta = {"source", "model", "digest", "n", "m"}
        # Full precision, no approx; the same fields, schedule included.
        assert got == {k: v for k, v in cell.items() if k not in meta}


# ---------------------------------------------------------------------- #
# The search probes exactly the reference's λ sequence                  #
# ---------------------------------------------------------------------- #
def _searched_lams(inst, **knobs) -> tuple[list[float], list[float]]:
    """λs the production search decides before its final full check, and
    λs the seed search hands to its feasibility test (the seed's
    two-shelf build is skipped: only the search is compared)."""
    got: list[float] = []
    want: list[float] = []
    decide = dual_approx._decide
    check = reference.reference_feasibility_check

    def record_decide(m, lam, *vectors):
        got.append(lam)
        return decide(m, lam, *vectors)

    def record_check(instance, lam):
        want.append(lam)
        return check(instance, lam)

    with mock.patch.object(dual_approx, "_decide", record_decide):
        res = dual_approximation(inst, **knobs)
    with mock.patch.object(reference, "reference_feasibility_check", record_check), \
            mock.patch.object(reference, "reference_list_schedule", lambda items, m: None):
        ref = reference_dual_approximation(inst, **knobs)
    assert (res.lam, res.lower_bound) == (ref.lam, ref.lower_bound)
    return got, want


@st.composite
def search_instances(draw):
    """Object-backed ragged, rigid (``p(1) = +inf``) and non-monotone
    instances, often with few tasks on a wide machine so the closed-form
    floor is rejected and the search doubles and bisects."""
    shape = draw(st.sampled_from(["ragged", "rigid", "nonmonotone"]))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 14))
    tasks = []
    for tid in range(n):
        seq = draw(st.floats(0.5, 100.0))
        if shape == "ragged":
            width = draw(st.integers(1, m + 4))
            alpha = draw(st.floats(0.0, 1.0))
            times = [seq / (k ** alpha) for k in range(1, width + 1)]
        elif shape == "rigid":
            low = draw(st.integers(min(2, m), m))
            times = [math.inf] * (low - 1) + [seq] * (m - low + 1)
        else:
            times = draw(
                st.lists(
                    st.one_of(st.just(math.inf), st.floats(0.5, 100.0)),
                    min_size=m, max_size=m,
                )
            )
            if all(math.isinf(t) for t in times):
                times[draw(st.integers(0, m - 1))] = seq
        tasks.append(MoldableTask(tid, times, weight=1.0))
    return Instance(tasks, m)


class TestSearchPath:
    @given(inst=search_instances())
    @settings(max_examples=150, deadline=None)
    def test_probes_the_reference_sequence(self, inst):
        got, want = _searched_lams(inst)
        assert got == want

    @given(
        inst=search_instances(),
        rel_tol=st.sampled_from([1e-6, 1e-3, 0.3]),
        max_iter=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_probes_the_reference_sequence_under_knobs(self, inst, rel_tol, max_iter):
        try:
            got, want = _searched_lams(inst, rel_tol=rel_tol, max_iter=max_iter)
        except SchedulingError:  # max_iter doublings found no feasible λ
            with pytest.raises(SchedulingError), mock.patch.object(
                reference, "reference_list_schedule", lambda items, m: None
            ):
                reference_dual_approximation(inst, rel_tol=rel_tol, max_iter=max_iter)
            return
        assert got == want

    def test_one_probe_counter_and_span_per_lambda(self):
        inst = dual_golden_instance(
            next(c for c in GOLDENS if c["source"] == "mixed" and c["n"] == 25)
        )
        _, want = _searched_lams(inst)
        assert len(want) > 1  # the floor is rejected: doubling + bisection
        state = obs.enable(fresh=True)
        try:
            dual_approximation(inst)
        finally:
            obs.disable()
        assert state.counters["dual.probes"] == len(want)
        probes = [s for s in state.spans if s.name == "dual.probe"]
        assert len(probes) == len(want)
        assert all(s.cat == "kernel" for s in probes)
        assert "dual.probe_batch" not in state.hists

    @pytest.mark.parametrize("cell", GOLDENS, ids=GOLDEN_IDS)
    def test_one_sweep_per_probe(self, cell):
        """The accepted λ* is not swept again: its shelves come from the
        sweep of the probe that accepted it."""
        inst = dual_golden_instance(cell)
        sweeps = decides = 0
        sweep, decide = kernels.dual_sweep_core, dual_approx._decide

        def count_sweep(*args):
            nonlocal sweeps
            sweeps += 1
            return sweep(*args)

        def count_decide(*args):
            nonlocal decides
            decides += 1
            return decide(*args)

        state = obs.enable(fresh=True)
        try:
            with mock.patch.object(kernels, "dual_sweep_core", count_sweep), \
                    mock.patch.object(dual_approx, "_decide", count_decide):
                res = dual_approximation(inst)
        finally:
            obs.disable()
        assert res.lam == cell["lam"]
        assert sweeps == decides == state.counters["dual.probes"] >= 1

    @pytest.mark.parametrize("cell", GOLDENS, ids=GOLDEN_IDS)
    def test_golden_cell_probes_the_reference_sequence(self, cell):
        got, want = _searched_lams(dual_golden_instance(cell))
        assert got == want
        assert len(got) == (1 if cell["lam"] == cell["lower_bound"] else len(want))
