"""Unit + property tests for repro.algorithms.knapsack."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.algorithms.knapsack import (
    KnapsackItem,
    knapsack_min_work,
    knapsack_min_work_value,
    knapsack_select,
    knapsack_select_indices,
)


def brute_force_max_weight(items, m):
    best = 0.0
    for mask in itertools.product([0, 1], repeat=len(items)):
        cost = sum(it.allotment for it, b in zip(items, mask) if b)
        if cost <= m:
            best = max(best, sum(it.weight for it, b in zip(items, mask) if b))
    return best


class TestKnapsackItem:
    def test_invalid_allotment(self):
        with pytest.raises(ValueError):
            KnapsackItem("x", 0, 1.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            KnapsackItem("x", 1, float("inf"))
        with pytest.raises(ValueError):
            KnapsackItem("x", 1, -1.0)


class TestKnapsackSelect:
    def test_paper_example_docstring(self):
        items = [
            KnapsackItem("a", 2, 5.0),
            KnapsackItem("b", 2, 4.0),
            KnapsackItem("c", 3, 6.0),
        ]
        res = knapsack_select(items, m=4)
        assert sorted(res.selected_keys) == ["a", "b"]
        assert res.total_weight == pytest.approx(9.0)
        assert res.used_processors == 4

    def test_empty_items(self):
        res = knapsack_select([], 5)
        assert res.total_weight == 0.0 and res.selected == ()

    def test_zero_capacity(self):
        res = knapsack_select([KnapsackItem("a", 1, 1.0)], 0)
        assert res.selected == ()

    def test_item_larger_than_capacity_skipped(self):
        items = [KnapsackItem("big", 10, 100.0), KnapsackItem("ok", 1, 1.0)]
        res = knapsack_select(items, 5)
        assert res.selected_keys == ("ok",)

    def test_all_fit(self):
        items = [KnapsackItem(i, 1, 1.0) for i in range(4)]
        res = knapsack_select(items, 10)
        assert len(res.selected) == 4
        assert res.used_processors == 4

    def test_prefers_fewer_processors_on_ties(self):
        # Same weight achievable with {a} (2 procs) or {b} (3 procs).
        items = [KnapsackItem("b", 3, 5.0), KnapsackItem("a", 2, 5.0)]
        res = knapsack_select(items, 3)
        assert res.selected_keys == ("a",)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            knapsack_select([], -1)

    def test_weights_sum_consistency(self):
        items = [KnapsackItem(i, (i % 3) + 1, float(i + 1)) for i in range(8)]
        res = knapsack_select(items, 6)
        assert res.total_weight == pytest.approx(
            sum(it.weight for it in res.selected)
        )
        assert res.used_processors == sum(it.allotment for it in res.selected)
        assert res.used_processors <= 6

    @given(
        data=st.lists(
            st.tuples(st.integers(1, 6), st.floats(0.1, 10.0)), min_size=1, max_size=10
        ),
        m=st.integers(1, 12),
    )
    @settings(max_examples=80)
    def test_property_optimal_vs_bruteforce(self, data, m):
        items = [KnapsackItem(i, a, w) for i, (a, w) in enumerate(data)]
        res = knapsack_select(items, m)
        assert res.used_processors <= m
        assert res.total_weight == pytest.approx(brute_force_max_weight(items, m))


class TestKnapsackMinWork:
    def brute(self, work_a, cost_a, work_b, m):
        n = len(work_a)
        best = np.inf
        best_mask = None
        for mask in itertools.product([0, 1], repeat=n):
            cost = sum(cost_a[i] for i in range(n) if mask[i])
            if cost > m:
                continue
            w = sum(work_a[i] if mask[i] else work_b[i] for i in range(n))
            if w < best:
                best, best_mask = w, mask
        return best, best_mask

    def test_simple_forced_choice(self):
        # Task 0 has no option B; task 1 prefers B.
        work_a = np.array([4.0, 9.0])
        cost_a = np.array([2.0, 3.0])
        work_b = np.array([np.inf, 5.0])
        in_a, total = knapsack_min_work(work_a, cost_a, work_b, m=4)
        assert in_a[0] and not in_a[1]
        assert total == pytest.approx(9.0)

    def test_infeasible_when_forced_exceeds_budget(self):
        work_a = np.array([1.0])
        cost_a = np.array([5.0])
        work_b = np.array([np.inf])
        _, total = knapsack_min_work(work_a, cost_a, work_b, m=4)
        assert np.isinf(total)

    def test_budget_constrains_choice(self):
        # Both prefer A (cheaper work) but only one fits.
        work_a = np.array([1.0, 1.0])
        cost_a = np.array([3.0, 3.0])
        work_b = np.array([10.0, 10.0])
        in_a, total = knapsack_min_work(work_a, cost_a, work_b, m=3)
        assert in_a.sum() == 1
        assert total == pytest.approx(11.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            knapsack_min_work(np.ones(2), np.ones(3), np.ones(2), 4)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(0.5, 20.0),  # work_a
                st.integers(1, 5),  # cost_a
                st.floats(0.5, 20.0) | st.just(float("inf")),  # work_b
            ),
            min_size=1,
            max_size=8,
        ),
        m=st.integers(1, 10),
    )
    @settings(max_examples=80)
    def test_property_matches_bruteforce(self, data, m):
        work_a = np.array([d[0] for d in data])
        cost_a = np.array([float(d[1]) for d in data])
        work_b = np.array([d[2] for d in data])
        in_a, total = knapsack_min_work(work_a, cost_a, work_b, m)
        expected, _ = self.brute(work_a, cost_a, work_b, m)
        if np.isinf(expected):
            assert np.isinf(total)
        else:
            assert total == pytest.approx(expected)
            # Returned assignment must realise the returned value.
            realised = float(np.where(in_a, work_a, work_b).sum())
            assert realised == pytest.approx(total)
            assert float(cost_a[in_a].sum()) <= m


class TestReconstructionTieTolerance:
    """Regression for the `best >= total - 1e-12` reconstruction bug.

    With weights closer than the old tolerance, the reconstruction could
    pick a capacity whose optimum is a strictly *lighter* selection than
    the reported total (the tolerance treated 1.0 and 1.0 + 5e-13 as the
    same weight).  The fix compares exactly: `best` is non-decreasing in
    the capacity, so `best[q] >= total` already means equality.
    """

    def test_near_equal_weights_reconstruct_reported_total(self):
        eps = 5e-13
        items = [
            KnapsackItem("light", 1, 1.0),
            KnapsackItem("heavy", 2, 1.0 + eps),  # within the old tolerance
        ]
        res = knapsack_select(items, m=2)
        # The optimum is the heavy item alone; the old code reconstructed
        # at capacity 1 and returned ["light"] with the heavy total.
        assert res.selected_keys == ("heavy",)
        assert res.total_weight == 1.0 + eps
        assert sum(it.weight for it in res.selected) == res.total_weight
        assert res.used_processors == 2

    def test_exact_ties_still_prefer_fewer_processors(self):
        # Genuinely equal weights: the narrow selection must win.
        items = [
            KnapsackItem("narrow", 1, 2.0),
            KnapsackItem("wide", 2, 2.0),
        ]
        res = knapsack_select(items, m=2)
        assert res.selected_keys == ("narrow",)
        assert res.used_processors == 1

    @given(
        base=st.floats(0.5, 10.0),
        eps=st.floats(1e-14, 9e-13),
        m=st.integers(2, 6),
    )
    @settings(max_examples=60)
    def test_property_selection_realises_total(self, base, eps, m):
        """Sub-tolerance weight gaps: the selection always reproduces the
        reported total exactly."""
        items = [
            KnapsackItem("a", 1, base),
            KnapsackItem("b", 2, base + eps),
            KnapsackItem("c", 2, base + 2 * eps),
        ]
        res = knapsack_select(items, m)
        realised = sum(it.weight for it in res.selected)
        assert realised == res.total_weight
        assert res.total_weight == brute_force_max_weight(items, m)


class TestMinWorkValueParity:
    """knapsack_min_work_value must mirror the reconstructing DP exactly."""

    @given(
        data=st.lists(
            st.tuples(
                st.floats(0.5, 20.0),
                st.integers(1, 5),
                st.floats(0.5, 20.0) | st.just(float("inf")),
            ),
            min_size=1,
            max_size=8,
        ),
        m=st.integers(1, 10),
    )
    @settings(max_examples=80)
    def test_value_equals_full_dp(self, data, m):
        from repro.algorithms.knapsack import knapsack_min_work_value

        work_a = np.array([d[0] for d in data])
        cost_a = np.array([float(d[1]) for d in data])
        work_b = np.array([d[2] for d in data])
        _, total = knapsack_min_work(work_a, cost_a, work_b, m)
        value = knapsack_min_work_value(work_a, cost_a, work_b, m)
        assert value == total or (np.isinf(value) and np.isinf(total))


class TestTakeAllShortCircuit:
    """`knapsack_select_indices` skips the DP when everything fits."""

    def test_take_all_when_everything_fits(self):
        idx, total, used = knapsack_select_indices([2, 3, 1], [5.0, 1.0, 2.0], m=6)
        assert idx == [0, 1, 2]
        assert total == 5.0 + 1.0 + 2.0
        assert used == 6

    def test_zero_weight_item_falls_back_to_dp(self):
        # The DP never takes a zero-weight item (strict improvement test);
        # the short-circuit must not change that.
        idx, total, used = knapsack_select_indices([1, 1], [3.0, 0.0], m=5)
        assert idx == [0]
        assert total == 3.0
        assert used == 1

    def test_overfull_still_runs_dp(self):
        idx, total, used = knapsack_select_indices([3, 3], [1.0, 2.0], m=3)
        assert idx == [1]
        assert total == 2.0

    @given(
        data=st.lists(
            st.tuples(st.integers(1, 4), st.floats(0.1, 10.0)), min_size=1, max_size=8
        )
    )
    @settings(max_examples=60)
    def test_matches_dp_exactly_when_fitting(self, data):
        """Same indices, bit-identical total, as a capacity large enough to
        make the short-circuit fire vs one item short of it."""
        allot = [a for a, _ in data]
        weights = [w for _, w in data]
        m = sum(allot)
        fast = knapsack_select_indices(allot, weights, m)
        # Disable the short-circuit by appending a zero-weight item (the
        # guard bails to the DP) that the DP itself never selects.
        slow = knapsack_select_indices(allot + [1], weights + [0.0], m)
        assert fast[0] == slow[0][: len(allot)] and len(slow[0]) == len(allot)
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]


class TestMinWorkValueRejectsBadCosts:
    """The value path checks its inputs like the reconstructing path, on
    every backend.  Each case runs in its own interpreter: a kernel that
    trusts a bad cost can read outside its buffers and kill the process,
    which must fail the test rather than pytest."""

    CASES = {
        "very-negative": "np.array([-1000000, 1, 1])",
        "negative": "np.array([-3, 1, 1])",
        "nan": "np.array([np.nan, 1.0, 1.0])",
        "inf": "np.array([np.inf, 1.0, 1.0])",
        "negative-float": "np.array([-3.0, 1.0, 1.0])",
        "short": "np.array([1, 1])",
    }

    @staticmethod
    def _run(code: str) -> subprocess.CompletedProcess:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )

    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_value_path_raises_value_error(self, backend, case):
        if backend != "numpy" and kernels.load_backend(backend) is None:
            pytest.skip(f"{backend} backend unavailable here")
        proc = self._run(
            "import numpy as np\n"
            "from repro import kernels\n"
            "from repro.algorithms.knapsack import knapsack_min_work_value\n"
            f"kernels.set_backend({backend!r})\n"
            "try:\n"
            "    knapsack_min_work_value(np.array([1.0, 2.0, 3.0]), "
            f"{self.CASES[case]}, np.array([5.0, 5.0, 5.0]), 4)\n"
            "except ValueError:\n"
            "    print('rejected')\n"
            "else:\n"
            "    print('accepted')\n"
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == "rejected"

    @pytest.mark.parametrize("case", ["very-negative", "negative", "short"])
    def test_cffi_core_guards_its_pointers(self, case):
        if kernels.load_backend("cffi") is None:
            pytest.skip("cffi backend unavailable here")
        proc = self._run(
            "import numpy as np\n"
            "from repro.kernels import _cffi\n"
            "try:\n"
            "    _cffi.knapsack_min_work_value_core(np.array([1.0, 2.0, 3.0]), "
            f"{self.CASES[case]}, np.array([5.0, 5.0, 5.0]), 4)\n"
            "except ValueError:\n"
            "    print('rejected')\n"
            "else:\n"
            "    print('accepted')\n"
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == "rejected"

    def test_integer_costs_pass_through(self):
        work_a, work_b = np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0])
        cost = np.array([2, 1, 1], dtype=np.int64)
        assert knapsack_min_work_value(work_a, cost, work_b, 4) == knapsack_min_work(
            work_a, cost.astype(np.float64), work_b, 4
        )[1]
