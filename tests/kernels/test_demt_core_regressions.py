"""Regression pins for the latent DEMT-core bugs fixed alongside the
kernel layer: the extension-batch doubling overflow, the quadratic
knapsack keep matrix, and the hardcoded epsilon guard bands of the dual
approximation; plus the dual's one-λ probe against its full check."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.algorithms import dual_approx
from repro.algorithms.demt import DemtScheduler
from repro.algorithms.dual_approx import dual_approximation, feasibility_check
from repro.algorithms.knapsack import knapsack_select_indices
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import TIME_EPS
from repro.workloads.generator import generate_workload


# --------------------------------------------------------------------- #
# Extension-batch overflow (demt._select_batches)                       #
# --------------------------------------------------------------------- #
class TestExtensionDoublingOverflow:
    def test_huge_durations_on_narrow_machine_stay_finite(self):
        """50 rigid width-2 jobs of duration 1e305 on m=2: every batch
        holds one job, so selection runs ~44 doubling rounds past the
        nominal grid.  The old ``t_grid[-1] * 2.0 ** k`` extension
        overflowed to ``inf`` after 5 rounds (t_grid[-1] is ~1e307 here),
        poisoning the shelf starts; the ldexp clamp saturates at the
        largest *finite* doubling instead."""
        n = 50
        times = np.array([np.inf, 1e305])
        inst = Instance(
            [MoldableTask(i, times, weight=1.0) for i in range(n)], m=2
        )
        sched = DemtScheduler(shuffle_rounds=0, compaction="shelf").schedule(inst)
        assert len(sched.placements) == n
        assert all(math.isfinite(p.start) for p in sched.placements)
        assert math.isfinite(sched.makespan())

    def test_moderate_scale_unchanged_by_clamp(self):
        """Where the old form never overflowed the clamp is a no-op:
        ``ldexp(t, k)`` is exactly ``t * 2.0**k`` for finite products."""
        t = 3.7e12
        for k in range(60):
            assert math.ldexp(t, k) == t * 2.0**k


# --------------------------------------------------------------------- #
# Knapsack keep-matrix memory (kernels._numpy)                          #
# --------------------------------------------------------------------- #
class TestKnapsackMemory:
    def test_select_transient_memory_stays_packed(self):
        """At n=20k, m=64 the old fresh ``n x (m+1)`` bool keep matrix
        alone was ~1.3 MB per call; the bit-packed chunked scratch keeps
        the whole call under half of that."""
        kernels.set_backend("numpy")
        n, m = 20_000, 64
        rng = np.random.default_rng(0)
        allot = rng.integers(1, m + 1, size=n).astype(np.int64)
        weights = rng.uniform(0.1, 10.0, size=n)

        tracemalloc.start()
        try:
            chosen, total, used = knapsack_select_indices(allot, weights, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert 0 < used <= m
        assert total > 0.0
        assert chosen == sorted(chosen)
        assert peak < 800_000, f"knapsack transient peak {peak} bytes"


# --------------------------------------------------------------------- #
# Epsilon guard bands (dual_approx)                                     #
# --------------------------------------------------------------------- #
class TestGuardBands:
    def test_constants_derive_from_time_eps(self):
        # `TIME_EPS / 1000.0` is exactly 1e-12 (the old literal); the
        # `TIME_EPS * 1e-3` spelling is NOT and would shift decisions.
        assert dual_approx._BUDGET_EPS == TIME_EPS / 1000.0
        assert dual_approx._BUDGET_EPS == 1e-12
        assert dual_approx._SUM_GUARD == TIME_EPS
        assert dual_approx._SUM_GUARD == 1e-9

    @staticmethod
    def _three_sequential(p: float) -> Instance:
        return Instance(
            [MoldableTask(i, np.array([p]), weight=1.0) for i in range(3)], m=1
        )

    def test_work_inside_budget_band_is_feasible(self):
        # Three sequential jobs whose fold-left work sum lands a few ulps
        # above m*lam = 1.0 — inside the relative guard band.
        p = math.nextafter(math.nextafter(1.0 / 3.0, 1.0), 1.0)
        total = ((0.0 + p) + p) + p
        assert 1.0 < total <= 1.0 + dual_approx._BUDGET_EPS
        feasible, in_big, allot = feasibility_check(self._three_sequential(p), 1.0)
        assert feasible
        assert allot.tolist() == [1, 1, 1]

    def test_work_beyond_budget_band_is_infeasible(self):
        p = (1.0 + 1e-9) / 3.0
        total = ((0.0 + p) + p) + p
        assert total > 1.0 * (1.0 + dual_approx._BUDGET_EPS)
        feasible, _, _ = feasibility_check(self._three_sequential(p), 1.0)
        assert not feasible


# --------------------------------------------------------------------- #
# One-λ probes == the full check                                        #
# --------------------------------------------------------------------- #
class TestProbes:
    @pytest.mark.parametrize("backend", kernels.available_backend_names())
    @pytest.mark.parametrize("kind", ["mixed", "highly_parallel", "sequential_only"])
    def test_probe_matches_full_check(self, kind, backend):
        kernels.set_backend(backend)
        inst = generate_workload(kind, n=16, m=6, seed=4)
        res = dual_approximation(inst)
        lams = [
            res.lam * f
            for f in (0.25, 0.5, 0.9, 0.999999, 1.0, 1.000001, 1.5, 4.0)
        ]
        # A probe returns its sweep when it accepts, None when it rejects;
        # the shelves rebuilt from an accepted sweep are the full check's.
        sweeps = [dual_approx._probe(inst, lam) for lam in lams]
        probed = [sweep is not None for sweep in sweeps]
        full = [feasibility_check(inst, lam) for lam in lams]
        assert probed == [ok for ok, _, _ in full]
        for lam, sweep, (ok, in_big, allot) in zip(lams, sweeps, full):
            if ok:
                rebuilt = dual_approx._shelves(inst.m, lam, *sweep)
                assert rebuilt[0]
                assert rebuilt[1].tobytes() == in_big.tobytes()
                assert rebuilt[2].tobytes() == allot.tobytes()
        # The accepted guess itself is feasible, the certified bound not
        # (unless the search accepted the closed-form floor).
        assert probed[lams.index(res.lam)]
        assert res.lam == res.lower_bound or dual_approx._probe(inst, res.lower_bound) is None
