"""Fast, always-run checks of the paper's §4.2 headline claims.

The benchmarks verify these at paper scale; this suite pins the same
qualitative shapes at a small, seconds-scale configuration so a regression
cannot hide behind the bench being skipped.  Scales chosen such that every
assertion held with margin at both this scale and the m=200 paper scale
(``python -m repro.experiments.cli --figure N --scale paper`` prints the
measured values of Figure N, N = 3-6).
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point

CFG = ExperimentConfig(m=48, task_counts=(96,), runs=4, seed=2004)


@pytest.fixture(scope="module")
def points():
    return {
        kind: run_point(kind, 96, CFG)
        for kind in ("weakly_parallel", "highly_parallel", "mixed", "cirne")
    }


class TestHeadlineClaims:
    def test_demt_minsum_ratio_bounded(self, points):
        """'the performance ratio for the minsum criterion is never more
        than 2.5, and is on average around 2' (±tightened bounds)."""
        for kind, p in points.items():
            demt = p.for_algorithm("DEMT")
            assert demt.minsum.average < 3.0, kind

    def test_demt_cmax_ratio_bounded(self, points):
        """'The performance ratio for the makespan is almost always below
        2, and is 1.9 on average.'"""
        for kind, p in points.items():
            demt = p.for_algorithm("DEMT")
            assert demt.cmax.average < 2.3, kind

    def test_demt_best_on_cirne_minsum(self, points):
        """Figure 6: 'our algorithm clearly outperforms the other ones for
        the minsum criterion' on the realistic workload."""
        p = points["cirne"]
        demt = p.for_algorithm("DEMT").minsum.average
        for name in ("Gang", "Sequential", "List Scheduling", "SAF", "LPTF"):
            assert demt < p.for_algorithm(name).minsum.average, name

    def test_weakly_parallel_is_demts_worst_case(self, points):
        """Figure 3: DEMT spends resources on parallelising tasks that do
        not benefit — its minsum ratio is at its worst there."""
        weakly = points["weakly_parallel"].for_algorithm("DEMT").minsum.average
        cirne = points["cirne"].for_algorithm("DEMT").minsum.average
        assert weakly > cirne

    def test_gang_collapses_on_weakly_parallel(self, points):
        """Figure 3: 'Gang always has a very big ratio in this case.'"""
        p = points["weakly_parallel"]
        gang = p.for_algorithm("Gang")
        demt = p.for_algorithm("DEMT")
        assert gang.cmax.average > 2.0 * demt.cmax.average
        assert gang.minsum.average > 2.0 * demt.minsum.average

    def test_list_allotments_keep_cmax_below_two(self, points):
        """'the allotment computed for list algorithms is quite good, as
        Cmax performance ratio of these algorithms is always smaller
        than 2.'"""
        for kind, p in points.items():
            for name in ("List Scheduling", "SAF", "LPTF"):
                assert p.for_algorithm(name).cmax.average < 2.0, (kind, name)

    def test_saf_better_than_demt_on_mixed(self, points):
        """Figure 5: 'however SAF is better than our algorithm.'"""
        p = points["mixed"]
        assert (
            p.for_algorithm("SAF").minsum.average
            < p.for_algorithm("DEMT").minsum.average
        )

    def test_demt_more_parallel_is_better(self, points):
        """'our algorithm performs better when tasks are more parallel.'"""
        weakly = points["weakly_parallel"].for_algorithm("DEMT").minsum.average
        highly = points["highly_parallel"].for_algorithm("DEMT").minsum.average
        assert highly <= weakly + 0.3  # equal-ish or better, never much worse

    def test_lower_bounds_never_beaten(self, points):
        for p in points.values():
            for s in p.stats:
                assert s.cmax.minimum >= 1.0 - 1e-9
                assert s.minsum.minimum >= 1.0 - 1e-9
