"""Fast, always-run checks of the paper's §4.2 headline claims.

Two configurations pin the qualitative shapes.  One point per workload
at m=48 checks the cross-workload claims; each held with margin there
and at the m=200 paper scale (``python -m repro.experiments.cli --figure
N --scale paper`` prints the measured values of Figure N, N = 3-6).
Figures 3-6 at the ``quick`` scale check each figure's curves from its
first point to its last; ``--scale quick`` prints the values they see.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.figures import figure3, figure4, figure5, figure6
from repro.experiments.runner import run_point

CFG = ExperimentConfig(m=48, task_counts=(96,), runs=4, seed=2004)


@pytest.fixture(scope="module")
def points():
    return {
        kind: run_point(kind, 96, CFG)
        for kind in ("weakly_parallel", "highly_parallel", "mixed", "cirne")
    }


@pytest.fixture(scope="module")
def figures():
    """Figures 3-6 at the ``quick`` scale: m=64, n from 25 to 200."""
    quick = SCALES["quick"]
    return {3: figure3(quick), 4: figure4(quick), 5: figure5(quick), 6: figure6(quick)}


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


def _minsum(point, name):
    return point.for_algorithm(name).minsum.average


def _cmax(point, name):
    return point.for_algorithm(name).cmax.average


class TestFigureCurves:
    def test_figure3_weakly_parallel(self, figures):
        """Weakly parallel tasks are DEMT's worst case, yet its makespan
        stays controlled while Gang collapses."""
        result = figures[3]
        for point in result.points:
            for s in point.stats:
                assert s.cmax.minimum >= 1.0 - 1e-9
                assert s.minsum.minimum >= 1.0 - 1e-9
        last = result.points[-1]
        assert _cmax(last, "DEMT") < 2.5
        assert _cmax(last, "Gang") > 2.0 * _cmax(last, "DEMT")
        assert _minsum(last, "Gang") > _minsum(last, "DEMT")

    def test_figure4_highly_parallel(self, figures):
        """'On the minsum criterion, our algorithm is clearly the best one.
        Gang and sequential have opposite behavior ...  Cmax performance
        ratio of [the list] algorithms is always smaller than 2.'"""
        first, last = figures[4].points[0], figures[4].points[-1]
        # At light load DEMT leads everyone.
        for name in ("Gang", "Sequential", "List Scheduling", "LPTF", "SAF"):
            assert _minsum(first, "DEMT") <= 1.1 * _minsum(first, name), name
        # At the heaviest load SAF stays within 30% of DEMT: one deviation
        # from the published figure, where DEMT also edges SAF.
        for name in ("Gang", "Sequential", "List Scheduling", "LPTF"):
            assert _minsum(last, "DEMT") <= 1.1 * _minsum(last, name), name
        assert _minsum(last, "DEMT") <= 1.3 * _minsum(last, "SAF")
        for name in ("List Scheduling", "LPTF", "SAF"):
            assert _cmax(last, name) < 2.0, name
        # Gang degrades with n on minsum, or Sequential improves.
        gang_trend = _minsum(last, "Gang") - _minsum(first, "Gang")
        seq_trend = _minsum(last, "Sequential") - _minsum(first, "Sequential")
        assert gang_trend > 0 or seq_trend < 0

    def test_figure5_mixed(self, figures):
        """'our algorithm is still quite stable with a performance ratio of
        around 2 for both criterion ...  The ratio of the two other list
        algorithms greatly increase with the number of tasks.'"""
        first, last = figures[5].points[0], figures[5].points[-1]
        demt_growth = _minsum(last, "DEMT") - _minsum(first, "DEMT")
        assert abs(demt_growth) < 1.0
        assert _minsum(last, "DEMT") < 3.0
        assert _cmax(last, "DEMT") < 2.5
        ls_growth = _minsum(last, "List Scheduling") - _minsum(first, "List Scheduling")
        assert ls_growth > demt_growth - 0.5

    def test_figure6_cirne(self, figures):
        """'our algorithm clearly outperforms the other ones for the minsum
        criterion, and is also the only one to keep a stable ratio for any
        number of tasks.'"""
        points = figures[6].points
        for name in ("Gang", "Sequential", "List Scheduling", "LPTF", "SAF"):
            assert _minsum(points[-1], "DEMT") <= 1.15 * _minsum(points[-1], name), name
        assert max(_minsum(p, "DEMT") for p in points) < 2.8
        assert max(_cmax(p, "DEMT") for p in points) < 2.2
