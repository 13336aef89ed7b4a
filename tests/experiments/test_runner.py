"""Unit tests for the campaign runner."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CampaignResult,
    run_campaign,
    run_cells,
    run_pareto_cells,
    run_point,
)

TINY = ExperimentConfig(m=8, task_counts=(6, 12), runs=2, seed=99)


@pytest.fixture(scope="module")
def point():
    return run_point("cirne", 6, TINY, validate=True)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign("mixed", TINY, validate=True)


class TestRunPoint:
    def test_all_algorithms_present(self, point):
        assert {s.algorithm for s in point.stats} == set(TINY.algorithms)

    def test_bounds_per_run(self, point):
        assert len(point.cmax_bounds) == TINY.runs
        assert len(point.minsum_bounds) == TINY.runs
        assert all(b > 0 for b in point.cmax_bounds)
        assert all(b > 0 for b in point.minsum_bounds)

    def test_ratios_at_least_one_minus_eps(self, point):
        """Lower bounds are genuine: no algorithm can beat them."""
        for s in point.stats:
            assert s.cmax.minimum >= 1.0 - 1e-9
            assert s.minsum.minimum >= 1.0 - 1e-9

    def test_lookup(self, point):
        assert point.for_algorithm("DEMT").algorithm == "DEMT"
        with pytest.raises(KeyError):
            point.for_algorithm("Nope")

    def test_timing_recorded(self, point):
        assert all(s.mean_seconds >= 0 for s in point.stats)

    def test_deterministic_given_seed(self):
        a = run_point("cirne", 6, TINY)
        b = run_point("cirne", 6, TINY)
        for sa, sb in zip(a.stats, b.stats):
            assert sa.cmax.average == sb.cmax.average
            assert sa.minsum.average == sb.minsum.average

    def test_different_seed_differs(self):
        a = run_point("cirne", 6, TINY)
        b = run_point("cirne", 6, TINY.scaled(seed=100))
        assert any(
            sa.minsum.average != sb.minsum.average
            for sa, sb in zip(a.stats, b.stats)
        )


class TestRunCampaign:
    def test_points_cover_task_counts(self, campaign):
        assert tuple(p.n for p in campaign.points) == TINY.task_counts

    def test_series_extraction(self, campaign):
        series = campaign.series("DEMT", "minsum")
        assert [n for n, _ in series] == list(TINY.task_counts)
        series_cmax = campaign.series("DEMT", "cmax")
        assert len(series_cmax) == len(TINY.task_counts)

    def test_series_bad_criterion(self, campaign):
        with pytest.raises(ValueError):
            campaign.series("DEMT", "throughput")

    def test_workload_recorded(self, campaign):
        assert campaign.workload == "mixed"
        assert campaign.config == TINY


class TestSharedMeasurement:
    def test_figure_and_pareto_workers_measure_alike(self):
        """Both workers run ``_measure_cell``: a plain variant spec on the
        seeded cell gets the figure worker's bounds and numbers, the list
        baseline (which reuses the shared dual) included."""
        cells = [("mixed", 8, r) for r in range(2)]
        names = ("DEMT", "SAF")
        figure = run_cells(cells, TINY.scaled(algorithms=names), validate=True)
        pareto = run_pareto_cells(
            cells, list(names), seed=TINY.seed, m=TINY.m, validate=True
        )
        for cell in cells:
            (fb, frec), (pb, prec) = figure[cell], pareto[cell]
            assert (fb.cmax_lb, fb.minsum_lb) == (pb.cmax_lb, pb.minsum_lb)
            for name in names:
                assert (frec[name].cmax, frec[name].minsum) == (
                    prec[name].cmax, prec[name].minsum,
                )
                assert frec[name].validated and prec[name].validated
