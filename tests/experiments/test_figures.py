"""Smoke tests for the per-figure drivers (tiny scale)."""

from __future__ import annotations

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.figures import (
    FIGURE7_WORKLOADS,
    FIGURES,
    figure3,
    figure7,
)

TINY = ExperimentConfig(m=8, task_counts=(5, 10), runs=2, seed=77)


class TestFigureDrivers:
    def test_registry_complete(self):
        assert set(FIGURES) == {"3", "4", "5", "6", "7"}

    @pytest.mark.parametrize(
        "fig_id,workload",
        [("3", "weakly_parallel"), ("4", "highly_parallel"), ("5", "mixed"), ("6", "cirne")],
    )
    def test_campaign_figures_use_right_workload(self, fig_id, workload):
        res = FIGURES[fig_id](TINY)
        assert res.workload == workload
        assert len(res.points) == 2

    def test_figure3_default_scale_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        res = figure3()
        assert res.config.m == 16  # the smoke preset

    @pytest.mark.parametrize(
        "cfg,repeats,bound", [(TINY, 1, 60.0), (SCALES["smoke"], 3, 30.0)]
    )
    def test_figure7_timings(self, cfg, repeats, bound):
        res = figure7(cfg, repeats=repeats)
        assert set(res.timings) == set(FIGURE7_WORKLOADS)
        for series in res.timings.values():
            assert [n for n, _ in series] == list(cfg.task_counts)
            assert all(t >= 0 for _, t in series)
        assert res.max_seconds() < bound  # sanity: scheduling is fast
