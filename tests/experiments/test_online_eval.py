"""Tests for the on-line evaluation sweep."""

from __future__ import annotations

import pytest

from repro.algorithms.demt import schedule_demt
from repro.experiments.online_eval import (
    OnlineEvalPoint,
    evaluate_online,
    format_online_table,
)


@pytest.fixture(scope="module")
def points():
    return evaluate_online(
        schedule_demt, kind="cirne", n=15, m=8, runs=2, fractions=(0.0, 0.5, 1.0)
    )


class TestEvaluateOnline:
    def test_offline_limit_is_exact(self, points):
        p0 = points[0]
        assert p0.horizon_fraction == 0.0
        assert p0.mean_ratio == pytest.approx(1.0)
        assert p0.mean_batches == 1.0

    def test_ratios_at_least_one(self, points):
        assert all(p.mean_ratio >= 1.0 - 1e-9 for p in points)

    def test_batches_increase_with_horizon(self, points):
        assert points[-1].mean_batches >= points[0].mean_batches

    @pytest.mark.parametrize(
        "kwargs,bound",
        [
            (dict(kind="cirne", n=15, m=8, runs=2, fractions=(0.0, 0.5, 1.0)), 3.0),
            (dict(n=20, m=8, runs=2), 2.5),  # the default fractions
        ],
    )
    def test_envelope(self, kwargs, bound):
        # §2.2: arrivals within the off-line makespan keep the on-line
        # schedule within ~2x (generous slack for tiny instances).
        points = evaluate_online(schedule_demt, **kwargs)
        by_fraction = {p.horizon_fraction: p for p in points}
        assert by_fraction[1.0].max_ratio < bound

    def test_point_validation(self):
        with pytest.raises(ValueError):
            OnlineEvalPoint(0.5, mean_ratio=2.0, max_ratio=1.0, mean_batches=2.0)

    def test_table_renders(self, points):
        out = format_online_table(points)
        assert "horizon" in out and "batches" in out

    def test_deterministic(self):
        a = evaluate_online(schedule_demt, n=10, m=4, runs=2, fractions=(0.5,), seed=3)
        b = evaluate_online(schedule_demt, n=10, m=4, runs=2, fractions=(0.5,), seed=3)
        assert a[0].mean_ratio == b[0].mean_ratio
