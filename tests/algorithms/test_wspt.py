"""Tests for the WSPT extra baseline."""

from __future__ import annotations

import pytest

from repro.algorithms.dual_approx import dual_approximation
from repro.algorithms.registry import get_algorithm
from repro.algorithms.wspt import WsptScheduler, schedule_wspt
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import validate_schedule
from repro.workloads.generator import generate_workload


class TestWspt:
    def test_feasible(self):
        inst = generate_workload("mixed", n=25, m=16, seed=91)
        s = schedule_wspt(inst)
        validate_schedule(s, inst)

    def test_registered(self):
        assert get_algorithm("WSPT").name == "WSPT"

    def test_smith_order_on_single_machine(self):
        # One processor: WSPT is provably minsum-optimal.
        tasks = [
            MoldableTask(0, [4.0], weight=1.0),  # w/p = 0.25
            MoldableTask(1, [2.0], weight=4.0),  # w/p = 2.0
            MoldableTask(2, [3.0], weight=3.0),  # w/p = 1.0
        ]
        inst = Instance(tasks, 1)
        s = schedule_wspt(inst)
        # Order: 1, 2, 0.
        assert s[1].start == 0.0
        assert s[2].start == pytest.approx(2.0)
        assert s[0].start == pytest.approx(5.0)

    def test_optimal_on_single_machine_vs_exact(self):
        from repro.bounds.exact import exact_reference

        tasks = [
            MoldableTask(0, [3.0], weight=2.0),
            MoldableTask(1, [5.0], weight=1.0),
            MoldableTask(2, [1.0], weight=4.0),
        ]
        inst = Instance(tasks, 1)
        exact = exact_reference(inst)
        assert schedule_wspt(inst).weighted_completion_sum() == pytest.approx(
            exact.minsum
        )

    def test_shared_dual(self):
        inst = generate_workload("cirne", n=15, m=8, seed=92)
        dual = dual_approximation(inst)
        a = schedule_wspt(inst, dual)
        b = WsptScheduler(dual).schedule(inst)
        assert a.weighted_completion_sum() == b.weighted_completion_sum()

    def test_strong_minsum_baseline(self):
        """WSPT should be at least competitive with the anti-Smith LPTF on
        the minsum criterion (that is its entire point)."""
        from repro.algorithms.list_graham import schedule_list_graham

        inst = generate_workload("highly_parallel", n=60, m=16, seed=93)
        dual = dual_approximation(inst)
        wspt = schedule_wspt(inst, dual).weighted_completion_sum()
        lptf = schedule_list_graham(inst, "lptf", dual).weighted_completion_sum()
        assert wspt <= lptf * 1.01

    def test_overtakes_demt_at_heavy_load(self):
        """On the highly-parallel workload at ``n = 2m`` WSPT's mean minsum
        ratio beats DEMT's (2.01 against 2.43 here; 2.01 against 2.50 at
        the paper's m = 200 with 40 runs)."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_point

        cfg = ExperimentConfig(
            m=48, task_counts=(96,), runs=4, seed=2004, algorithms=("DEMT", "WSPT")
        )
        point = run_point("highly_parallel", 96, cfg)
        wspt = point.for_algorithm("WSPT").minsum.average
        demt = point.for_algorithm("DEMT").minsum.average
        assert wspt < 0.9 * demt

    def test_empty(self):
        assert len(schedule_wspt(Instance([], 4))) == 0
