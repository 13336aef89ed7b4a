"""Scenario tests for the small-task merge (§3.2).

What the merge actually does: it converts short sequential tasks into
allotment-1 stacks so a batch's knapsack can pack *more total weight* into
its ``m``-processor budget.  The flip side is that stack members run
back-to-back on one processor instead of side by side, so the merge is
not automatically a minsum win — our measurements (here and ablation A2,
``python -m repro.experiments.cli --ablation merge``) find it roughly
neutral on the minsum criterion, within a few percent either way.  These tests pin the *mechanism* (stacks are
formed and used, the weight-per-batch capacity grows, heavy short jobs
finish early) and bound the downside, rather than asserting a superiority
the data does not support.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.demt import DemtScheduler
from repro.core.instance import Instance
from repro.core.task import MoldableTask, sequential_task
from repro.core.validation import validate_schedule


def merge_friendly_instance(seed: int = 0, m: int = 8) -> Instance:
    """Dozens of short heavy sequential jobs + a few wide long ones."""
    rng = np.random.default_rng(seed)
    tasks: list[MoldableTask] = []
    tid = 0
    for _ in range(40):  # short, heavy, sequential
        tasks.append(
            sequential_task(tid, float(rng.uniform(0.2, 0.8)), weight=9.0, m=m)
        )
        tid += 1
    for _ in range(6):  # long, light, highly parallel
        seq = float(rng.uniform(20.0, 30.0))
        tasks.append(
            MoldableTask(tid, seq / np.arange(1, m + 1) ** 0.9, weight=1.0)
        )
        tid += 1
    return Instance(tasks, m)


class TestMergeMechanism:
    def test_merged_stacks_actually_used(self):
        inst = merge_friendly_instance(1)
        res = DemtScheduler(shuffle_rounds=0).schedule_detailed(inst)
        stacked = [it for b in res.batches for it in b if len(it.stack) > 1]
        assert stacked, "expected multi-task stacks in the merge-friendly regime"

    def test_merge_packs_more_weight_into_early_batches(self):
        """The published rationale: 'in order to have as much weight as
        possible' per batch."""
        inst = merge_friendly_instance(3)

        def early_weight(scheduler: DemtScheduler) -> float:
            res = scheduler.schedule_detailed(inst)
            first = res.batches[0]
            return sum(
                t.weight for it in first for t in (it.stack or (it.task,))
            )

        merged = early_weight(DemtScheduler(shuffle_rounds=0))
        unmerged = early_weight(
            DemtScheduler(shuffle_rounds=0, small_threshold_factor=1e-12)
        )
        assert merged >= unmerged

    def test_merge_roughly_neutral_on_minsum(self):
        """Within a few percent of the unmerged variant, both directions."""
        gains = []
        for seed in range(5):
            inst = merge_friendly_instance(seed)
            with_merge = DemtScheduler(shuffle_rounds=0).schedule(inst)
            without = DemtScheduler(
                shuffle_rounds=0, small_threshold_factor=1e-12
            ).schedule(inst)
            validate_schedule(with_merge, inst)
            validate_schedule(without, inst)
            gains.append(
                without.weighted_completion_sum()
                / with_merge.weighted_completion_sum()
            )
        assert 0.9 <= float(np.mean(gains)) <= 1.1

    def test_heavy_short_jobs_finish_early_with_merge(self):
        inst = merge_friendly_instance(2)
        sched = DemtScheduler(shuffle_rounds=0).schedule(inst)
        heavy_ends = [p.end for p in sched if p.task.weight == 9.0]
        light_ends = [p.end for p in sched if p.task.weight == 1.0]
        # The weighted mass (short heavy jobs) completes before the long
        # light tail on average.
        assert np.median(heavy_ends) < np.median(light_ends)
