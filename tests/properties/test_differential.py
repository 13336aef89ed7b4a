"""Differential regression: vectorized core vs seed implementations.

Two layers of pinning:

1. **Old vs new, placement-for-placement** — on a randomized corpus the
   vectorized kernel / profile implementations must produce *bit-for-bit*
   the same schedules as the seed implementations preserved in
   :mod:`repro.algorithms.reference` (same starts, same allotments, same
   insertion order and therefore the same float metric summations).
2. **Golden values** — ``(cmax, minsum)`` of the headline algorithms on a
   frozen corpus, stored at full float precision in
   ``tests/data/golden_schedules.json`` and compared with ``==``.
   Regenerate only intentionally via ``tests/data/make_goldens.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.compaction import list_compaction, pull_forward
from repro.algorithms.demt import DemtScheduler
from repro.algorithms.dual_approx import dual_approximation
from repro.algorithms.list_scheduling import ListItem, list_schedule
from repro.algorithms.reference import (
    ReferenceDemtScheduler,
    reference_dual_approximation,
    reference_list_compaction,
    reference_list_schedule,
    reference_pull_forward,
)
from repro.algorithms.registry import get_algorithm
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload

DIFF_SEED = 0xD1FF
FAMILIES = ("weakly_parallel", "highly_parallel", "mixed", "cirne")
DIFF_CASES = [
    (kind, n, m, r)
    for kind in FAMILIES
    for (n, m) in ((8, 2), (25, 13), (60, 100), (90, 13))
    for r in range(2)
]


def _same_schedule(a, b) -> None:
    """Bit-for-bit equality of two schedules (placements and metrics)."""
    assert a.m == b.m
    assert a.task_ids() == b.task_ids()
    for pa in a:
        pb = b[pa.task.task_id]
        assert pa.start == pb.start, pa.task.task_id
        assert pa.allotment == pb.allotment, pa.task.task_id
    # Same placement (insertion) order => identical float summations.
    assert [p.task.task_id for p in a] == [p.task.task_id for p in b]
    assert a.makespan() == b.makespan()
    assert a.weighted_completion_sum() == b.weighted_completion_sum()


@pytest.mark.parametrize(
    "kind,n,m,r", DIFF_CASES, ids=[f"{k}-n{n}-m{m}-r{r}" for k, n, m, r in DIFF_CASES]
)
class TestOldVsNew:
    def _instance(self, kind, n, m, r):
        return generate_workload(
            kind, n=n, m=m, seed=derive_rng(DIFF_SEED, kind, n, m, r)
        )

    def test_demt_end_to_end_identical(self, kind, n, m, r):
        """The full pipeline: seed dual + selection + compaction + shuffle
        vs the vectorized everything."""
        inst = self._instance(kind, n, m, r)
        _same_schedule(
            ReferenceDemtScheduler().schedule(inst), DemtScheduler().schedule(inst)
        )

    def test_dual_approximation_identical(self, kind, n, m, r):
        inst = self._instance(kind, n, m, r)
        old = reference_dual_approximation(inst)
        new = dual_approximation(inst)
        assert old.lam == new.lam
        assert old.lower_bound == new.lower_bound
        assert old.allotments == new.allotments
        assert old.big_shelf == new.big_shelf
        _same_schedule(old.schedule, new.schedule)

    def test_list_schedule_identical(self, kind, n, m, r):
        """The Graham kernel vs the seed pending-list rescan, on the
        List-Graham item lists (dual-approximation allotments)."""
        inst = self._instance(kind, n, m, r)
        dual = dual_approximation(inst)
        items = [ListItem(t, dual.allotments[t.task_id]) for t in inst.tasks]
        rows = np.arange(inst.n)
        allot, _ = dual.row_allotments(inst)
        durations = inst.times_matrix[rows, allot - 1]
        _same_schedule(
            reference_list_schedule(items, m), list_schedule(inst, rows, allot, durations)
        )

    def test_compaction_identical(self, kind, n, m, r):
        """pull_forward (FreeProfile) and list_compaction (kernel) vs the
        seed's quadratic rescans, on real DEMT batches."""
        inst = self._instance(kind, n, m, r)
        result = DemtScheduler().schedule_detailed(inst)
        batches = result.batches
        _same_schedule(
            reference_pull_forward(batches, m), pull_forward(result.table)
        )
        _same_schedule(
            reference_list_compaction(batches, m), list_compaction(result.table)
        )


class TestGoldenSchedules:
    """Frozen-corpus (cmax, minsum) pinned bit-for-bit."""

    GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_schedules.json"

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(self.GOLDEN_PATH.read_text())

    def test_corpus_shape(self, golden):
        cells = golden["cells"]
        assert len(cells) == 72
        assert {c["algorithm"] for c in cells} == {
            "DEMT", "List Scheduling", "LPTF", "SAF", "FCFS", "FCFS+EASY",
        }

    def test_golden_values_reproduce_exactly(self, golden):
        seed = golden["_meta"]["seed"]
        instances: dict[tuple, object] = {}
        mismatches = []
        for cell in golden["cells"]:
            key = (cell["kind"], cell["n"], cell["m"])
            if key not in instances:
                instances[key] = generate_workload(
                    cell["kind"],
                    n=cell["n"],
                    m=cell["m"],
                    seed=derive_rng(seed, *key),
                )
            sched = get_algorithm(cell["algorithm"]).schedule(instances[key])
            if (
                sched.makespan() != cell["cmax"]
                or sched.weighted_completion_sum() != cell["minsum"]
            ):
                mismatches.append(
                    (key, cell["algorithm"],
                     (sched.makespan(), cell["cmax"]),
                     (sched.weighted_completion_sum(), cell["minsum"]))
                )
        assert not mismatches, mismatches
