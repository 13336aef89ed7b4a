"""Smoke + shape tests for the ablation studies, and the direction of
each design choice at a moderate scale."""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.ablation import (
    ABLATIONS,
    ablate_compaction,
    ablate_merge,
    ablate_selection,
    ablate_shuffle,
)

TINY = dict(kind="cirne", n=20, m=8, runs=2, seed=3)
#: Large enough that the ratios average over a few hundred batches; the
#: four drivers take about 0.1 s each.
MODERATE = dict(kind="cirne", n=100, m=64, runs=4, seed=17)


class TestAblations:
    def test_registry(self):
        assert set(ABLATIONS) == {"selection", "merge", "compaction", "shuffle"}

    def test_selection_variants(self):
        res = ablate_selection(**TINY)
        assert set(res) == {"knapsack", "greedy"}
        for minsum_r, cmax_r in res.values():
            assert minsum_r >= 1.0 - 1e-9 and cmax_r >= 1.0 - 1e-9

    def test_merge_variants(self):
        res = ablate_merge(**TINY)
        assert set(res) == {"merge_on", "merge_off"}

    def test_compaction_ladder_ordering(self):
        res = ablate_compaction(**TINY)
        assert set(res) == {"shelf", "pull_forward", "list"}
        # The ladder §3.2 describes: each refinement at least as good on
        # minsum in aggregate.
        assert res["list"][0] <= res["shelf"][0] + 1e-9
        assert res["pull_forward"][0] <= res["shelf"][0] + 1e-9

    def test_shuffle_never_hurts(self):
        res = ablate_shuffle(**TINY)
        assert res["shuffle_20"][0] <= res["shuffle_0"][0] + 1e-9

    def test_all_drivers_run(self):
        for driver in ABLATIONS.values():
            out = driver(**TINY)
            assert out and all(len(v) == 2 for v in out.values())

    def test_runs_as_an_engine_cell_family(self):
        """One ``cells:ablation`` span and the engine's counters: every
        variant of every run measured once."""
        obs.enable(fresh=True)
        try:
            ablate_merge(**TINY)
        finally:
            state = obs.disable()
        assert "cells:ablation" in {span.name for span in state.spans}
        assert state.counters["cells.measured"] == 2 * TINY["runs"]


class TestDesignChoiceDirections:
    """Each of DEMT's design choices helps, or at least does not hurt, the
    criterion it was made for.  Every driver returns ``{variant: (minsum
    ratio, cmax ratio)}``."""

    def test_knapsack_selection_does_not_lose_to_greedy(self):
        """The exact knapsack never loses weight to greedy filling; the
        realised minsum advantage can be small but must not invert
        grossly."""
        res = ablate_selection(**MODERATE)
        assert res["knapsack"][0] <= res["greedy"][0] * 1.1

    def test_merging_small_tasks_does_not_hurt(self):
        res = ablate_merge(**MODERATE)
        assert res["merge_on"][0] <= res["merge_off"][0] * 1.1

    def test_list_compaction_beats_shelves_on_both_criteria(self):
        res = ablate_compaction(**MODERATE)
        assert res["list"][0] <= res["shelf"][0] + 1e-9
        assert res["list"][1] <= res["shelf"][1] + 1e-9

    def test_shuffling_never_hurts(self):
        """Shuffling keeps the best candidate, the unshuffled one included."""
        res = ablate_shuffle(**MODERATE)
        assert res["shuffle_20"][0] <= res["shuffle_0"][0] + 1e-9
