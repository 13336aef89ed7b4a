"""Ablation studies of DEMT's design choices (A1-A4).

The paper motivates each ingredient qualitatively; these drivers quantify
them on the paper's workloads:

* **A1 — batch selection**: exact knapsack vs a greedy by decreasing
  weight density (what §3.2's "smart selection" buys);
* **A2 — small-task merging**: merge on vs off;
* **A3 — compaction ladder**: naive shelves vs pull-forward vs full list
  compaction (the paper's three refinement steps);
* **A4 — shuffle rounds**: 0 / few / many batch-order shuffles.

Each driver returns ``{variant_name: (mean minsum ratio, mean cmax
ratio)}`` over a handful of seeded instances, where ratios are against the
standard lower bounds; ``repro-experiments --ablation NAME`` prints them.

The instances are one cell family, :class:`AblationCellFamily`, on
:func:`~repro.experiments.engine.execute_cells`, so the ablations share
the engine's backends, cache and observability with every other campaign.
Variants are picklable scheduler *factories* (classes or
:func:`functools.partial` of classes), so
``ablate_shuffle(backend="process")`` measures each seeded instance in its
own worker with numbers identical to the serial backend.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.algorithms.demt import DemtScheduler
from repro.experiments.aggregate import ratio_of_sums
from repro.experiments.engine import CellKey, execute_cells
from repro.experiments.runner import CampaignCellFamily, _measure_cell

__all__ = [
    "AblationCellFamily",
    "ablate_selection",
    "ablate_merge",
    "ablate_compaction",
    "ablate_shuffle",
    "ABLATIONS",
]


def _ablation_cell(args: tuple):
    """Worker: one seeded instance under the missing variants.

    ``args`` is the campaign worker's tuple plus ``{variant: factory}``
    for the variants to measure.
    """
    *cell, factories = args
    return _measure_cell(cell, lambda name: factories[name]())


class AblationCellFamily(CampaignCellFamily):
    """The ablation family: the campaign's ``(kind, n, r)`` cells and
    standard bounds key, each variant built by its factory and cached
    under ``ablate:<variant>``."""

    name = "ablation"
    worker = staticmethod(_ablation_cell)

    def __init__(
        self, seed: int, m: int, variants: dict[str, Callable[[], object]]
    ) -> None:
        super().__init__(seed, m)
        self.variants = variants

    def record_key(self, cell, name: str) -> CellKey:
        kind, n, r = cell
        return CellKey(self.seed, kind, n, self.m, r, f"ablate:{name}")

    def make_task(self, cell, names, validate, need_bounds) -> tuple:
        factories = {name: self.variants[name] for name in names}
        return super().make_task(cell, names, validate, need_bounds) + (factories,)


def _evaluate_variants(
    variants: dict[str, Callable[[], object]],
    *,
    kind: str = "cirne",
    n: int = 100,
    m: int = 64,
    runs: int = 5,
    seed: int = 7,
    backend: object = None,
    jobs: int | None = None,
    cache: object = None,
) -> dict[str, tuple[float, float]]:
    """Run each variant over shared instances; aggregate both ratios.

    With a ``cache`` (a :class:`~repro.experiments.engine.CellCache` or a
    directory path), measured variants are memoised under the cell key
    ``(seed, kind, n, m, r, "ablate:<variant>")`` and the per-instance
    bounds under the standard bounds key — the latter is *shared* with the
    campaign runner, since both derive the instance from
    ``derive_rng(seed, kind, n, r)`` and compute the same two bounds.
    """
    cells = [(kind, n, r) for r in range(runs)]
    outcomes = execute_cells(
        AblationCellFamily(seed, m, variants),
        cells,
        tuple(variants),
        backend=backend,
        jobs=jobs,
        cache=cache,
    )
    cmax_lbs = [outcomes[cell].bounds.cmax_lb for cell in cells]
    minsum_lbs = [outcomes[cell].bounds.minsum_lb for cell in cells]
    return {
        name: (
            ratio_of_sums([outcomes[c].records[name].minsum for c in cells], minsum_lbs),
            ratio_of_sums([outcomes[c].records[name].cmax for c in cells], cmax_lbs),
        )
        for name in variants
    }


class _GreedySelectionDemt(DemtScheduler):
    """DEMT with the knapsack swapped for first-fit by weight density."""

    def _choose(self, allotments, weights, lead_ids, m):
        # Greedy: highest weight per processor first (ties by the item's
        # first task id), first-fit into m.
        order = np.lexsort((lead_ids, -(weights / allotments)))
        chosen, used = [], 0
        for i, a in zip(order.tolist(), allotments[order].tolist()):
            if used + a <= m:
                chosen.append(i)
                used += a
        return chosen


def ablate_selection(**kw: object) -> dict[str, tuple[float, float]]:
    """A1: exact knapsack vs greedy weight-density batch filling."""
    return _evaluate_variants(
        {"knapsack": DemtScheduler, "greedy": _GreedySelectionDemt},
        **kw,
    )


def ablate_merge(**kw: object) -> dict[str, tuple[float, float]]:
    """A2: small-sequential-task merging on vs off.

    "Off" is emulated with a tiny threshold factor, ``1e-12``.  It stops
    merging only while the batch length stays under about ``1e12`` times a
    task's ``p(1)``; the doubling extension's long batches can pass that
    and merge again (7 or 8 multi-task stacks on ``mixed`` at n=400, m=4).
    The default cells (``cirne``, n=100, m=64) build none.
    """
    return _evaluate_variants(
        {
            "merge_on": DemtScheduler,
            "merge_off": partial(DemtScheduler, small_threshold_factor=1e-12),
        },
        **kw,
    )


def ablate_compaction(**kw: object) -> dict[str, tuple[float, float]]:
    """A3: the paper's compaction ladder (shelf -> pull-forward -> list)."""
    return _evaluate_variants(
        {
            mode: partial(DemtScheduler, compaction=mode, shuffle_rounds=0)
            for mode in ("shelf", "pull_forward", "list")
        },
        **kw,
    )


def ablate_shuffle(**kw: object) -> dict[str, tuple[float, float]]:
    """A4: number of batch-order shuffle rounds."""
    return _evaluate_variants(
        {
            f"shuffle_{rounds}": partial(DemtScheduler, shuffle_rounds=rounds)
            for rounds in (0, 5, 20)
        },
        **kw,
    )


#: Name -> driver registry for ``--ablation``.
ABLATIONS = {
    "selection": ablate_selection,
    "merge": ablate_merge,
    "compaction": ablate_compaction,
    "shuffle": ablate_shuffle,
}
