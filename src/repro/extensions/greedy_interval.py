"""Plain interval-doubling scheduler (Shmoys et al. / Hall et al. style).

§3.1: "Shmoys et al. used a batch scheduling with batches of increasing
sizes.  The batch length is doubled at each step, therefore only the
smaller tasks are scheduled in the first batches."  §1.3 adds that the
generic framework of Hall et al. yields a (12; 12) bi-criteria
approximation "at the cost of a big complexity".

This class is that *skeleton* without DEMT's refinements: geometric
batches and weight-maximising knapsack selection, but

* almost no small-task merging: the merge threshold factor is ``1e-12``,
  which stops merging only while the batch length stays under about
  ``1e12`` times a task's ``p(1)``.  The doubling extension's long
  batches pass that: the class builds 4 multi-task stacks (48 batches) on
  ``synthesize_swf(3000, 64, 200400, load=0.8)`` under ``downey``, and 7
  or 8 on ``mixed`` at n=400, m=4 (seeds 0-4);
* naive shelf placement (each batch starts at its own ``t_j``),
* no compaction, no shuffling.

It serves as a structural ablation: the gap between ``GreedyInterval`` and
``DEMT`` on the paper's workloads *is* the value of the paper's §3.2
engineering.  (The true Hall et al. algorithm solves an LP per interval;
the knapsack variant keeps the comparison apples-to-apples.)
"""

from __future__ import annotations

from repro.algorithms.demt import DemtScheduler

__all__ = ["GreedyIntervalScheduler"]


class GreedyIntervalScheduler(DemtScheduler):
    """DEMT's batch skeleton with every refinement disabled."""

    name = "GreedyInterval"

    def __init__(self) -> None:
        super().__init__(
            shuffle_rounds=0,
            compaction="shelf",
            # Threshold ~0: no merging until the extension's batches
            # reach ~1e12 x p(1) (see the module docstring).
            small_threshold_factor=1e-12,
        )
