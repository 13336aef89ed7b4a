"""Campaign configuration.

The paper's setting (§4.1): a cluster of **200 processors**, task counts
from **25 to 400**, **40 runs** per point, six algorithms, ratios against
the LP / dual-approximation lower bounds.

Because the full campaign takes a few CPU-minutes, the scale is selectable
— ``paper`` reproduces §4.1 exactly, ``quick`` is a minutes-scale sanity
sweep, ``smoke`` is for CI.  The ``REPRO_SCALE`` environment variable picks
the CLI's default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.algorithms.registry import PAPER_ALGORITHMS

__all__ = ["ExperimentConfig", "SCALES", "resolve_scale"]

#: The paper's four experimental workload families, in figure order.
PAPER_WORKLOADS: tuple[str, ...] = (
    "weakly_parallel",
    "highly_parallel",
    "mixed",
    "cirne",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one simulation campaign.

    Attributes mirror §4.1; ``seed`` keys the whole campaign (every run
    derives its own independent stream from it, so single points can be
    recomputed in isolation).
    """

    m: int = 200
    task_counts: tuple[int, ...] = (25, 50, 100, 150, 200, 250, 300, 350, 400)
    runs: int = 40
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS
    seed: int = 2004

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not self.task_counts:
            raise ValueError("task_counts must not be empty")

    def scaled(self, **overrides: object) -> "ExperimentConfig":
        """Copy with overrides (convenience for notebooks/tests)."""
        return replace(self, **overrides)


#: Predefined scales.  ``paper`` is §4.1 verbatim.
SCALES: dict[str, ExperimentConfig] = {
    "paper": ExperimentConfig(),
    "quick": ExperimentConfig(
        m=64,
        task_counts=(25, 50, 100, 200),
        runs=8,
    ),
    "smoke": ExperimentConfig(
        m=16,
        task_counts=(10, 25),
        runs=2,
    ),
}


def resolve_scale(name: str | None = None) -> ExperimentConfig:
    """Config for ``name``, or for ``$REPRO_SCALE`` (default ``quick``).

    >>> resolve_scale("paper").m
    200
    """
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; available: {', '.join(SCALES)}"
        ) from None
