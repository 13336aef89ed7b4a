"""Experiment harness regenerating every figure of the paper's §4.

* :mod:`repro.experiments.config` — campaign parameters and the
  ``REPRO_SCALE`` environment knob (``paper`` / ``quick`` / ``smoke``);
* :mod:`repro.experiments.engine` — execution backends (serial, thread
  pool, process pool) and the per-cell result cache;
* :mod:`repro.experiments.runner` — runs one (workload, n) point or a full
  campaign: every algorithm against both lower bounds, 40 seeded runs,
  dispatched as independent cells through an engine backend;
* :mod:`repro.experiments.aggregate` — ratio-of-sums aggregation (Jain,
  ref [15]) plus min/max envelopes, as plotted in Figures 3-6, and the
  attainment-surface aggregation of per-instance Pareto fronts;
* :mod:`repro.experiments.figures` — one driver per figure (3-7) plus the
  ablation studies;
* :mod:`repro.experiments.reporting` — ASCII tables and charts of the
  series the paper plots;
* :mod:`repro.experiments.cli` — the ``repro-experiments`` entry point.
"""

from repro.experiments.config import ExperimentConfig, resolve_scale, SCALES
from repro.experiments.engine import (
    CellCache,
    PersistentCellCache,
    SerialBackend,
    ProcessBackend,
    resolve_backend,
    resolve_cache,
)
from repro.experiments.aggregate import attainment_surface
from repro.experiments.runner import (
    AlgorithmPointStats,
    PointResult,
    CampaignResult,
    run_cells,
    run_pareto_cells,
    run_point,
    run_campaign,
)
from repro.experiments.figures import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    FIGURES,
)
from repro.experiments.replay import (
    ReplayResult,
    replay_trace,
    export_replay_swf,
    REPLAY_MODES,
    REPLAY_ENGINES,
)
from repro.experiments.reporting import (
    format_campaign_table,
    format_front_table,
    format_indicator_table,
    format_replay_table,
    format_timing_table,
)

__all__ = [
    "ExperimentConfig",
    "resolve_scale",
    "SCALES",
    "CellCache",
    "PersistentCellCache",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "resolve_cache",
    "AlgorithmPointStats",
    "PointResult",
    "CampaignResult",
    "run_cells",
    "run_pareto_cells",
    "run_point",
    "run_campaign",
    "attainment_surface",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "FIGURES",
    "ReplayResult",
    "replay_trace",
    "export_replay_swf",
    "REPLAY_MODES",
    "REPLAY_ENGINES",
    "format_campaign_table",
    "format_front_table",
    "format_indicator_table",
    "format_replay_table",
    "format_timing_table",
]
