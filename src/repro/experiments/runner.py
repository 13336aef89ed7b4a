"""Campaign runner.

One *run* = one generated instance, scheduled by every algorithm, compared
against both lower bounds.  One *point* = ``cfg.runs`` runs at a given
(workload, n).  One *campaign* = all points of a workload family — the data
behind one of Figures 3-6 (both panels).  DEMT's wall-clock scheduling time
is recorded on the side, feeding Figure 7.

Determinism: the instance of run ``r`` at point ``(kind, n)`` is generated
from ``derive_rng(seed, kind, n, r)``, so any single run can be regenerated
independently of campaign order — and therefore in any process.  The
execution itself goes through :func:`run_cells`, which takes an
:mod:`~repro.experiments.engine` backend (``"serial"`` by default,
``"thread"`` or ``"process"`` to scale a campaign across cores) and an
optional :class:`~repro.experiments.engine.CellCache` so repeated
campaigns and ablations only pay for cells they have not measured yet.
All three backends produce identical numbers; only the wall-clock
``seconds`` fields differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.dual_approx import dual_approximation
from repro.algorithms.list_graham import ListGrahamScheduler
from repro.algorithms.registry import get_algorithm
from repro.bounds.minsum_lp import minsum_lower_bound
from repro.core.instance import Instance
from repro.core.validation import validate_schedule
from repro.experiments.aggregate import RatioStats, aggregate_ratios
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    CellBounds,
    CellCache,
    CellFamily,
    CellKey,
    CellRecord,
    execute_cells,
    resolve_backend,
)
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload

__all__ = [
    "AlgorithmPointStats",
    "PointResult",
    "CampaignResult",
    "CampaignCellFamily",
    "ParetoCellFamily",
    "run_cells",
    "run_pareto_cells",
    "run_point",
    "run_campaign",
]


@dataclass(frozen=True)
class AlgorithmPointStats:
    """Aggregated ratios of one algorithm at one (workload, n) point."""

    algorithm: str
    cmax: RatioStats
    minsum: RatioStats
    mean_seconds: float


@dataclass(frozen=True)
class PointResult:
    """Everything measured at one (workload, n) point."""

    workload: str
    n: int
    stats: tuple[AlgorithmPointStats, ...]
    cmax_bounds: tuple[float, ...]  # per-run dual-approximation LBs
    minsum_bounds: tuple[float, ...]  # per-run LP LBs

    def for_algorithm(self, name: str) -> AlgorithmPointStats:
        for s in self.stats:
            if s.algorithm == name:
                return s
        raise KeyError(f"algorithm {name!r} not in point result")


@dataclass(frozen=True)
class CampaignResult:
    """All points of one workload family (one paper figure)."""

    workload: str
    config: ExperimentConfig
    points: tuple[PointResult, ...]

    def series(self, algorithm: str, criterion: str) -> list[tuple[int, RatioStats]]:
        """(n, stats) series for one algorithm, ``criterion`` in
        {"cmax", "minsum"} — one curve of a figure panel."""
        if criterion not in ("cmax", "minsum"):
            raise ValueError(f"criterion must be 'cmax' or 'minsum', got {criterion!r}")
        out = []
        for p in self.points:
            s = p.for_algorithm(algorithm)
            out.append((p.n, s.cmax if criterion == "cmax" else s.minsum))
        return out


# ---------------------------------------------------------------------- #
# Cell execution                                                         #
# ---------------------------------------------------------------------- #
def _measure_cell(
    cell: Sequence, build: Callable[[str], object], inst: Instance | None = None
) -> tuple[CellBounds | None, dict[str, CellRecord]]:
    """Measure one instance under a set of named schedulers.

    The body every seeded cell worker shares.  ``cell`` is ``(seed, kind,
    n, m, r, names, validate, need_bounds)`` and ``build`` turns a name
    into a fresh scheduler.  ``inst`` defaults to the seeded synthetic
    instance of ``derive_rng(seed, kind, n, r)`` — the stream that makes
    the bounds key shareable between the families built on it.
    """
    seed, kind, n, m, r, names, validate, need_bounds = cell
    if inst is None:
        inst = generate_workload(kind, n=n, m=m, seed=derive_rng(seed, kind, n, r))

    schedulers = [(name, build(name)) for name in names]
    # The dual approximation is only computed when something consumes it:
    # the lower bounds, or a list baseline sharing its allotments (their
    # published definition uses the [7] allotments; recomputing would
    # triple the cost for identical results).  It stays outside the
    # timing window, so every record's seconds time ``schedule`` alone.
    dual = None
    if need_bounds or any(
        isinstance(s, ListGrahamScheduler) for _, s in schedulers
    ):
        dual = dual_approximation(inst)
    bounds = None
    if need_bounds:
        bounds = CellBounds(
            cmax_lb=dual.lower_bound,
            minsum_lb=minsum_lower_bound(inst, dual.lam).value,
        )

    records: dict[str, CellRecord] = {}
    for name, scheduler in schedulers:
        if isinstance(scheduler, ListGrahamScheduler):
            scheduler.dual = dual
        t0 = time.perf_counter()
        sched = scheduler.schedule(inst)
        seconds = time.perf_counter() - t0
        if validate:
            validate_schedule(sched, inst)
        records[name] = CellRecord(
            cmax=sched.makespan(),
            minsum=sched.weighted_completion_sum(),
            seconds=seconds,
            validated=validate,
        )
    return bounds, records


def _run_cell(args: tuple) -> tuple[CellBounds | None, dict[str, CellRecord]]:
    """Worker: measure one instance under a set of registry algorithms.

    Top-level (picklable) so the process backend can ship it.  ``args`` is
    ``(seed, kind, n, m, r, algorithms, validate, need_bounds)``.
    """
    return _measure_cell(args, get_algorithm)


class CampaignCellFamily(CellFamily):
    """The figure family: ``(kind, n, r)`` cells, every algorithm
    measured on the seeded synthetic instance, records cached under the
    plain algorithm name and instance bounds under the standard bounds
    key ``(seed, kind, n, m, r)`` (shared with the ablations and the
    Pareto sweeps)."""

    name = "campaign"
    worker = staticmethod(_run_cell)

    def __init__(self, seed: int, m: int) -> None:
        self.seed = int(seed)
        self.m = int(m)

    def record_key(self, cell, name: str) -> CellKey:
        kind, n, r = cell
        return CellKey(self.seed, kind, n, self.m, r, name)

    def bounds_key(self, cell) -> tuple:
        kind, n, r = cell
        return (self.seed, kind, n, self.m, r)

    def make_task(self, cell, names, validate, need_bounds) -> tuple:
        kind, n, r = cell
        return (self.seed, kind, n, self.m, r, names, validate, need_bounds)


def run_cells(
    cells: list[tuple[str, int, int]],
    cfg: ExperimentConfig,
    *,
    validate: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: CellCache | None = None,
) -> dict[tuple[str, int, int], tuple[CellBounds, dict[str, CellRecord]]]:
    """Measure every ``(kind, n, r)`` cell under all ``cfg.algorithms``.

    The campaign instantiation of :func:`~repro.experiments.engine.
    execute_cells`: records are cached under the plain algorithm name, and
    ``cache`` may also be a directory path — it is then opened as a
    :class:`~repro.experiments.engine.PersistentCellCache`, so the results
    survive the process and a repeated campaign re-executes nothing.
    """
    outcomes = execute_cells(
        CampaignCellFamily(cfg.seed, cfg.m),
        cells,
        tuple(cfg.algorithms),
        validate=validate,
        backend=backend,
        jobs=jobs,
        cache=cache,
    )
    return {cell: (out.bounds, out.records) for cell, out in outcomes.items()}


# ---------------------------------------------------------------------- #
# Pareto sweep cells                                                     #
# ---------------------------------------------------------------------- #
def _run_pareto_cell(args: tuple) -> tuple[CellBounds | None, dict[str, CellRecord]]:
    """Worker: measure one instance under a set of sweep variants.

    ``args`` is ``(seed, kind, n, m, r, specs, validate, need_bounds,
    payload)``.  ``payload`` is ``None`` for synthetic kinds — the
    instance then comes from the seeded stream of :func:`_run_cell`,
    which is what makes the bounds key shareable with the figure
    campaigns — or ``(trace, model)`` for a ``trace:`` kind (a
    :class:`~repro.workloads.trace.Trace` pickles as plain arrays, like
    the replay workers' traces).
    """
    from repro.pareto.sweep import parse_variant

    *cell, payload = args
    inst = None
    if payload is not None:
        from repro.workloads.trace import trace_instance

        trace, model = payload
        m = cell[3]
        inst = trace_instance(trace, m, model, online=False)
    return _measure_cell(cell, lambda spec: parse_variant(spec).build(), inst)


class ParetoCellFamily(CampaignCellFamily):
    """The trade-off sweep family: same ``(kind, n, r)`` cells and the same
    shared bounds key as the campaigns, but the measured axis is a set of
    :class:`~repro.pareto.sweep.SweepVariant` spec strings cached under
    ``pareto:<spec>``; ``payloads`` carries the ``(trace, model)`` instance
    material of ``trace:`` kinds into the worker tuple."""

    name = "pareto"
    worker = staticmethod(_run_pareto_cell)

    def __init__(
        self, seed: int, m: int, payloads: dict[str, object] | None = None
    ) -> None:
        super().__init__(seed, m)
        self.payloads = payloads or {}

    def record_key(self, cell, name: str) -> CellKey:
        kind, n, r = cell
        return CellKey(self.seed, kind, n, self.m, r, f"pareto:{name}")

    def make_task(self, cell, names, validate, need_bounds) -> tuple:
        payload = self.payloads.get(cell[0])  # keyed by the cell's kind
        return super().make_task(cell, names, validate, need_bounds) + (payload,)


def run_pareto_cells(
    cells: list[tuple[str, int, int]],
    variants: "list",
    *,
    seed: int,
    m: int,
    validate: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: CellCache | None = None,
    payloads: dict[str, object] | None = None,
) -> dict[tuple[str, int, int], tuple[CellBounds, dict[str, CellRecord]]]:
    """Measure every ``(kind, n, r)`` cell under all sweep ``variants``.

    The Pareto instantiation of :func:`~repro.experiments.engine.
    execute_cells`: the measured axis is a set of
    :class:`~repro.pareto.sweep.SweepVariant` configurations instead of
    registry algorithms.  Records are cached under
    ``CellKey(..., algorithm="pareto:<spec>")``; per-instance lower
    bounds live under the standard bounds key and are therefore *shared*
    with the campaign runner and the ablations.  ``payloads`` maps
    ``trace:`` kinds to their ``(trace, model)`` instance material.
    """
    from repro.pareto.sweep import SweepVariant

    specs = tuple(
        v.spec if isinstance(v, SweepVariant) else str(v) for v in variants
    )
    outcomes = execute_cells(
        ParetoCellFamily(seed, m, payloads),
        cells,
        specs,
        validate=validate,
        backend=backend,
        jobs=jobs,
        cache=cache,
    )
    return {cell: (out.bounds, out.records) for cell, out in outcomes.items()}


# ---------------------------------------------------------------------- #
# Point / campaign drivers                                               #
# ---------------------------------------------------------------------- #
def _assemble_point(
    kind: str,
    n: int,
    cfg: ExperimentConfig,
    cell_results: dict[tuple[str, int, int], tuple[CellBounds, dict[str, CellRecord]]],
) -> PointResult:
    """Fold per-cell results into the aggregated point statistics."""
    cmax_bounds = []
    minsum_bounds = []
    per_algo: dict[str, list[CellRecord]] = {name: [] for name in cfg.algorithms}
    for r in range(cfg.runs):
        bounds, records = cell_results[(kind, n, r)]
        cmax_bounds.append(bounds.cmax_lb)
        minsum_bounds.append(bounds.minsum_lb)
        for name in cfg.algorithms:
            per_algo[name].append(records[name])

    stats = tuple(
        AlgorithmPointStats(
            algorithm=name,
            cmax=aggregate_ratios([rec.cmax for rec in recs], cmax_bounds),
            minsum=aggregate_ratios([rec.minsum for rec in recs], minsum_bounds),
            mean_seconds=float(np.mean([rec.seconds for rec in recs])),
        )
        for name, recs in per_algo.items()
    )
    return PointResult(
        workload=kind,
        n=n,
        stats=stats,
        cmax_bounds=tuple(cmax_bounds),
        minsum_bounds=tuple(minsum_bounds),
    )


def run_point(
    kind: str,
    n: int,
    cfg: ExperimentConfig,
    *,
    validate: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: CellCache | None = None,
) -> PointResult:
    """Run all algorithms over ``cfg.runs`` fresh instances at ``(kind, n)``.

    ``validate`` additionally feasibility-checks every schedule (slower;
    the test suite turns it on, campaigns rely on the algorithms' own
    guarantees which the suite already certifies).  ``backend`` / ``jobs``
    select the executor; ``cache`` enables cross-campaign memoisation.
    """
    cells = [(kind, n, r) for r in range(cfg.runs)]
    cell_results = run_cells(
        cells, cfg, validate=validate, backend=backend, jobs=jobs, cache=cache
    )
    return _assemble_point(kind, n, cfg, cell_results)


def run_campaign(
    kind: str,
    cfg: ExperimentConfig,
    *,
    validate: bool = False,
    progress: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: CellCache | None = None,
) -> CampaignResult:
    """Run every point of one workload family (one figure's data).

    All ``len(task_counts) * runs`` cells are dispatched through the
    backend in one batch, so a process pool keeps every core busy across
    point boundaries instead of draining at each ``n``.
    """
    cells = [(kind, n, r) for n in cfg.task_counts for r in range(cfg.runs)]
    if progress:  # pragma: no cover - cosmetic
        backend_obj = resolve_backend(backend, jobs)
        print(
            f"  [{kind}] {len(cells)} cells x {len(cfg.algorithms)} algorithms "
            f"({backend_obj.name} backend)...",
            flush=True,
        )
    cell_results = run_cells(
        cells, cfg, validate=validate, backend=backend, jobs=jobs, cache=cache
    )
    points = [
        _assemble_point(kind, n, cfg, cell_results) for n in cfg.task_counts
    ]
    return CampaignResult(workload=kind, config=cfg, points=tuple(points))
