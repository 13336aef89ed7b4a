"""The four workloads of the benchmark suite.

Each workload is a closed loop with one client: it calls one of the
library's public campaign entry points (the functions the CLI dispatches
to) and starts the next cell or replay only when the previous one has
finished.  Inputs come from the seed alone; archives are written as SWF
files into the run's work directory and handed to the program by path.

A workload's input is a fixed list of *parts* (slices of a campaign grid,
or independent archives), all derived from the seed.  One rep runs one
part; the worker cycles through the parts, so a run covers every part
several times and a per-part median shrugs off a slow moment of the
machine, while the spread of the inputs averages over all the parts.

:meth:`Workload.run` returns a :class:`Rep`: the work it did, the rows its
digest is taken over, the failures it saw and the decision-time samples.
The entry points are looked up on their modules at call time, so the
traced run's hooks see them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.algorithms.demt import schedule_demt
from repro.algorithms.wspt import schedule_wspt
from repro.experiments import replay, runner
from repro.experiments.config import PAPER_WORKLOADS, ExperimentConfig
from repro.experiments.engine import CellCache, PersistentCellCache
from repro.faults import campaign
from repro.faults.campaign import RobustnessCellFamily, parse_scenario
from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, synthesize_swf

__all__ = ["Rep", "Workload", "WORKLOADS", "digest"]

#: Slack for comparing a schedule's criteria with a certified lower bound.
BOUND_RTOL = 1e-9


@dataclass
class Rep:
    """What one rep (one part of a workload) did."""

    units: int  # work units of the throughput metric (cells or jobs)
    ops: int  # operations attempted (cells measured or looked up, replays)
    rows: list = field(default_factory=list)  # digest rows, in grid order
    failed: list = field(default_factory=list)  # one message per failure
    decisions: list = field(default_factory=list)  # decision times, seconds
    stats: dict = field(default_factory=dict)  # per-layer counters


def digest(rows: list) -> str:
    """sha256 over the canonical ``repr`` of every row."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


class DecisionTimer:
    """An off-line engine that times each of its calls (one decision)."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.__name__ = engine.__name__
        self.samples: list[float] = []

    def __call__(self, instance):
        t0 = time.perf_counter()
        schedule = self.engine(instance)
        self.samples.append(time.perf_counter() - t0)
        return schedule


def _below(value: float, bound: float) -> bool:
    return value < bound * (1.0 - BOUND_RTOL)


def _part_seed(seed: int, part: int) -> int:
    """Seed of part ``part`` of a workload run at ``seed``."""
    return 100 * seed + part


class Workload:
    """One named workload: sized parameters, its parts, one rep."""

    name = "abstract"
    unit = "units"
    sizes: dict = {}

    def parts(self, seed: int, size: str, workdir: Path) -> list[dict]:
        """The inputs of every part, generated from ``seed``."""
        params = self.sizes[size]
        return [
            dict(params, seed=seed, part=k, workdir=workdir)
            for k in range(params["parts"])
        ]

    def run(self, part: dict, *, validate: bool, decisions: bool) -> Rep:
        raise NotImplementedError


class PaperCampaign(Workload):
    """Figures 3-6 at the paper's m=200: part ``k`` is run ``r = k`` of
    every (family, n) point, measured cold into a fresh cell cache and
    then served warm from the reloaded journal."""

    name = "paper-campaign"
    unit = "cells"
    sizes = {
        "full": dict(m=200, task_counts=ExperimentConfig().task_counts, parts=4),
        "smoke": dict(m=16, task_counts=(10, 25), parts=2),
    }

    def run(self, part, *, validate, decisions):
        cfg = ExperimentConfig(
            m=part["m"], task_counts=part["task_counts"], seed=part["seed"]
        )
        cells = [(kind, n, part["part"]) for kind in PAPER_WORKLOADS for n in cfg.task_counts]
        cache_dir = Path(tempfile.mkdtemp(prefix="cells-", dir=part["workdir"]))
        try:
            cold_cache = PersistentCellCache(cache_dir)
            cold = runner.run_cells(cells, cfg, validate=validate, cache=cold_cache)
            cold_cache.close()
            journal = sum(p.stat().st_size for p in cache_dir.glob("*.jsonl"))
            warm_cache = PersistentCellCache(cache_dir)
            warm = runner.run_cells(cells, cfg, validate=validate, cache=warm_cache)
            warm_cache.close()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        rep = Rep(units=len(cells), ops=2 * len(cells))
        expected_hits = len(cells) * len(cfg.algorithms)
        if warm_cache.misses or warm_cache.hits != expected_hits:
            rep.failed.append(
                f"warm pass re-executed: {warm_cache.misses} misses, "
                f"{warm_cache.hits}/{expected_hits} hits"
            )
        for cell in cells:
            bounds, records = cold[cell]
            if warm[cell] != (bounds, records):
                rep.failed.append(f"warm pass differs from cold pass on {cell}")
            rep.rows.append((*cell, "bounds", bounds.cmax_lb, bounds.minsum_lb))
            beaten = []
            for name in cfg.algorithms:
                rec = records[name]
                rep.rows.append((*cell, name, rec.cmax, rec.minsum, rec.batches, rec.crashes))
                if _below(rec.cmax, bounds.cmax_lb) or _below(rec.minsum, bounds.minsum_lb):
                    beaten.append(name)
            if beaten:
                rep.failed.append(f"{', '.join(beaten)} beat a lower bound on {cell}")
            if decisions:
                rep.decisions.append(records["DEMT"].seconds)
        rep.stats = {
            "experiments.cache.hits": warm_cache.hits,
            "experiments.cache.misses": cold_cache.misses,
            "experiments.cache.journal_bytes": journal,
        }
        return rep


class _Replay(Workload):
    """Part ``k`` is its own synthetic archive, written as an SWF file."""

    def parts(self, seed, size, workdir):
        parts = super().parts(seed, size, workdir)
        for part in parts:
            path = Path(workdir) / f"{self.name}-{seed}-{part['part']}.swf"
            path.write_text(
                synthesize_swf(part["jobs"], part["m"], _part_seed(seed, part["part"]),
                               load=part["load"])
            )
            trace = load_trace(path)
            part["path"] = str(path)
            part["last_submit"] = float(trace.submits.max())
            if "window" in part:
                part["window_last_submit"] = float(
                    trace.window(0, part["window"]).submits.max()
                )
        return parts


def _replay_rows(rep: Rep, results: list, last_submit: float) -> None:
    """Digest rows and sanity checks of a list of ``ReplayResult`` (at most
    one failure per replay)."""
    for res in results:
        rep.rows.append(
            (res.model, res.mode, res.n_jobs, res.makespan, res.weighted_flow,
             res.n_batches, 0)
        )
        if not math.isfinite(res.makespan) or not math.isfinite(res.weighted_flow):
            rep.failed.append(f"non-finite result for {res.model}/{res.mode}")
        elif res.mode != "clairvoyant" and (
            res.makespan < last_submit or res.weighted_flow <= 0
        ):
            rep.failed.append(f"{res.model}/{res.mode} finishes before its last arrival")
        elif res.mode in ("batch", "clairvoyant") and res.n_batches < 1:
            rep.failed.append(f"{res.model}/{res.mode} executed no batch")


class ReplayDemt(_Replay):
    """Each archive under every moldability model, batch and clairvoyant,
    with the DEMT engine: DEMT at large n, many batches and one whole
    archive at once."""

    name = "replay-demt"
    unit = "jobs"
    sizes = {
        "full": dict(jobs=3000, m=64, load=0.8, parts=6),
        "smoke": dict(jobs=300, m=16, load=0.8, parts=2),
    }

    def run(self, part, *, validate, decisions):
        engine = DecisionTimer(schedule_demt) if decisions else schedule_demt
        results = replay.replay_trace(
            part["path"],
            models=list(MOLDABILITY_MODELS),
            modes=["batch", "clairvoyant"],
            offline=engine,
            validate=validate,
        )
        rep = Rep(units=sum(r.n_jobs for r in results), ops=len(results))
        _replay_rows(rep, results, part["last_submit"])
        if decisions:
            rep.decisions = engine.samples
        return rep


class ReplaySpine(_Replay):
    """Each archive with the cheap wspt engine in batch and FCFS modes,
    plus EASY backfill on its leading window: the policy path and trace
    loading, no DEMT and no LP."""

    name = "replay-spine"
    unit = "jobs"
    sizes = {
        "full": dict(jobs=15000, window=3000, m=64, load=0.8, parts=4),
        "smoke": dict(jobs=1000, window=300, m=16, load=0.8, parts=2),
    }

    def run(self, part, *, validate, decisions):
        engine = DecisionTimer(schedule_wspt) if decisions else schedule_wspt
        results = replay.replay_trace(
            part["path"], modes=["batch", "fcfs"], offline=engine, validate=validate
        )
        backfill = replay.replay_trace(
            part["path"],
            modes="fcfs-backfill",
            offline=schedule_wspt,
            window=(0, part["window"]),
            validate=validate,
        )
        rep = Rep(
            units=sum(r.n_jobs for r in results + backfill),
            ops=len(results) + len(backfill),
        )
        _replay_rows(rep, results, part["last_submit"])
        _replay_rows(rep, backfill, part["window_last_submit"])
        if decisions:
            rep.decisions = engine.samples
        return rep


class Robustness(Workload):
    """A robustness campaign per part (its own campaign seed): noisy
    estimates, machine crashes and bursty arrivals through the faulty
    batch loop, nominal and degraded, three engines.  A decision is one
    DEMT call planning one batch."""

    name = "robustness"
    unit = "cells"
    scenario = "lognormal:0.4|exp:100:5|bursty:4"
    engines = ("demt", "gang", "wspt")
    sizes = {
        "full": dict(kind="mixed", task_counts=(200, 400), runs=2, m=64, parts=6),
        "smoke": dict(kind="mixed", task_counts=(20,), runs=2, m=16, parts=2),
    }

    def run(self, part, *, validate, decisions):
        seed, m = _part_seed(part["seed"], part["part"]), part["m"]
        cache = CellCache()
        # The campaign looks its engines up by name in the replay engine
        # table; time the DEMT entry for the length of this call.
        table = replay.REPLAY_ENGINES
        timer = DecisionTimer(table["demt"]) if decisions else None
        if timer is not None:
            table["demt"] = timer
        try:
            result = campaign.run_robustness_campaign(
                part["kind"],
                part["task_counts"],
                part["runs"],
                self.scenario,
                engines=self.engines,
                seed=seed,
                m=m,
                validate=validate,
                cache=cache,
            )
        finally:
            if timer is not None:
                table["demt"] = timer.engine

        scenario = parse_scenario(self.scenario)
        families = (
            ("degraded", RobustnessCellFamily(seed, m, scenario)),
            ("nominal", RobustnessCellFamily(seed, m, scenario.baseline())),
        )
        cells = [
            (part["kind"], n, r) for n in part["task_counts"] for r in range(part["runs"])
        ]
        rep = Rep(units=len(cells), ops=2 * len(cells))
        quarantined = {(row.kind, row.n, row.r): row.error for row in result.rows
                       if row.quarantined}
        rep.failed += [f"quarantined {cell}: {error}" for cell, error in quarantined.items()]
        for cell in cells:
            if cell in quarantined:
                continue
            bounds = cache.get_bounds(families[0][1].bounds_key(cell))
            rep.rows.append((*cell, "bounds", bounds.cmax_lb, bounds.minsum_lb))
            beaten = []
            for label, family in families:
                for engine in self.engines:
                    rec = cache.get_record(family.record_key(cell, engine))
                    rep.rows.append(
                        (*cell, label, engine, rec.cmax, rec.minsum, rec.batches,
                         rec.crashes)
                    )
                    if _below(rec.cmax, bounds.cmax_lb):
                        beaten.append(f"{engine} {label}")
            if beaten:
                rep.failed.append(f"{', '.join(beaten)} beat the Cmax bound on {cell}")
        if timer is not None:
            rep.decisions = timer.samples
        return rep


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperCampaign(), ReplayDemt(), ReplaySpine(), Robustness())
}
