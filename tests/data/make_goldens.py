#!/usr/bin/env python
"""Regenerate the golden corpora under ``tests/data/``.

Two corpora are maintained here, both pinned at full float precision and
compared with ``==`` by the regression suites:

* ``golden_schedules.json`` — ``(cmax, minsum)`` of the headline
  algorithms on a frozen seeded synthetic corpus
  (``tests/properties/test_differential.py``);
* ``traces/*.swf`` + ``trace_replay_goldens.json`` — deterministic
  synthetic SWF fixtures and the replay aggregates (makespan, weighted
  flow, batch count) of every moldability model on them, batch and
  clairvoyant modes (``tests/integration/test_trace_replay.py``);
* ``pareto_goldens.json`` — per-instance bi-criteria point clouds, front
  masks and quality indicators of a frozen trade-off sweep (DEMT knob
  deviations + registry algorithms) on synthetic cells and one trace
  window (``tests/pareto/test_golden_pareto.py``).
* ``fcfs_replay_goldens.json`` — on-line FCFS and EASY-backfill replays
  of every moldability model on the SWF fixtures: makespan, weighted flow
  and a sha256 over each schedule's placements
  (``tests/integration/test_trace_replay.py``).
* ``minsum_lp_goldens.json`` — the §3.3 minsum LP bound (value and
  interval boundaries) plus a sha256 over the model handed to HiGHS, on
  synthetic cells, the SWF fixtures under every moldability model, and
  the ILP variant on small instances (``tests/bounds/test_minsum_lp.py``).
* ``demt_goldens.json`` — DEMT's batch contents (a sha256 over every
  item's task id, allotment and stack ids), batch starts, ``K``, the
  ``C*max`` estimate, the schedule's sha256 and the shuffle gain, on the
  four families up to n=1000, the trade-off knobs, the two ablation
  engines and a 3000-job archive (``tests/algorithms/test_demt.py``).
* ``dual_goldens.json`` — the dual approximation's certified lower bound,
  accepted ``λ`` and a sha256 over its ``(task_id, allotment,
  in_big_shelf)`` rows (plus the two-shelf schedule's sha256 on the small
  cells), on the four families up to n=1000, ``m = 1``, object-backed
  ragged, rigid and non-monotone instances and a 3000-job archive under
  every moldability model (``tests/algorithms/test_dual_approx.py``).
* ``list_goldens.json`` — List, LPTF, SAF, WSPT, Sequential and Gang on
  the four families, object-backed ragged and rigid instances and a
  3000-job archive under every moldability model, plus the on-line
  ``greedy-interval`` and ``reservation`` policies on the SWF fixtures:
  ``cmax``, ``minsum``, the schedule's sha256 and a sha256 over the task
  ids in insertion order (``tests/algorithms/test_list_goldens.py``).

Regenerate ONLY when an intentional behavioral change is made (and say so
in the commit message):

    PYTHONPATH=src python tests/data/make_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.algorithms.registry import get_algorithm  # noqa: E402
from repro.utils.rng import derive_rng  # noqa: E402
from repro.workloads.generator import generate_workload  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_schedules.json")

#: Frozen corpus + algorithm panel.  Changing either invalidates the file.
GOLDEN_SEED = 20040626  # SPAA'04 conference date
GOLDEN_SIZES = ((15, 13), (60, 100), (100, 13))  # (n, m)
GOLDEN_FAMILIES = ("weakly_parallel", "highly_parallel", "mixed", "cirne")
GOLDEN_ALGORITHMS = (
    "DEMT",
    "List Scheduling",
    "LPTF",
    "SAF",
    "FCFS",
    "FCFS+EASY",
)


def golden_cells() -> list[dict]:
    cells = []
    for kind in GOLDEN_FAMILIES:
        for n, m in GOLDEN_SIZES:
            inst = generate_workload(
                kind, n=n, m=m, seed=derive_rng(GOLDEN_SEED, kind, n, m)
            )
            for name in GOLDEN_ALGORITHMS:
                sched = get_algorithm(name).schedule(inst)
                cells.append(
                    {
                        "kind": kind,
                        "n": n,
                        "m": m,
                        "algorithm": name,
                        "cmax": sched.makespan(),
                        "minsum": sched.weighted_completion_sum(),
                    }
                )
    return cells


TRACES_DIR = Path(__file__).with_name("traces")
TRACE_GOLDEN_PATH = Path(__file__).with_name("trace_replay_goldens.json")

#: Frozen trace fixtures: name -> (synthesize_swf kwargs, replay m).
#: ``m`` deliberately differs from the generation width for ``wide_jobs``
#: so the goldens pin the clamping path too.
TRACE_FIXTURES: dict[str, tuple[dict, int]] = {
    "cirne_small.swf": (dict(n=60, m=32, seed=7), 32),
    "bursty_quirks.swf": (dict(n=80, m=16, seed=21, load=3.0, quirks=True), 16),
    "wide_jobs.swf": (dict(n=40, m=64, seed=13, load=0.5), 24),
}


def write_trace_fixtures() -> None:
    """(Re)write the synthetic SWF fixtures — deterministic, so idempotent."""
    from repro.workloads.trace import synthesize_swf

    TRACES_DIR.mkdir(exist_ok=True)
    for name, (kwargs, _m) in TRACE_FIXTURES.items():
        (TRACES_DIR / name).write_text(synthesize_swf(**kwargs))


def trace_golden_cells() -> list[dict]:
    from repro.experiments.replay import replay_trace
    from repro.workloads.trace import MOLDABILITY_MODELS, load_trace

    cells = []
    for name, (_kwargs, m) in TRACE_FIXTURES.items():
        trace = load_trace(TRACES_DIR / name)
        results = replay_trace(
            trace, m=m, models=list(MOLDABILITY_MODELS),
            modes=("batch", "clairvoyant"), validate=True,
        )
        for r in results:
            cells.append(
                {
                    "fixture": name,
                    "digest": trace.digest,
                    "m": m,
                    "model": r.model,
                    "mode": r.mode,
                    "n_jobs": r.n_jobs,
                    "makespan": r.makespan,
                    "weighted_flow": r.weighted_flow,
                    "batches": r.n_batches,
                }
            )
    return cells


FCFS_GOLDEN_PATH = Path(__file__).with_name("fcfs_replay_goldens.json")

#: The immediate on-line FCFS policies; the batch and clairvoyant modes are
#: pinned by ``trace_replay_goldens.json``.
FCFS_MODES = ("fcfs", "fcfs-backfill")


def schedule_sha256(schedule) -> str:
    """sha256 over the ``repr`` of every placement's
    ``(task_id, start, allotment, end)``, in task-id order."""
    h = hashlib.sha256()
    for row in sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule):
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def fcfs_replay_golden_cells() -> list[dict]:
    from repro.experiments.replay import replay_trace
    from repro.simulator.online import get_policy
    from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, trace_instance

    cells = []
    for name, (_kwargs, m) in TRACE_FIXTURES.items():
        trace = load_trace(TRACES_DIR / name)
        results = replay_trace(
            trace, m=m, models=list(MOLDABILITY_MODELS), modes=FCFS_MODES,
            validate=True,
        )
        for r in results:
            inst = trace_instance(trace, m, r.model, online=True)
            schedule = get_policy(r.mode).run(inst).schedule
            cells.append(
                {
                    "fixture": name,
                    "digest": trace.digest,
                    "m": m,
                    "model": r.model,
                    "mode": r.mode,
                    "n_jobs": r.n_jobs,
                    "makespan": r.makespan,
                    "weighted_flow": r.weighted_flow,
                    "schedule_sha256": schedule_sha256(schedule),
                }
            )
    return cells


ONLINE_GOLDEN_PATH = Path(__file__).with_name("online_goldens.json")

#: Frozen on-line corpus: seeded instances with deterministic Poisson-ish
#: releases, scheduled by the *seed* batch framework
#: (:class:`repro.simulator.reference.ReferenceBatchScheduler`).  The
#: production :class:`~repro.simulator.online.BatchPolicy` must reproduce
#: every placement bit for bit.
ONLINE_SIZES = ((15, 13), (60, 32))  # (n, m)
ONLINE_SPREADS = (0.5, 2.0)  # release horizon as a fraction of n


def online_golden_cells() -> list[dict]:
    from repro.algorithms.demt import schedule_demt
    from repro.core.instance import Instance
    from repro.simulator.reference import ReferenceBatchScheduler

    cells = []
    for kind in GOLDEN_FAMILIES:
        for n, m in ONLINE_SIZES:
            for spread in ONLINE_SPREADS:
                rng = derive_rng(GOLDEN_SEED, "online", kind, n, int(spread * 10))
                base = generate_workload(kind, n=n, m=m, seed=rng)
                releases = rng.exponential(spread, size=n).cumsum()
                inst = Instance(
                    [
                        t.with_release(float(r))
                        for t, r in zip(base.tasks, releases)
                    ],
                    m,
                )
                res = ReferenceBatchScheduler(schedule_demt).run(inst)
                cells.append(
                    {
                        "kind": kind,
                        "n": n,
                        "m": m,
                        "spread": spread,
                        "makespan": res.schedule.makespan(),
                        "batch_starts": list(res.batch_starts),
                        "batch_contents": [
                            sorted(c) for c in res.batch_contents
                        ],
                        "placements": sorted(
                            [p.task.task_id, p.start, p.allotment, p.end]
                            for p in res.schedule
                        ),
                    }
                )
    return cells


FAULTY_GOLDEN_PATH = Path(__file__).with_name("faulty_goldens.json")

#: Frozen fault-injected on-line corpus: seeded instances (deterministic
#: exponential release gaps) run through :class:`repro.faults.failures.
#: FaultyBatchPolicy` under (noise, failure-trace) scenarios.  The corpus
#: records the complete outcome — placements, batch starts, crash and
#: deferral counts, and the full event log — so the event-spine port of
#: the faulty replay loop can be pinned bit for bit against the
#: pre-refactor path.  ``(kind, n, m, spread, noise, failures, horizon)``.
FAULTY_SCENARIOS = (
    ("mixed", 20, 8, 0.0, "none", "exp:10:4@1", 500.0),
    ("mixed", 30, 8, 1.0, "lognormal:0.5@1", "exp:5:3@2", 500.0),
    ("cirne", 25, 13, 0.5, "overestimate:4@1", "exp:15:5@3", 500.0),
    ("highly_parallel", 16, 8, 2.0, "lognormal:0.4@2", "exp:8:2@4", 400.0),
    ("weakly_parallel", 24, 8, 0.5, "none", "exp:6:2@5", 600.0),
)


def faulty_golden_cells() -> list[dict]:
    from repro.core.instance import Instance
    from repro.faults.failures import FaultyBatchPolicy, generate_failures

    cells = []
    for kind, n, m, spread, noise, failures, horizon in FAULTY_SCENARIOS:
        rng = derive_rng(GOLDEN_SEED, "faulty", kind, n, int(spread * 10))
        base = generate_workload(kind, n=n, m=m, seed=rng)
        if spread > 0:
            releases = rng.exponential(spread, size=n).cumsum()
            inst = Instance(
                [t.with_release(float(r)) for t, r in zip(base.tasks, releases)],
                m,
            )
        else:
            inst = base
        trace = generate_failures(m, horizon, failures)
        res = FaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        cells.append(
            {
                "kind": kind,
                "n": n,
                "m": m,
                "spread": spread,
                "noise": noise,
                "failures": failures,
                "horizon": horizon,
                "crashes": res.crashes,
                "deferrals": res.deferrals,
                "batch_starts": list(res.batch_starts),
                "batch_contents": [sorted(c) for c in res.batch_contents],
                "placements": sorted(
                    [p.task.task_id, p.start, p.allotment, p.end]
                    for p in res.schedule
                ),
                "log": [
                    [e.time, e.kind.value, e.job_id, list(e.procs)]
                    for e in res.log
                ],
            }
        )
    return cells


PARETO_GOLDEN_PATH = Path(__file__).with_name("pareto_goldens.json")

#: Frozen sweep: a DEMT knob slice plus registry anchors, on two synthetic
#: cells per family and one trace window.  Changing any spec invalidates
#: the file.
PARETO_SWEEP = (
    "DEMT",
    "DEMT[order=weight]",
    "DEMT[relax=1.5]",
    "DEMT[shuffle=0]",
    "DEMT[thresh=0.25]",
    "SAF",
    "LPTF",
    "Gang",
)
PARETO_FAMILIES = ("mixed", "cirne")
PARETO_N, PARETO_M, PARETO_RUNS = 24, 16, 2
PARETO_TRACE = ("cirne_small.swf", "downey", (0, 24))


def _pareto_cell_docs(result) -> list[dict]:
    docs = []
    for cell in result.cells:
        docs.append(
            {
                "source": result.source,
                "kind": cell.kind,
                "n": cell.n,
                "r": cell.r,
                "m": cell.m,
                "cmax_lb": cell.cmax_lb,
                "minsum_lb": cell.minsum_lb,
                "specs": list(cell.specs),
                "cloud": cell.cloud.tolist(),
                "front_mask": cell.front_mask.tolist(),
                "indicators": cell.indicators(),
            }
        )
    return docs


def pareto_golden_cells() -> list[dict]:
    from repro.pareto.sweep import sweep_tradeoffs
    from repro.workloads.trace import load_trace

    cells: list[dict] = []
    for kind in PARETO_FAMILIES:
        result = sweep_tradeoffs(
            kind,
            PARETO_SWEEP,
            m=PARETO_M,
            task_counts=(PARETO_N,),
            runs=PARETO_RUNS,
            seed=GOLDEN_SEED,
            validate=True,
        )
        cells.extend(_pareto_cell_docs(result))
    fixture, model, window = PARETO_TRACE
    result = sweep_tradeoffs(
        load_trace(TRACES_DIR / fixture),
        PARETO_SWEEP,
        model=model,
        window=window,
        validate=True,
    )
    cells.extend(_pareto_cell_docs(result))
    return cells


MINSUM_LP_GOLDEN_PATH = Path(__file__).with_name("minsum_lp_goldens.json")

#: Frozen LP-bound corpus: every family at the paper's m=200 (Figures 3-6),
#: the robustness shape (``mixed`` at m=64), the SWF fixtures under every
#: moldability model, and the ILP on small instances.  ``(kind, n, m,
#: integral)``; the trace cells use the fixtures' replay ``m``.
MINSUM_LP_CELLS = (
    tuple((kind, n, 200, False) for kind in GOLDEN_FAMILIES for n in (25, 100, 400))
    + tuple(("mixed", n, 64, False) for n in (200, 400))
    + tuple((kind, 10, 8, True) for kind in GOLDEN_FAMILIES)
)


@contextmanager
def captured_lp_models():
    """Patch :func:`repro.bounds.minsum_lp.solve_highs` with a recorder that
    forwards to the real solver; yields the list of solved models as
    ``(c, A, b_ub)``, ``A`` in the CSC form the solver gets."""
    from scipy import sparse

    import repro.bounds.minsum_lp as lp

    models: list[tuple] = []
    real_solve = lp.solve_highs

    def solve_highs(c, indptr, indices, data, rhs, *, integral=False):
        A = sparse.csc_matrix((data, indices, indptr), shape=(rhs.size, c.size))
        models.append((c, A, rhs))
        return real_solve(c, indptr, indices, data, rhs, integral=integral)

    lp.solve_highs = solve_highs
    try:
        yield models
    finally:
        lp.solve_highs = real_solve


def lp_model_sha256(c, A, b_ub) -> str:
    """sha256 over ``c``, ``b_ub`` and the CSR ``indptr``/``indices``/``data``
    of ``A``; the index arrays are cast to int64 so the index dtype scipy
    picks does not enter the digest."""
    import numpy as np
    from scipy import sparse

    A = sparse.csr_matrix(A)
    h = hashlib.sha256()
    for arr in (
        c,
        b_ub,
        A.indptr.astype(np.int64),
        A.indices.astype(np.int64),
        A.data,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _minsum_lp_doc(inst, integral: bool) -> dict:
    from repro.algorithms.dual_approx import dual_approximation
    from repro.bounds.minsum_lp import minsum_lower_bound

    lam = dual_approximation(inst).lam
    with captured_lp_models() as models:
        res = minsum_lower_bound(inst, lam, integral=integral)
    (model,) = models
    return {
        "n": inst.n,
        "m": inst.m,
        "integral": integral,
        "value": res.value,
        "boundaries": res.boundaries.tolist(),
        "model_sha256": lp_model_sha256(*model),
    }


def minsum_lp_golden_cells() -> list[dict]:
    from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, trace_instance

    cells = []
    for kind, n, m, integral in MINSUM_LP_CELLS:
        inst = generate_workload(
            kind, n=n, m=m, seed=derive_rng(GOLDEN_SEED, "minsum_lp", kind, n, m)
        )
        cells.append({"source": kind, "model": None, **_minsum_lp_doc(inst, integral)})
    for name, (_kwargs, m) in TRACE_FIXTURES.items():
        trace = load_trace(TRACES_DIR / name)
        for model in MOLDABILITY_MODELS:
            inst = trace_instance(trace, m, model, online=False)
            cells.append({"source": name, "model": model, **_minsum_lp_doc(inst, False)})
    return cells


DEMT_GOLDEN_PATH = Path(__file__).with_name("demt_goldens.json")

#: Frozen DEMT corpus.  Each cell names its instance (a generated family
#: at ``(n, m)``, or the synthesized archive under a moldability model),
#: its engine and the engine's knobs; changing any of it invalidates the
#: file.
DEMT_SIZES = ((25, 13), (400, 200), (1000, 64))  # (n, m)
DEMT_KNOBS = (
    {"small_threshold_factor": 0.25},
    {"small_threshold_factor": 1.0},
    {"small_threshold_factor": 1e-12},
    {"batch_ordering": "weight"},
    {"batch_ordering": "duration"},
    {"batch_ordering": "id"},
    {"guess_relaxation": 1.5},
    {"compaction": "shelf"},
    {"compaction": "pull_forward"},
)
#: Knob and ablation-engine cells run on a wide machine with many merged
#: stacks and on a narrow one that needs the doubling extension.
DEMT_KNOB_CELLS = (("mixed", 1000, 64), ("mixed", 400, 4))
DEMT_ABLATION_CELLS = (("mixed", 400, 4), ("cirne", 1000, 64))
#: The synthesized archive (``synthesize_swf`` kwargs) and its cells.
DEMT_ARCHIVE = dict(n=3000, m=64, seed=GOLDEN_SEED, load=0.8)
DEMT_ARCHIVE_CELLS = (("rigid", "DEMT"), ("downey", "DEMT"), ("downey", "GreedyInterval"))


def demt_engine(name: str, knobs: dict):
    """The scheduler of a DEMT golden cell."""
    from repro.algorithms.demt import DemtScheduler
    from repro.experiments.ablation import _GreedySelectionDemt
    from repro.extensions.greedy_interval import GreedyIntervalScheduler

    if name == "DEMT":
        return DemtScheduler(**knobs)
    assert not knobs, "the ablation engines take no knobs"
    return {"GreedyInterval": GreedyIntervalScheduler, "A1-greedy": _GreedySelectionDemt}[
        name
    ]()


def demt_archive():
    """The DEMT corpus's archive, parsed from its synthesized SWF text."""
    import io

    from repro.workloads.trace import load_trace, synthesize_swf

    return load_trace(io.StringIO(synthesize_swf(**DEMT_ARCHIVE)))


def batches_sha256(batches) -> str:
    """sha256 over the ``repr`` of every batch item's ``(batch index,
    task_id, allotment, stack task ids)``, in batch and item order."""
    h = hashlib.sha256()
    for b, batch in enumerate(batches):
        for it in batch:
            row = (b, it.task.task_id, it.allotment, tuple(t.task_id for t in it.stack))
            h.update(repr(row).encode())
            h.update(b"\n")
    return h.hexdigest()


def demt_result_doc(result) -> dict:
    """The recorded fields of one :class:`~repro.algorithms.demt.DemtResult`."""
    return {
        "n_batches": len(result.batches),
        "batches_sha256": batches_sha256(result.batches),
        "batch_starts": list(result.batch_starts),
        "K": result.K,
        "cmax_estimate": result.cmax_estimate,
        "schedule_sha256": schedule_sha256(result.schedule),
        "shuffle_improvement": result.shuffle_improvement,
    }


def demt_golden_cells() -> list[dict]:
    from repro.workloads.trace import trace_instance

    specs = [(kind, n, m, "DEMT", {}) for kind in GOLDEN_FAMILIES for n, m in DEMT_SIZES]
    specs += [(*cell, "DEMT", knobs) for cell in DEMT_KNOB_CELLS for knobs in DEMT_KNOBS]
    specs += [
        (*cell, engine, {})
        for cell in DEMT_ABLATION_CELLS
        for engine in ("GreedyInterval", "A1-greedy")
    ]
    cells = []
    for kind, n, m, engine, knobs in specs:
        inst = generate_workload(kind, n=n, m=m, seed=derive_rng(GOLDEN_SEED, "demt", kind, n, m))
        result = demt_engine(engine, knobs).schedule_detailed(inst)
        cells.append(
            {"source": kind, "model": None, "n": n, "m": m, "engine": engine,
             "knobs": knobs, **demt_result_doc(result)}
        )
    trace = demt_archive()
    for model, engine in DEMT_ARCHIVE_CELLS:
        inst = trace_instance(trace, DEMT_ARCHIVE["m"], model, online=False)
        result = demt_engine(engine, {}).schedule_detailed(inst)
        cells.append(
            {"source": "archive", "model": model, "digest": trace.digest,
             "n": inst.n, "m": inst.m, "engine": engine, "knobs": {},
             **demt_result_doc(result)}
        )
    return cells


DUAL_GOLDEN_PATH = Path(__file__).with_name("dual_goldens.json")

#: Frozen dual-approximation corpus: ``(source, n, m)`` cells, where the
#: source is a generated family or one of the object-backed shapes of
#: :func:`dual_object_instance`; plus :data:`DUAL_ARCHIVE` under every
#: moldability model.  Most generated cells accept the closed-form floor
#: on the first probe, so the few-tasks-on-a-wide-machine cells and half
#: of the object-backed ones are picked because their floor is rejected
#: and the search doubles and bisects.  Cells with
#: ``n <= DUAL_SCHEDULE_MAX_N`` also pin the lazily built two-shelf
#: schedule.
DUAL_SIZES = ((25, 13), (400, 200), (1000, 64))  # (n, m)
DUAL_OBJECT_SHAPES = ("ragged", "rigid", "nonmonotone")
DUAL_CELLS = (
    tuple((kind, n, m) for kind in GOLDEN_FAMILIES for n, m in DUAL_SIZES)
    + (("weakly_parallel", 10, 64), ("highly_parallel", 10, 64), ("mixed", 40, 200))
    + (("mixed", 50, 1), ("ragged", 30, 1))
    + tuple((shape, 60, 16) for shape in DUAL_OBJECT_SHAPES)
    + (("ragged", 10, 16), ("ragged", 30, 64), ("rigid", 5, 16))
    + (("nonmonotone", 20, 16), ("nonmonotone", 30, 64))
)
DUAL_SCHEDULE_MAX_N = 60
DUAL_ARCHIVE = dict(n=3000, m=64, seed=200400, load=0.8)


def dual_object_instance(shape: str, n: int, m: int):
    """An object-backed instance the generators never make.

    ``ragged``: vectors shorter and longer than ``m``; ``rigid``: every
    task needs at least two processors (``p(1) = +inf``), half of them
    run at exactly one width; ``nonmonotone``: unsorted times with
    forbidden (``+inf``) allotments.
    """
    import numpy as np

    from repro.core.instance import Instance
    from repro.core.task import MoldableTask

    rng = derive_rng(GOLDEN_SEED, "dual", shape, n, m)
    tasks = []
    for tid in range(n):
        seq = float(rng.uniform(1.0, 100.0))
        weight = float(rng.uniform(0.5, 10.0))
        if shape == "ragged":
            width = int(rng.integers(1, m + 7))
            times = seq / np.arange(1, width + 1) ** float(rng.uniform(0.0, 1.0))
        elif shape == "rigid":
            low = int(rng.integers(2, m + 1)) if m > 1 else 1
            times = np.full(m, np.inf)
            if rng.random() < 0.5:
                times[low - 1] = seq
            else:
                ks = np.arange(low, m + 1, dtype=np.float64)
                times[low - 1 :] = seq / (ks / low) ** float(rng.uniform(0.0, 1.0))
        else:
            times = rng.uniform(1.0, 100.0, size=m)
            times[rng.random(m) < 0.2] = np.inf
            if np.isinf(times).all():
                times[int(rng.integers(0, m))] = seq
        tasks.append(MoldableTask(tid, times, weight=weight))
    return Instance(tasks, m)


def dual_archive():
    """The dual corpus's archive, parsed from its synthesized SWF text."""
    import io

    from repro.workloads.trace import load_trace, synthesize_swf

    return load_trace(io.StringIO(synthesize_swf(**DUAL_ARCHIVE)))


def dual_golden_instance(cell: dict):
    """Rebuild the instance of one dual golden cell."""
    from repro.workloads.trace import trace_instance

    if cell["source"] == "archive":
        return trace_instance(dual_archive(), DUAL_ARCHIVE["m"], cell["model"], online=False)
    source, n, m = cell["source"], cell["n"], cell["m"]
    if source in DUAL_OBJECT_SHAPES:
        return dual_object_instance(source, n, m)
    return generate_workload(source, n=n, m=m, seed=derive_rng(GOLDEN_SEED, "dual", source, n, m))


def dual_rows_sha256(result, instance) -> str:
    """sha256 over the ``repr`` of every task's ``(task_id, allotment,
    in_big_shelf)``, in instance order."""
    h = hashlib.sha256()
    for tid in instance.task_ids.tolist():
        row = (tid, result.allotments[tid], tid in result.big_shelf)
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def dual_result_doc(result, instance) -> dict:
    """The recorded fields of one :class:`~repro.algorithms.dual_approx.
    DualApproxResult` (the schedule only on small instances)."""
    doc = {
        "lower_bound": result.lower_bound,
        "lam": result.lam,
        "rows_sha256": dual_rows_sha256(result, instance),
    }
    if instance.n <= DUAL_SCHEDULE_MAX_N:
        doc["schedule_sha256"] = schedule_sha256(result.schedule)
    return doc


def dual_golden_cells() -> list[dict]:
    from repro.algorithms.dual_approx import dual_approximation
    from repro.workloads.trace import MOLDABILITY_MODELS

    specs = [{"source": source, "model": None, "n": n, "m": m} for source, n, m in DUAL_CELLS]
    digest = dual_archive().digest
    specs += [
        {"source": "archive", "model": model, "digest": digest, "n": DUAL_ARCHIVE["n"],
         "m": DUAL_ARCHIVE["m"]}
        for model in MOLDABILITY_MODELS
    ]
    cells = []
    for spec in specs:
        inst = dual_golden_instance(spec)
        cells.append({**spec, "n": inst.n, **dual_result_doc(dual_approximation(inst), inst)})
    return cells


LIST_GOLDEN_PATH = Path(__file__).with_name("list_goldens.json")

#: The list-scheduling engines without a placement-level golden elsewhere
#: (registry names), on the four families at :data:`LIST_SIZES`, on
#: object-backed instances (:data:`LIST_OBJECT_CELLS`) and on
#: :data:`DUAL_ARCHIVE` under every moldability model.
LIST_ENGINES = ("List Scheduling", "LPTF", "SAF", "WSPT", "Sequential", "Gang")
LIST_SIZES = ((25, 13), (400, 200), (1000, 64))  # (n, m)
LIST_OBJECT_CELLS = (("ragged", 60, 16), ("ragged", 30, 64), ("rigid", 60, 16), ("rigid", 5, 16))
#: On-line batch policies pinned only by the windowed oracles before, on
#: the SWF fixtures; the reservations are recorded with the
#: ``reservation`` cells of ``list_goldens.json``, and
#: ``tests/simulator/test_policies.py::test_reservation_policy_respects_capacity``
#: checks the policy against its capacity profile.
LIST_ONLINE_POLICIES = ("greedy-interval", "reservation")
LIST_RESERVATIONS = ((0.0, 30.0, 3), (45.0, 60.0, 5))


def insertion_sha256(schedule) -> str:
    """sha256 over the ``repr`` of every placement's task id, in insertion
    order (the order ``weighted_completion_sum`` adds in)."""
    h = hashlib.sha256()
    for p in schedule:
        h.update(repr(p.task.task_id).encode())
        h.update(b"\n")
    return h.hexdigest()


def list_schedule_doc(schedule) -> dict:
    """The recorded fields of one list-scheduling golden cell."""
    return {
        "cmax": schedule.makespan(),
        "minsum": schedule.weighted_completion_sum(),
        "schedule_sha256": schedule_sha256(schedule),
        "insertion_sha256": insertion_sha256(schedule),
    }


def list_online_policy(name: str):
    """The on-line policy of a list golden cell (DEMT engine)."""
    from repro.algorithms.demt import schedule_demt
    from repro.extensions.reservations import Reservation
    from repro.simulator.online import get_policy

    if name == "reservation":
        blocked = [Reservation(*r) for r in LIST_RESERVATIONS]
        return get_policy(name, offline=schedule_demt, reservations=blocked)
    return get_policy(name, offline=schedule_demt)


def list_golden_instance(cell: dict):
    """Rebuild the instance of one list golden cell."""
    from repro.workloads.trace import load_trace, trace_instance

    source = cell["source"]
    if source == "archive":
        return trace_instance(dual_archive(), DUAL_ARCHIVE["m"], cell["model"], online=False)
    if source == "fixture":
        trace = load_trace(TRACES_DIR / cell["fixture"])
        return trace_instance(trace, cell["m"], cell["model"], online=True)
    n, m = cell["n"], cell["m"]
    if source in DUAL_OBJECT_SHAPES:
        return dual_object_instance(source, n, m)
    return generate_workload(source, n=n, m=m, seed=derive_rng(GOLDEN_SEED, "list", source, n, m))


def list_golden_schedule(cell: dict, instance):
    """The schedule of one list golden cell."""
    if cell["source"] == "fixture":
        return list_online_policy(cell["engine"]).run(instance).schedule
    return get_algorithm(cell["engine"]).schedule(instance)


def list_golden_cells() -> list[dict]:
    from repro.workloads.trace import MOLDABILITY_MODELS

    specs = [
        {"source": kind, "n": n, "m": m}
        for kind in GOLDEN_FAMILIES
        for n, m in LIST_SIZES
    ]
    specs += [{"source": shape, "n": n, "m": m} for shape, n, m in LIST_OBJECT_CELLS]
    specs += [
        {"source": "archive", "model": model, "n": DUAL_ARCHIVE["n"], "m": DUAL_ARCHIVE["m"]}
        for model in MOLDABILITY_MODELS
    ]
    specs = [{**spec, "engine": engine} for spec in specs for engine in LIST_ENGINES]
    specs += [
        {"source": "fixture", "fixture": name, "model": model, "m": m, "engine": policy}
        for name, (_kwargs, m) in TRACE_FIXTURES.items()
        for model in MOLDABILITY_MODELS
        for policy in LIST_ONLINE_POLICIES
    ]
    cells = []
    for spec in specs:
        inst = list_golden_instance(spec)
        schedule = list_golden_schedule(spec, inst)
        cells.append({**spec, "n": inst.n, **list_schedule_doc(schedule)})
    return cells


def main() -> None:
    payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact (cmax, minsum) goldens; regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": golden_cells(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['cells'])} cells to {GOLDEN_PATH}")

    write_trace_fixtures()
    print(f"wrote {len(TRACE_FIXTURES)} SWF fixtures to {TRACES_DIR}")
    trace_payload = {
        "_meta": {
            "comment": (
                "Bit-exact trace-replay aggregates (DEMT engine) on the "
                "frozen fixtures under tests/data/traces/; regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": trace_golden_cells(),
    }
    TRACE_GOLDEN_PATH.write_text(json.dumps(trace_payload, indent=1) + "\n")
    print(f"wrote {len(trace_payload['cells'])} replay cells to {TRACE_GOLDEN_PATH}")

    fcfs_payload = {
        "_meta": {
            "comment": (
                "Bit-exact on-line FCFS and EASY-backfill replays on the "
                "frozen fixtures under tests/data/traces/: aggregates plus a "
                "sha256 over each schedule's (task_id, start, allotment, end) "
                "reprs; regenerate with tests/data/make_goldens.py only for "
                "intentional changes."
            ),
        },
        "cells": fcfs_replay_golden_cells(),
    }
    FCFS_GOLDEN_PATH.write_text(json.dumps(fcfs_payload, indent=1) + "\n")
    print(f"wrote {len(fcfs_payload['cells'])} FCFS replay cells to {FCFS_GOLDEN_PATH}")

    online_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact on-line batch schedules of the seed "
                "ReferenceBatchScheduler (DEMT engine) on frozen instances "
                "with deterministic releases; the BatchPolicy kernel must "
                "reproduce every placement.  Regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": online_golden_cells(),
    }
    ONLINE_GOLDEN_PATH.write_text(json.dumps(online_payload, indent=1) + "\n")
    print(f"wrote {len(online_payload['cells'])} online cells to {ONLINE_GOLDEN_PATH}")

    pareto_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "sweep": list(PARETO_SWEEP),
            "comment": (
                "Bit-exact Pareto sweep clouds, front masks and indicators "
                "on frozen synthetic cells and one trace window; regenerate "
                "with tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": pareto_golden_cells(),
    }
    PARETO_GOLDEN_PATH.write_text(json.dumps(pareto_payload, indent=1) + "\n")
    print(f"wrote {len(pareto_payload['cells'])} pareto cells to {PARETO_GOLDEN_PATH}")

    faulty_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact fault-injected replays of FaultyBatchPolicy "
                "(placements, batches, crash/deferral counts and the full "
                "event log) on frozen instances; the event-spine port must "
                "reproduce every row.  Regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": faulty_golden_cells(),
    }
    FAULTY_GOLDEN_PATH.write_text(json.dumps(faulty_payload, indent=1) + "\n")
    print(f"wrote {len(faulty_payload['cells'])} faulty cells to {FAULTY_GOLDEN_PATH}")

    minsum_lp_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact §3.3 minsum LP/ILP bounds (value, boundaries) "
                "at the dual-approximation estimate, plus a sha256 over the "
                "model handed to the solver (c, b_ub, CSR indptr/indices/"
                "data with int64 indices); regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": minsum_lp_golden_cells(),
    }
    MINSUM_LP_GOLDEN_PATH.write_text(json.dumps(minsum_lp_payload, indent=1) + "\n")
    print(f"wrote {len(minsum_lp_payload['cells'])} LP cells to {MINSUM_LP_GOLDEN_PATH}")

    demt_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "archive": DEMT_ARCHIVE,
            "comment": (
                "Bit-exact DEMT runs: batch contents (sha256 over each item's "
                "batch index, task id, allotment and stack ids), batch starts, "
                "K, the C*max estimate, the schedule's sha256 over its "
                "(task_id, start, allotment, end) reprs and the shuffle gain; "
                "regenerate with tests/data/make_goldens.py only for "
                "intentional changes."
            ),
        },
        "cells": demt_golden_cells(),
    }
    DEMT_GOLDEN_PATH.write_text(json.dumps(demt_payload, indent=1) + "\n")
    print(f"wrote {len(demt_payload['cells'])} DEMT cells to {DEMT_GOLDEN_PATH}")

    dual_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "archive": DUAL_ARCHIVE,
            "comment": (
                "Bit-exact dual approximations: certified lower bound, "
                "accepted lambda, a sha256 over every task's (task_id, "
                "allotment, in_big_shelf) repr and, on small cells, the "
                "two-shelf schedule's sha256; regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": dual_golden_cells(),
    }
    DUAL_GOLDEN_PATH.write_text(json.dumps(dual_payload, indent=1) + "\n")
    print(f"wrote {len(dual_payload['cells'])} dual cells to {DUAL_GOLDEN_PATH}")

    list_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "archive": DUAL_ARCHIVE,
            "reservations": [list(r) for r in LIST_RESERVATIONS],
            "comment": (
                "Bit-exact list-scheduling engines (List, LPTF, SAF, WSPT, "
                "Sequential, Gang) and the on-line greedy-interval and "
                "reservation policies: cmax, minsum, a sha256 over the "
                "(task_id, start, allotment, end) reprs in task-id order and "
                "a sha256 over the task ids in insertion order; regenerate "
                "with tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": list_golden_cells(),
    }
    LIST_GOLDEN_PATH.write_text(json.dumps(list_payload, indent=1) + "\n")
    print(f"wrote {len(list_payload['cells'])} list cells to {LIST_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
