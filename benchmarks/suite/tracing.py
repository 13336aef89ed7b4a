"""Per-layer self time, measured from outside the program.

The traced run installs a table of hooks: each one swaps a public
function or method of the library *at the site where it is called* for a
wrapper that opens a span on a private :class:`repro.obs.ObsState`.  The
state is never installed as ``repro.obs.ACTIVE``, so the program's own
instrumentation stays off.  A span's self time is its duration minus the
time its child spans cover, so the self times of all layers plus the
benchmark's own (the root span) add up to the wall time of the traced
rep.  Nothing under ``src/`` knows about this: the program is measured
as shipped, and the end-to-end reps run with every hook removed.

Each hook names the workloads that must fire it; :func:`check_fired`
fails the run when one stays silent, so a moved import or a renamed
function cannot silently drop a layer from the profile.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # run.py reads PER_LAYER without importing the program
    from repro.obs import ObsState

__all__ = [
    "HOOKS",
    "PER_LAYER",
    "ROOT_SPAN",
    "install",
    "check_fired",
    "self_times",
    "layer_metrics",
    "write_trace",
]

#: The span the worker opens around each traced rep: its self time is
#: the benchmark's own.
ROOT_SPAN = "bench"

PAPER = "paper-campaign"
REPLAY_DEMT = "replay-demt"
REPLAY_SPINE = "replay-spine"
ROBUST = "robustness"
ALL = frozenset({PAPER, REPLAY_DEMT, REPLAY_SPINE, ROBUST})


# ---------------------------------------------------------------------- #
# Counters taken from a hooked call's span name, arguments and result.   #
# Methods see their arguments without ``self``.  ``kernels.bytes_in`` is  #
# computed: 8 bytes per element of every array the C kernel reads.       #
# ---------------------------------------------------------------------- #
def _calls(tracer, name, args, result):
    tracer.count(name + ".calls")


def _trace_jobs(tracer, name, args, result):
    tracer.count(name + ".jobs", result.n)


def _reconstruct_cells(tracer, name, args, result):
    tracer.count(name + ".cells", result.n * result.m)


def _allot_rounds(tracer, name, args, result):
    # DEMT calls minimal_allotments once per selection round, on the rows
    # of the tasks still in the pool.
    tracer.count("algorithms.demt.rounds")
    tracer.count("algorithms.demt.pool_scanned", len(args[0]))


def _shuffle_accepted(tracer, name, args, result):
    tracer.count(name + ".calls")
    if result is not None:
        tracer.count(name + ".accepted")


def _knapsack_select(tracer, name, args, result):
    allot, _weights, m = args
    tracer.count(name + ".calls")
    tracer.count(name + ".dp_cells", len(allot) * (m + 1))
    tracer.count("kernels.bytes_in", 16 * len(allot))


def _min_work(tracer, name, args, result):
    work_a, _cost_a, _work_b, m = args
    tracer.count(name + ".calls")
    tracer.count(name + ".dp_cells", len(work_a) * (m + 1))
    tracer.count("kernels.bytes_in", 24 * len(work_a))


def _graham(tracer, name, args, result):
    n = len(args[0])
    tracer.count(name + ".calls")
    tracer.count(name + ".tasks", n)
    tracer.count("kernels.bytes_in", 16 * n)


def _policy_counts(tracer, name, args, result):
    tracer.count(name + ".jobs", args[0].n)
    if name == "simulator.batch":
        tracer.count(name + ".batches", result.n_batches)
    elif name == "faults.policy":
        tracer.count("faults.crashes", result.crashes)


def _cells(tracer, name, args, result):
    tracer.count("experiments.cells", len(result))
    tracer.count(
        "experiments.cells_failed",
        sum(1 for out in result.values() if out.error is not None),
    )


def _batch_policy_layer(self) -> str:
    from repro.faults.failures import FaultyBatchPolicy

    return "faults.policy" if isinstance(self, FaultyBatchPolicy) else "simulator.batch"


def _fcfs_layer(self) -> str:
    return "simulator.fcfs_backfill" if self.backfill else "simulator.fcfs"


# ---------------------------------------------------------------------- #
# The hook table                                                         #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Hook:
    """One layer boundary.

    ``sites`` are ``"module:attr"`` (a module-level name, replaced where
    callers look it up) or ``"module:Class.method"`` (a method, replaced
    on the class).  ``layer`` is the span name, or a function of the
    bound instance for methods shared by two layers.  ``fires_on`` lists
    the workloads on which the hook must fire at least once; ``moves``
    records which end-to-end metric a change in this layer should move.
    """

    layer: "str | Callable"
    sites: tuple[str, ...]
    fires_on: frozenset
    moves: str
    counter: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    # workloads: instance generation, trace loading, moldability reconstruction
    Hook(
        "workloads.generate",
        ("repro.experiments.runner:generate_workload",
         "repro.faults.campaign:generate_workload"),
        frozenset({PAPER, ROBUST}),
        "throughput on paper-campaign and robustness",
        _calls,
    ),
    Hook(
        "workloads.load_trace",
        ("repro.experiments.replay:load_trace",),
        frozenset({REPLAY_DEMT, REPLAY_SPINE}),
        "throughput and peak_rss_mb on the replays",
        _trace_jobs,
    ),
    Hook(
        "workloads.reconstruct",
        ("repro.experiments.replay:trace_instance",),
        frozenset({REPLAY_DEMT, REPLAY_SPINE}),
        "throughput and peak_rss_mb on the replays",
        _reconstruct_cells,
    ),
    # bounds: the campaign and robustness call sites of the lower bounds
    Hook(
        "bounds.dual",
        ("repro.experiments.runner:dual_approximation",
         "repro.faults.campaign:dual_approximation"),
        frozenset({PAPER, ROBUST}),
        "throughput on paper-campaign and robustness; none on the replays",
        _calls,
    ),
    Hook(
        "bounds.minsum_lp",
        ("repro.experiments.runner:minsum_lower_bound",
         "repro.faults.campaign:minsum_lower_bound"),
        frozenset({PAPER, ROBUST}),
        "throughput on paper-campaign and robustness; none on the replays",
        _calls,
    ),
    # algorithms: DEMT and its phases, then every other off-line engine
    Hook(
        "algorithms.demt",
        ("repro.algorithms.demt:DemtScheduler.schedule_detailed",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "decision_ms_p50 on paper-campaign; throughput, decision_ms_p90 on replay-demt",
        _calls,
    ),
    Hook(
        "algorithms.demt_dual",
        ("repro.algorithms.demt:dual_approximation",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "decision_ms_p50 on paper-campaign and replay-demt",
    ),
    Hook(
        "algorithms.allot",
        ("repro.algorithms.demt:minimal_allotments",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "throughput and decision_ms_p90 on replay-demt",
        _allot_rounds,
    ),
    Hook(
        "algorithms.merge",
        ("repro.algorithms.demt:merge_small_tasks",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "throughput and decision_ms_p90 on replay-demt",
    ),
    Hook(
        "algorithms.compaction",
        ("repro.algorithms.demt:list_compaction",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "decision_ms_p50 on paper-campaign and replay-demt",
    ),
    Hook(
        "algorithms.shuffle",
        ("repro.algorithms.demt:order_metrics",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "decision_ms_p50 on paper-campaign and replay-demt",
        _shuffle_accepted,
    ),
    Hook(
        "algorithms.baselines",
        ("repro.algorithms.gang:GangScheduler.schedule",
         "repro.algorithms.sequential:SequentialScheduler.schedule",
         "repro.algorithms.list_graham:ListGrahamScheduler.schedule",
         "repro.algorithms.wspt:WsptScheduler.schedule"),
        frozenset({PAPER, REPLAY_SPINE, ROBUST}),
        "throughput on paper-campaign, replay-spine and robustness",
        _calls,
    ),
    # kernels: the compiled inner loops, at the dispatch layer
    Hook(
        "kernels.knapsack_select",
        ("repro.kernels:knapsack_select_core",),
        frozenset({PAPER, REPLAY_DEMT, ROBUST}),
        "decision_ms_p50 on replay-demt (a small effect everywhere)",
        _knapsack_select,
    ),
    Hook(
        "kernels.min_work",
        ("repro.kernels:knapsack_min_work_value_core",),
        ALL,
        "decision_ms_p50 on replay-demt (a small effect everywhere)",
        _min_work,
    ),
    Hook(
        "kernels.graham",
        ("repro.kernels:graham_starts_core",),
        ALL,
        "decision_ms_p50 on replay-demt (a small effect everywhere)",
        _graham,
    ),
    # simulator: the on-line policy path, minus the engine it calls
    Hook(
        _batch_policy_layer,
        ("repro.simulator.online:BatchPolicy.run",),
        ALL - {PAPER},
        "throughput on replay-spine (simulator.batch) and robustness (faults.policy)",
        _policy_counts,
    ),
    Hook(
        _fcfs_layer,
        ("repro.simulator.online:FcfsOnlinePolicy.run",),
        frozenset({REPLAY_SPINE}),
        "throughput on replay-spine; no change on paper-campaign",
        _policy_counts,
    ),
    # faults: scenario realisation
    Hook(
        "faults.failures",
        ("repro.faults.campaign:generate_failures",),
        frozenset({ROBUST}),
        "throughput on robustness only",
    ),
    Hook(
        "faults.noise",
        ("repro.faults.failures:perturb_instance",),
        frozenset({ROBUST}),
        "throughput on robustness only",
    ),
    Hook(
        "faults.arrivals",
        ("repro.faults.campaign:apply_arrivals",),
        frozenset({ROBUST}),
        "throughput on robustness only",
    ),
    # experiments: campaign plumbing and the persistent cache
    Hook(
        "experiments.engine",
        ("repro.experiments.runner:execute_cells",
         "repro.experiments.replay:execute_cells",
         "repro.faults.campaign:execute_cells"),
        ALL,
        "throughput on paper-campaign",
        _cells,
    ),
    Hook(
        # The public entry points the workloads call: their self time is
        # campaign plumbing too (record assembly, schedule metrics).
        "experiments.engine",
        ("repro.experiments.runner:run_cells",
         "repro.experiments.replay:replay_trace",
         "repro.faults.campaign:run_robustness_campaign"),
        ALL,
        "throughput on every workload",
    ),
    Hook(
        "experiments.cache.load",
        ("repro.experiments.engine:PersistentCellCache.__init__",),
        frozenset({PAPER}),
        "throughput on paper-campaign",
    ),
    Hook(
        "experiments.cache.write",
        ("repro.experiments.engine:PersistentCellCache.put_record",
         "repro.experiments.engine:PersistentCellCache.put_bounds"),
        frozenset({PAPER}),
        "throughput on paper-campaign",
    ),
)

#: Self-time metric of the spans not reported as ``<span>.self_s``.
SELF_METRIC = {
    "experiments.cache.load": "experiments.cache.load_s",
    "experiments.cache.write": "experiments.cache.write_s",
}

#: Every per-layer metric the traced run reports, with its unit, in the
#: order of ``per_layer`` in BENCHMARK.json.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("workloads.generate.self_s", "s"),
    ("workloads.generate.calls", "count"),
    ("workloads.load_trace.self_s", "s"),
    ("workloads.load_trace.jobs", "count"),
    ("workloads.reconstruct.self_s", "s"),
    ("workloads.reconstruct.cells", "count"),
    ("bounds.dual.self_s", "s"),
    ("bounds.dual.calls", "count"),
    ("bounds.minsum_lp.self_s", "s"),
    ("bounds.minsum_lp.calls", "count"),
    ("algorithms.demt.self_s", "s"),
    ("algorithms.demt.calls", "count"),
    ("algorithms.demt.rounds", "count"),
    ("algorithms.demt.pool_scanned", "count"),
    ("algorithms.demt_dual.self_s", "s"),
    ("algorithms.merge.self_s", "s"),
    ("algorithms.allot.self_s", "s"),
    ("algorithms.compaction.self_s", "s"),
    ("algorithms.shuffle.self_s", "s"),
    ("algorithms.shuffle.accepted_frac", "ratio"),
    ("algorithms.baselines.self_s", "s"),
    ("algorithms.baselines.calls", "count"),
    ("kernels.knapsack_select.self_s", "s"),
    ("kernels.knapsack_select.calls", "count"),
    ("kernels.knapsack_select.dp_cells", "count"),
    ("kernels.min_work.self_s", "s"),
    ("kernels.min_work.calls", "count"),
    ("kernels.min_work.dp_cells", "count"),
    ("kernels.graham.self_s", "s"),
    ("kernels.graham.calls", "count"),
    ("kernels.graham.tasks", "count"),
    ("kernels.bytes_in", "bytes"),
    ("simulator.batch.self_s", "s"),
    ("simulator.batch.jobs", "count"),
    ("simulator.batch.batches", "count"),
    ("simulator.fcfs.self_s", "s"),
    ("simulator.fcfs.jobs", "count"),
    ("simulator.fcfs_backfill.self_s", "s"),
    ("simulator.fcfs_backfill.jobs", "count"),
    ("faults.policy.self_s", "s"),
    ("faults.crashes", "count"),
    ("faults.failures.self_s", "s"),
    ("faults.noise.self_s", "s"),
    ("faults.arrivals.self_s", "s"),
    ("experiments.engine.self_s", "s"),
    ("experiments.cells", "count"),
    ("experiments.cells_failed", "count"),
    ("experiments.cache.load_s", "s"),
    ("experiments.cache.write_s", "s"),
    ("experiments.cache.hits", "count"),
    ("experiments.cache.misses", "count"),
    ("experiments.cache.journal_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------------- #
# Span recording, on a private ObsState                                  #
# ---------------------------------------------------------------------- #
def _resolve(site: str):
    """``(owner, attr, current value)`` of a hook site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


def _wrapper(tracer: ObsState, hook: Hook, fn: Callable, is_method: bool):
    layer, counter = hook.layer, hook.counter

    def wrapped(*args, **kwargs):
        name = layer(args[0]) if callable(layer) else layer
        with tracer.span(name, name.partition(".")[0]):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, name, args[1:] if is_method else args, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: ObsState) -> Callable[[], None]:
    """Install every hook on ``tracer``; returns the function that removes
    them again (restoring the original objects, in reverse order)."""
    undo = []
    try:
        for hook in HOOKS:
            for site in hook.sites:
                owner, attr, original = _resolve(site)
                is_method = isinstance(owner, type)
                setattr(owner, attr, _wrapper(tracer, hook, original, is_method))
                undo.append((owner, attr, original))
    except BaseException:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        raise

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _span_names(hook: Hook, workload: str) -> list[str]:
    """Span names a hook can produce (both layers of a shared method)."""
    if hook.layer is _batch_policy_layer:
        names = {"simulator.batch"} if workload != ROBUST else {"faults.policy"}
    elif hook.layer is _fcfs_layer:
        names = {"simulator.fcfs", "simulator.fcfs_backfill"}
    else:
        names = {hook.layer}
    return sorted(names)


def check_fired(tracer: ObsState, workload: str) -> list[str]:
    """Spans declared for ``workload`` that never fired (empty: all did)."""
    fired = {sp.name for sp in tracer.spans}
    missing = []
    for hook in HOOKS:
        if workload in hook.fires_on:
            missing += [n for n in _span_names(hook, workload) if n not in fired]
    return missing


def self_times(tracer: ObsState) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    durations of the spans whose parent it is."""
    children: dict[int, float] = {}
    for sp in tracer.spans:
        if sp.parent >= 0:
            children[sp.parent] = children.get(sp.parent, 0.0) + (sp.t1 - sp.t0)
    out: dict[str, float] = {}
    for sp in tracer.spans:
        own = (sp.t1 - sp.t0) - children.get(sp.sid, 0.0)
        out[sp.name] = out.get(sp.name, 0.0) + own
    return out


def layer_metrics(
    tracer: ObsState, passes: int, traced: list[list[float]], overhead_frac: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, per pass over the workload's parts.

    ``traced`` holds each part's traced rep times over ``passes`` passes;
    ``overhead_frac`` is the traced pass over the untraced one, minus 1,
    both at reference host speed with each part timed by its mean rep.
    """
    wall_s = sum(map(sum, traced))
    values: dict[str, float] = {}
    for name, seconds in self_times(tracer).items():
        values[SELF_METRIC.get(name, name + ".self_s")] = seconds
    values.update(tracer.counters)
    calls = values.get("algorithms.shuffle.calls", 0)
    values["algorithms.shuffle.accepted_frac"] = (
        values.get("algorithms.shuffle.accepted", 0) / calls if calls else 0.0
    )
    root = values.get(ROOT_SPAN + ".self_s", 0.0)
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ratio":
            out[name] = float(values.get(name, 0.0))
        else:
            out[name] = float(values.get(name, 0.0)) / passes
    out["trace.wall_s"] = wall_s / passes
    out["trace.unattributed_frac"] = root / wall_s
    out["trace.overhead_frac"] = overhead_frac
    return out


def write_trace(tracer: ObsState, out_dir: Path, workload: str, layers: dict) -> None:
    """Chrome-trace JSON (loads in Perfetto / chrome://tracing) plus
    ``layers.json`` with the per-layer metrics and the layer map."""
    from repro.obs.export import write_trace as write_chrome_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(tracer, out_dir / f"{workload}.trace.json")
    layer_map = [
        {
            "layer": _span_names(hook, workload),
            "sites": list(hook.sites),
            "fires_on": sorted(hook.fires_on),
            "moves": hook.moves,
        }
        for hook in HOOKS
    ]
    path = out_dir / "layers.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[workload] = {"metrics": layers, "map": layer_map}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
