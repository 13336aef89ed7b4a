"""Integration tests: hooks across the algorithm/simulator/campaign stack.

Four invariants are pinned here:

* enabling tracing changes **nothing** about computed schedules — the
  bit-identity tests compare placements with observability on and off;
* the worker→parent metric merge is **exact** — a process-backend or
  thread-backend campaign reports the same counters as the identical
  serial run;
* robustness cells record **real** wall-clock seconds (PR 7 pinned them
  to 0.0) without breaking serial-vs-process record identity, because
  record equality excludes ``seconds``.
* the FCFS policies and the faulty batch loop report the **same**
  event-spine tally (``spine.transitions.*``, ``spine.window_depth``) on
  every kernel backend as the spine-driven loops their kernels replaced.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import kernels, obs
from repro.workloads.generator import generate_workload


def _placements(schedule):
    return [
        (p.task.task_id, p.start, p.allotment, p.end)
        for p in schedule.placements
    ]


class TestBitIdentity:
    def test_demt_schedule_identical_with_obs_enabled(self):
        from repro.algorithms.demt import DemtScheduler

        inst = generate_workload("mixed", n=24, m=8, seed=7)
        baseline = DemtScheduler(seed=0).schedule_detailed(inst)
        obs.enable()
        traced = DemtScheduler(seed=0).schedule_detailed(inst)
        state = obs.disable()
        assert _placements(traced.schedule) == _placements(baseline.schedule)
        assert traced.schedule.makespan() == baseline.schedule.makespan()
        # ... and the run actually produced telemetry.
        assert state.counters["demt.batches"] >= 1
        assert state.counters["dual.probes"] >= 1
        assert any(k.startswith("kernel.dispatch.") for k in state.counters)
        assert {s.name for s in state.spans} >= {"demt", "dual_approximation"}

    def test_demt_counts_extension_batches(self):
        # The doubling extension beyond the paper's K + 1 batches, counted
        # once per call beside demt.batches: on the replay-demt archive it
        # builds 439 of the 453 rigid batches and none of the 13 downey ones.
        import io

        from repro.algorithms.demt import DemtScheduler
        from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

        trace = load_trace(io.StringIO(synthesize_swf(3000, 64, 200400, load=0.8)))
        got = {}
        for model in ("rigid", "downey"):
            inst = trace_instance(trace, 64, model, online=False)
            obs.enable()
            result = DemtScheduler().schedule_detailed(inst)
            state = obs.disable()
            got[model] = (
                state.counters["demt.extension_batches"],
                state.counters["demt.batches"],
            )
            assert result.extension_batches == got[model][0]
            assert result.n_batches == len(result.batches)
        assert got == {"rigid": (439, 453), "downey": (0, 13)}

    def test_online_replay_identical_with_obs_enabled(self):
        from repro.algorithms.wspt import schedule_wspt
        from repro.simulator.online import BatchPolicy
        from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

        trace = load_trace(synthesize_swf(60, 8, seed=5))
        inst = trace_instance(trace, 8, "rigid", online=True)
        baseline = BatchPolicy(schedule_wspt).run(inst)
        obs.enable()
        traced = BatchPolicy(schedule_wspt).run(inst)
        state = obs.disable()
        assert _placements(traced.schedule) == _placements(baseline.schedule)
        assert state.counters["online.batches"] >= 1
        assert state.hists["online.batch_size"]["count"] >= 1
        # The batch policy counted the arrivals of its batches.
        assert any(k.startswith("spine.transitions.") for k in state.counters)
        assert any(s.name.startswith("policy:") for s in state.spans)


#: What the spine-driven FCFS loop before the dispatch kernel recorded on
#: an obs-enabled run: ``spine.transitions.*`` counters and the
#: ``spine.window_depth`` histogram.  The SWF fixture's events never share
#: a window; the tie-heavy instance's do.
FCFS_CIRNE_SMALL = {
    "counters": {"spine.transitions.arrival": 60, "spine.transitions.finish": 60},
    "window_depth": {"count": 120, "total": 120, "min": 1, "max": 1, "buckets": {1: 120}},
}
FCFS_TIE_HEAVY = {
    "fcfs": {
        "counters": {"spine.transitions.arrival": 40, "spine.transitions.finish": 40},
        "window_depth": {
            "count": 42, "total": 80, "min": 1, "max": 11,
            "buckets": {1: 31, 2: 4, 4: 2, 8: 4, 16: 1},
        },
    },
    "fcfs-backfill": {
        "counters": {"spine.transitions.arrival": 40, "spine.transitions.finish": 40},
        "window_depth": {
            "count": 37, "total": 80, "min": 1, "max": 11,
            "buckets": {1: 22, 2: 8, 4: 2, 8: 4, 16: 1},
        },
    },
}


def _tie_heavy_instance():
    """40 rigid jobs on 4 processors with integer releases and durations,
    task ids shuffled against row order."""
    import numpy as np

    from repro.core.instance import Instance

    rng = np.random.default_rng(19)
    n, m = 40, 4
    ks = rng.integers(1, m + 1, size=n)
    times = np.full((n, m), np.inf)
    times[np.arange(n), ks - 1] = rng.integers(1, 4, size=n)
    releases = rng.integers(0, 10, size=n).astype(float)
    return Instance.from_arrays(times, None, releases, m, task_ids=rng.permutation(n))


def _spine_tally(state) -> dict:
    return {
        "counters": {
            k: v for k, v in state.counters.items() if k.startswith("spine.")
        },
        "window_depth": state.hists["spine.window_depth"],
    }


@pytest.mark.parametrize("mode", ["fcfs", "fcfs-backfill"])
@pytest.mark.parametrize("backend", kernels.available_backend_names())
class TestFcfsSpineTally:
    """The FCFS policies report the same spine tally as before their loop
    became a kernel, on every backend, plus the kernel's own tallies."""

    def _traced(self, backend, run):
        previous = kernels.set_backend(backend)
        try:
            obs.enable(fresh=True)
            try:
                run()
            finally:
                state = obs.disable()
        finally:
            kernels.set_backend(previous)
        assert state.counters["kernel.fcfs_calls"] == 1
        assert state.counters["kernel.dispatch." + backend] == 1
        return _spine_tally(state)

    def test_cirne_small_replay(self, backend, mode):
        from repro.experiments.replay import replay_trace

        path = Path(__file__).resolve().parents[1] / "data" / "traces" / "cirne_small.swf"
        assert self._traced(backend, lambda: replay_trace(str(path), modes=mode)) == (
            FCFS_CIRNE_SMALL
        )

    def test_tie_heavy_windows(self, backend, mode):
        from repro.simulator.online import get_policy

        inst = _tie_heavy_instance()
        assert self._traced(backend, lambda: get_policy(mode).run(inst)) == (
            FCFS_TIE_HEAVY[mode]
        )


#: What the spine-driven faulty batch loop before its kernel recorded on
#: an obs-enabled run of each ``faulty_goldens.json`` cell, and of the
#: second cell's instance with no noise and no failures: the
#: ``spine.*``, ``online.*`` and ``faults.*`` counters, the window-depth
#: histogram and the batch-size histogram.  Stale FINISHes of crashed
#: jobs are counted when a window pops them.
FAULTY_TALLY = {
    "mixed-n20-exp:10:4@1": (
        {"spine.transitions.finish": 23, "spine.transitions.reserve": 38,
         "spine.transitions.start": 131, "online.batches": 106,
         "faults.crashes": 15, "faults.deferrals": 96},
        {"count": 169, "total": 192, "min": 1, "max": 5,
         "buckets": {1: 152, 2: 14, 4: 2, 8: 1}},
        {"count": 106, "total": 131, "min": 1, "max": 20,
         "buckets": {1: 103, 2: 1, 8: 1, 32: 1}},
    ),
    "mixed-n30-exp:5:3@2": (
        {"spine.transitions.finish": 42, "spine.transitions.reserve": 946,
         "spine.transitions.start": 192, "online.batches": 56,
         "faults.crashes": 28, "faults.deferrals": 134},
        {"count": 1161, "total": 1180, "min": 1, "max": 5,
         "buckets": {1: 1150, 2: 7, 4: 3, 8: 1}},
        {"count": 56, "total": 192, "min": 1, "max": 22,
         "buckets": {1: 5, 2: 4, 4: 43, 8: 1, 16: 2, 32: 1}},
    ),
    "cirne-n25-exp:15:5@3": (
        {"spine.transitions.finish": 26, "spine.transitions.reserve": 28,
         "spine.transitions.start": 35, "online.batches": 9,
         "faults.crashes": 2, "faults.deferrals": 8},
        {"count": 77, "total": 89, "min": 1, "max": 3,
         "buckets": {1: 68, 2: 6, 4: 3}},
        {"count": 9, "total": 35, "min": 1, "max": 8,
         "buckets": {1: 2, 2: 2, 4: 2, 8: 3}},
    ),
    "highly_parallel-n16-exp:8:2@4": (
        {"spine.transitions.finish": 19, "spine.transitions.reserve": 101,
         "spine.transitions.start": 59, "online.batches": 26,
         "faults.crashes": 8, "faults.deferrals": 35},
        {"count": 170, "total": 179, "min": 1, "max": 3,
         "buckets": {1: 162, 2: 7, 4: 1}},
        {"count": 26, "total": 59, "min": 1, "max": 9,
         "buckets": {1: 12, 2: 7, 4: 4, 8: 2, 16: 1}},
    ),
    "weakly_parallel-n24-exp:6:2@5": (
        {"spine.transitions.finish": 31, "spine.transitions.reserve": 216,
         "spine.transitions.start": 664, "online.batches": 628,
         "faults.crashes": 109, "faults.deferrals": 531},
        {"count": 878, "total": 911, "min": 1, "max": 7,
         "buckets": {1: 859, 2: 14, 4: 3, 8: 2}},
        {"count": 628, "total": 664, "min": 1, "max": 21,
         "buckets": {1: 624, 8: 2, 16: 1, 32: 1}},
    ),
    "nominal": (
        {"spine.transitions.finish": 30, "spine.transitions.start": 30,
         "online.batches": 7},
        {"count": 37, "total": 60, "min": 1, "max": 5,
         "buckets": {1: 22, 2: 11, 4: 3, 8: 1}},
        {"count": 7, "total": 30, "min": 1, "max": 14,
         "buckets": {1: 4, 8: 2, 16: 1}},
    ),
}


def _faulty_runs():
    """``{name: zero-argument run}`` for the cells of FAULTY_TALLY."""
    import json

    from repro.core.instance import Instance
    from repro.faults.failures import FaultyBatchPolicy, generate_failures
    from repro.utils.rng import derive_rng

    goldens = json.loads(
        (Path(__file__).resolve().parents[1] / "data" / "faulty_goldens.json").read_text()
    )

    def instance(cell):
        rng = derive_rng(
            goldens["_meta"]["seed"], "faulty", cell["kind"], cell["n"],
            int(cell["spread"] * 10),
        )
        base = generate_workload(cell["kind"], n=cell["n"], m=cell["m"], seed=rng)
        if cell["spread"] == 0:
            return base
        releases = rng.exponential(cell["spread"], size=cell["n"]).cumsum()
        tasks = [t.with_release(float(r)) for t, r in zip(base.tasks, releases)]
        return Instance(tasks, base.m)

    runs = {}
    for cell in goldens["cells"]:
        inst = instance(cell)
        trace = generate_failures(cell["m"], cell["horizon"], cell["failures"])
        policy = FaultyBatchPolicy(noise=cell["noise"], failures=trace)
        runs[f"{cell['kind']}-n{cell['n']}-{cell['failures']}"] = (
            lambda policy=policy, inst=inst: policy.run(inst)
        )
    nominal = instance(goldens["cells"][1])
    runs["nominal"] = lambda: FaultyBatchPolicy().run(nominal)
    return runs


@pytest.mark.parametrize("backend", kernels.available_backend_names())
class TestFaultySpineTally:
    """The faulty batch loop reports the same tally as before its batch
    execution became a kernel, on every backend, plus one kernel call per
    batch."""

    @pytest.mark.parametrize("cell", sorted(FAULTY_TALLY))
    def test_cell(self, backend, cell):
        previous = kernels.set_backend(backend)
        try:
            obs.enable(fresh=True)
            try:
                _faulty_runs()[cell]()
            finally:
                state = obs.disable()
        finally:
            kernels.set_backend(previous)
        counters = {
            k: v for k, v in state.counters.items()
            if k.startswith(("spine.", "online.", "faults."))
        }
        assert (
            counters,
            state.hists["spine.window_depth"],
            state.hists["online.batch_size"],
        ) == FAULTY_TALLY[cell]
        batches = state.counters["online.batches"]
        assert state.counters["kernel.faulty_batch_calls"] == batches


def _run_campaign(backend):
    from repro.experiments.engine import CellCache
    from repro.faults.campaign import run_robustness_campaign

    cache = CellCache()
    result = run_robustness_campaign(
        "mixed", (8,), 2, "lognormal:0.3|exp:30:5", engines=("demt",),
        m=8, seed=3, validate=True, backend=backend, jobs=2, cache=cache,
    )
    return result, cache


class TestCrossProcessMerge:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_counters_match_serial_exactly(self, backend):
        """Every counter is a function of the work done, so it must not
        depend on which backend did the work or in what order."""
        obs.enable(fresh=True)
        _run_campaign("serial")
        serial = obs.disable()
        obs.enable(fresh=True)
        _run_campaign(backend)
        pooled = obs.disable()
        assert pooled.counters == serial.counters
        assert serial.counters["cells.measured"] > 0
        # Worker spans were grafted under the dispatch span on fresh
        # timeline lanes, parents intact, span ids collision-free.
        sids = {s.sid for s in pooled.spans}
        assert len(sids) == len(pooled.spans)
        worker_spans = [s for s in pooled.spans if s.tid > 0]
        assert worker_spans, "no worker spans on their own lanes"
        for s in worker_spans:
            assert s.parent in sids or s.parent == -1

    def test_cache_hits_counted(self):
        from repro.experiments.engine import CellCache
        from repro.faults.campaign import run_robustness_campaign

        cache = CellCache()
        kw = dict(engines=("demt",), m=8, seed=3, cache=cache)
        run_robustness_campaign("mixed", (8,), 1, "none", **kw)
        obs.enable()
        run_robustness_campaign("mixed", (8,), 1, "none", **kw)
        state = obs.disable()
        assert state.counters.get("cells.cache_hit", 0) > 0
        assert state.counters.get("cells.cache_miss", 0) == 0


class TestRobustnessSeconds:
    def test_worker_records_real_seconds(self):
        from repro.faults.campaign import _run_robustness_cell

        _, records = _run_robustness_cell(
            (3, "mixed", 16, 8, 0, ("demt",), "none|none|none", True, False)
        )
        assert records["demt"].seconds > 0.0

    def test_backend_identity_despite_wallclock(self):
        serial_result, serial_cache = _run_campaign("serial")
        process_result, process_cache = _run_campaign("process")
        # Rows and cached records compare equal across backends even
        # though measured seconds necessarily differ.
        assert serial_result.rows == process_result.rows
        assert serial_cache._records == process_cache._records

    def test_record_equality_excludes_seconds(self):
        from repro.experiments.engine import CellRecord

        a = CellRecord(cmax=2.0, minsum=5.0, seconds=0.1, validated=True)
        b = CellRecord(cmax=2.0, minsum=5.0, seconds=0.7, validated=True)
        c = CellRecord(cmax=2.5, minsum=5.0, seconds=0.1, validated=True)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a record"

    def test_cache_journal_not_rewritten_for_seconds_drift(self, tmp_path):
        from repro.experiments.engine import PersistentCellCache
        from repro.faults.campaign import run_robustness_campaign

        def journal():
            return b"".join(
                p.read_bytes() for p in sorted(tmp_path.glob("*.jsonl"))
            )

        kw = dict(engines=("demt",), m=8, seed=3)
        run_robustness_campaign(
            "mixed", (8,), 1, "none",
            cache=PersistentCellCache(tmp_path), **kw,
        )
        before = journal()
        # The reload re-measures nothing; and even if a record were
        # re-measured, a seconds-only drift must not be re-journalled
        # (record equality excludes seconds).
        run_robustness_campaign(
            "mixed", (8,), 1, "none",
            cache=PersistentCellCache(tmp_path), **kw,
        )
        assert journal() == before
