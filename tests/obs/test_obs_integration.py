"""Integration tests: hooks across the algorithm/simulator/campaign stack.

Four invariants are pinned here:

* enabling tracing changes **nothing** about computed schedules — the
  bit-identity tests compare placements with observability on and off;
* the worker→parent metric merge is **exact** — a process-backend
  campaign reports the same integer counters as the identical serial
  run;
* robustness cells record **real** wall-clock seconds (PR 7 pinned them
  to 0.0) without breaking serial-vs-process record identity, because
  record equality excludes ``seconds``.
* the FCFS policies report the **same** event-spine tally
  (``spine.transitions.*``, ``spine.window_depth``) on every kernel
  backend as the spine-driven loop the dispatch kernel replaced.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import kernels, obs
from repro.workloads.generator import generate_workload

#: Integer counters that must merge exactly across backends: pure
#: functions of the work done, independent of scheduling order.
EXACT_COUNTERS = (
    "dual.probes",
    "demt.batches",
    "cells.measured",
    "cells.cache_miss",
)


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
        # The event spine saw transitions while replaying arrivals.
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
    def test_serial_and_process_counters_match_exactly(self):
        obs.enable()
        _run_campaign("serial")
        serial = obs.disable()
        obs.enable(fresh=True)
        _run_campaign("process")
        process = obs.disable()
        for name in EXACT_COUNTERS:
            assert serial.counters.get(name) == process.counters.get(name), name
        assert serial.counters["cells.measured"] > 0
        # Worker spans were grafted under the dispatch span on fresh
        # timeline lanes, parents intact, span ids collision-free.
        sids = {s.sid for s in process.spans}
        assert len(sids) == len(process.spans)
        worker_spans = [s for s in process.spans if s.tid > 0]
        assert worker_spans, "no worker snapshots merged"
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
