"""Trace-level regression corpus for the replay subsystem.

Pins, on the frozen SWF fixtures under ``tests/data/traces/``:

* **Goldens** — replay aggregates (makespan, weighted flow, batch count)
  of every moldability model, batch and clairvoyant modes, compared with
  ``==`` against ``tests/data/trace_replay_goldens.json``;
* **FCFS goldens** — makespan, weighted flow and a schedule digest of
  the on-line ``fcfs`` and ``fcfs-backfill`` replays of every model,
  compared with ``==`` against ``tests/data/fcfs_replay_goldens.json``;
* **Backend interchangeability** — serial and process backends produce
  bit-identical aggregates;
* **Anchoring** — every model reproduces the logged ``(procs, run)``
  point exactly, clamping included;
* **Metamorphic invariances** — shifting all release dates shifts the
  schedule by the same constant; scaling all times scales the makespan —
  in both replay modes;
* **Columnar ingestion** — the well-formed fixtures load entirely through
  the ``np.loadtxt`` fast path (the tolerant per-line fallback stays
  untouched), i.e. no per-job Python parsing on the hot path.

Regenerate the goldens only for intentional changes:
``PYTHONPATH=src python tests/data/make_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.demt import schedule_demt
from repro.experiments.replay import replay_trace
from repro.simulator.online import get_policy
from repro.workloads.trace import (
    MOLDABILITY_MODELS,
    load_trace,
    reconstruct_times,
    trace_instance,
)

DATA = Path(__file__).resolve().parents[1] / "data"
TRACES = DATA / "traces"
GOLDENS = json.loads((DATA / "trace_replay_goldens.json").read_text())["cells"]
FCFS_GOLDENS = json.loads((DATA / "fcfs_replay_goldens.json").read_text())["cells"]

#: fixture name -> replay machine size, recovered from the golden file so
#: the test cannot drift from the regeneration script.
FIXTURE_M = {c["fixture"]: c["m"] for c in GOLDENS}


def _golden_key(c: dict) -> tuple:
    return (c["fixture"], c["model"], c["mode"])


@pytest.fixture(scope="module")
def traces():
    return {name: load_trace(TRACES / name) for name in FIXTURE_M}


class TestGoldenCorpus:
    def test_fixture_digests_match_goldens(self, traces):
        """The checked-in SWF files are the ones the goldens were made from."""
        for c in GOLDENS + FCFS_GOLDENS:
            assert traces[c["fixture"]].digest == c["digest"], c["fixture"]

    @pytest.mark.parametrize("fixture", list(dict.fromkeys(FIXTURE_M)))
    def test_replay_reproduces_goldens_bit_for_bit(self, traces, fixture):
        results = replay_trace(
            traces[fixture],
            m=FIXTURE_M[fixture],
            models=list(MOLDABILITY_MODELS),
            modes=("batch", "clairvoyant"),
            validate=True,
        )
        got = {
            (fixture, r.model, r.mode): (r.makespan, r.weighted_flow, r.n_batches)
            for r in results
        }
        want = {
            _golden_key(c): (c["makespan"], c["weighted_flow"], c["batches"])
            for c in GOLDENS
            if c["fixture"] == fixture
        }
        assert got == want  # full-precision equality, no approx

    def test_two_runs_bit_identical(self, traces):
        fixture = "cirne_small.swf"
        runs = [
            replay_trace(traces[fixture], m=FIXTURE_M[fixture], models="all",
                         modes=("batch", "clairvoyant"))
            for _ in range(2)
        ]
        a, b = runs
        assert [(r.makespan, r.weighted_flow, r.n_batches) for r in a] == [
            (r.makespan, r.weighted_flow, r.n_batches) for r in b
        ]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_agree_with_serial(self, traces, backend):
        fixture = "bursty_quirks.swf"
        kw = dict(m=FIXTURE_M[fixture], models="all", modes=("batch", "clairvoyant"))
        serial = replay_trace(traces[fixture], **kw)
        other = replay_trace(traces[fixture], backend=backend, jobs=2, **kw)
        assert [(r.makespan, r.weighted_flow, r.n_batches) for r in serial] == [
            (r.makespan, r.weighted_flow, r.n_batches) for r in other
        ]

    def test_persistent_cache_zero_reexecution(self, traces, tmp_path, monkeypatch):
        fixture = "cirne_small.swf"
        kw = dict(m=FIXTURE_M[fixture], models=["rigid", "downey"], modes="batch")
        first = replay_trace(traces[fixture], cache=tmp_path, **kw)
        # A fresh cache instance (fresh process in real life) must serve
        # every cell from the journal, bit-identically — and must not be
        # able to re-measure (the engine is made to explode).
        monkeypatch.setattr(
            "repro.experiments.replay._replay_cell",
            lambda args: pytest.fail("cache miss re-executed a replay cell"),
        )
        second = replay_trace(traces[fixture], cache=tmp_path, **kw)
        assert all(r.cached for r in second)
        assert [(r.makespan, r.weighted_flow, r.n_batches) for r in first] == [
            (r.makespan, r.weighted_flow, r.n_batches) for r in second
        ]


def _schedule_sha256(schedule) -> str:
    """sha256 over the ``repr`` of every placement's
    ``(task_id, start, allotment, end)``, in task-id order (the digest of
    ``make_goldens.py``)."""
    h = hashlib.sha256()
    for row in sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule):
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestFcfsGoldenCorpus:
    """The immediate on-line FCFS and EASY-backfill replays, pinned
    placement for placement."""

    def test_corpus_covers_every_fixture_model_and_mode(self):
        got = {(c["fixture"], c["model"], c["mode"]) for c in FCFS_GOLDENS}
        assert got == {
            (f, model, mode)
            for f in FIXTURE_M
            for model in MOLDABILITY_MODELS
            for mode in ("fcfs", "fcfs-backfill")
        }

    @pytest.mark.parametrize("fixture", list(dict.fromkeys(FIXTURE_M)))
    def test_replay_reproduces_goldens_bit_for_bit(self, traces, fixture):
        trace = traces[fixture]
        m = FIXTURE_M[fixture]
        results = replay_trace(
            trace,
            m=m,
            models=list(MOLDABILITY_MODELS),
            modes=("fcfs", "fcfs-backfill"),
            validate=True,
        )
        got = {}
        for r in results:
            inst = trace_instance(trace, m, r.model, online=True)
            schedule = get_policy(r.mode).run(inst).schedule
            got[(fixture, r.model, r.mode)] = (
                r.makespan, r.weighted_flow, _schedule_sha256(schedule)
            )
        want = {
            _golden_key(c): (c["makespan"], c["weighted_flow"], c["schedule_sha256"])
            for c in FCFS_GOLDENS
            if c["fixture"] == fixture
        }
        assert got == want  # full-precision equality, no approx


class TestAnchoring:
    @pytest.mark.parametrize("model", list(MOLDABILITY_MODELS))
    def test_logged_point_reproduced_exactly(self, traces, model):
        for name, trace in traces.items():
            m = FIXTURE_M[name]
            kp = np.minimum(trace.procs, m)
            times = reconstruct_times(trace, m, model)
            anchored = times[np.arange(trace.n), kp - 1]
            assert (anchored == trace.runs).all(), (name, model)

    def test_wide_jobs_fixture_actually_clamps(self, traces):
        """wide_jobs replays on a smaller machine than it was logged on —
        the clamping path is genuinely exercised by the corpus."""
        trace = traces["wide_jobs.swf"]
        assert (trace.procs > FIXTURE_M["wide_jobs.swf"]).any()


class TestMetamorphic:
    """Invariances of the replay under trace transformations (§2.2
    framework on traces): pinned for batch and clairvoyant modes."""

    FIXTURE = "cirne_small.swf"

    @pytest.mark.parametrize("mode", ["batch", "clairvoyant"])
    @pytest.mark.parametrize("model", ["rigid", "downey"])
    def test_shifting_releases_shifts_schedule(self, traces, mode, model):
        trace = traces[self.FIXTURE]
        m = FIXTURE_M[self.FIXTURE]
        dt = 64.0  # power of two: float addition by dt is exact here
        base, = replay_trace(trace, m=m, models=model, modes=mode)
        shifted, = replay_trace(trace.shifted(dt), m=m, models=model, modes=mode)
        assert shifted.makespan == pytest.approx(base.makespan + dt, rel=1e-12)
        # Flow is shift-invariant: C_i and r_i both move by dt.
        assert shifted.weighted_flow == pytest.approx(base.weighted_flow, rel=1e-9, abs=1e-9)
        assert shifted.n_batches == base.n_batches

    @pytest.mark.parametrize("mode", ["batch", "clairvoyant"])
    @pytest.mark.parametrize("model", ["rigid", "recurrence-weakly"])
    def test_scaling_times_scales_makespan(self, traces, mode, model):
        trace = traces[self.FIXTURE]
        m = FIXTURE_M[self.FIXTURE]
        factor = 2.0  # power of two: multiplications are exact
        base, = replay_trace(trace, m=m, models=model, modes=mode)
        scaled, = replay_trace(trace.scaled(factor), m=m, models=model, modes=mode)
        assert scaled.makespan == pytest.approx(factor * base.makespan, rel=1e-9)
        assert scaled.weighted_flow == pytest.approx(
            factor * base.weighted_flow, rel=1e-9, abs=1e-9
        )
        assert scaled.n_batches == base.n_batches


class TestColumnarIngestion:
    def test_fixtures_load_without_per_line_fallback(self, traces, monkeypatch):
        """Well-formed archives must ride the C tokenizer end to end."""
        import repro.workloads.trace as trace_mod

        def boom(line, lineno):  # pragma: no cover - failure path
            pytest.fail("columnar fast path fell back to per-line parsing")

        monkeypatch.setattr(trace_mod, "_parse_line_tolerant", boom)
        for name in FIXTURE_M:
            reloaded = load_trace(TRACES / name)
            assert reloaded.digest == traces[name].digest

    def test_quirky_fixture_matches_object_parser(self, traces):
        """The tolerant semantics agree with read_swf on the quirky log."""
        from repro.io.swf import read_swf

        text = (TRACES / "bursty_quirks.swf").read_text()
        jobs = read_swf(text)
        tr = traces["bursty_quirks.swf"]
        assert tr.job_ids.tolist() == [j.job_id for j in jobs]
        assert tr.runs.tolist() == [j.run for j in jobs]
        assert tr.procs.tolist() == [j.procs for j in jobs]

    def test_online_ratio_point_on_fixture(self, traces):
        from repro.experiments.online_eval import evaluate_trace_online

        fixture = "cirne_small.swf"
        pt = evaluate_trace_online(
            schedule_demt, traces[fixture], m=FIXTURE_M[fixture], model="downey"
        )
        assert pt.mean_ratio > 0 and pt.mean_batches >= 1
