"""Unit + property tests for the DEMT bi-criteria algorithm.

``TestGoldenCorpus`` pins whole DEMT runs against
``tests/data/demt_goldens.json``; regenerate it only for intentional
changes: ``PYTHONPATH=src python tests/data/make_goldens.py``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.demt import DemtScheduler, schedule_demt
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import validate_schedule
from repro.experiments.ablation import _GreedySelectionDemt
from repro.extensions.greedy_interval import GreedyIntervalScheduler
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

from tests.conftest import make_instance, make_task

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DOC = json.loads((DATA / "demt_goldens.json").read_text())
GOLDENS = GOLDEN_DOC["cells"]
FAMILIES = ("weakly_parallel", "highly_parallel", "mixed", "cirne")


class TestConstruction:
    def test_bad_compaction_mode(self):
        with pytest.raises(ValueError):
            DemtScheduler(compaction="magic")

    def test_negative_shuffles(self):
        with pytest.raises(ValueError):
            DemtScheduler(shuffle_rounds=-1)

    def test_bad_batch_ordering(self):
        with pytest.raises(ValueError):
            DemtScheduler(batch_ordering="alphabetical")

    def test_bad_guess_relaxation(self):
        with pytest.raises(ValueError):
            DemtScheduler(guess_relaxation=0.9)

    def test_name(self):
        assert DemtScheduler().name == "DEMT"


class TestScheduleBasics:
    def test_empty_instance(self):
        s = schedule_demt(Instance([], 4))
        assert len(s) == 0

    def test_single_task(self):
        t = MoldableTask(0, [8.0, 4.5, 3.2, 2.6])
        inst = Instance([t], 4)
        s = schedule_demt(inst)
        validate_schedule(s, inst)
        assert len(s) == 1

    @pytest.mark.parametrize("kind", ["weakly_parallel", "highly_parallel", "mixed", "cirne"])
    def test_feasible_on_paper_workloads(self, kind):
        inst = generate_workload(kind, n=50, m=32, seed=7)
        s = schedule_demt(inst)
        validate_schedule(s, inst)

    def test_deterministic(self):
        inst = generate_workload("mixed", n=30, m=16, seed=5)
        a = schedule_demt(inst, seed=1)
        b = schedule_demt(inst, seed=1)
        assert a.makespan() == b.makespan()
        assert a.weighted_completion_sum() == b.weighted_completion_sum()

    @pytest.mark.parametrize("compaction", ["shelf", "pull_forward", "list"])
    def test_all_compaction_modes_feasible(self, compaction):
        inst = generate_workload("highly_parallel", n=25, m=16, seed=2)
        s = schedule_demt(inst, compaction=compaction, shuffle_rounds=0)
        validate_schedule(s, inst)

    def test_compaction_chain_improves(self):
        inst = generate_workload("cirne", n=40, m=16, seed=9)
        shelf = schedule_demt(inst, compaction="shelf", shuffle_rounds=0)
        pulled = schedule_demt(inst, compaction="pull_forward", shuffle_rounds=0)
        compact = schedule_demt(inst, compaction="list", shuffle_rounds=0)
        assert pulled.makespan() <= shelf.makespan() + 1e-9
        assert compact.weighted_completion_sum() <= shelf.weighted_completion_sum() + 1e-9


class TestBatchGeometry:
    def test_t_grid_doubles(self):
        inst = generate_workload("mixed", n=20, m=8, seed=4)
        res = DemtScheduler().schedule_detailed(inst)
        grid = res.t_grid
        assert len(grid) == res.K + 2
        for a, b in zip(grid, grid[1:]):
            assert b == pytest.approx(2 * a)

    def test_K_matches_paper_formula(self):
        inst = generate_workload("mixed", n=20, m=8, seed=4)
        res = DemtScheduler().schedule_detailed(inst)
        expected = max(0, math.floor(math.log2(res.cmax_estimate / inst.tmin)))
        assert res.K == expected

    def test_smallest_batch_can_hold_a_task(self):
        # t_0 >= tmin by construction: some task fits in the first window.
        inst = generate_workload("highly_parallel", n=15, m=8, seed=6)
        res = DemtScheduler().schedule_detailed(inst)
        assert res.t_grid[0] >= inst.tmin - 1e-12

    def test_last_grid_point_is_twice_cstar(self):
        inst = generate_workload("mixed", n=10, m=8, seed=8)
        res = DemtScheduler().schedule_detailed(inst)
        assert res.t_grid[-1] == pytest.approx(2 * res.cmax_estimate)

    def test_batches_partition_tasks(self):
        inst = generate_workload("cirne", n=35, m=16, seed=10)
        res = DemtScheduler().schedule_detailed(inst)
        ids = [
            task.task_id
            for batch in res.batches
            for it in batch
            for task in (it.stack or (it.task,))
        ]
        assert sorted(ids) == list(range(35))

    def test_batch_widths_within_m(self):
        inst = generate_workload("weakly_parallel", n=40, m=16, seed=12)
        res = DemtScheduler().schedule_detailed(inst)
        for batch in res.batches:
            assert sum(it.allotment for it in batch) <= 16

    def test_batch_items_fit_batch_window(self):
        inst = generate_workload("mixed", n=30, m=16, seed=13)
        res = DemtScheduler().schedule_detailed(inst)
        for start, batch in zip(res.batch_starts, res.batches):
            for it in batch:
                assert it.duration <= start + 1e-9  # window length == t_j


class TestKnapsackSelectionQuality:
    def test_prefers_heavy_tasks_early(self):
        """With everything able to fit in the first batch except capacity,
        the heaviest tasks must be selected first."""
        m = 4
        tasks = [
            MoldableTask(i, [4.0] * m, weight=w)
            for i, w in enumerate([10.0, 9.0, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
        ]
        inst = Instance(tasks, m)
        res = DemtScheduler(shuffle_rounds=0).schedule_detailed(inst)
        first_batch_ids = {
            t.task_id for it in res.batches[0] for t in (it.stack or (it.task,))
        }
        assert 0 in first_batch_ids and 1 in first_batch_ids

    def test_small_tasks_get_merged(self):
        # Many tiny sequential tasks + one large: the tiny ones stack.
        m = 4
        tiny = [MoldableTask(i, [0.5] * m, weight=5.0) for i in range(6)]
        big = MoldableTask(99, [8.0, 4.0, 3.0, 2.0], weight=1.0)
        inst = Instance(tiny + [big], m)
        res = DemtScheduler(shuffle_rounds=0).schedule_detailed(inst)
        stacked = [it for batch in res.batches for it in batch if it.stack]
        assert any(len(it.stack) > 1 for it in stacked)


class TestSweepKnobs:
    """The trade-off knobs: defaults are bit-identical to the paper
    configuration; deviations stay feasible and actually take effect."""

    def _inst(self, seed=5, n=40, m=16):
        return generate_workload("mixed", n=n, m=m, seed=seed)

    def test_default_knobs_change_nothing(self):
        inst = self._inst()
        base = DemtScheduler().schedule(inst)
        explicit = DemtScheduler(
            shuffle_rounds=10,
            small_threshold_factor=0.5,
            batch_ordering="smith",
            guess_relaxation=1.0,
        ).schedule(inst)
        assert [(p.task.task_id, p.start, p.allotment) for p in base] == [
            (p.task.task_id, p.start, p.allotment) for p in explicit
        ]

    def test_functional_form_passes_knobs(self):
        inst = self._inst()
        a = schedule_demt(
            inst, batch_ordering="weight", guess_relaxation=1.5,
            small_threshold_factor=0.25, shuffle_rounds=0,
        )
        b = DemtScheduler(
            batch_ordering="weight", guess_relaxation=1.5,
            small_threshold_factor=0.25, shuffle_rounds=0,
        ).schedule(inst)
        assert a.makespan() == b.makespan()
        assert a.weighted_completion_sum() == b.weighted_completion_sum()

    @pytest.mark.parametrize("ordering", ["smith", "weight", "duration", "id"])
    def test_orderings_feasible(self, ordering):
        inst = self._inst()
        sched = DemtScheduler(batch_ordering=ordering).schedule(inst)
        validate_schedule(sched, inst)

    @pytest.mark.parametrize("relax", [1.0, 1.25, 1.5, 1.75])
    def test_relaxations_feasible(self, relax):
        inst = self._inst()
        sched = DemtScheduler(guess_relaxation=relax).schedule(inst)
        validate_schedule(sched, inst)

    def test_relaxation_widens_estimate(self):
        inst = self._inst()
        base = DemtScheduler().schedule_detailed(inst)
        relaxed = DemtScheduler(guess_relaxation=1.5).schedule_detailed(inst)
        assert relaxed.cmax_estimate == pytest.approx(1.5 * base.cmax_estimate)

    def test_doubling_relaxation_reproduces_grid(self):
        # relax=2.0 increments K and regenerates the identical t-grid —
        # the degeneracy the sweep's default relax axis avoids.
        inst = self._inst()
        base = DemtScheduler(shuffle_rounds=0).schedule_detailed(inst)
        doubled = DemtScheduler(
            shuffle_rounds=0, guess_relaxation=2.0
        ).schedule_detailed(inst)
        assert doubled.K == base.K + 1
        assert doubled.schedule.makespan() == base.schedule.makespan()

    def test_some_ordering_changes_some_schedule(self):
        changed = False
        for seed in range(6):
            inst = self._inst(seed=seed)
            a = DemtScheduler(shuffle_rounds=0).schedule(inst)
            b = DemtScheduler(shuffle_rounds=0, batch_ordering="id").schedule(inst)
            if a.weighted_completion_sum() != b.weighted_completion_sum():
                changed = True
                break
        assert changed, "intra-batch ordering knob never took effect"


class TestBicriteriaQuality:
    def test_minsum_close_to_smith_on_gangable_instance(self):
        """Linear speedup: the optimal policy is gang in Smith order (§3.1);
        DEMT must land in the same ballpark."""
        inst = generate_workload("linear_speedup", n=20, m=8, seed=3)
        from repro.algorithms.gang import schedule_gang

        demt = schedule_demt(inst)
        gang = schedule_gang(inst)
        assert demt.weighted_completion_sum() <= gang.weighted_completion_sum() * 1.6

    def test_makespan_within_2x_of_dual_lb(self):
        for kind in ("highly_parallel", "mixed", "cirne"):
            inst = generate_workload(kind, n=60, m=32, seed=14)
            res = DemtScheduler().schedule_detailed(inst)
            assert res.schedule.makespan() <= 2.05 * res.dual.lower_bound

    def test_shuffle_never_hurts(self):
        inst = generate_workload("mixed", n=40, m=16, seed=15)
        base = schedule_demt(inst, shuffle_rounds=0)
        shuffled = schedule_demt(inst, shuffle_rounds=20, seed=42)
        assert shuffled.weighted_completion_sum() <= base.weighted_completion_sum() + 1e-9
        assert shuffled.makespan() <= base.makespan() + 1e-9

    def test_shuffle_improvement_reported(self):
        inst = generate_workload("mixed", n=40, m=16, seed=16)
        res = DemtScheduler(shuffle_rounds=20, seed=1).schedule_detailed(inst)
        assert res.shuffle_improvement >= 0.0

    @given(
        n=st.integers(1, 20),
        m=st.integers(2, 12),
        seed=st.integers(0, 9999),
        kind=st.sampled_from(["weakly_parallel", "highly_parallel", "mixed", "cirne"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_always_feasible(self, n, m, seed, kind):
        inst = generate_workload(kind, n=n, m=m, seed=seed)
        s = schedule_demt(inst, shuffle_rounds=3)
        validate_schedule(s, inst)


# ---------------------------------------------------------------------- #
# Golden corpus                                                          #
# ---------------------------------------------------------------------- #
def _batches_sha256(batches) -> str:
    """The batch digest of ``make_goldens.py``: every item's ``(batch
    index, task_id, allotment, stack task ids)`` repr, in order."""
    h = hashlib.sha256()
    for b, batch in enumerate(batches):
        for it in batch:
            row = (b, it.task.task_id, it.allotment, tuple(t.task_id for t in it.stack))
            h.update(repr(row).encode())
            h.update(b"\n")
    return h.hexdigest()


def _schedule_sha256(schedule) -> str:
    """sha256 over every placement's ``(task_id, start, allotment, end)``
    repr, in task-id order."""
    h = hashlib.sha256()
    for row in sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule):
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _archive():
    return load_trace(io.StringIO(synthesize_swf(**GOLDEN_DOC["_meta"]["archive"])))


def _golden_instance(cell) -> Instance:
    if cell["source"] == "archive":
        trace = _archive()
        assert trace.digest == cell["digest"]
        return trace_instance(trace, cell["m"], cell["model"], online=False)
    kind, n, m = cell["source"], cell["n"], cell["m"]
    seed = derive_rng(GOLDEN_DOC["_meta"]["seed"], "demt", kind, n, m)
    return generate_workload(kind, n=n, m=m, seed=seed)


def _golden_engine(cell):
    if cell["engine"] == "DEMT":
        return DemtScheduler(**cell["knobs"])
    engine = {"GreedyInterval": GreedyIntervalScheduler, "A1-greedy": _GreedySelectionDemt}
    return engine[cell["engine"]]()


class TestGoldenCorpus:
    """Whole DEMT runs — batch contents, geometry, schedule and shuffle
    gain — recorded before the columnar batch selection and compared at
    full precision."""

    def test_corpus_covers_sizes_knobs_engines_and_archive(self):
        grid = {
            (c["source"], c["n"], c["m"])
            for c in GOLDENS
            if c["engine"] == "DEMT" and not c["knobs"] and c["model"] is None
        }
        assert grid == {
            (kind, n, m) for kind in FAMILIES for n, m in ((25, 13), (400, 200), (1000, 64))
        }
        knobs = {tuple(c["knobs"].items()) for c in GOLDENS if c["knobs"]}
        assert knobs == {
            *((("small_threshold_factor", f),) for f in (0.25, 1.0, 1e-12)),
            *((("batch_ordering", o),) for o in ("weight", "duration", "id")),
            (("guess_relaxation", 1.5),),
            *((("compaction", c),) for c in ("shelf", "pull_forward")),
        }
        assert {c["engine"] for c in GOLDENS} == {"DEMT", "GreedyInterval", "A1-greedy"}
        archive = {(c["model"], c["engine"]) for c in GOLDENS if c["source"] == "archive"}
        assert {"rigid", "downey"} <= {model for model, _ in archive}
        assert max(c["n"] for c in GOLDENS) == 3000

    @pytest.mark.parametrize(
        "cell",
        GOLDENS,
        ids=[
            f"{c['source']}-{c['model'] or 'gen'}-n{c['n']}-m{c['m']}-{c['engine']}"
            + "".join(f"-{k}={v}" for k, v in c["knobs"].items())
            for c in GOLDENS
        ],
    )
    def test_run_reproduces_golden(self, cell):
        res = _golden_engine(cell).schedule_detailed(_golden_instance(cell))
        got = {
            "n_batches": len(res.batches),
            "batches_sha256": _batches_sha256(res.batches),
            "batch_starts": list(res.batch_starts),
            "K": res.K,
            "cmax_estimate": res.cmax_estimate,
            "schedule_sha256": _schedule_sha256(res.schedule),
            "shuffle_improvement": res.shuffle_improvement,
        }
        assert got == {k: cell[k] for k in got}  # full precision, no approx


# ---------------------------------------------------------------------- #
# Columnar selection loop vs the seed's object loop                      #
# ---------------------------------------------------------------------- #
def _placements(schedule) -> list:
    return sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule)


def _batch_rows(result) -> list:
    return [
        [(it.task.task_id, it.allotment, tuple(t.task_id for t in it.stack)) for it in batch]
        for batch in result.batches
    ]


@st.composite
def ragged_instances(draw):
    """Object-backed instances the generators never make: vectors shorter
    and longer than ``m``, rigid tasks (``p(1) = +inf``), tied weights and
    shuffled ids."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 25))
    ids = draw(st.permutations(range(3 * n)))[:n]
    tasks = []
    for tid in ids:
        width = draw(st.integers(1, m + 2))
        times = draw(
            st.lists(
                st.one_of(st.just(math.inf), st.sampled_from([0.5, 1.0, 2.0]),
                          st.floats(0.01, 50.0)),
                min_size=width, max_size=width,
            )
        )
        if all(math.isinf(t) for t in times[:m]):
            times[draw(st.integers(0, min(m, width) - 1))] = draw(st.floats(0.01, 50.0))
        weight = draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.1, 10.0)))
        tasks.append(MoldableTask(tid, times, weight=weight))
    return Instance(tasks, m)


class TestMatchesReferenceLoop:
    """DEMT's columnar loop against the seed's object loop kept in
    :class:`~repro.algorithms.reference.ReferenceDemtScheduler`."""

    @given(inst=ragged_instances(), factor=st.sampled_from([0.5, 1.0, 1e-12, 0.25]))
    @settings(max_examples=150, deadline=None)
    def test_batches_match_reference(self, inst, factor):
        from repro.algorithms.reference import ReferenceDemtScheduler

        kw = dict(shuffle_rounds=0, small_threshold_factor=factor)
        got = DemtScheduler(**kw).schedule_detailed(inst)
        want = ReferenceDemtScheduler(**kw).schedule_detailed(inst)
        assert _batch_rows(got) == _batch_rows(want)
        assert got.batch_starts == want.batch_starts
        assert _placements(got.schedule) == _placements(want.schedule)


# ---------------------------------------------------------------------- #
# One scheduler object shared by threads                                 #
# ---------------------------------------------------------------------- #
class TestSharedScheduler:
    """A ``DemtScheduler`` keeps no per-call state, so threads may share
    one object (the thread backend does when a bound method is the
    engine)."""

    def test_threads_sharing_one_scheduler_get_serial_schedules(self):
        instances = [
            generate_workload(kind, n=n, m=16, seed=seed)
            for seed, (kind, n) in enumerate(
                [("mixed", 40), ("cirne", 60), ("highly_parallel", 30), ("weakly_parallel", 50)]
            )
        ]
        expected = [_placements(DemtScheduler(shuffle_rounds=2).schedule(i)) for i in instances]
        shared = DemtScheduler(shuffle_rounds=2)
        failures: list[str] = []
        calls = [0]
        deadline = time.monotonic() + 30.0

        def work(k: int) -> None:
            for call in range(15):
                if time.monotonic() > deadline:
                    return
                i = (k + call) % len(instances)
                try:
                    got = _placements(shared.schedule(instances[i]))
                except Exception as exc:  # the failure mode under test
                    failures.append(f"instance {i}: {type(exc).__name__}: {exc}")
                else:
                    if got != expected[i]:
                        failures.append(f"instance {i}: wrong schedule")
                calls[0] += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert calls[0] > 0
        assert not failures, f"{len(failures)} of {calls[0]} calls: {failures[:3]}"

    def test_thread_backend_replay_matches_serial(self):
        from repro.experiments.replay import replay_trace

        kw = dict(
            models="all",
            modes=["batch", "clairvoyant"],
            offline=DemtScheduler(shuffle_rounds=3).schedule,
        )
        fixture = str(DATA / "traces" / "cirne_small.swf")
        serial = replay_trace(fixture, **kw)
        threaded = replay_trace(fixture, backend="thread", jobs=4, **kw)

        def records(results):
            return [
                (r.model, r.mode, r.makespan, r.weighted_flow, r.n_batches) for r in results
            ]

        assert records(threaded) == records(serial)
