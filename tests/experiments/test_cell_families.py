"""The unified ``execute_cells`` protocol, across the cell families.

Figure-campaign, ablation, Pareto-sweep (synthetic and ``trace:``
payloads), on-line arrival-sweep and trace-replay cells all flow through
:func:`repro.experiments.engine.execute_cells`, and for each family

* serial, thread and process backends produce **bit-identical** records
  (a three-way grid — every cell's numbers are a pure function of its
  key, whichever executor ran it),
* a warm :class:`~repro.experiments.engine.PersistentCellCache` serves a
  repeat run with **zero re-execution** (every lookup a hit), on every
  backend, and
* the records served from cache equal the fresh ones exactly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.algorithms.demt import schedule_demt
from repro.experiments.ablation import ablate_selection
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    CellFamily,
    CellOutcome,
    PersistentCellCache,
    execute_cells,
)
from repro.experiments.online_eval import evaluate_online
from repro.experiments.replay import replay_trace
from repro.experiments.runner import run_cells, run_pareto_cells
from repro.pareto.sweep import sweep_online_policies
from repro.workloads.trace import load_trace

TRACE = Path(__file__).resolve().parents[1] / "data" / "traces" / "cirne_small.swf"

CFG = ExperimentConfig(
    seed=77, m=8, task_counts=(8,), runs=2,
    algorithms=("DEMT", "SAF"),
)


def campaign_records(**kw):
    cells = [("mixed", 8, r) for r in range(2)]
    return run_cells(cells, CFG, **kw)


def ablation_ratios(**kw):
    return ablate_selection(kind="mixed", n=8, m=8, runs=2, seed=77, **kw)


def pareto_records(**kw):
    cells = [("mixed", 8, r) for r in range(2)]
    return run_pareto_cells(cells, ["DEMT", "DEMT[shuffle=0]"], seed=77, m=8, **kw)


def pareto_trace_records(**kw):
    """``trace:`` payloads: the trace travels in the worker tuple (two
    cells, so the process backend really fans out)."""
    trace = load_trace(TRACE)
    payloads = {
        f"trace:cirne_small:{model}": (trace, model) for model in ("rigid", "downey")
    }
    return run_pareto_cells(
        [(kind, trace.n, 0) for kind in payloads], ["DEMT[shuffle=2]", "SAF"],
        seed=1, m=16, payloads=payloads, **kw,
    )


def online_points(**kw):
    return evaluate_online(
        schedule_demt, kind="mixed", n=8, m=8, runs=2, fractions=(0.0, 0.5), **kw
    )


def replay_results(**kw):
    return replay_trace(
        TRACE, m=16, models="rigid", modes=("batch", "clairvoyant", "fcfs"), **kw
    )


FAMILY_DRIVERS = {
    "campaign": campaign_records,
    "ablation": ablation_ratios,
    "pareto": pareto_records,
    "pareto-trace": pareto_trace_records,
    "online": online_points,
    "replay": replay_results,
}


def family_digest(family: str, result):
    """Wall-clock-free digest of one driver's result for bit-identity."""
    if family in ("campaign", "pareto", "pareto-trace"):
        return {
            cell: (
                bounds,
                {
                    name: (rec.cmax, rec.minsum, rec.validated, rec.batches)
                    for name, rec in records.items()
                },
            )
            for cell, (bounds, records) in result.items()
        }
    if family == "ablation":
        return result
    if family == "online":
        return [
            (p.horizon_fraction, p.mean_ratio, p.max_ratio, p.mean_batches)
            for p in result
        ]
    return [
        (r.model, r.mode, r.makespan, r.weighted_flow, r.n_batches)
        for r in result
    ]


class TestBackendEquivalence:
    @pytest.mark.parametrize("family", list(FAMILY_DRIVERS))
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_bit_identical(self, family, backend):
        """Serial/thread/process three-way grid: only wall-clock may
        differ between fresh runs of the same cells."""
        driver = FAMILY_DRIVERS[family]
        serial = family_digest(family, driver(backend="serial"))
        other = family_digest(family, driver(backend=backend, jobs=2))
        assert serial == other


class TestZeroReexecution:
    @pytest.mark.parametrize("family", list(FAMILY_DRIVERS))
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_warm_persistent_cache_serves_everything(
        self, family, backend, tmp_path
    ):
        driver = FAMILY_DRIVERS[family]
        first = driver(cache=tmp_path, backend=backend, jobs=2)

        warm = PersistentCellCache(tmp_path)
        assert warm.loaded > 0
        again = driver(cache=warm, backend=backend, jobs=2)
        assert warm.misses == 0, f"{family}: {warm.misses} cells re-executed"
        assert warm.hits > 0

        if family in ("campaign", "pareto", "pareto-trace"):
            for cell, (bounds, records) in first.items():
                wbounds, wrecords = again[cell]
                assert bounds == wbounds and records == wrecords
        elif family in ("ablation", "online"):
            assert first == again
        else:
            assert all(r.cached for r in again)
            assert [
                (r.model, r.mode, r.makespan, r.weighted_flow, r.n_batches)
                for r in first
            ] == [
                (r.model, r.mode, r.makespan, r.weighted_flow, r.n_batches)
                for r in again
            ]


class TestPolicyFront:
    def test_policy_front_rides_the_replay_cache(self, tmp_path):
        front = sweep_online_policies(
            TRACE, ("batch", "fcfs"), m=16, model="rigid", cache=tmp_path
        )
        assert front.specs == ("batch", "fcfs")
        assert front.cloud.shape == (2, 2)
        assert front.front_mask.any()
        assert front.clairvoyant_makespan > 0

        warm = PersistentCellCache(tmp_path)
        again = sweep_online_policies(
            TRACE, ("batch", "fcfs"), m=16, model="rigid", cache=warm
        )
        assert warm.misses == 0
        assert (again.cloud == front.cloud).all()
        assert again.clairvoyant_makespan == front.clairvoyant_makespan

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown on-line policy"):
            sweep_online_policies(TRACE, ("nope",), m=16)


class TestProtocolShape:
    def test_outcome_unpacks_as_bounds_records(self):
        out = CellOutcome(None, {"a": 1})
        bounds, records = out
        assert bounds is None and records == {"a": 1}

    def test_abstract_family_raises(self):
        fam = CellFamily()
        with pytest.raises(NotImplementedError):
            fam.record_key((), "x")
        with pytest.raises(NotImplementedError):
            fam.make_task((), (), False, False)
        assert fam.bounds_key(()) is None

    def test_online_cache_key_distinguishes_policies(self, tmp_path):
        """A non-batch policy must not collide with the historical batch
        keys (the engine label alone cannot encode the policy)."""
        batch = evaluate_online(
            schedule_demt, kind="mixed", n=8, m=8, runs=1,
            fractions=(0.5,), cache=tmp_path,
        )
        fcfs = evaluate_online(
            schedule_demt, policy="fcfs", kind="mixed", n=8, m=8, runs=1,
            fractions=(0.5,), cache=tmp_path,
        )
        assert batch[0].mean_ratio != fcfs[0].mean_ratio or (
            batch[0].mean_batches != fcfs[0].mean_batches
        )
        # Both policies journalled under distinct keys: a warm re-run of
        # each re-executes nothing.
        warm = PersistentCellCache(tmp_path)
        evaluate_online(
            schedule_demt, kind="mixed", n=8, m=8, runs=1,
            fractions=(0.5,), cache=warm,
        )
        evaluate_online(
            schedule_demt, policy="fcfs", kind="mixed", n=8, m=8, runs=1,
            fractions=(0.5,), cache=warm,
        )
        assert warm.misses == 0
