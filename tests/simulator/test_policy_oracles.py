"""The on-line policies against their oracles.

Three oracle layers pin the policies of :mod:`repro.simulator.online`
and the fault plane:

* **Seed oracle** — the batch policies (``batch`` and
  ``greedy-interval``, an arrival cursor around an off-line engine)
  reproduce the seed
  :class:`~repro.simulator.reference.ReferenceBatchScheduler` around the
  same engine, bit for bit (the golden corpus keeps covering this; here
  it is fuzzed and run across the policy registry).
* **Windowed oracle** — the FCFS dispatchers and the faulty loop (one
  kernel call per run and per batch, fuzzed per backend on tie-heavy
  inputs in ``tests/kernels/test_kernel_backends.py`` and
  ``tests/kernels/test_faulty_batch.py``) match their frozen Python
  loops in :mod:`repro.simulator.windowed`, on random instances
  (Hypothesis) and across the policy registry grid, including
  fault-injected runs.
* **Fault-plane goldens** — ``tests/data/faulty_goldens.json`` records
  complete :class:`~repro.faults.failures.FaultyBatchPolicy` outcomes
  (placements, batches, crash/deferral counts, full event logs); every
  row must be reproduced.

Plus the archive-scale smoke: a 1M-job SWF replay window, marked slow and
gated behind ``REPRO_RUN_SLOW=1`` (CI's slow lane).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.demt import schedule_demt
from repro.core.instance import Instance
from repro.core.validation import validate_schedule
from repro.extensions.greedy_interval import GreedyIntervalScheduler
from repro.faults.failures import FaultyBatchPolicy, generate_failures
from repro.simulator.online import ZERO_CONFIG_POLICIES, BatchPolicy, get_policy
from repro.simulator.reference import ReferenceBatchScheduler
from repro.simulator.windowed import WindowedFaultyBatchPolicy, WindowedFcfsPolicy
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload

DATA = Path(__file__).resolve().parents[1] / "data"
FAULTY_GOLDENS = json.loads((DATA / "faulty_goldens.json").read_text())


def with_releases(instance: Instance, releases) -> Instance:
    tasks = [t.with_release(float(r)) for t, r in zip(instance.tasks, releases)]
    return Instance(tasks, instance.m)


def placements_of(schedule) -> list[tuple]:
    return sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule)


def fuzz_instance(seed: int, n: int, spread: float = 1.5) -> Instance:
    rng = np.random.default_rng(seed)
    kind = ("cirne", "mixed", "highly_parallel", "weakly_parallel")[seed % 4]
    base = generate_workload(kind, n=n, m=8, seed=seed)
    return with_releases(base, rng.exponential(spread, size=n).cumsum())


def results_identical(a, b) -> None:
    assert a.batch_starts == b.batch_starts
    assert a.batch_contents == b.batch_contents
    assert placements_of(a.schedule) == placements_of(b.schedule)


#: Registry policy -> the oracle that must produce the same run: the seed
#: batch loop around the policy's engine, or the windowed FCFS dispatcher.
ORACLES = {
    "batch": lambda: ReferenceBatchScheduler(schedule_demt),
    "greedy-interval": lambda: ReferenceBatchScheduler(
        GreedyIntervalScheduler().schedule
    ),
    "fcfs": lambda: WindowedFcfsPolicy(backfill=False),
    "fcfs-backfill": lambda: WindowedFcfsPolicy(backfill=True),
}


class TestPoliciesVsOracles:
    """Every registry policy == its seed or frozen windowed oracle."""

    @pytest.mark.parametrize("name", ZERO_CONFIG_POLICIES)
    @pytest.mark.parametrize("seed", [1, 29, 404])
    def test_registry_grid_bit_identical(self, name, seed):
        inst = fuzz_instance(seed, n=24)
        res = get_policy(name, offline=schedule_demt).run(inst)
        results_identical(res, ORACLES[name]().run(inst))
        validate_schedule(res.schedule, inst)

    @given(
        seed=st.integers(0, 99_999),
        n=st.integers(1, 30),
        backfill=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_fcfs_fuzz(self, seed, n, backfill):
        inst = fuzz_instance(seed, n, spread=0.5)
        name = "fcfs-backfill" if backfill else "fcfs"
        results_identical(get_policy(name).run(inst), ORACLES[name]().run(inst))

    @given(seed=st.integers(0, 99_999), n=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_seed_oracle_fuzz(self, seed, n):
        # The columnar batch policy reproduces the *seed* scheduler.
        inst = fuzz_instance(seed, n)
        results_identical(
            BatchPolicy(schedule_demt).run(inst),
            ReferenceBatchScheduler(schedule_demt).run(inst),
        )


class TestFaultyDifferential:
    """Faulty batch kernel == frozen windowed faulty loop, faults and all."""

    @given(
        seed=st.integers(0, 9999),
        n=st.integers(2, 25),
        mtbf=st.sampled_from([5.0, 10.0, 25.0]),
        noisy=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_fault_injected_fuzz(self, seed, n, mtbf, noisy):
        inst = fuzz_instance(seed, n)
        trace = generate_failures(8, 400.0, f"exp:{mtbf:g}:3@{seed % 7}")
        noise = "lognormal:0.5@1" if noisy else "none"
        res = FaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        oracle = WindowedFaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        results_identical(res, oracle)
        assert res.crashes == oracle.crashes
        assert res.deferrals == oracle.deferrals
        assert [
            (e.time, e.kind, e.job_id, e.procs) for e in res.log
        ] == [(e.time, e.kind, e.job_id, e.procs) for e in oracle.log]

    def test_nominal_runs_agree_too(self):
        inst = fuzz_instance(42, n=18)
        res = FaultyBatchPolicy().run(inst)
        oracle = WindowedFaultyBatchPolicy().run(inst)
        results_identical(res, oracle)
        assert res.crashes == oracle.crashes == 0


class TestFaultyGoldens:
    """The faulty batch policy reproduces the recorded runs."""

    @pytest.mark.parametrize(
        "cell",
        FAULTY_GOLDENS["cells"],
        ids=[
            f"{c['kind']}-n{c['n']}-{c['failures']}"
            for c in FAULTY_GOLDENS["cells"]
        ],
    )
    def test_golden_cell(self, cell):
        rng = derive_rng(
            FAULTY_GOLDENS["_meta"]["seed"],
            "faulty",
            cell["kind"],
            cell["n"],
            int(cell["spread"] * 10),
        )
        base = generate_workload(
            cell["kind"], n=cell["n"], m=cell["m"], seed=rng
        )
        if cell["spread"] > 0:
            releases = rng.exponential(cell["spread"], size=cell["n"]).cumsum()
            inst = with_releases(base, releases)
        else:
            inst = base
        trace = generate_failures(
            cell["m"], cell["horizon"], cell["failures"]
        )
        res = FaultyBatchPolicy(noise=cell["noise"], failures=trace).run(inst)
        assert res.crashes == cell["crashes"]
        assert res.deferrals == cell["deferrals"]
        assert list(res.batch_starts) == cell["batch_starts"]
        assert [sorted(c) for c in res.batch_contents] == cell["batch_contents"]
        assert [
            list(p) for p in placements_of(res.schedule)
        ] == cell["placements"]
        assert [
            [e.time, e.kind.value, e.job_id, list(e.procs)] for e in res.log
        ] == cell["log"]

    def test_goldens_exercise_the_fault_plane(self):
        # The corpus is only worth its bytes if crashes/deferrals happen.
        assert all(c["crashes"] > 0 for c in FAULTY_GOLDENS["cells"])
        assert all(c["deferrals"] > 0 for c in FAULTY_GOLDENS["cells"])


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW") != "1",
    reason="archive-scale smoke; set REPRO_RUN_SLOW=1 (CI slow lane)",
)
class TestMillionJobSmoke:
    """1M-job SWF replay window completes on the batch policy."""

    def test_million_job_replay_window(self):
        import io

        from repro.algorithms.wspt import schedule_wspt
        from repro.workloads.trace import (
            load_trace,
            synthesize_swf,
            trace_instance,
        )

        n, m = 1_000_000, 32
        trace = load_trace(io.StringIO(synthesize_swf(n=n, m=m, seed=8)))
        inst = trace_instance(trace, m, "rigid", online=True)
        res = BatchPolicy(schedule_wspt).run(inst)
        assert len(res.schedule) == n
        assert res.n_batches > 1
        assert res.schedule.makespan() > 0
