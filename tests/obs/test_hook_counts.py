"""Exact hook counts of the two headline replay legs.

The instrumentation plane promises a zero-overhead disabled path: every
hook site is one module-attribute load plus an ``is None`` check, so the
disabled cost of a run is its hook count times that check.  The count
is deterministic, so it is pinned here exactly instead of timed: a new
per-job hook, or one moved between layers, changes a number below.

Each leg replays a synthetic archive rigid on m = 64 through an
obs-enabled :class:`~repro.simulator.online.BatchPolicy`, then executes
the result on :class:`~repro.simulator.engine.ClusterSimulator` with the
instance's submissions.  The recorded values are what the code read
when the event windows of both loops were last restructured; the
tracer must also leave every placement as an obs-disabled run makes it.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.simulator.engine import ClusterSimulator
from repro.simulator.online import BatchPolicy
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

M = 64

#: ``(jobs, engine) -> recording``: hook calls, spans, the ``spine.*``
#: and ``online.*`` counters, the window-depth histogram and the repr of
#: the simulator's busy time.
RECORDED = {
    (5000, "demt"): {
        "hook_calls": 28278,
        "spans": 67,
        "counters": {
            "online.batches": 22,
            "spine.transitions.arrival": 10000,
            "spine.transitions.finish": 5000,
            "spine.transitions.start": 5000,
        },
        "window_depth": {
            "count": 10000, "total": 15000, "min": 1, "max": 12,
            "buckets": {1: 5932, 2: 3333, 4: 695, 8: 39, 16: 1},
        },
        "busy_time": "31966.360959322672",
    },
    (20000, "wspt"): {
        "hook_calls": 100751,
        "spans": 101,
        "counters": {
            "online.batches": 50,
            "spine.transitions.arrival": 40000,
            "spine.transitions.finish": 20000,
            "spine.transitions.start": 20000,
        },
        "window_depth": {
            "count": 40000, "total": 60000, "min": 1, "max": 7,
            "buckets": {1: 22181, 2: 15956, 4: 1800, 8: 63},
        },
        "busy_time": "127971.22052942064",
    },
}


def _engine(name):
    if name == "demt":
        from repro.algorithms.demt import schedule_demt

        return schedule_demt
    from repro.algorithms.wspt import schedule_wspt

    return schedule_wspt


def _placements(schedule):
    return [
        (p.task.task_id, repr(p.start), p.allotment, repr(p.end))
        for p in schedule.placements
    ]


@pytest.mark.parametrize("leg", sorted(RECORDED), ids=lambda leg: f"{leg[1]}-{leg[0]}")
def test_replay_leg_hook_counts(leg):
    n, engine_name = leg
    engine = _engine(engine_name)
    trace = load_trace(synthesize_swf(n, M, seed=42, load=1.0))
    inst = trace_instance(trace, M, "rigid", online=True)
    plain = BatchPolicy(engine).run(inst)

    obs.enable(fresh=True)
    try:
        traced = BatchPolicy(engine).run(inst)
        execution = ClusterSimulator(M).execute(traced.schedule, inst)
    finally:
        state = obs.disable()

    assert _placements(traced.schedule) == _placements(plain.schedule)
    got = {
        "hook_calls": state.hook_calls,
        "spans": len(state.spans),
        "counters": {
            k: v
            for k, v in sorted(state.counters.items())
            if k.startswith(("spine.", "online."))
        },
        "window_depth": state.hists["spine.window_depth"],
        "busy_time": repr(execution.busy_time()),
    }
    assert got == RECORDED[leg]
