"""Event-driven cluster simulation and the on-line batch framework.

The paper's platform (§2.1, Figure 1) is a homogeneous cluster fed through
a front-end job queue.  This package provides:

* :mod:`repro.simulator.cluster` — the processor-set resource model
  (allocate / release with explicit processor ids);
* :mod:`repro.simulator.events` — the typed event log of an execution
  and the ``TIME_EPS`` event-window queue;
* :mod:`repro.simulator.engine` — a discrete-event engine that *executes*
  a schedule on the cluster, assigning concrete processors and verifying
  feasibility live (the closest analogue of running on Icluster2 that a
  simulation can offer);
* :mod:`repro.simulator.online` — the pluggable on-line policy registry:
  the batch doubling framework of Shmoys, Wein & Williamson (paper ref
  [21], §2.2) that turns any off-line ρ-approximation into a
  2ρ-competitive on-line scheduler, the immediate FCFS / EASY-backfill
  baselines, and the greedy-interval / reservation batch variants — the
  batch family cutting batches with an arrival cursor, the FCFS
  dispatchers in one kernel call with the same event windowing;
* :mod:`repro.simulator.reference` — the seed batch scheduler, preserved
  verbatim as the differential oracle of the policy kernel;
* :mod:`repro.simulator.windowed` — the FCFS dispatcher and faulty batch
  loop as Python loops on the event-window queue, frozen as the
  differential oracles of the FCFS dispatch kernel and the faulty batch
  kernel (imported lazily by the test suite, not re-exported here,
  because it reaches into :mod:`repro.faults`).
"""

from repro.simulator.cluster import Cluster
from repro.simulator.events import (
    Event,
    EventKind,
    EventLog,
    EventWindowQueue,
)
from repro.simulator.engine import ClusterSimulator, ExecutionTrace
from repro.simulator.online import (
    ONLINE_POLICIES,
    BatchPolicy,
    FcfsOnlinePolicy,
    GreedyIntervalPolicy,
    OnlineBatchScheduler,
    OnlinePolicy,
    OnlineResult,
    ReservationPolicy,
    get_policy,
)
from repro.simulator.reference import ReferenceBatchScheduler

__all__ = [
    "Cluster",
    "Event",
    "EventKind",
    "EventLog",
    "EventWindowQueue",
    "ClusterSimulator",
    "ExecutionTrace",
    "OnlinePolicy",
    "BatchPolicy",
    "FcfsOnlinePolicy",
    "GreedyIntervalPolicy",
    "ReservationPolicy",
    "OnlineBatchScheduler",
    "OnlineResult",
    "ReferenceBatchScheduler",
    "ONLINE_POLICIES",
    "get_policy",
]
