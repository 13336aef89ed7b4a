#!/usr/bin/env python
"""Check the exact work counts and the layer times of a traced smoke run.

The traced smoke pass of the benchmark suite counts the work every layer
does: Graham kernel calls and tasks, DEMT selection rounds and pool rows,
DP calls and cells, jobs per on-line policy, cells and cache hits.  These
counts are a pure function of the code and the seed, so they repeat
exactly from run to run.  A kernel that is silently bypassed or a loop
that runs extra rounds changes them, whatever the host's speed.

``smoke_counts.json`` beside this script holds every ``count`` and
``bytes`` layer metric of each workload.  ``experiments.cache.journal_bytes``
is left out: the cell journal stores measured seconds, so its size moves
by a few bytes between runs.

A layer can also get slower while doing the same work, e.g. when a
columnar path falls back to a per-line or per-object one.
``smoke_times.json`` holds the median of every ``*.self_s`` layer metric
over the recorded runs, each run scaled to reference host speed by the
two host-speed readings around its traced pass
(``benchmarks/suite/hostspeed.py``).  A layer whose recorded median is
at least ``TIME_FLOOR_S`` fails when it takes more than ``TIME_BOUND``
times that median; below the floor a smoke-size layer is mostly timer
noise.  Only slowing down fails: after a layer gets faster on purpose,
record again so that its bound tightens.

Usage, from the repository root::

    python3 benchmarks/suite/run.py --size smoke --reps 1 --trace 1 --json smoke.json
    python tests/data/check_smoke_counts.py smoke.json                 # compare
    python tests/data/check_smoke_counts.py smoke-*.json --record      # rewrite the tables

``--record`` rewrites the counts (which must agree between the runs
given) and adds the median time over the runs given of every layer that
has no median in ``smoke_times.json`` yet; every median already there is
kept, so re-recording one layer leaves the other layers' bounds where
they were.  To re-record a layer, delete its entry first, then record
from five or more fresh runs on a quiet machine.  Record only for an
intentional change of the work or the speed of a layer, and say so in
the commit message.  The exit code is 1 when a count differs or a layer
is too slow.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402

TABLE_PATH = Path(__file__).with_name("smoke_counts.json")
TIMES_PATH = Path(__file__).with_name("smoke_times.json")

#: Count metrics that are not a function of the code and the seed.
EXCLUDED = frozenset({"experiments.cache.journal_bytes"})

#: The exact metrics: every count and bytes layer metric but the excluded.
EXACT = tuple(
    name
    for name, unit in tracing.PER_LAYER
    if unit in ("count", "bytes") and name not in EXCLUDED
)

#: The timed metrics: every layer's self time.
TIMED = tuple(name for name, _unit in tracing.PER_LAYER if name.endswith(".self_s"))

#: A layer fails when it takes more than this times its recorded median.
TIME_BOUND = 2.0
#: Layers whose recorded median is below this many seconds are not gated.
TIME_FLOOR_S = 0.002


def smoke_runs(record: dict) -> list[dict]:
    """The runs of a ``run.py --json`` record, each a traced smoke run."""
    for run in record["runs"]:
        if run["size"] != "smoke" or not run["layers"]:
            raise SystemExit(
                f"{run['workload']}: not a traced smoke run (--size smoke --trace 1)"
            )
    return record["runs"]


def counts_of(runs: list[dict]) -> dict[str, dict[str, int]]:
    """``{workload: {metric: count}}``."""
    return {run["workload"]: {name: run["layers"][name] for name in EXACT} for run in runs}


def host_scale(run: dict) -> float:
    """Factor from the traced pass's wall seconds to seconds at reference
    host speed.  The pass runs after the last timed rep and before the
    setup probes, so the readings around it are the last of the reps and
    the first of the setup probes; as in ``hostspeed.Bracket``, the
    factor is ``REFERENCE_S`` over their mean."""
    readings = run["host_readings"]
    return hostspeed.REFERENCE_S / ((readings["reps"][-1] + readings["setup"][0]) / 2)


def times_of(runs: list[dict]) -> dict[str, dict[str, float]]:
    """``{workload: {metric: self seconds at reference host speed}}``."""
    return {
        run["workload"]: {name: run["layers"][name] * host_scale(run) for name in TIMED}
        for run in runs
    }


def compare(got: dict, want: dict) -> list[str]:
    """One line per workload or metric whose count differs."""
    problems = []
    for workload in sorted(set(got) | set(want)):
        if workload not in want:
            problems.append(f"{workload}: no recorded counts")
            continue
        if workload not in got:
            problems.append(f"{workload}: not in this run")
            continue
        for name in EXACT:
            a, b = got[workload].get(name), want[workload].get(name)
            if a != b:
                problems.append(f"{workload}.{name}: {a} != recorded {b}")
    return problems


def compare_times(got: dict, want: dict) -> tuple[list[str], list[tuple[float, str]]]:
    """A line for every gated layer more than ``TIME_BOUND`` times slower
    than its recorded median, and every gated layer's ``(ratio, name)``.
    A workload missing on either side is reported by :func:`compare`."""
    problems, ratios = [], []
    for workload in sorted(set(got) & set(want["medians"])):
        for name, median in sorted(want["medians"][workload].items()):
            if median < TIME_FLOOR_S:
                continue
            seconds = got[workload][name]
            ratios.append((seconds / median, f"{workload}.{name}"))
            if seconds > TIME_BOUND * median:
                problems.append(
                    f"{workload}.{name}: {1e3 * seconds:.2f} ms is {seconds / median:.2f}x "
                    f"the recorded median {1e3 * median:.2f} ms (bound {TIME_BOUND:g}x)"
                )
    return problems, ratios


def record(records: list[list[dict]]) -> int:
    """Rewrite the counts table from the runs of several ``run.py --json``
    files, and add the median time of every layer the times table lacks."""
    counts = [counts_of(runs) for runs in records]
    backends = {run["machine"]["kernel_backend"] for runs in records for run in runs}
    kept = json.loads(TIMES_PATH.read_text()) if TIMES_PATH.exists() else None
    if kept is not None:
        backends.add(kept["kernel_backend"])
    if any(c != counts[0] for c in counts) or len(backends) > 1:
        print("the runs given differ in their counts or kernel backend, or from the "
              f"kernel backend of {TIMES_PATH.name}; nothing recorded")
        return 1
    times = [times_of(runs) for runs in records]
    medians, added = {}, 0
    for workload in times[0]:
        old = kept["medians"].get(workload, {}) if kept is not None else {}
        medians[workload] = {}
        for name in TIMED:
            if name in old:
                medians[workload][name] = old[name]
            else:
                medians[workload][name] = round(
                    statistics.median(t[workload][name] for t in times), 6
                )
                added += 1
    TABLE_PATH.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
    TIMES_PATH.write_text(json.dumps(
        {"kernel_backend": backends.pop(), "medians": medians}, indent=1, sort_keys=True,
    ) + "\n")
    print(f"recorded {sum(len(v) for v in counts[0].values())} counts to {TABLE_PATH}")
    print(f"recorded the median time over {len(records)} runs of {added} layers "
          f"missing from {TIMES_PATH}; kept the other medians")
    return 0


def check(path: Path, runs: list[dict]) -> bool:
    """Compare one run record with both tables; print what differs."""
    counts = counts_of(runs)
    want = json.loads(TIMES_PATH.read_text())
    problems = [
        f"count differs: {line}"
        for line in compare(counts, json.loads(TABLE_PATH.read_text()))
    ]
    problems += [
        f"{run['workload']}: timed with the {run['machine']['kernel_backend']} "
        f"kernels, recorded with {want['kernel_backend']}"
        for run in runs
        if run["machine"]["kernel_backend"] != want["kernel_backend"]
    ]
    slow, ratios = compare_times(times_of(runs), want)
    problems += [f"too slow: {line}" for line in slow]
    for line in problems:
        print(f"{path}: {line}")
    if not problems:
        worst, name = max(ratios)
        print(f"{path}: {sum(len(v) for v in counts.values())} counts match "
              f"{TABLE_PATH.name}; {len(ratios)} layer times within {TIME_BOUND:g}x of "
              f"{TIMES_PATH.name} (slowest: {name} at {worst:.2f}x)")
    return not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("record", type=Path, nargs="+", help="run.py --json outputs")
    ap.add_argument("--record", dest="write", action="store_true",
                    help="rewrite the counts and add the missing layer medians "
                         "from these runs")
    args = ap.parse_args(argv)

    records = {path: smoke_runs(json.loads(path.read_text())) for path in args.record}
    if args.write:
        return record(list(records.values()))
    ok = [check(path, runs) for path, runs in records.items()]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
