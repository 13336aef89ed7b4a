#!/usr/bin/env python
"""Check the exact work counts of a traced smoke benchmark run.

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

Usage, from the repository root::

    python3 benchmarks/suite/run.py --size smoke --reps 1 --trace 1 --json smoke.json
    python tests/data/check_smoke_counts.py smoke.json            # compare
    python tests/data/check_smoke_counts.py smoke.json --record   # rewrite the table

Record only for an intentional change of the work a layer does, and say
so in the commit message.  The exit code is 1 when a count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))

import tracing  # noqa: E402

TABLE_PATH = Path(__file__).with_name("smoke_counts.json")

#: Count metrics that are not a function of the code and the seed.
EXCLUDED = frozenset({"experiments.cache.journal_bytes"})

#: The exact metrics: every count and bytes layer metric but the excluded.
EXACT = tuple(
    name
    for name, unit in tracing.PER_LAYER
    if unit in ("count", "bytes") and name not in EXCLUDED
)


def counts_of(record: dict) -> dict[str, dict[str, int]]:
    """``{workload: {metric: count}}`` of a ``run.py --json`` record."""
    table = {}
    for run in record["runs"]:
        if run["size"] != "smoke" or not run["layers"]:
            raise SystemExit(
                f"{run['workload']}: not a traced smoke run (--size smoke --trace 1)"
            )
        table[run["workload"]] = {name: run["layers"][name] for name in EXACT}
    return table


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("record", type=Path, help="the run.py --json output")
    ap.add_argument("--record", dest="write", action="store_true",
                    help="rewrite the recorded table from this run")
    args = ap.parse_args(argv)

    got = counts_of(json.loads(args.record.read_text()))
    if args.write:
        TABLE_PATH.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sum(len(v) for v in got.values())} counts to {TABLE_PATH}")
        return 0
    problems = compare(got, json.loads(TABLE_PATH.read_text()))
    for line in problems:
        print(f"count differs: {line}")
    if not problems:
        print(f"{sum(len(v) for v in got.values())} counts match {TABLE_PATH.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
