"""Compare two sets of benchmark runs, one row per workload x metric.

Usage::

    python3 benchmarks/suite/compare.py A B [--save-baseline PATH]

``A`` (the base) and ``B`` are each a JSON file written by ``run.py
--json`` (or ``baseline.json``, which holds the recorded base set), or a
directory of such files; all the runs they hold form one set.  For every
end-to-end metric of BENCHMARK.json the row reads

* ``unresolved`` — a set has fewer than ten runs, so its spread is not
  known;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a set's spread (quartile distance over median) is
  wider than the bound, and B's runs do not all beat A's;
* ``improved`` — B's median is better by more than A's spread, and B
  wins at least nine in ten of at least ten pairs (runs of the same
  seed in both sets);
* ``unchanged`` — otherwise.

The ratio B/A is printed with its base.  The exit code is 1 when any row
regressed.  ``--save-baseline`` writes set A, its medians and quartiles,
the A-versus-B agreement and A's default-seed digests to PATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import DEFAULT_SEED, ROOT

#: Runs each set needs before its spread, and so any verdict, is known;
#: also the pairs an ``improved`` verdict needs.
MIN_RUNS = 10


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        runs += json.loads(f.read_text())["runs"]
    if not runs:
        raise SystemExit(f"no runs in {path}")
    return runs


def metric_specs() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def verdict(
    a: list[float],
    b: list[float],
    pairs: list[tuple[float, float]],
    bound: float,
    lower_better: bool,
) -> str:
    """Verdict on one metric: ``a`` and ``b`` are the values of each set,
    ``pairs`` the ``(a, b)`` values of the seeds both sets ran."""
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved"
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if lower_better else -1.0
    # Relative change in the "worse" direction: > 0 means B is worse.
    worse = sign * (sb["median"] - sa["median"]) / sa["median"]
    if worse > bound:
        return "regressed"
    all_better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
    if max(sa["spread"], sb["spread"]) > bound and not all_better:
        return "unresolved"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if -worse > sa["spread"] and len(pairs) >= MIN_RUNS and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[dict], bool]:
    rows = []
    workloads = [w for w in dict.fromkeys(r["workload"] for r in runs_a)
                 if any(r["workload"] == w for r in runs_b)]
    for workload in workloads:
        ra = [r for r in runs_a if r["workload"] == workload]
        rb = [r for r in runs_b if r["workload"] == workload]
        b_by_seed = {r["seed"]: r for r in rb}
        for spec in metric_specs():
            name = spec["name"]
            a = [r["metrics"][name] for r in ra]
            b = [r["metrics"][name] for r in rb]
            pairs = [(r["metrics"][name], b_by_seed[r["seed"]]["metrics"][name])
                     for r in ra if r["seed"] in b_by_seed]
            unit = f"{ra[0]['unit']}/s" if name == "throughput" else spec["unit"]
            sa, sb = summarize(a), summarize(b)
            rows.append({
                "workload": workload,
                "metric": name,
                "verdict": verdict(a, b, pairs, spec["bound"], spec["better"] == "lower"),
                "ratio": sb["median"] / sa["median"],
                "base": sa["median"],
                "unit": unit,
                "spread_a": sa["spread"],
                "spread_b": sb["spread"],
                "bound": spec["bound"],
                "runs": (len(a), len(b)),
            })
    return rows, any(row["verdict"] == "regressed" for row in rows)


def save_baseline(path: Path, runs_a: list[dict], rows: list[dict]) -> None:
    old = json.loads(path.read_text()) if path.exists() else {}
    digests = dict(old.get("digests", {}))
    for run in runs_a:
        if run["seed"] == DEFAULT_SEED and run["size"] == "full":
            digests[run["workload"]] = run["digest"]
    summary: dict = {}
    for run in runs_a:
        summary.setdefault(run["workload"], {})
    for workload in summary:
        for spec in metric_specs():
            values = [r["metrics"][spec["name"]] for r in runs_a if r["workload"] == workload]
            summary[workload][spec["name"]] = summarize(values)
    doc = {
        "machine": runs_a[0]["machine"],
        "default_seed": DEFAULT_SEED,
        "digests": digests,
        "summary": summary,
        "agreement": [
            {k: row[k] for k in ("workload", "metric", "verdict", "ratio",
                                 "spread_a", "spread_b")}
            for row in rows
        ],
        "runs": runs_a,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    ap.add_argument("a", type=Path,
                    help="base set: a run.py --json file, baseline.json or a directory")
    ap.add_argument("b", type=Path, help="new set, same forms")
    ap.add_argument("--save-baseline", type=Path, metavar="PATH")
    args = ap.parse_args(argv)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    rows, regressed = compare(runs_a, runs_b)
    if not rows:
        print("no workload in common", file=sys.stderr)
        return 2
    print(f"{'workload':<15} {'metric':<16} {'verdict':<11} {'B/A':>7}  base (A median)"
          f"{'':<14} spread A / B  bound  runs")
    for row in rows:
        print(f"{row['workload']:<15} {row['metric']:<16} {row['verdict']:<11} "
              f"{row['ratio']:>7.3f}  {row['base']:>12.4f} {row['unit']:<16} "
              f"{row['spread_a']:>5.1%} / {row['spread_b']:<6.1%} {row['bound']:.0%}  "
              f"{row['runs'][0]}/{row['runs'][1]}")
    if args.save_baseline is not None:
        save_baseline(args.save_baseline, runs_a, rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
