"""The benchmark suite: four north-star pipelines, end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py                       # all four workloads
    python3 benchmarks/suite/run.py --workload replay-demt --seed 7
    python3 benchmarks/suite/run.py --trace 1             # + per-layer self time
    python3 benchmarks/suite/run.py --size smoke --reps 1 # seconds, for tests

Each workload runs in its own fresh interpreter, one at a time, single
threaded on the serial backend.  Inside it: one untimed warm-up at smoke
size with schedule validation, then timed reps cycling through the
workload's parts until ``--seconds`` have passed (every part at least
twice), or exactly ``--reps`` reps of every part.  Every timing is
reported at reference host speed (``hostspeed.py``).  Every input is
generated from ``--seed``; at the default seed the result digest must
match the one recorded in ``baseline.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones (see README.md).  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"

#: The campaign seed of ``repro.experiments.config``.
DEFAULT_SEED = 2004
#: Workload -> the modules a user of that pipeline imports (``setup_s``).
WORKLOADS = {
    "paper-campaign": ("repro.experiments.runner", "repro.experiments.engine"),
    "replay-demt": ("repro.experiments.replay",),
    "replay-spine": ("repro.experiments.replay",),
    "robustness": ("repro.faults.campaign",),
}
#: End-to-end metrics: name -> unit (the order of BENCHMARK.json).
END_TO_END = {
    "throughput": "units/s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Fresh-interpreter import probes behind ``setup_s``, per size.
SETUP_PROBES = {"full": 5, "smoke": 1}
#: Wall-clock cap of one workload's interpreter beyond ``--seconds``:
#: warm-up, the reps that finish the last pass, and writing the trace.
WORKER_MARGIN_S = 120


class BenchError(Exception):
    """A problem that stops the benchmark without a result."""


def bench_env() -> dict:
    """Environment of every interpreter the benchmark starts: the program
    from ``src/``, kernels compiled and temp files written under
    ``.bench_build/`` of the checkout, one thread per numeric library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_KERNELS_CACHE"] = str(BUILD / "kernels")
    env["TMPDIR"] = str(BUILD / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_KERNELS", None)
    return env


def setup_probes(env: dict, modules: tuple[str, ...], count: int):
    """``count`` times, the seconds for a fresh interpreter to import
    ``modules`` and load the kernels (already compiled).  Returns the
    times at reference host speed and in wall seconds, and the host-speed
    readings that bracket them."""
    code = "; ".join(f"import {m}" for m in modules + ("repro.kernels",))
    scaled, walls = [], []
    host = hostspeed.Bracket()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr.strip()}")
        scaled.append(walls[-1] * host.scale())
    return scaled, walls, host.readings


def run_worker(env: dict, workload: str, args, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--workdir", str(workdir),
        "--seconds", str(args.seconds),
        "--reps", str(args.reps),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=args.seconds + WORKER_MARGIN_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def expected_digest(workload: str, seed: int, size: str) -> str | None:
    if seed != DEFAULT_SEED or size != "full":
        return None
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["digests"].get(workload)


def machine_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def run_workload(env: dict, workload: str, args, workdir: Path, stamp: dict) -> dict:
    # The worker first: on the first run in a checkout its import compiles
    # the kernels, a cost paid once per machine that setup_s leaves out.
    doc = run_worker(env, workload, args, workdir)
    setup, setup_walls, setup_readings = setup_probes(
        env, WORKLOADS[workload], SETUP_PROBES[args.size]
    )
    errors = list(doc["errors"])
    want = expected_digest(workload, args.seed, args.size)
    if want is not None and doc["digest"] != want:
        errors.append(f"result digest {doc['digest']} != recorded {want}")
    metrics = dict(doc["metrics"], setup_s=statistics.median(setup))
    return {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "unit": doc["unit"],
        "metrics": metrics,
        "layers": doc.get("layers"),
        "digest": doc["digest"],
        "digest_checked": want is not None,
        "wall_throughput": doc["wall_throughput"],
        "rep_wall_s": doc["rep_wall_s"],
        "samples": doc["samples"],
        "setup_probes": setup,
        "setup_wall_s": setup_walls,
        "host_readings": {"setup": setup_readings, "reps": doc["host_readings"]},
        "attempted": doc["attempted"],
        "failed": len(errors),
        "errors": errors,
        "machine": dict(stamp, kernel_backend=doc["kernel_backend"]),
    }


def report(run: dict) -> None:
    m = run["metrics"]
    print(f"== {run['workload']}  seed={run['seed']} size={run['size']} "
          f"reps={[len(t) for t in run['rep_wall_s']]} digest={run['digest'][:16]}"
          f"{' (matches baseline)' if run['digest_checked'] and not run['failed'] else ''}")
    for name, unit in END_TO_END.items():
        shown = f"{run['unit']}/s" if name == "throughput" else unit
        extra = f"  (n={run['samples']} decisions)" if name.startswith("decision") else ""
        if name == "throughput":
            extra = f"  (uncorrected for host speed: {run['wall_throughput']:.4f})"
        print(f"   {name:<18} {m[name]:>14.4f} {shown}{extra}")
    ops = run["attempted"]
    print(f"   {'ops_failed_frac':<18} {run['failed'] / ops:>14.4f} ratio  "
          f"({run['failed']}/{ops} ops)")
    for err in run["errors"]:
        print(f"   FAILED: {err}")
    if run["layers"]:
        import tracing

        for name, unit in tracing.PER_LAYER:
            print(f"   {name:<40} {run['layers'][name]:>14.6g} {unit}")


def result_line(runs: list[dict], trace: bool) -> dict:
    """The result line: one workload's metrics by name, or for
    several workloads ``<workload>.<metric>``."""
    import tracing

    units = dict(tracing.PER_LAYER) if trace else END_TO_END
    metrics = {}
    for run in runs:
        values = run["layers"] if trace else run["metrics"]
        prefix = "" if len(runs) == 1 else run["workload"] + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(run["failed"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the four north-star pipelines end to end and per layer."
    )
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time per workload (default 25)")
    ap.add_argument("--reps", type=int, default=0,
                    help="exact number of reps of every part instead of --seconds")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add traced reps, report per-layer metrics and write "
                         "Chrome-trace JSON and layers.json to .bench_build/trace/")
    ap.add_argument("--json", type=Path, help="write every run's full record here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = bench_env()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = BUILD / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stamp = machine_stamp()
        # Every process the benchmark starts runs on one CPU: a vCPU's
        # speed drifts with its neighbours', so the reference readings
        # must come from the CPU the measured code runs on.
        stamp["cpu"] = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {stamp["cpu"]})
        runs = []
        for workload in args.workload or WORKLOADS:
            runs.append(run_workload(env, workload, args, workdir, stamp))
            report(runs[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"runs": runs}, indent=1))
    line = result_line(runs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
