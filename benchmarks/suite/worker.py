"""One workload in one fresh interpreter: warm-up, timed reps, traced reps.

Started by ``run.py`` (one at a time, single-threaded, serial backend);
prints one JSON document as its last line of standard output.  Run it by
hand only to debug a workload::

    PYTHONPATH=src python3 benchmarks/suite/worker.py --workload robustness \
        --seed 2004 --size smoke --workdir .bench_build/w --reps 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import tracing
from repro import kernels
from repro.obs import ObsState
from run import BUILD
from workloads import WORKLOADS, digest

#: Reps every part gets at least, however short ``--seconds``.
MIN_REPS = 2


def nearest_rank(values: list[float], q: float) -> float:
    """The sample the ``q`` quantile lands on (nearest-rank definition)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def timed_reps(spec, parts, *, reps: int, seconds: float, min_reps: int):
    """Untraced reps cycling through ``parts``: ``reps`` passes over all of
    them, or until ``seconds`` have passed and every part ran at least
    ``min_reps`` times.  Each rep is bracketed by host-speed readings.
    Returns per-part lists of wall seconds, of host-speed scales and of
    Reps, and the readings."""
    walls = [[] for _ in parts]
    scales = [[] for _ in parts]
    outs = [[] for _ in parts]
    host = hostspeed.Bracket()
    started = time.perf_counter()
    k = 0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out = spec.run(parts[k], validate=False, decisions=True)
        walls[k].append(time.perf_counter() - t0)
        scales[k].append(host.scale())
        outs[k].append(out)
        k = (k + 1) % len(parts)
        done = min(len(w) for w in walls)
        if reps:
            if done >= reps:
                break
        elif done >= min_reps and time.perf_counter() - started >= seconds:
            break
    return walls, scales, outs, host.readings


def summarize(walls, scales, outs, errors: list[str]) -> dict:
    """End-to-end metrics (all but ``setup_s``) and the result digest.

    Every time is at reference host speed: a rep's wall time, and the
    decisions it made, times the rep's scale (see ``hostspeed``).
    Throughput is the work of every rep over their total time.  Every
    rep of a part makes the same decisions in the same order; each
    decision is timed by the mean of its repetitions, and the percentiles
    are taken over the decisions of all parts.  Means, not best-of-reps:
    the host's speed drifts within a rep, so the fastest rep is mostly
    the luckiest one.
    """
    decisions = []
    part_digests = []
    for k, runs in enumerate(outs):
        digests = {digest(out.rows) for out in runs}
        if len(digests) > 1:
            errors.append(f"part {k}: result digest changed between reps")
        part_digests.append(sorted(digests)[0])
        counts = {len(out.decisions) for out in runs}
        if len(counts) > 1:
            errors.append(f"part {k}: decision count changed between reps: {counts}")
            continue
        scaled = [[d * f for d in out.decisions] for out, f in zip(runs, scales[k])]
        decisions += [statistics.fmean(col) for col in zip(*scaled)]
    if not decisions:
        errors.append("no decision was timed")
        decisions = [float("nan")]
    units = sum(out.units for runs in outs for out in runs)
    wall_s = sum(map(sum, walls))
    scaled_s = sum(w * f for ws, fs in zip(walls, scales) for w, f in zip(ws, fs))
    ms = [1e3 * s for s in decisions]
    return {
        "metrics": {
            "throughput": units / scaled_s,
            "decision_ms_p50": statistics.median(ms),
            "decision_ms_p90": nearest_rank(ms, 0.90),
        },
        "wall_throughput": units / wall_s,
        "pass_s": sum(
            statistics.fmean(w * f for w, f in zip(ws, fs))
            for ws, fs in zip(walls, scales)
        ),
        "samples": len(decisions),
        "digest": hashlib.sha256("\n".join(part_digests).encode()).hexdigest(),
    }


def traced_passes(spec, parts, seconds: float, errors: list[str]):
    """Full passes over ``parts`` with every hook installed (at least one,
    more while ``seconds`` last), each rep bracketed by host-speed
    readings.  Returns the tracer, the number of passes, per-part lists
    of traced wall seconds and of the same at reference host speed, and
    the Reps."""
    tracer = ObsState()
    times = [[] for _ in parts]
    scaled = [[] for _ in parts]
    passes = 0
    outs = []
    host = hostspeed.Bracket()
    started = time.perf_counter()
    while passes < 1 or time.perf_counter() - started < seconds:
        for k, part in enumerate(parts):
            gc.collect()
            uninstall = tracing.install(tracer)
            try:
                t0 = time.perf_counter()
                with tracer.span(tracing.ROOT_SPAN):
                    out = spec.run(part, validate=False, decisions=False)
                times[k].append(time.perf_counter() - t0)
            finally:
                uninstall()
            scaled[k].append(times[k][-1] * host.scale())
            for name, value in out.stats.items():
                tracer.count(name, value)
            outs.append(out)
        passes += 1
    missing = tracing.check_fired(tracer, spec.name)
    if missing:
        errors.append(f"hooks declared for {spec.name} never fired: {missing}")
    covered = sum(tracing.self_times(tracer).values())
    wall = sum(map(sum, times))
    if abs(covered - wall) > 0.02 * wall:
        errors.append(f"layer self times cover {covered:.4f} s of {wall:.4f} s traced")
    return tracer, passes, times, scaled, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--reps", type=int, default=0,
                    help="exact number of reps of every part (0: --seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []

    # Warm-up on the first smoke part with every schedule checked by the
    # program's own validator; lazy imports and the kernel load finish here.
    warm = spec.run(spec.parts(args.seed, "smoke", args.workdir)[0],
                    validate=True, decisions=False)
    attempted = warm.ops
    errors += warm.failed

    parts = spec.parts(args.seed, args.size, args.workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, scales, outs, readings = timed_reps(
        spec, parts, reps=args.reps, seconds=budget, min_reps=MIN_REPS
    )
    for runs in outs:
        for out in runs:
            attempted += out.ops
            errors += out.failed
    doc = summarize(walls, scales, outs, errors)
    doc.update(workload=spec.name, unit=spec.unit, rep_wall_s=walls, host_readings=readings)
    # Read before the traced passes, whose spans are held in memory.
    doc["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    if args.trace:
        tracer, passes, traced_times, traced_scaled, traced = traced_passes(
            spec, parts, 0 if args.reps else args.seconds - budget, errors
        )
        for out in traced:
            attempted += out.ops
            errors += out.failed
        expected = [digest(runs[0].rows) for runs in outs]
        if any(digest(out.rows) != expected[i % len(parts)] for i, out in enumerate(traced)):
            errors.append("traced reps changed the result")
        traced_pass_s = sum(statistics.fmean(t) for t in traced_scaled)
        doc["layers"] = tracing.layer_metrics(
            tracer, passes, traced_times, traced_pass_s / doc["pass_s"] - 1.0
        )
        doc["traced_passes"] = passes
        tracing.write_trace(tracer, BUILD / "trace", spec.name, doc["layers"])

    doc["kernel_backend"] = kernels.backend_name()
    doc["attempted"] = attempted
    doc["errors"] = errors
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
