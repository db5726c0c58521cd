#!/usr/bin/env python3
"""beamstops benchmark: end-to-end throughput and set-up time per workload,
and per-layer costs from a separate traced run.

    python3 bench/run_bench.py --workload pipe --seed 0 --seconds 35 --trace 0
    python3 bench/run_bench.py --all --seconds 35 [--trace 1]   # one table
    python3 bench/run_bench.py --write-reference                # re-record

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the seed and a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy is first imported; sweep workers inherit them.  One BLAS
# thread: on two shared cores, more threads measure the scheduler.  No
# transparent huge pages for numpy's large arrays: with them, the speed of
# fine-mesh (whose load matrix is 6.5 MB) changed by 15 % from one process
# to the next; without them it held within 3 %.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Each throughput invocation is followed by one set-up invocation; at
#: least SETUP_MIN of those are timed.
SETUP_MIN = 5
#: The calibration kernel runs for CAL_SHARE of the preceding
#: invocation's wall time, and at least CAL_MIN_S seconds.
CAL_SHARE = 0.25
CAL_MIN_S = 0.05
#: A traced run stops adding invocations once it holds this many spans,
#: which are all kept in memory (about 28 bytes each).
SPAN_CAP = 2_000_000


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Largest resident-set high-water mark of this process and its children (sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Tally:
    """Invocations attempted and failed; failures keep their message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[bool, set[str]] = {False: set(), True: set()}

    def invoke(self, wl, one_step: bool):
        self.attempted += 1
        try:
            outcome = wl.invoke(one_step)
        except Exception as exc:  # a failing run is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.digests[one_step].add(outcome.digest)
        return outcome

    @property
    def consistent(self) -> bool:
        """Equal inputs gave byte-identical outputs, traced or not."""
        return all(len(d) <= 1 for d in self.digests.values())


def median(values, default=0.0):
    return statistics.median(values) if values else default


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def measure(wl, tally: Tally, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    Full and one-step invocations alternate, and the calibration kernel
    runs between every two of them.  Each invocation's time is scaled by
    the kernel's speed around it (the geometric mean of the speeds just
    before and just after), so that it reads as on a quiet host.
    ``steps_per_s`` is the median scaled rate of the full invocations and
    ``setup_s`` the median scaled time of the one-step ones.
    """
    kernel = calibrate.Kernel(2 * wl.J)
    tally.invoke(wl, True)  # warm-up: lazy imports and first-touch allocations
    speed = kernel.speed(CAL_MIN_S)
    kept = {False: [], True: []}  # one_step -> [(outcome, speed)]
    n, t0 = 0, time.perf_counter()
    while n < SETUP_MIN or time.perf_counter() - t0 < seconds:
        for one_step in (False, True):
            outcome = tally.invoke(wl, one_step)
            wall = outcome.wall if outcome is not None else 0.0
            after = kernel.speed(max(CAL_MIN_S, CAL_SHARE * wall))
            if outcome is not None:
                kept[one_step].append((outcome, math.sqrt(speed * after)))
            speed = after
        n += 1
    full, setup = kept[False], kept[True]
    rates = sorted(o.steps / o.wall / s for o, s in full)
    setups = sorted(o.wall * s for o, s in setup)
    speeds = sorted(s for _, s in full + setup)
    raw = sorted(o.steps / o.wall for o, _ in full)
    for label, values in ((f"{len(rates)} invocations of {full[0][0].steps if full else 0} steps: "
                           "scaled steps_per_s", rates), (f"{len(setups)} set-ups: scaled setup_s", setups),
                          ("unscaled steps_per_s", raw), ("host speed", speeds)):
        if values:
            q1, q2, q3 = _quartiles(values)
            print(f"# {label} min {values[0]:.6g} q1 {q1:.6g} median {q2:.6g} "
                  f"q3 {q3:.6g} max {values[-1]:.6g}")
    return {
        "steps_per_s": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(wl, tally: Tally, seconds: float, env: dict) -> dict:
    """Per-layer metrics from traced invocations, plus the tracing overhead.

    Untraced and traced invocations alternate, so that each pair sees the
    same contention; ``trace.overhead`` is the median ratio over the
    pairs, minus 1.  The sweep runs its members serially in those pairs,
    as in :func:`measure`; its pool efficiency comes from an untraced
    phase in a process pool that takes the first half.
    """
    import tracing

    tally.invoke(wl, True)
    t0 = time.perf_counter()
    efficiencies, n = [], 0
    if wl.pooled:
        wl.serial = False
        while n == 0 or time.perf_counter() - t0 < seconds / 2:
            outcome = tally.invoke(wl, False)
            if outcome is not None:
                efficiencies.append(outcome.pool_efficiency)
            n += 1
        wl.serial = True
    tracer = tracing.Tracer()
    ratios, steps, n = [], {}, 0
    while n == 0 or (time.perf_counter() - t0 < seconds and len(tracer.start) < SPAN_CAP):
        plain = tally.invoke(wl, False)
        tracer.run_id = n
        with tracer:
            traced = tally.invoke(wl, False)
        if plain is not None and traced is not None:
            ratios.append(traced.wall / plain.wall)
            steps[n] = traced.steps
        n += 1
    BUILD.mkdir(exist_ok=True)
    tracer.save(BUILD / f"trace-{wl.name}.npz", **env)
    per_run = tracer.metrics(steps)
    metrics = {key: median([m[key] for m in per_run]) for key in (per_run[0] if per_run else {})}
    metrics["cli.pool_efficiency"] = median(efficiencies)
    metrics["trace.overhead"] = median(ratios, default=1.0) - 1.0
    if tracer.missing:
        print(f"# not traced (absent from the program): {', '.join(tracer.missing)}")
    print(f"# {len(ratios)} traced invocations of {traced.steps if traced else 0} steps, "
          f"{len(tracer.start)} spans in {BUILD.name}/trace-{wl.name}.npz")
    return metrics


def run_one(args) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    print("# env " + json.dumps(env))
    out_dir = BUILD / f"run-{os.getpid()}"
    tally = Tally()
    try:
        wl = workloads.make(args.workload, args.seed, out_dir)
        if args.trace:
            metrics = measure_traced(wl, tally, args.seconds, env)
        else:
            metrics = measure(wl, tally, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for err in tally.errors[:5]:
        print(f"# FAILED: {err}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    units = declared_units()
    shown = ("steps_per_s", "setup_s", "peak_rss_mb", "trace.overhead")
    summary = "".join(f"{k} {metrics[k]:.6g} {units[k]}, " for k in shown if k in metrics)
    print(f"# {args.workload} seed={args.seed}: {summary}error_rate {error_rate:.3g} ratio "
          f"({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0 and tally.consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (fresh peak RSS), one table."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed\n{proc.stderr}", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
    names = list(rows)
    keys = list(rows[names[0]]["metrics"]) + ["error_rate"]
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for key in keys:
        cells = []
        for n in names:
            if key == "error_rate":
                value, unit = rows[n]["failed"] / rows[n]["attempted"], "ratio"
            else:
                value, unit = rows[n]["metrics"][key]["value"], rows[n]["metrics"][key]["unit"]
            cells.append(f"{value:14.6g}")
        print(f"{key:34s} {unit:6s} " + " ".join(cells))
    print("correct: " + ", ".join(f"{n}={rows[n]['correct']}" for n in names))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pipe", "fine-mesh", "penalty-sweep", "obstacle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record the default-seed tip histories in reference.json")
    args = parser.parse_args(argv)
    if args.write_reference:
        import workloads

        out = BUILD / f"reference-{os.getpid()}"
        try:
            workloads.write_reference(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
