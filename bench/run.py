#!/usr/bin/env python3
"""Run one setsort benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cell-scan --seed 1 --seconds 30 --trace 0

Workloads: cell-scan, sweep-par, verify-suite, word-queries (see
bench/README.md for why each exists).  Every repetition runs in a fresh
interpreter (bench/rep.py).  The run first starts a few interpreters that
only set up, then repeats the workload while another repetition still fits
in ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, with
the tracing overhead as traced minus untraced wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when the run completed, also when an output was wrong
(``correct`` is then false); it is non-zero, with no JSON line, when the
run could not complete, for instance when ``src/setsort`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170  # the whole run, set-up spawns included
SETUP_SAMPLES = 3


class BenchError(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    cmd = [
        sys.executable, str(BENCH / "rep.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--spawned-at", repr(started),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the group holds any pool workers too
        proc.communicate()
        raise BenchError(f"{mode} repetition passed the {TIME_LIMIT_S} s limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} repetition printed no result:\n{err.strip()}")
    result = json.loads(lines[-1])
    result["mode"] = mode
    result["duration_s"] = time.perf_counter() - started
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_reps(args, modes: list[str], deadline: float) -> list[dict]:
    """Cycle through ``modes`` while the next repetition fits in --seconds."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        mode = modes[len(reps) % len(modes)]
        reps.append(spawn(args, mode, deadline))
        if len(reps) < len(modes):
            continue
        mode = modes[len(reps) % len(modes)]
        expect = statistics.median(r["duration_s"] for r in reps if r["mode"] == mode)
        if time.perf_counter() - start + expect > args.seconds:
            return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; only word-queries generates inputs from it")
    parser.add_argument("--seconds", type=float, default=30,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "setsort" / "__init__.py").is_file():
        print(f"error: no setsort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        spawn(args, "setup", deadline)  # warm-up: file cache, and bytecode caches if allowed
        setups = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
        reps = run_reps(args, ["run", "trace"] if args.trace else ["run"], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = {r["inputs_sha256"] for r in setups + reps}
    if len(digests) != 1:
        print("error: repetitions built different inputs", file=sys.stderr)
        return 1
    runs = [r for r in reps if r["mode"] == "run"]
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    wall_s = statistics.median(r["wall_s"] for r in runs)
    queries_per_rep = len(runs[0]["queries_s"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"python {platform.python_implementation()} {platform.python_version()}"
          f" nproc {len(os.sched_getaffinity(0))}")
    print(f"inputs_sha256 {digests.pop()}")
    print(f"repetitions {len(reps)} ({len(runs)} untraced), set-up samples {len(setups) + len(reps)}")
    print(f"failed_ops_ratio {len(failures) / attempted:g} ({len(failures)}/{attempted} ops)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        traced = [r for r in reps if r["mode"] == "trace"]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        # median_low picks a measured value, so counts stay whole numbers.
        metrics = {
            name: (statistics.median_low(r["layers"][name][0] for r in traced)
                   if traced[0]["layers"][name][0] is not None else None, unit)
            for name, (_, unit) in traced[0]["layers"].items()
        }
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        print(f"untraced wall_s {wall_s:.4f}, traced wall_s {traced_wall:.4f}")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups + reps), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
            "classes_per_s": (runs[0]["classes"] / wall_s, "1/s"),
            # Percentiles are taken per repetition, then the median across them.
            "query_ms_p50": (statistics.median(percentile(r["queries_s"], 50) for r in runs) * 1e3, "ms"),
            "query_ms_p99": (statistics.median(percentile(r["queries_s"], 99) for r in runs) * 1e3, "ms"),
            "queries_per_s": (queries_per_rep / wall_s, "1/s"),
        }
        print(f"queries per repetition {queries_per_rep}")
    for name, (value, unit) in metrics.items():
        shown = "unresolved (nproc < 2)" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
