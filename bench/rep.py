"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition begins
cold, as every ``setsort`` invocation does: the module-global result cache
of ``verification`` and the ``lru_cache`` on ``stirling2`` start empty.

Modes:
  setup  import setsort and build the workload's inputs, then stop
  run    also execute the workload untraced and check its outputs
  trace  the same with per-layer tracing installed

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/setsort")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() in the parent just before starting this process")
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import setsort

    if Path(setsort.__file__).resolve().parent != src / "setsort":
        sys.exit(f"setsort imported from {setsort.__file__}, not from {src}")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": setup_s, "inputs_sha256": workloads.digest(workload.inputs())}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.install(setsort) if args.mode == "trace" else None
    calls = workload.execute()
    wall_s = sum(s for _, s in calls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        nproc = len(os.sched_getaffinity(0))
        layers = tracing.layer_metrics(tracer, nproc)
        for command in ("apply", "trace", "depth", "stats"):
            times = [s for label, s in calls if label == command]
            mean_us = sum(times) / len(times) * 1e6 if times else 0.0
            layers[f"cli.{command}_us"] = (mean_us, "us")
        result["layers"] = layers
    attempted, failures = workload.check()
    result.update(
        wall_s=wall_s,
        queries_s=[wall_s] if workload.batch else [s for _, s in calls],
        classes=workload.classes(),
        # Workers run side by side, so count the largest one once per job slot.
        peak_rss_mb=(rss_kb + (workload.jobs * worker_kb if worker_kb else 0)) / 1024,
        attempted=attempted,
        failures=failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
