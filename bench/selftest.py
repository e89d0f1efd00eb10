#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs; runs in a few seconds.

Usage, from the root of a checkout:

    python3 bench/selftest.py

It checks the benchmark's own recurrence and pinned data, that each
workload's check passes on correct outputs and fails on corrupted ones,
that tracing gives exact counts on tiny cells scanned with a process pool,
and that run.py fails cleanly without sources or with an unknown workload.
Exit code 0 when every case passes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import setsort  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import percentile  # noqa: E402

TINY_CELLS = [(3, 6), (3, 7), (4, 8), (4, 9)]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_reference_data() -> None:
    expect([workloads.stirling(11, 5), workloads.stirling(12, 3)] == [246730, 86526],
           "S(L,N) recurrence")
    expect(workloads.bell_upto(10) == 142417, "canonical words of length <= 10")
    for n in (3, 4, 5):
        count, _ = workloads.PINNED_CELLS[(n, 2 * n + 1)]
        expect(count == workloads.closed_form(n), f"pinned count at N={n} is the closed form")
    expect(set(workloads.PINNED_CELLS) >= set(workloads.SWEEP_CELLS), "every sweep cell pinned")
    expect(percentile([3.0, 1.0, 2.0], 50) == 2.0 and percentile([1.0, 2.0], 99) == 2.0,
           "nearest-rank percentile")


def test_cells_checked() -> None:
    for jobs in (1, 2):
        work = workloads.CellWorkload(TINY_CELLS, jobs=jobs)
        calls = work.execute()
        expect(len(calls) == len(TINY_CELLS), "one call per cell")
        expect(work.check() == (len(TINY_CELLS), []), f"tiny cells pass with jobs={jobs}")
    classes, count, digest, first = work.found[1]
    work.found[1] = (classes, count, "0" * 64, first)
    work.found[2] = (classes + 1,) + work.found[2][1:]
    attempted, failures = work.check()
    expect(attempted == len(TINY_CELLS) and len(failures) == 2, "corrupted cells are flagged")


def test_queries_checked() -> None:
    work = workloads.WordQueries(seed=7)
    work.queries = workloads.make_queries(seed=7, count=60)
    expect(work.queries == workloads.make_queries(seed=7, count=60), "queries follow the seed")
    expect(work.queries != workloads.make_queries(seed=8, count=60), "seeds differ")
    work.execute()
    expect(work.check() == (60, []), "tiny query stream passes its oracles")
    i = next(i for i, argv in enumerate(work.queries) if argv[2] == "stats")
    code, out = work.answers[i]
    work.answers[i] = (code, out.replace('"length": ', '"length": 1'))
    work.answers[-1] = (2, work.answers[-1][1])
    _, failures = work.check()
    expect(len(failures) == 2, "a wrong answer and an undocumented exit code are flagged")


def test_tracing_counts() -> None:
    tracer = tracing.install(setsort)
    work = workloads.CellWorkload(TINY_CELLS, jobs=2)
    work.execute()
    m = tracing.layer_metrics(tracer, nproc=2)
    classes = sum(workloads.stirling(length, n) for n, length in TINY_CELLS)
    witnesses = sum(workloads.PINNED_CELLS[c][0] for c in TINY_CELLS)
    hist = sum(m[f"machine.exit_after_passes.{k}"][0] for k in range(tracing.MAX_PASSES))
    expect(m["enumeration.classes_scanned"][0] == classes == hist, "every class tested once")
    expect(m["enumeration.profile_witness_calls"][0] == witnesses, "every witness profiled")
    expect(abs(m["enumeration.witness_ratio"][0] - witnesses / classes) < 1e-12, "witness ratio")
    expect(m["enumeration.shard_count"][0] == sum(
        len(setsort.enumeration.cell_prefixes(setsort.CellSpec(*c), 3)) for c in TINY_CELLS),
        "one shard per prefix")
    expect(m["machine.apply_phi_aba_calls"][0] > 0, "worker counters merged into the parent")
    expect(m["enumeration.parallel_efficiency"][0] > 0, "parallel efficiency measured")
    expect(tracing.layer_metrics(tracer, nproc=1)["enumeration.parallel_efficiency"][0] is None,
           "parallel efficiency unresolved on one core")


def test_run_fails_cleanly() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cell-scan", "--seconds", "1"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
        expect(done.returncode != 0 and not done.stdout.strip(), "no sources: fail, no result")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "no-such", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    expect(done.returncode != 0 and not done.stdout.strip(), "unknown workload: fail, no result")


def main() -> int:
    # Tracing patches setsort for the rest of the process, so it runs last.
    cases = [test_reference_data, test_cells_checked, test_queries_checked,
             test_run_fails_cleanly, test_tracing_counts]
    failed = 0
    for case in cases:
        try:
            case()
            print(f"PASS {case.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {case.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
