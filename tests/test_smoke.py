"""Smoke tests for the public API and the scripts under scripts/."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import setsort

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_star_import_resolves_all():
    namespace = {}
    exec("from setsort import *", namespace)
    missing = [name for name in setsort.__all__ if name not in namespace]
    assert missing == []


@pytest.mark.parametrize("name,argv,want", [
    ("depth_histogram.py", ["--max-len", "4"], [
        "23 canonical words, length <= 4",
        "depth 0: 15",
        "depth 1: 8",
    ]),
    ("witness_sweep.py", ["--n-min", "3", "--n-max", "3", "--offset", "0", "--jobs", "1"], [
        "n_letters,length,total_classes,witness_count",
        "3,3,1,0",
        "3,4,6,0",
        "3,5,25,0",
        "3,6,90,1",
    ]),
    ("depth_histogram.py", ["--max-len", "8"], [
        "5295 canonical words, length <= 8",
        "depth 0: 255",
        "depth 1: 3106",
        "depth 2: 1687",
        "depth 3: 246",
        "depth 4: 1",
    ]),
])
def test_script_output(monkeypatch, capsys, name, argv, want):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize("name,argv,golden", [
    ("depth_histogram.py", ["--max-len", "10"], "depth_histogram_10.txt"),
    # Every cell's class and witness count up to (5, 11).
    ("witness_sweep.py", ["--n-min", "3", "--n-max", "5"], "witness_sweep_3_5.csv"),
    # The witness-dense N = 3 row through L = 12.
    ("witness_sweep.py", ["--n-min", "3", "--n-max", "3", "--offset", "6"],
     "witness_sweep_3_offset6.csv"),
], ids=["depth_histogram_10", "witness_sweep_3_5", "witness_sweep_3_offset6"])
def test_depth_histogram_golden(monkeypatch, capsys, name, argv, golden):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name,argv,message", [
    ("witness_sweep.py", ["--jobs", "0"], "error: jobs must be at least 1, got 0\n"),
    ("witness_sweep.py", ["--n-min", "5", "--n-max", "3"], "error: empty N-range: 5..3\n"),
    ("depth_histogram.py", ["--max-len", "0"], "error: empty corpus: lengths 1..0\n"),
    ("witness_sweep.py", ["--n-min", "3", "--n-max", "3", "--offset", "-4", "--jobs", "1"],
     "error: empty L-range at N=3: 3..2\n"),
])
def test_script_usage_error(monkeypatch, capsys, name, argv, message):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", message)


TRACED_CELLS = """
import json, setsort, tracing, workloads
tracer = tracing.install(setsort)
work = workloads.CellWorkload([(3, 7), (4, 9)], jobs=2)
work.execute()
print(json.dumps({"check": work.check(), "classes": [c["classes"] for c in tracer.cells]}))
"""


def test_traced_cell_workload():
    # The benchmark's tracer wraps setsort functions by name and reads their
    # results; a traced run must still find every pinned witness.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", TRACED_CELLS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["check"] == [2, []]
    assert len(result["classes"]) == 2 and all(result["classes"])
