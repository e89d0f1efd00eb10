"""Smoke tests for the public API and the scripts under scripts/."""

import runpy
import sys
from pathlib import Path

import pytest

import setsort

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
])
def test_script_output(monkeypatch, capsys, name, argv, want):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize("name,argv,message", [
    ("witness_sweep.py", ["--jobs", "0"], "error: jobs must be at least 1, got 0\n"),
    ("witness_sweep.py", ["--n-min", "5", "--n-max", "3"], "error: empty N-range: 5..3\n"),
    ("depth_histogram.py", ["--max-len", "0"], "error: empty corpus: lengths 1..0\n"),
])
def test_script_usage_error(monkeypatch, capsys, name, argv, message):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", message)
