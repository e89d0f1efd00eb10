import argparse
import json
from pathlib import Path

import pytest

from setsort.cli import build_parser, main
from setsort.verification import CHECKS

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_records(capsys, *argv):
    code, out = run(capsys, "--format", "records", *argv)
    records = [json.loads(line) for line in out.splitlines()]
    return code, records


class TestApply:
    def test_figure_example(self, capsys):
        code, out = run(capsys, "apply", "abcac")
        assert code == 0 and out == "cbcaa\n"

    def test_iterations(self, capsys):
        code, out = run(capsys, "apply", "abcabc", "--iterations", "3")
        assert code == 0 and out == "aaccbb\n"

    def test_empty_word(self, capsys):
        code, out = run(capsys, "apply", "")
        assert code == 0 and out == "\n"

    def test_records(self, capsys):
        code, records = run_records(capsys, "apply", "abcac")
        assert code == 0
        assert records == [{
            "schema_version": 1,
            "command": "apply",
            "payload": {"input": "abcac", "sigma": "aba",
                        "iterations": 1, "output": "cbcaa"},
        }]

    def test_parse_error_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["apply", "ab1"])
        assert exc.value.code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["apply", "aba", "--sigma", "a"],
        ["trace", "aba", "--sigma", "a"],
        ["verify", "probe-sigma", "--sigma", "a"],
        ["depth", "abab", "--cap", "-1"],
        ["--format", "csv", "apply", "abcac"],
        ["--format", "csv", "verify", "theorem-count", "--n", "3"],
    ])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTrace:
    def test_golden_lines(self, capsys):
        code, out = run(capsys, "trace", "abcac")
        assert code == 0
        assert out.splitlines() == [
            "PUSH a | stack=a | out=",
            "PUSH b | stack=ab | out=",
            "PUSH c | stack=abc | out=",
            "POP c | stack=ab | out=c",
            "POP b | stack=a | out=cb",
            "PUSH a | stack=aa | out=cb",
            "PUSH c | stack=aac | out=cb",
            "POP c | stack=aa | out=cbc",
            "POP a | stack=a | out=cbca",
            "POP a | stack= | out=cbcaa",
            "output: cbcaa",
        ]

    def test_event_counts(self, capsys):
        _, out = run(capsys, "trace", "aa")
        assert len(out.splitlines()) == 5
        _, out = run(capsys, "trace", "abcabc")
        assert len(out.splitlines()) == 13
        assert out.splitlines()[-1] == "output: cbcbaa"

    def test_records_deterministic(self, capsys):
        _, first = run(capsys, "--format", "records", "trace", "abcac")
        _, second = run(capsys, "--format", "records", "trace", "abcac")
        assert first == second


class TestDepth:
    def test_depth_values(self, capsys):
        assert run(capsys, "depth", "abcabc") == (0, "3\n")
        assert run(capsys, "depth", "aabb") == (0, "0\n")

    def test_never_sorts(self, capsys):
        code, out = run(capsys, "depth", "abab", "--sigma", "ab")
        assert code == 0 and out == "never-sorts (cycle)\n"

    def test_never_sorts_strict_exit(self, capsys):
        code, _ = run(capsys, "depth", "abab", "--sigma", "ab", "--strict")
        assert code == 1

    def test_indeterminate_exit(self, capsys):
        code, out = run(capsys, "depth", "abcabc", "--cap", "1")
        assert code == 3 and out.startswith("indeterminate")


class TestStats:
    def test_clump_stats(self, capsys):
        code, records = run_records(capsys, "stats", "aaabcdbd")
        payload = records[0]["payload"]
        assert code == 0
        assert payload["clumped"] == 2
        assert payload["nonclumped"] == "b"
        assert payload["sorted"] is False

    def test_sorted_word(self, capsys):
        _, records = run_records(capsys, "stats", "aabbcc")
        payload = records[0]["payload"]
        assert payload["clumped"] == 3
        assert payload["sorted"] is True
        assert payload["nonclumped"] is None

    def test_core_stats(self, capsys):
        _, records = run_records(capsys, "stats", "abcac")
        payload = records[0]["payload"]
        assert payload["distinct"] == 3
        assert payload["mcount"] == 2
        assert payload["truncation"] == "abcac"
        assert payload["canonical"] == "abcac"
        assert payload["reverse"] == "cacba"


class TestEnumerate:
    def test_minimal_cell(self, capsys):
        code, records = run_records(
            capsys, "--jobs", "1", "enumerate", "--n", "3", "--length", "6",
            "--witnesses",
        )
        payload = records[0]["payload"]
        assert code == 0
        assert payload["total_classes"] == 90
        assert payload["witness_count"] == 1
        assert payload["witnesses"][0]["witness"] == "abcabc"

    def test_trivial_cell(self, capsys):
        _, records = run_records(
            capsys, "--jobs", "1", "enumerate", "--n", "3", "--length", "3")
        payload = records[0]["payload"]
        assert payload["total_classes"] == 1 and payload["witness_count"] == 0

    def test_witnesses_records_golden(self, capsys):
        code, out = run(
            capsys, "--format", "records", "--jobs", "1",
            "enumerate", "--n", "3", "--length", "7", "--witnesses",
        )
        assert code == 0
        assert out == (GOLDEN / "enumerate_n3_l7.records").read_text()

    def test_csv(self, capsys):
        code, out = run(
            capsys, "--format", "csv", "--jobs", "1",
            "enumerate", "--n", "3", "--length", "6",
        )
        assert code == 0
        assert out.splitlines()[0] == "n_letters,length,witness,family"
        assert out.splitlines()[1] == "3,6,abcabc,"


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_is_usage_error(self, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "stats", "ab"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--jobs", "abc", "stats", "ab"], "argument --jobs: must be an integer, got 'abc'"),
        (["verify", "upper-bound", "--bound-len", "x"],
         "argument --bound-len: must be an integer, got 'x'"),
    ])
    def test_non_integer_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "_positive_int" not in err

    def test_clamped_to_cpu_count(self, capsys, no_pool):
        # --jobs has no effect: a huge value still searches in this process.
        code, records = run_records(
            capsys, "--jobs", "100000", "enumerate", "--n", "3", "--length", "7")
        assert code == 0 and records[0]["payload"]["witness_count"] == 12


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_carry_over(self, capsys):
        assert run(capsys, "depth", "abab", "--sigma", "ab", "--strict")[0] == 1
        assert run(capsys, "depth", "abab", "--sigma", "ab") == (0, "never-sorts (cycle)\n")

    def test_usage_error_leaves_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, records = run_records(capsys, "stats", "ab")
        assert code == 0
        assert records[0]["command"] == "stats"
        assert records[0]["payload"]["word"] == "ab"
        assert records[0]["payload"]["sorted"] is True


class TestVerify:
    def test_single_check(self, capsys):
        code, records = run_records(
            capsys, "--jobs", "1", "verify", "theorem-count", "--n", "3")
        assert code == 0
        assert records[0]["payload"]["passed"] is True
        assert records[0]["payload"]["name"] == "theorem-count"

    def test_all_small(self, capsys):
        code, out = run(
            capsys, "--jobs", "1", "verify", "all",
            "--n-min", "3", "--n-max", "3", "--corpus-len", "5", "--bound-len", "5",
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_bogus_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-count", "--n-min", "5", "--n-max", "3"],
        ["verify", "all", "--n-min", "5", "--n-max", "3"],
        ["verify", "upper-bound", "--bound-len", "0"],
        ["verify", "lemma-decomposition", "--corpus-len", "0"],
        ["verify", "probe-sigma", "--corpus-len", "-1"],
        ["verify", "all", "--n", "2"],
        ["verify", "theorem-minimal", "--n-min", "2"],
        ["verify", "family-counts", "--n", "1"],
        ["verify", "lockstep", "--n", "1"],
        ["verify", "all", "--n", "3", "--corpus-len", "4", "--bound-len", "4", "--cap", "-1"],
    ])
    def test_vacuous_scope_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1"] + argv)
        assert exc.value.code == 2
        assert "PASS" not in capsys.readouterr().out

    def test_choices_come_from_registry(self):
        verify = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices["verify"]
        suite = next(a for a in verify._actions if a.dest == "suite")
        assert suite.choices == ["all", *CHECKS]

    def test_all_records_golden(self, capsys):
        code, out = run(
            capsys, "--format", "records", "--jobs", "1", "verify", "all",
            "--n", "3", "--corpus-len", "6", "--bound-len", "7",
        )
        assert code == 0
        assert out == (GOLDEN / "verify_all_n3.records").read_text()

    def test_all_human_golden(self, capsys):
        code, out = run(
            capsys, "--jobs", "1", "verify", "all",
            "--n", "3", "--corpus-len", "6", "--bound-len", "7",
        )
        assert code == 0
        assert out == (GOLDEN / "verify_all_n3.txt").read_text()

    def test_probe_indeterminate_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1", "verify", "probe-sigma", "--cap", "0"])
        assert exc.value.code == 3
        assert capsys.readouterr().err.startswith("indeterminate")

    def test_all_honours_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1", "verify", "all", "--n", "3",
                  "--corpus-len", "4", "--bound-len", "4", "--cap", "0"])
        assert exc.value.code == 3
        assert capsys.readouterr().err.startswith("indeterminate")

    def test_all_prints_each_result_as_found(self, capsys):
        # probe-sigma, the last check, hits the cap after nine checks passed.
        with pytest.raises(SystemExit) as exc:
            main(["--format", "records", "--jobs", "1", "verify", "all", "--n", "3",
                  "--corpus-len", "4", "--bound-len", "4", "--cap", "0"])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        payloads = [json.loads(line)["payload"] for line in out.splitlines()]
        assert [p["name"] for p in payloads] == list(CHECKS)[:-1]
        assert all(p["passed"] for p in payloads)
        assert err.startswith("indeterminate")

    def test_all_honours_sigma(self, capsys):
        code, records = run_records(
            capsys, "--jobs", "1", "verify", "all", "--n", "3",
            "--sigma", "abc", "--corpus-len", "4", "--bound-len", "4",
        )
        assert code == 0
        probe = records[-1]["payload"]
        assert probe["name"] == "probe-sigma-abc"
        assert probe["scope"] == "canonical words, length <= 4"

    def test_probe_sigma(self, capsys):
        code, records = run_records(
            capsys, "--jobs", "1", "verify", "probe-sigma",
            "--sigma", "ab", "--corpus-len", "4",
        )
        assert code == 0
        assert "cycles without sorting" in records[0]["payload"]["detail"]
