from math import comb

import pytest

from setsort import verification
from setsort.enumeration import CellSpec
from setsort.machine import Pattern
from setsort.verification import (
    CHECKS,
    CheckResult,
    check_clump_growth,
    check_cor_lockstep,
    check_family_counts,
    check_lemma_decomposition,
    check_multiplicity_profile,
    check_theorem_count,
    check_theorem_minimal,
    check_trunc_commute,
    check_upper_bound,
    decompose_by_head,
    expected_next_minimal_count,
    probe_sigma,
    run_suite,
)
from setsort.words import parse


class TestHeadDecomposition:
    def test_basic(self):
        dec = decompose_by_head(parse("abaca"))
        assert dec.head == 1
        assert dec.exponents == (1, 1, 1)
        assert dec.segments == ((2,), (3,))

    def test_leading_run(self):
        dec = decompose_by_head(parse("aabca"))
        assert dec.exponents == (2, 1)
        assert dec.segments == ((2, 3),)

    def test_single_letter_runs(self):
        dec = decompose_by_head(parse("aaa"))
        assert dec.exponents == (3,)
        assert dec.segments == ()

    def test_trailing_segment_gets_zero_exponent(self):
        dec = decompose_by_head(parse("abc"))
        assert dec.exponents == (1, 0)
        assert dec.segments == ((2, 3),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_by_head(())

    @pytest.mark.parametrize("text", ["abaca", "aabca", "aaa", "abc", "abacabad"])
    def test_reassemble_round_trip(self, text):
        assert decompose_by_head(parse(text)).reassemble() == parse(text)


class TestCheckResultContract:
    def test_failure_requires_counterexample(self):
        with pytest.raises(ValueError):
            CheckResult("x", "scope", False)

    def test_pass_rejects_counterexample(self):
        with pytest.raises(ValueError):
            CheckResult("x", "scope", True, (1, 2, 1))

    def test_summary_mentions_counterexample(self):
        r = CheckResult("x", "scope", False, (1, 2, 1), expected="a", actual="b")
        assert "FAIL" in r.summary() and "aba" in r.summary()


class TestCorpusChecks:
    def test_lemma_decomposition(self):
        assert check_lemma_decomposition(6).passed

    def test_clump_growth(self):
        assert check_clump_growth(6).passed

    def test_trunc_commute(self):
        assert check_trunc_commute(6).passed

    def test_upper_bound(self):
        result = check_upper_bound(6)
        assert result.passed
        # Bell numbers B(1..6)
        assert result.detail == f"{1 + 2 + 5 + 15 + 52 + 203} classes"

    @pytest.mark.parametrize("check", [
        check_lemma_decomposition, check_clump_growth, check_trunc_commute, check_upper_bound,
    ])
    def test_empty_corpus_rejected(self, check):
        with pytest.raises(ValueError):
            check(0)


class TestLockstep:
    def test_known_witnesses(self):
        witnesses = [parse("abcabc"), parse("abcdabcd"), parse("acbacba")]
        assert check_cor_lockstep(witnesses).passed

    def test_rejects_non_witness(self):
        result = check_cor_lockstep([parse("aabb")])
        assert not result.passed


class TestTheoremChecks:
    def test_minimal_n3(self):
        assert check_theorem_minimal(3).passed

    def test_count_n3(self):
        result = check_theorem_count(3)
        assert result.passed and "12 witnesses" in result.detail

    def test_expected_counts(self):
        assert [expected_next_minimal_count(n) for n in (3, 4, 5)] == [12, 22, 35]

    def test_multiplicity_profile_n3(self):
        assert check_multiplicity_profile(3).passed

    def test_family_counts_n3(self):
        result = check_family_counts(3)
        assert result.passed
        assert "'tail-heavy': 3" in result.detail
        assert "'prefix-heavy': 3" in result.detail
        assert "'head-triple': 6" in result.detail

    def test_family_identity(self):
        # the head-triple closed form collapses: C(2N,2) - 3C(N,2) = C(N+1,2)
        for n in range(3, 21):
            assert comb(2 * n, 2) - 3 * comb(n, 2) == comb(n + 1, 2)


class TestProbe:
    def test_ab_finds_cycler(self):
        result = probe_sigma(Pattern(parse("ab")), max_len=4)
        assert result.passed and "cycles without sorting" in result.detail

    def test_aba_probe_is_indeterminate(self):
        result = probe_sigma(Pattern(parse("aab")), max_len=3)
        assert result.passed


class TestSuite:
    def test_small_suite_all_pass(self):
        results = run_suite(n_min=3, n_max=3, corpus_len=5, bound_len=5)
        assert results
        failing = [r.name for r in results if not r.passed]
        assert failing == []

    def test_empty_n_range_rejected(self):
        with pytest.raises(ValueError):
            run_suite(n_min=5, n_max=3)

    @pytest.mark.parametrize("n_min", [1, 2])
    def test_n_below_three_rejected(self, n_min):
        with pytest.raises(ValueError):
            run_suite(n_min=n_min, n_max=4)

    def test_order_follows_registry(self):
        names = [r.name for r in run_suite(n_min=3, n_max=4, corpus_len=4, bound_len=4)]
        per_n = ["theorem-minimal", "theorem-count", "multiplicity-profile", "family-counts"]
        assert per_n == [name for name, c in CHECKS.items() if c.scope == "per-n"]
        assert names == [
            "lemma-decomposition", "clump-growth", "trunc-commute", "upper-bound",
            *per_n, *per_n, "lockstep", "probe-sigma-ab",
        ]

    def test_each_cell_scanned_once_per_run(self, monkeypatch):
        calls = []
        scan = verification.find_witnesses

        def recording(cell, jobs=1):
            calls.append((cell, jobs))
            return scan(cell)

        monkeypatch.setattr(verification, "find_witnesses", recording)
        cells = {CellSpec(3, length) for length in range(3, 8)}
        cells |= {CellSpec(4, length) for length in range(4, 10)}
        assert len(cells) == 11
        for jobs in (1, 2):  # the second run scans again, with its own jobs
            calls.clear()
            run_suite(n_min=3, n_max=4, corpus_len=4, bound_len=4, jobs=jobs)
            assert sorted(calls, key=str) == sorted(((c, jobs) for c in cells), key=str)
