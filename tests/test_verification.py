from math import comb

import pytest

from setsort import verification
from setsort.enumeration import (
    CellSpec,
    WitnessProfile,
    WitnessReport,
    all_canonical_upto,
    canonical_partitions,
    find_witnesses,
    is_witness,
)
from setsort.machine import DepthIndeterminateError, Pattern, apply_phi_aba
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
    expected_next_minimal_count,
    probe_sigma,
    run_suite,
)
from setsort.words import clumped_count, is_sorted, n_distinct, parse


class TestCheckResultContract:
    @pytest.mark.parametrize("counterexample,passed", [
        (None, True),
        ((), False),  # a count failure has no word to show
        ((1, 2, 1), False),
    ])
    def test_passed_follows_counterexample(self, counterexample, passed):
        assert CheckResult("x", "scope", counterexample).passed is passed

    def test_summary_mentions_counterexample(self):
        r = CheckResult("x", "scope", (1, 2, 1), expected="a", actual="b")
        assert "FAIL" in r.summary() and "aba" in r.summary()


class TestCorpusChecks:
    def test_lemma_decomposition(self):
        assert check_lemma_decomposition(6).passed

    def test_clump_growth(self):
        result = check_clump_growth(6)
        assert result.passed
        assert result.scope == (
            "unsorted run-free canonical words, length <= 6 (all words by trunc-commute)"
        )
        # The run-free words B(0) + ... + B(5), less the sorted ones: a, ab, abc, ...
        assert result.detail == f"{1 + 1 + 2 + 5 + 15 + 52 - 6} run-free tested"

    def test_clump_growth_equals_full_corpus_scan(self):
        # The oracle: every unsorted canonical word, cell by cell.
        for length in range(1, 9):
            for n in range(1, length + 1):
                for p in canonical_partitions(CellSpec(n, length)):
                    if not is_sorted(p):
                        assert clumped_count(apply_phi_aba(p)) > clumped_count(p), p
        assert check_clump_growth(8).passed

    def test_trunc_commute(self):
        assert check_trunc_commute(6).passed

    def test_upper_bound(self):
        result = check_upper_bound(6)
        assert result.passed
        # Bell numbers: B(1..6) classes covered, B(0..5) run-free words tested
        assert result.detail == (
            f"{1 + 2 + 5 + 15 + 52 + 203} classes, {1 + 1 + 2 + 5 + 15 + 52} run-free tested"
        )

    def test_upper_bound_equals_full_corpus_scan(self):
        # The oracle: every canonical word, not only the run-free ones.
        classes = 0
        for classes, p in enumerate(all_canonical_upto(8), 1):
            assert not is_witness(p, n_distinct(p) + 1), p
        result = check_upper_bound(8)
        assert result.passed
        assert result.detail.startswith(f"{classes} classes, ")

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


def _identity(w):
    return tuple(w)


def _rotate(w):
    # Moves a run's first letter to the end: aab -> aba, while its
    # truncation ab -> ba, so truncation no longer commutes with the pass.
    return tuple(w[1:]) + tuple(w[:1])


def _depth_without_passes(w):
    # A depth count that makes no pass: every unsorted word counts as unsortable.
    return 0 if is_sorted(w) else n_distinct(w) + 1


def _shifted_cells(cell):
    # Hands out the (N, L-1) cell for (N, L): for (N, 2N+1) the lone witness
    # abcabc, with no triple letter and no family tag; for (N, 2N) none.
    return find_witnesses(CellSpec(cell.n_letters, cell.length - 1))


def _doubled_cells(cell):
    # The cell's witnesses with the first listed twice: the distinct witnesses
    # tally exactly, so only a count per listed profile fails.
    witnesses = find_witnesses(cell).witnesses
    return WitnessReport(0, witnesses + witnesses[:1])


def _tagged_cells(*tagged):
    # Hands out the same hand-built (word, family) witnesses for every cell.
    report = WitnessReport(0, tuple(WitnessProfile(parse(w), family) for w, family in tagged))
    return lambda cell: report


class TestFailurePaths:
    @pytest.mark.parametrize("run,name,broken,counterexample", [
        (lambda: check_lemma_decomposition(4), "apply_phi_aba", _identity, "ab"),
        (lambda: check_clump_growth(4), "apply_phi_aba", _identity, "aba"),
        (lambda: check_trunc_commute(4), "apply_phi_aba", _rotate, "aab"),
        (lambda: check_upper_bound(4), "aba_depth", _depth_without_passes, "aba"),
        (lambda: check_theorem_minimal(3), "aba_depth", _depth_without_passes, "abac"),
        (lambda: check_cor_lockstep([parse("abcabc"), parse("abcdabcd")]),
         "apply_phi_aba", _identity, "abcabc"),
        (lambda: check_multiplicity_profile(3, _shifted_cells), None, None, "abcabc"),
        (lambda: check_theorem_minimal(3, _shifted_cells), None, None, "abcabc"),
        # (1..N)^2 is listed, so the extra witness is the counterexample.
        (lambda: check_theorem_minimal(3, _tagged_cells(("abcabc", None), ("abcacb", None))),
         None, None, "abcacb"),
        (lambda: check_theorem_count(3, _shifted_cells), None, None, ""),
        (lambda: check_family_counts(3, _shifted_cells), None, None, "abcabc"),
        # abbba keeps three b's before the head's second occurrence.
        (lambda: check_family_counts(3, _tagged_cells(("abbba", "tail-heavy"))),
         None, None, "abbba"),
        (lambda: check_family_counts(3, _tagged_cells(("abcabcb", "prefix-heavy"))),
         None, None, "abcabcb"),
        # One well-formed tail-heavy witness, so only the tallies are off.
        (lambda: check_family_counts(3, _tagged_cells(("abcabcb", "tail-heavy"))),
         None, None, ""),
        (lambda: check_family_counts(3, _doubled_cells), None, None, ""),
    ], ids=[
        "lemma-decomposition", "clump-growth", "trunc-commute", "upper-bound",
        "theorem-minimal", "lockstep", "multiplicity-profile", "theorem-minimal-cell",
        "theorem-minimal-extra-witness", "theorem-count", "family-counts-unclassifiable",
        "family-counts-slice-mcount", "family-counts-slice-conditions", "family-counts-tallies",
        "family-counts-repeated-witness",
    ])
    def test_first_counterexample(self, monkeypatch, run, name, broken, counterexample):
        if name is not None:
            monkeypatch.setattr(verification, name, broken)
        result = run()
        assert not result.passed
        assert result.counterexample == parse(counterexample)
        assert result.expected and result.actual


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
        # aba sorts every word, so no word cycles: no verdict, not a pass.
        with pytest.raises(DepthIndeterminateError,
                           match="no cycling word of length <= 4 under sigma=aba"):
            probe_sigma(Pattern(parse("aba")), max_len=4)


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

        def recording(cell):
            calls.append(cell)
            return scan(cell)

        monkeypatch.setattr(verification, "find_witnesses", recording)
        cells = {CellSpec(n, length) for n in (3, 4) for length in (2 * n, 2 * n + 1)}
        assert len(cells) == 4
        for _ in range(2):  # the second run scans again
            calls.clear()
            run_suite(n_min=3, n_max=4, corpus_len=4, bound_len=4)
            assert sorted(calls, key=str) == sorted(cells, key=str)
