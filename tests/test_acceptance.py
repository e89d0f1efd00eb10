"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured scope so the suite
doubles as a report when run with ``pytest -s tests/test_acceptance.py``.
"""

import random
import time
from collections import Counter
from math import comb

from setsort.enumeration import CellSpec, all_canonical_upto, find_witnesses, stirling2
from setsort.machine import (
    ABA,
    Pattern,
    apply_phi_aba,
    apply_phi_generic,
    sorting_depth,
    trace,
)
from setsort.verification import (
    check_clump_growth,
    check_cor_lockstep,
    check_family_counts,
    check_lemma_decomposition,
    check_multiplicity_profile,
    check_theorem_count,
    check_theorem_minimal,
    check_trunc_commute,
    check_upper_bound,
    probe_sigma,
)
from setsort.words import format_word, parse

aba = Pattern(ABA)

FIGURE_EVENTS = [
    ("push", 1), ("push", 2), ("push", 3),
    ("pop", 3), ("pop", 2),
    ("push", 1), ("push", 3),
    ("pop", 3), ("pop", 1), ("pop", 1),
]


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS -- {message}")


def test_criterion_1_figure_reproduction():
    p = parse("abcac")
    assert format_word(apply_phi_aba(p)) == "cbcaa"
    t = trace(p, aba)
    assert [(e.kind, e.letter) for e in t.events] == FIGURE_EVENTS
    best = min(
        (lambda s: (trace(p, aba), time.perf_counter() - s)[1])(time.perf_counter())
        for _ in range(20)
    )
    assert best < 1e-3
    report(1, f"trace of abcac matches, {best * 1e6:.0f}us per trace")


def test_criterion_2_minimal_witnesses():
    start = time.perf_counter()
    sizes = {}
    for n in (3, 4, 5):
        result = check_theorem_minimal(n)
        assert result.passed, result.summary()
        sizes[n] = find_witnesses(CellSpec(n, 2 * n)).total_classes
    assert sizes == {3: 90, 4: 1701, 5: 42525}
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(2, f"unique length-2N witness for N=3,4,5 in {elapsed:.2f}s")


def test_criterion_3_next_minimal_counts():
    counts = {}
    for n in (3, 4, 5):
        result = check_theorem_count(n)
        assert result.passed, result.summary()
        rep = find_witnesses(CellSpec(n, 2 * n + 1))
        counts[n] = (rep.total_classes, len(rep.witnesses))
    assert counts == {3: (301, 12), 4: (7770, 22), 5: (246730, 35)}
    n5 = find_witnesses(CellSpec(5, 11))
    assert n5.elapsed < 60
    report(3, f"counts 12/22/35; N=5 cell in {n5.elapsed:.2f}s")


def test_criterion_4_upper_bound():
    start = time.perf_counter()
    result = check_upper_bound(9)
    elapsed = time.perf_counter() - start
    assert result.passed, result.summary()
    assert stirling2(9, 1) and sum(stirling2(9, n) for n in range(1, 10)) == 21147
    assert elapsed < 30
    report(4, f"run-free words of length <= 9 sorted within N passes, so all words by "
              f"trunc-commute ({result.detail}), {elapsed:.2f}s")


def test_criterion_5_decomposition_lemma():
    result = check_lemma_decomposition(8)
    assert result.passed, result.summary()
    assert sum(stirling2(8, n) for n in range(1, 9)) == 4140
    report(5, "head decomposition identity exact on length <= 8")


def test_criterion_6_trunc_commute_and_clump_growth():
    trunc = check_trunc_commute(8)
    clump = check_clump_growth(8)
    assert trunc.passed, trunc.summary()
    assert clump.passed, clump.summary()
    report(6, "truncation commutes and clump count strictly grows, length <= 8")


def all_theorem_witnesses():
    out = []
    for n in (3, 4, 5):
        for length in (2 * n, 2 * n + 1):
            rep = find_witnesses(CellSpec(n, length))
            out.extend(w.witness for w in rep.witnesses)
    return out


def test_criterion_7_lockstep():
    witnesses = all_theorem_witnesses()
    assert len(witnesses) == 3 + 12 + 22 + 35
    result = check_cor_lockstep(witnesses)
    assert result.passed, result.summary()
    report(7, f"clump chain C(phi^i)=i for all {len(witnesses)} witnesses")


def test_criterion_8_multiplicity_profile():
    for n in (3, 4, 5):
        result = check_multiplicity_profile(n)
        assert result.passed, result.summary()
    report(8, "every length-2N+1 witness has profile (3, 2, ..., 2)")


def test_criterion_9_family_decomposition():
    want = {3: (3, 3, 6), 4: (6, 6, 10), 5: (10, 10, 15)}
    for n in (3, 4, 5):
        result = check_family_counts(n)
        assert result.passed, result.summary()
        rep = find_witnesses(CellSpec(n, 2 * n + 1))
        tally = Counter(w.family for w in rep.witnesses)
        assert (
            tally["tail-heavy"], tally["prefix-heavy"], tally["head-triple"]
        ) == want[n]
    assert all(comb(2 * n, 2) - 3 * comb(n, 2) == comb(n + 1, 2) for n in range(3, 21))
    report(9, "families split (C(N,2), C(N,2), C(N+1,2)) for N=3,4,5")


def test_criterion_10_fast_path_equivalence():
    checked = 0
    for w in all_canonical_upto(8):
        assert apply_phi_aba(w) == apply_phi_generic(w, aba), format_word(w)
        checked += 1
    rng = random.Random(20240817)
    for _ in range(10_000):
        length = rng.randint(0, 30)
        w = tuple(rng.randint(1, 8) for _ in range(length))
        assert apply_phi_aba(w) == apply_phi_generic(w, aba), format_word(w)
    report(10, f"fast path == generic on {checked} canonical + 10000 random words")


def test_criterion_11_non_aba_probe():
    result = sorting_depth(parse("abab"), Pattern(parse("ab")))
    assert not result.sorts
    assert result.cycle_start == parse("abab")
    probe = probe_sigma(Pattern(parse("ab")), max_len=4)
    assert "cycles without sorting" in probe.detail
    report(11, "abab is an unsorted fixed point under sigma=ab")
