"""Executable checks for the sorting bound, decomposition lemma,
clump growth, truncation commutation, and the two witness theorems.

Every check scans an exhaustively enumerated corpus (never a random
sample) and reports a CheckResult; a failure carries the shortest, then
lexicographically first, counterexample so it can be replayed through the
machine module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .enumeration import (
    CellSpec,
    WitnessReport,
    all_canonical_upto,
    find_witnesses,
    rgs_words,
    run_free_upto,
    stirling2,
)
from .machine import DepthIndeterminateError, Pattern, aba_depth, apply_phi_aba, sorting_depth
from .words import (
    Word,
    clumped_count,
    format_word,
    is_sorted,
    mcount,
    n_distinct,
    truncate,
)

# A cell's witness report: a fresh find_witnesses scan, or a suite run's cache.
Cells = Callable[[CellSpec], WitnessReport]
# A per-word test's verdict: (expected, actual) at a counterexample, else None.
Failure = tuple[str, str] | None


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    counterexample: Word | None = None  # None on a pass; () when a count, not a word, fails
    expected: str = ""
    actual: str = ""
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} [{self.scope}]"
        if self.detail:
            line += f" -- {self.detail}"
        if not self.passed:
            line += (
                f" counterexample={format_word(self.counterexample)}"
                f" expected={self.expected} actual={self.actual}"
            )
        return line


def first_failure(
    name: str, scope: str, corpus: Iterable[Word], fails: Callable[[Word], Failure], detail: str = ""
) -> CheckResult:
    """A failure at the first word of ``corpus`` for which ``fails`` gives
    (expected, actual); else a pass, ``{count}`` in ``detail`` set to the words scanned."""
    count = 0
    for count, p in enumerate(corpus, 1):
        found = fails(p)
        if found is not None:
            return CheckResult(name, scope, p, *found)
    return CheckResult(name, scope, detail=detail.format(count=count))


def check_lemma_decomposition(max_len: int = 8) -> CheckResult:
    """One aba pass equals the recursive pass on head-free segments followed
    by all copies of the head letter."""

    def fails(p: Word) -> Failure:
        head = p[0]
        segments = (list(s) for is_head, s in groupby(p, lambda x: x == head) if not is_head)
        rhs = tuple([x for s in segments for x in apply_phi_aba(s)] + [head] * p.count(head))
        lhs = apply_phi_aba(p)
        return None if lhs == rhs else (format_word(rhs), format_word(lhs))

    scope = f"canonical words, length <= {max_len}"
    return first_failure("lemma-decomposition", scope, all_canonical_upto(max_len), fails)


def check_clump_growth(max_len: int = 8) -> CheckResult:
    """An unsorted word strictly gains clumped letters in one aba pass.  Only
    run-free words are tested, as in ``check_upper_bound``: a word's clumped
    letters are the letters that occur once in its truncation."""

    def fails(p: Word) -> Failure:
        before = clumped_count(p)
        after = clumped_count(apply_phi_aba(p))
        return None if after > before else (f"> {before}", str(after))

    scope = f"unsorted run-free canonical words, length <= {max_len} (all words by trunc-commute)"
    unsorted = (p for p in run_free_upto(max_len) if not is_sorted(p))
    return first_failure("clump-growth", scope, unsorted, fails, detail="{count} run-free tested")


def check_trunc_commute(max_len: int = 8) -> CheckResult:
    """Truncation commutes with the aba pass up to truncation."""

    def fails(p: Word) -> Failure:
        lhs = truncate(apply_phi_aba(p))
        rhs = truncate(apply_phi_aba(truncate(p)))
        return None if lhs == rhs else (format_word(rhs), format_word(lhs))

    scope = f"canonical words, length <= {max_len}"
    return first_failure("trunc-commute", scope, all_canonical_upto(max_len), fails)


def check_cor_lockstep(witnesses: Sequence[Sequence[int]]) -> CheckResult:
    """A witness gains exactly one clumped letter per pass: C after pass i is i,
    and the word first sorts at pass N."""

    def fails(w: Word) -> Failure:
        n = n_distinct(w)
        for i in range(n):
            c = clumped_count(w)
            if c != i:
                return f"C(phi^{i}) = {i}", str(c)
            w = apply_phi_aba(w)
        return None if is_sorted(w) else (f"sorted after {n} passes", "unsorted")

    return first_failure("lockstep", f"{len(witnesses)} witnesses", map(tuple, witnesses), fails)


def check_upper_bound(max_len: int = 9) -> CheckResult:
    """Every word is sorted after N passes, N its distinct-letter count.

    By trunc-commute a word is sorted after k passes iff its truncation
    is, so only the run-free words are tested; the detail names the
    classes they cover.
    """
    scope = f"run-free canonical words, length <= {max_len} (all words by trunc-commute)"
    covered = sum(
        stirling2(length, n) for length in range(1, max_len + 1) for n in range(1, length + 1)
    )
    return first_failure(
        "upper-bound", scope, run_free_upto(max_len),
        lambda p: ("sorted", "unsorted") if aba_depth(p) > n_distinct(p) else None,
        detail=f"{covered} classes, {{count}} run-free tested",
    )


def check_theorem_minimal(n: int, cells: Cells = find_witnesses) -> CheckResult:
    """The only witness of length <= 2N is (1 2 ... N)^2; shorter cells are
    empty, as their run-free truncations show by trunc-commute."""
    scope = f"N={n}, L in [{n}, {2 * n}]"
    shorter = chain.from_iterable(
        rgs_words(length, n, run_free=True) for length in range(n, 2 * n)
    )
    result = first_failure(
        "theorem-minimal", scope, shorter,
        lambda p: ("no witness", f"witness at L={len(p)}") if aba_depth(p) >= n else None,
    )
    if not result.passed:
        return result
    expected_word = tuple(range(1, n + 1)) * 2
    found = [w.witness for w in cells(CellSpec(n, 2 * n)).witnesses]
    if found != [expected_word]:
        bad = next((w for w in found if w != expected_word), expected_word)
        return CheckResult(
            "theorem-minimal", scope, bad,
            expected=format_word(expected_word),
            actual=" ".join(format_word(w) for w in found) or "none",
        )
    return result


def expected_next_minimal_count(n: int) -> int:
    return comb(n + 1, 2) + 2 * comb(n, 2)


def check_theorem_count(n: int, cells: Cells = find_witnesses) -> CheckResult:
    """The length-2N+1 witness count matches the closed form."""
    scope = f"N={n}, L={2 * n + 1}"
    report = cells(CellSpec(n, 2 * n + 1))
    want = expected_next_minimal_count(n)
    got = len(report.witnesses)
    if got != want:
        return CheckResult("theorem-count", scope, (), expected=str(want), actual=str(got))
    return CheckResult("theorem-count", scope, detail=f"{got} witnesses")


def check_multiplicity_profile(n: int, cells: Cells = find_witnesses) -> CheckResult:
    """Every length-2N+1 witness has one triple letter and N-1 double letters."""

    def fails(p: Word) -> Failure:
        counts = sorted(Counter(p).values(), reverse=True)
        return None if counts == [3] + [2] * (n - 1) else ("one letter x3, rest x2", str(counts))

    witnesses = (w.witness for w in cells(CellSpec(n, 2 * n + 1)).witnesses)
    return first_failure("multiplicity-profile", f"N={n}, L={2 * n + 1}", witnesses, fails)


def check_family_counts(n: int, cells: Cells = find_witnesses) -> CheckResult:
    """Length-2N+1 witnesses split into tail-heavy / prefix-heavy / head-triple
    families of sizes C(N,2), C(N,2), C(N+1,2), and every double-head witness
    keeps both slices around the head's second occurrence at mcount <= 2.
    The witnesses are scanned for the first one that breaks a rule of its
    family; the tallies are compared only after a clean scan."""
    scope = f"N={n}, L={2 * n + 1}"
    profiles = cells(CellSpec(n, 2 * n + 1)).witnesses
    tags = (prof.family for prof in profiles)  # read in step with the scan

    def fails(p: Word) -> Failure:
        family = next(tags)
        if family is None:
            return "a family tag", "unclassifiable"
        if p.count(p[0]) != 2:
            return None
        cut = p.index(p[0], 1)  # the head's second occurrence
        left, right = mcount(p[:cut + 1]), mcount(p[cut:])
        if left > 2 or right > 2:
            return "slice mcount <= 2", f"({left}, {right})"
        # the off-by-one slice variants used by the per-family counts
        tail2 = mcount(p[cut + 1:]) == 2
        pre2 = mcount(p[:cut]) == 2
        tail_heavy = family == "tail-heavy"
        if tail2 != tail_heavy or pre2 == tail_heavy:
            return (f"slice conditions matching {family}",
                    f"tail-mcount2={tail2} prefix-mcount2={pre2}")
        return None

    result = first_failure("family-counts", scope, (prof.witness for prof in profiles), fails)
    if not result.passed:
        return result
    want = {"tail-heavy": comb(n, 2), "prefix-heavy": comb(n, 2), "head-triple": comb(n + 1, 2)}
    tallies = dict.fromkeys(want, 0)
    for prof in profiles:  # per profile, so a witness listed twice counts twice
        tallies[prof.family] += 1
    if tallies != want:
        return CheckResult("family-counts", scope, (), expected=str(want), actual=str(tallies))
    return CheckResult("family-counts", scope, detail=str(tallies))


def probe_sigma(sigma: Pattern, max_len: int = 6, cap: int | None = None) -> CheckResult:
    """Look for a word whose orbit under a non-aba pattern cycles unsorted.

    Finding one supports aba being the unique sorting pattern.  Finding
    none within bounds is indeterminate, not a pass: it raises
    DepthIndeterminateError, as a depth capped at ``cap`` does.
    """
    name = f"probe-sigma-{sigma}"
    scope = f"canonical words, length <= {max_len}"
    for p in all_canonical_upto(max_len):
        result = sorting_depth(p, sigma, cap=cap)
        if not result.sorts:
            return CheckResult(name, scope, detail=f"{format_word(p)} cycles without sorting")
    raise DepthIndeterminateError(f"no cycling word of length <= {max_len} under sigma={sigma}")


@dataclass(frozen=True)
class Check:
    """How ``verify`` runs one check, by its scope: "once" as ``run(suite)``;
    "n-range" the same, over the witnesses of the whole N-range; "per-n" as
    ``run(suite, n)`` for each N of the range."""

    run: Callable[..., CheckResult]
    scope: str = "once"


# Every check of ``setsort verify``, in the order ``verify all`` runs them.
# Entries look the check functions up by their module-global names at call
# time, so a wrapper rebound to one of those names sees every call.
CHECKS: dict[str, Check] = {
    "lemma-decomposition": Check(lambda s: check_lemma_decomposition(s.corpus_len)),
    "clump-growth": Check(lambda s: check_clump_growth(s.corpus_len)),
    "trunc-commute": Check(lambda s: check_trunc_commute(s.corpus_len)),
    "upper-bound": Check(lambda s: check_upper_bound(s.bound_len)),
    "theorem-minimal": Check(lambda s, n: check_theorem_minimal(n, s.report), "per-n"),
    "theorem-count": Check(lambda s, n: check_theorem_count(n, s.report), "per-n"),
    "multiplicity-profile": Check(lambda s, n: check_multiplicity_profile(n, s.report), "per-n"),
    "family-counts": Check(lambda s, n: check_family_counts(n, s.report), "per-n"),
    "lockstep": Check(lambda s: check_cor_lockstep(s.witnesses()), "n-range"),
    "probe-sigma": Check(lambda s: probe_sigma(s.sigma, s.corpus_len, s.cap)),
}

# The checks that read the N-range need N >= 3: below it no witness exists
# (abab sorts in one pass), so the theorems fail and the rest pass vacuously.
WITNESS_MIN_N = 3


@dataclass
class SuiteRun:
    """The settings of one verify run, and the witness reports it has scanned.

    Each cell is scanned once per run; another run scans afresh.
    probe-sigma probes ``sigma`` over the corpus, capped at ``cap``.
    """

    n_min: int
    n_max: int
    corpus_len: int
    bound_len: int
    sigma: Pattern = Pattern((1, 2))
    cap: int | None = None
    reports: dict[CellSpec, WitnessReport] = field(default_factory=dict, init=False, repr=False)

    def report(self, cell: CellSpec) -> WitnessReport:
        if cell not in self.reports:
            self.reports[cell] = find_witnesses(cell)
        return self.reports[cell]

    def witnesses(self) -> list[Word]:
        """The witnesses of length 2N and 2N+1 for every N of the range."""
        return [
            w.witness
            for n in range(self.n_min, self.n_max + 1)
            for length in (2 * n, 2 * n + 1)
            for w in self.report(CellSpec(n, length)).witnesses
        ]

    def run(self, names: Iterable[str]) -> Iterator[CheckResult]:
        """The named checks' results as each is found, in order, consecutive
        per-N checks N by N; failures never abort.  A bad N-range or a
        negative cap raises before any check runs."""
        if self.n_min > self.n_max:
            raise ValueError(f"empty N-range: {self.n_min}..{self.n_max}")
        if self.cap is not None and self.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")
        checks = {name: CHECKS[name] for name in names}
        for name, check in checks.items():
            if check.scope != "once" and self.n_min < WITNESS_MIN_N:
                raise ValueError(
                    f"{name} needs N >= {WITNESS_MIN_N}, got N-range {self.n_min}..{self.n_max}")
        for per_n, group in groupby(checks.values(), key=lambda c: c.scope == "per-n"):
            group = list(group)
            if per_n:
                for n in range(self.n_min, self.n_max + 1):
                    yield from (c.run(self, n) for c in group)
            else:
                yield from (c.run(self) for c in group)


def run_suite(
    n_min: int = 3,
    n_max: int = 4,
    corpus_len: int = 8,
    bound_len: int = 9,
) -> list[CheckResult]:
    """Every check of CHECKS, probe-sigma probing ab; raises
    DepthIndeterminateError if no word of length <= ``corpus_len`` cycles."""
    return list(SuiteRun(n_min, n_max, corpus_len, bound_len).run(CHECKS))
