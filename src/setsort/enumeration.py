"""Canonical set-partition streams and exhaustive witness search.

A cell (N, L) holds every restricted-growth word of length L over exactly
N distinct letters; its size is the Stirling number S(L, N).  A witness
is a word in the cell that the aba machine has not sorted after N - 1
passes.

The search visits only the truncation quotient of a cell.  Truncation
commutes with the aba pass up to truncation, and sortedness depends only
on the truncation, so a word is a witness iff its run-free truncation is.
Clump growth leaves a witness no clumped letter, so every letter of a
run-free witness occurs at least twice.  The search therefore tests the
run-free words of length 2N..L with every letter repeated, and expands
each witness found into its run expansions of length L, all in one
process.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .machine import aba_depth
from .words import Word


@dataclass(frozen=True)
class CellSpec:
    n_letters: int
    length: int

    def __post_init__(self):
        if self.n_letters < 1 or self.length < 1:
            raise ValueError("cell parameters must be positive")


@lru_cache(maxsize=None)
def stirling2(length: int, n_letters: int) -> int:
    """Stirling number of the second kind, S(L, N)."""
    if length < 0 or n_letters < 0:
        raise ValueError("arguments must be nonnegative")
    if length == 0 or n_letters == 0:
        return 1 if length == n_letters else 0
    if n_letters > length:
        return 0
    return n_letters * stirling2(length - 1, n_letters) + stirling2(length - 1, n_letters - 1)


def rgs_words(
    length: int, n_letters: int | None = None, run_free: bool = False, repeat: int = 1
) -> Iterator[Word]:
    """The RGS words of exactly ``length`` with exactly ``n_letters`` letters
    (any number if None), no two equal neighbours if ``run_free``, and every
    letter at least ``repeat`` times, in lexicographic order.

    This one DFS feeds every word stream.  ``need`` counts the slots a prefix
    still owes: ``repeat`` for each letter still missing, plus the
    occurrences its letters lack.  A prefix is pruned once ``need`` exceeds
    its remaining slots, so at the last slot only qualifying words are left.
    """
    must = n_letters or 0
    cap = length if n_letters is None else n_letters
    word = [0] * length
    counts = [0] * (cap + 1)

    def rec(i: int, mx: int, need: int) -> Iterator[Word]:
        rest = length - i - 1
        last = word[i - 1] if run_free and i else 0
        for v in range(1, min(mx + 1, cap) + 1):
            if v == last:
                continue
            c = counts[v]
            if c:
                left = need - (c < repeat)
            else:  # a new letter: one still missing, or an extra one owing repeat - 1
                left = need - 1 if v <= must else need + repeat - 1
            if left > rest:
                continue
            word[i] = v
            if rest:
                counts[v] = c + 1
                yield from rec(i + 1, mx + (c == 0), left)
                counts[v] = c
            else:
                yield tuple(word)

    return rec(0, 0, repeat * must)


def canonical_partitions(cell: CellSpec) -> Iterator[Word]:
    """All S(L, N) RGS words of the cell, in lexicographic order."""
    return rgs_words(cell.length, cell.n_letters)


def run_free_classes(cell: CellSpec) -> Iterator[Word]:
    """Run-free RGS words over exactly N letters, each letter at least twice,
    of length 2N..L: shortest first, then in lexicographic order.

    These are the truncations of the cell's possible witnesses.
    """
    n = cell.n_letters
    return chain.from_iterable(
        rgs_words(length, n, run_free=True, repeat=2) for length in range(2 * n, cell.length + 1)
    )


def _rgs_upto(max_len: int, run_free: bool) -> Iterator[Word]:
    if max_len < 1:
        raise ValueError(f"empty corpus: lengths 1..{max_len}")
    return chain.from_iterable(
        rgs_words(length, run_free=run_free) for length in range(1, max_len + 1)
    )


def all_canonical_upto(max_len: int) -> Iterator[Word]:
    """Every RGS word of lengths 1..max_len, shortest first, then in lexicographic order."""
    return _rgs_upto(max_len, run_free=False)


def run_free_upto(max_len: int) -> Iterator[Word]:
    """The run-free words (no two equal neighbours) of ``all_canonical_upto``, in its
    order: the truncations of all its words, B(l-1) of length l (Bell numbers)."""
    return _rgs_upto(max_len, run_free=True)


def _expanders(runs: int, length: int) -> list[Callable[[Word], Word]]:
    """One getter per run expansion of a ``runs``-letter run-free word to
    ``length``, in ``combinations`` order of the run starts.

    Position p of an expansion copies run bisect_right(starts, p) of the
    word.  A single-index itemgetter would return a scalar, so a length-1
    expansion is the slice word[:1] instead.
    """
    return [
        itemgetter(*(bisect_right(starts, p) for p in range(length)))
        if length > 1 else itemgetter(slice(0, length))
        for starts in combinations(range(1, length), runs - 1)
    ]


def run_expansions(word: Sequence[int], length: int) -> Iterator[Word]:
    """The C(length-1, len(word)-1) words of ``length`` that truncate to a run-free word."""
    word = tuple(word)
    return (expand(word) for expand in _expanders(len(word), length))


@dataclass(frozen=True, slots=True)
class WitnessProfile:
    witness: Word
    family: str | None  # head-triple | tail-heavy | prefix-heavy; only at L = 2N+1


@dataclass(frozen=True)
class WitnessReport:
    total_classes: int
    witnesses: tuple[WitnessProfile, ...]


def is_witness(word: Sequence[int], n_letters: int) -> bool:
    """Not sorted after N - 1 aba passes, for N = ``n_letters``; exact for
    N <= N(word) + 1, the range ``aba_depth`` counts."""
    return aba_depth(word) >= n_letters


def classify_family(word: Sequence[int]) -> str | None:
    """Family of a length-2N+1 witness.

    head-triple: the first letter is the unique multiplicity-3 letter.
    Otherwise the triple letter places two of its three occurrences on one
    side of the second occurrence of the first letter: after it (tail-heavy)
    or before it (prefix-heavy).
    """
    word = tuple(word)
    mult = Counter(word)
    triples = [a for a, m in mult.items() if m == 3]
    if len(triples) != 1 or any(m not in (2, 3) for m in mult.values()):
        return None
    star = triples[0]
    head = word[0]
    if star == head:
        return "head-triple"
    after = word[word.index(head, 1):].count(star)
    if after == 2:
        return "tail-heavy"
    if after == 1:
        return "prefix-heavy"
    return None


def profile_witness(word: Sequence[int], cell: CellSpec) -> WitnessProfile:
    word = tuple(word)
    at_next_minimal = cell.length == 2 * cell.n_letters + 1
    return WitnessProfile(word, classify_family(word) if at_next_minimal else None)


def _search_shard(cell: CellSpec) -> tuple[int, list[Word]]:
    """(run-free classes tested, the cell's witnesses in lexicographic order).

    Each run-free witness is expanded into its run expansions of the
    cell's length, through one table of getters per word length, built
    when that length first yields a witness.  ``bench/tracing.py`` wraps
    this function by name and reads the class count, so both stay.
    """
    total = 0
    found = []
    expanders = {}
    n = cell.n_letters
    for word in run_free_classes(cell):
        total += 1
        if is_witness(word, n):
            runs = len(word)
            if runs not in expanders:
                expanders[runs] = _expanders(runs, cell.length)
            found += [expand(word) for expand in expanders[runs]]
    return total, sorted(found)


def find_witnesses(cell: CellSpec, jobs: int = 1) -> WitnessReport:
    """Exhaustive witness search over one cell, by its truncation quotient.

    The witness list is in lexicographic order and ``total_classes`` is
    S(L, N), the classes the cell covers, as a full-cell scan would give.
    The search runs in one process: ``jobs`` must be at least 1 and has no
    other effect.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _, found = _search_shard(cell)
    return WitnessReport(
        total_classes=stirling2(cell.length, cell.n_letters),
        witnesses=tuple(profile_witness(w, cell) for w in found),
    )


def witness_table(
    n_min: int, n_max: int, l_offset_max: int = 1
) -> list[tuple[int, int, int, int]]:
    """(N, L, total_classes, witness_count) rows for N in [n_min, n_max], L in [N, 2N + offset]."""
    if n_min > n_max:
        raise ValueError(f"empty N-range: {n_min}..{n_max}")
    if 2 * n_min + l_offset_max < n_min:
        raise ValueError(f"empty L-range at N={n_min}: {n_min}..{2 * n_min + l_offset_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        for length in range(n, 2 * n + l_offset_max + 1):
            report = find_witnesses(CellSpec(n, length))
            rows.append((n, length, report.total_classes, len(report.witnesses)))
    return rows
