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

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

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


def canonical_partitions(cell: CellSpec) -> Iterator[Word]:
    """All RGS words of the cell, in lexicographic order.

    Prunes any prefix whose remaining slots cannot introduce enough new
    letters, so the stream touches only S(L, N) words, not N**L.
    """
    n, length = cell.n_letters, cell.length
    word = [0] * length

    def rec(i: int, mx: int) -> Iterator[Word]:
        if i == length:
            yield tuple(word)
            return
        for v in range(1, min(mx + 1, n) + 1):
            if n - max(mx, v) <= length - i - 1:
                word[i] = v
                yield from rec(i + 1, max(mx, v))

    yield from rec(0, 0)


def run_free_classes(cell: CellSpec) -> Iterator[Word]:
    """Run-free RGS words over exactly N letters, each letter at least twice,
    of length at most L, in lexicographic order.

    These are the truncations of the cell's possible witnesses.  A prefix
    is pruned once its remaining slots cannot give every letter, new or
    seen once, its second occurrence.
    """
    n, length = cell.n_letters, cell.length
    word: list[int] = []
    counts = [0] * (n + 1)

    def rec(mx: int, once: int) -> Iterator[Word]:
        i = len(word)
        if mx == n and once == 0:
            yield tuple(word)
        last = word[-1] if word else 0
        for v in range(1, min(mx + 1, n) + 1):
            if v == last:
                continue
            c = counts[v]
            grown = once + (c == 0) - (c == 1)
            if 2 * (n - max(mx, v)) + grown <= length - i - 1:
                counts[v] = c + 1
                word.append(v)
                yield from rec(max(mx, v), grown)
                word.pop()
                counts[v] = c

    yield from rec(0, 0)


def _rgs_upto(max_len: int, run_free: bool) -> Iterator[Word]:
    if max_len < 1:
        raise ValueError(f"empty corpus: lengths 1..{max_len}")
    word: list[int] = []

    def rec(length: int, mx: int) -> Iterator[Word]:
        if len(word) == length:
            yield tuple(word)
            return
        last = word[-1] if run_free and word else 0
        for v in range(1, mx + 2):
            if v != last:
                word.append(v)
                yield from rec(length, max(mx, v))
                word.pop()

    return (w for length in range(1, max_len + 1) for w in rec(length, 0))


def all_canonical_upto(max_len: int) -> Iterator[Word]:
    """Every RGS word of lengths 1..max_len, shortest first, then in lexicographic order."""
    return _rgs_upto(max_len, run_free=False)


def run_free_upto(max_len: int) -> Iterator[Word]:
    """The run-free words (no two equal neighbours) of ``all_canonical_upto``, in its
    order: the truncations of all its words, B(l-1) of length l (Bell numbers)."""
    return _rgs_upto(max_len, run_free=True)


def run_expansions(word: Sequence[int], length: int) -> Iterator[Word]:
    """The C(length-1, len(word)-1) words of ``length`` that truncate to a run-free word."""
    for cuts in combinations(range(1, length), len(word) - 1):
        bounds = (0,) + cuts + (length,)
        yield tuple(x for x, a, b in zip(word, bounds, bounds[1:]) for _ in range(b - a))


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
    cell's length.  ``bench/tracing.py`` wraps this function by name and
    reads the class count, so both stay.
    """
    total = 0
    found = []
    n = cell.n_letters
    for word in run_free_classes(cell):
        total += 1
        if is_witness(word, n):
            found.extend(run_expansions(word, cell.length))
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
