"""Word algebra for set partitions.

A set partition is modelled as a word: a tuple of positive integer
letter-ids.  Two words give the same partition when one is a
letter-relabeling of the other; canonical representatives are restricted
growth strings (each new letter's first appearance is the smallest unused
positive integer).
"""

from __future__ import annotations

import string
from collections import Counter
from typing import Sequence

Word = tuple[int, ...]

_LETTERS = string.ascii_lowercase


class ParseError(ValueError):
    """Raised when a word string is malformed."""


def parse(text: str) -> Word:
    """Parse a word from compact (``"abcac"``) or numeric (``"1,2,3,1,3"``) form.

    Letter identity is preserved; no canonicalization happens here.
    """
    text = text.strip()
    if not text:
        return ()
    if all(c in _LETTERS for c in text):
        return tuple(ord(c) - ord("a") + 1 for c in text)
    letters = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdigit() or int(token) < 1:
            raise ParseError(f"bad letter token {token!r} in {text!r}")
        letters.append(int(token))
    return tuple(letters)


def format_word(word: Sequence[int]) -> str:
    """Render compactly as a-z when the alphabet allows, else as comma-separated ints."""
    if not word:
        return ""
    if max(word) <= 26:
        return "".join(_LETTERS[x - 1] for x in word)
    return ",".join(str(x) for x in word)


def n_distinct(word: Sequence[int]) -> int:
    return len(set(word))


def canonicalize(word: Sequence[int]) -> Word:
    """Relabel letters by order of first occurrence: the restricted-growth form."""
    relabel: dict[int, int] = {}
    out = []
    for x in word:
        if x not in relabel:
            relabel[x] = len(relabel) + 1
        out.append(relabel[x])
    return tuple(out)


def mcount(word: Sequence[int]) -> int:
    """Maximum letter multiplicity; 0 for the empty word."""
    if not word:
        return 0
    return max(Counter(word).values())


def _clumped_letters(word: Sequence[int]) -> set[int]:
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    count: dict[int, int] = {}
    for i, x in enumerate(word):
        if x not in first:
            first[x] = i
        last[x] = i
        count[x] = count.get(x, 0) + 1
    return {x for x in count if last[x] - first[x] + 1 == count[x]}


def clumped_count(word: Sequence[int]) -> int:
    """Number of distinct letters whose occurrences form one contiguous run."""
    return len(_clumped_letters(word))


def leftmost_nonclumped(word: Sequence[int]) -> int | None:
    """Letter of the leftmost position carrying a non-clumped letter; None iff sorted."""
    clumped = _clumped_letters(word)
    for x in word:
        if x not in clumped:
            return x
    return None


def is_sorted(word: Sequence[int]) -> bool:
    """Whether every letter's occurrences are consecutive.

    One scan over the runs: fails as soon as a letter starts a second run.
    """
    seen = set()
    prev = None
    for x in word:
        if x != prev:
            if x in seen:
                return False
            seen.add(x)
            prev = x
    return True


def reverse(word: Sequence[int]) -> Word:
    return tuple(word)[::-1]


def truncate(word: Sequence[int]) -> Word:
    """Collapse each maximal run of equal letters to a single letter."""
    out = []
    for x in word:
        if not out or out[-1] != x:
            out.append(x)
    return tuple(out)
