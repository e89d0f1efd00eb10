"""The right-greedy pattern-avoiding stack machine.

One pass sends the input word through a stack, pushing whenever the stack
(read top to bottom, candidate letter on top) would still avoid every
subsequence that relabels to the pattern, and popping the stack top to the
output otherwise.  The aba pattern has a dedicated fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .words import (
    Word,
    canonicalize,
    format_word,
    is_sorted,
    n_distinct,
)

ABA: Word = (1, 2, 1)


class DepthIndeterminateError(RuntimeError):
    """Iteration cap hit before reaching a sorted word or detecting a cycle."""


@dataclass(frozen=True)
class Pattern:
    """The forbidden-subsequence class, of at least two letters; stored in
    canonical (restricted-growth) form."""

    word: Word

    def __post_init__(self):
        if len(self.word) < 2:
            raise ValueError("pattern must have at least two letters")
        object.__setattr__(self, "word", canonicalize(self.word))

    @property
    def is_aba(self) -> bool:
        return self.word == ABA

    def __str__(self) -> str:
        return format_word(self.word)


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "push" or "pop"
    letter: int
    stack_after: Word  # bottom to top
    output_after: Word

    def __str__(self) -> str:
        return (
            f"{self.kind.upper()} {format_word((self.letter,))}"
            f" | stack={format_word(self.stack_after)}"
            f" | out={format_word(self.output_after)}"
        )


@dataclass(frozen=True)
class Trace:
    input: Word
    sigma: Pattern
    events: tuple[TraceEvent, ...]
    output: Word


def push_is_legal(stack: Sequence[int], x: int, sigma: Pattern) -> bool:
    """Whether x may be pushed on a stack (given bottom to top) that avoids sigma.

    The stack with x on top is read top to bottom; only subsequences
    through x need checking because the rest avoid sigma already.
    """
    k = len(sigma.word)
    rest = tuple(reversed(stack))
    if len(rest) < k - 1:
        return True
    target = sigma.word
    return not any(
        canonicalize((x,) + sub) == target for sub in combinations(rest, k - 1)
    )


def _pass_generic(p: Sequence[int], sigma: Pattern, events: list | None) -> Word:
    out: list[int] = []
    stack: list[int] = []
    for x in p:
        while not push_is_legal(stack, x, sigma):
            y = stack.pop()
            out.append(y)
            if events is not None:
                events.append(TraceEvent("pop", y, tuple(stack), tuple(out)))
        stack.append(x)
        if events is not None:
            events.append(TraceEvent("push", x, tuple(stack), tuple(out)))
    while stack:
        y = stack.pop()
        out.append(y)
        if events is not None:
            events.append(TraceEvent("pop", y, tuple(stack), tuple(out)))
    return tuple(out)


def apply_phi(p: Sequence[int], sigma: Pattern) -> Word:
    """One pass of the machine for an arbitrary pattern."""
    if sigma.is_aba:
        return apply_phi_aba(p)
    return _pass_generic(p, sigma, None)


def apply_phi_generic(p: Sequence[int], sigma: Pattern) -> Word:
    """One pass via the subsequence-checking route, never the aba fast path.

    Kept separate so the fast path can be cross-checked against it.
    """
    return _pass_generic(p, sigma, None)


def apply_phi_aba(p: Sequence[int]) -> Word:
    """One aba pass.

    An aba-avoiding stack is a sequence of single-letter runs, so a push is
    legal iff the letter is absent from the stack or already tops it; when
    illegal, popping is forced until one of the two holds.  Stack counts
    are a list indexed by letter, or a dict when the letter ids are too
    sparse for a list.
    """
    out: list[int] = []
    stack: list[int] = []
    top = max(p, default=0)
    counts = [0] * (top + 1) if top <= 4 * len(p) else dict.fromkeys(p, 0)
    for x in p:
        while stack and stack[-1] != x and counts[x]:
            y = stack.pop()
            out.append(y)
            counts[y] -= 1
        stack.append(x)
        counts[x] += 1
    out.extend(reversed(stack))
    return tuple(out)


def iterate(p: Sequence[int], sigma: Pattern, k: int) -> Word:
    """k-fold composition of the pass; k = 0 is the identity."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    w = tuple(p)
    for _ in range(k):
        w = apply_phi(w, sigma)
    return w


def trace(p: Sequence[int], sigma: Pattern) -> Trace:
    """The full push/pop event stream of one pass."""
    events: list[TraceEvent] = []
    out = _pass_generic(p, sigma, events)
    return Trace(input=tuple(p), sigma=sigma, events=tuple(events), output=out)


@dataclass(frozen=True)
class DepthResult:
    word: Word
    sigma: Pattern
    sorts: bool
    depth: int | None = None  # least t with the t-th iterate sorted
    cycle_start: Word | None = None  # first repeated word, when sorts is False

    def __post_init__(self):
        if self.sorts != (self.depth is not None):
            raise ValueError("a depth is given exactly when the word sorts")


def default_cap(p: Sequence[int], sigma: Pattern) -> int:
    # N(p) passes always suffice for aba; elsewhere fail fast with a
    # distinct indeterminate signal rather than loop.
    if sigma.is_aba:
        return n_distinct(p)
    return 4 * len(p)


def sorting_depth(
    p: Sequence[int], sigma: Pattern = Pattern(ABA), cap: int | None = None
) -> DepthResult:
    """Least t with the t-th iterate sorted, or a definite never-sorts verdict.

    Cycle detection runs on canonical forms: the pass commutes with letter
    relabeling and preserves the letter multiset, so the orbit of a class is
    finite and a class seen twice means the word never sorts.
    """
    if cap is None:
        cap = default_cap(p, sigma)
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    w = tuple(p)
    seen = {canonicalize(w)}
    for t in range(cap + 1):
        if is_sorted(w):
            return DepthResult(word=tuple(p), sigma=sigma, sorts=True, depth=t)
        if t == cap:
            break
        w = apply_phi(w, sigma)
        cw = canonicalize(w)
        if cw in seen:
            return DepthResult(word=tuple(p), sigma=sigma, sorts=False, cycle_start=cw)
        seen.add(cw)
    raise DepthIndeterminateError(
        f"{format_word(p)} under sigma={sigma}: no sort or cycle within {cap} passes"
    )
