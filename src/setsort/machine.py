"""The right-greedy pattern-avoiding stack machine.

One pass sends the input word through a stack, pushing whenever the stack
(read top to bottom, candidate letter on top) would still avoid every
subsequence that relabels to the pattern, and popping the stack top to the
output otherwise.  The aba pattern has a dedicated fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    events: tuple[TraceEvent, ...]
    output: Word


def push_is_legal(stack: Sequence[int], x: int, sigma: Pattern) -> bool:
    """Whether x may be pushed on a stack (given bottom to top) that avoids sigma.

    The stack with x on top is read top to bottom; only subsequences
    through x need checking because the rest avoid sigma already.  They are
    found by extending an injective map from pattern letters to stack
    letters, with the first pattern letter fixed to x.  Once a letter is
    chosen its earliest remaining position serves every completion, so the
    search branches only over which unused letter a new pattern letter takes.
    No embedding exists when the stack holds fewer distinct letters than
    sigma, or when sigma repeats its first letter and x is not on the stack.
    """
    target = sigma.word
    k = len(target)
    letters = set(stack)
    if len(letters.union((x,))) < max(target) or (x not in letters and target[0] in target[1:]):
        return True
    rest = stack[::-1]
    n = len(rest)
    image: list[int | None] = [None, x] + [None] * (k - 1)  # pattern -> stack letter
    used = {x}

    def embeds(j: int, start: int) -> bool:
        if j == k:
            return True
        a = target[j]
        stop = n - k + j + 1  # leave room for the k - j - 1 letters after j
        c = image[a]
        if c is not None:
            for i in range(start, stop):
                if rest[i] == c:
                    return embeds(j + 1, i + 1)
            return False
        tried = set()
        for i in range(start, stop):
            c = rest[i]
            if c in used or c in tried:
                continue
            tried.add(c)
            image[a] = c
            used.add(c)
            if embeds(j + 1, i + 1):
                return True
            used.discard(c)
        image[a] = None
        return False

    return not embeds(1, 0)


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
    illegal, popping is forced until the letter tops the stack.  A popped
    letter whose run ends there leaves the stack's letter set.
    """
    out: list[int] = []
    stack: list[int] = []
    on_stack: set[int] = set()
    for x in p:
        if x in on_stack:
            while stack[-1] != x:
                y = stack.pop()
                out.append(y)
                if stack[-1] != y:
                    on_stack.discard(y)
        else:
            on_stack.add(x)
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


def aba_depth(p: Sequence[int]) -> int:
    """Least t with the t-th aba iterate of p sorted, or N(p) + 1 if N(p)
    passes leave p unsorted, as only a broken pass can.

    A sorted word stays sorted under an aba pass, since every push is legal
    and the pass only reverses its blocks; so depth >= k iff the (k - 1)-th
    iterate is unsorted, and the count stops at the first sorted iterate.
    """
    n = n_distinct(p)
    for t in range(n + 1):
        if is_sorted(p):
            return t
        p = apply_phi_aba(p)
    return n + 1


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
    return Trace(events=tuple(events), output=out)


@dataclass(frozen=True)
class DepthResult:
    sorts: bool
    depth: int | None = None  # least t with the t-th iterate sorted
    cycle_start: Word | None = None  # first repeated word, when sorts is False

    def __post_init__(self):
        if self.sorts != (self.depth is not None):
            raise ValueError("a depth is given exactly when the word sorts")


def sorting_depth(
    p: Sequence[int], sigma: Pattern = Pattern(ABA), cap: int | None = None
) -> DepthResult:
    """Least t with the t-th iterate sorted, or a definite never-sorts verdict.

    Cycle detection runs on canonical forms: the pass commutes with letter
    relabeling and preserves the letter multiset, so the orbit of a class is
    finite and a class seen twice means the word never sorts.
    """
    if cap is None:
        cap = 4 * len(p)
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    w = tuple(p)
    seen = {canonicalize(w)}
    for t in range(cap + 1):
        if is_sorted(w):
            return DepthResult(sorts=True, depth=t)
        if t == cap:
            break
        w = apply_phi(w, sigma)
        cw = canonicalize(w)
        if cw in seen:
            return DepthResult(sorts=False, cycle_start=cw)
        seen.add(cw)
    raise DepthIndeterminateError(
        f"{format_word(p)} under sigma={sigma}: no sort or cycle within {cap} passes"
    )
