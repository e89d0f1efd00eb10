import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsort import machine
from setsort.enumeration import CellSpec, canonical_partitions
from setsort.machine import (
    ABA,
    DepthIndeterminateError,
    DepthResult,
    Pattern,
    aba_depth,
    apply_phi,
    apply_phi_aba,
    apply_phi_generic,
    iterate,
    push_is_legal,
    sorting_depth,
    trace,
)
from setsort.verification import check_upper_bound
from setsort.words import canonicalize, format_word, is_sorted, parse

aba = Pattern(ABA)
small_words = st.lists(st.integers(1, 5), max_size=10).map(tuple)
sparse_words = st.lists(st.sampled_from([1, 7, 10**6, 10**12]), max_size=10).map(tuple)
# 32-letter words for 9-letter patterns.  A matcher that tries every
# 8-subsequence of the stack runs for over 20 s on (1..8)^4 under abcdefghi.
LONG_WORDS = [tuple(range(1, 17)) * 2, tuple(range(1, 9)) * 4]
# The last two patterns repeat their first letter.  A matcher that does not
# see at once that x, off the stack, cannot stand for it runs for seconds.
LONG_CASES = [(sigma, w) for sigma in ("abcdefghi", "abcdefgha") for w in LONG_WORDS] + [
    ("abcdefghija", tuple(range(1, 21)) * 2),
    ("abcdefgha", tuple(range(1, 25)) * 2),
]


def contains_pattern(word, sigma):
    """The brute-force oracle: some subsequence of ``word`` relabels to the pattern."""
    return any(
        canonicalize(sub) == sigma.word for sub in combinations(word, len(sigma.word))
    )


def small_corpus(max_len):
    for length in range(0, max_len + 1):
        if length == 0:
            yield ()
            continue
        for n in range(1, length + 1):
            yield from canonical_partitions(CellSpec(n, length))


def canonical_patterns(min_len, max_len):
    return [Pattern(w) for w in small_corpus(max_len) if len(w) >= min_len]


def oracle_pass(p, sigma):
    """The pass by definition: pop while stack-plus-candidate contains sigma."""
    out, stack = [], []
    for x in p:
        while contains_pattern((x,) + tuple(reversed(stack)), sigma):
            out.append(stack.pop())
        stack.append(x)
    return tuple(out + stack[::-1])


def avoiding_stack(word, sigma):
    """The letters of ``word`` pushed in order, skipping any that would make
    the stack (read top to bottom) contain sigma."""
    stack = []
    for y in word:
        if not contains_pattern((y,) + tuple(reversed(stack)), sigma):
            stack.append(y)
    return stack


class TestPattern:
    def test_canonicalized_on_construction(self):
        assert Pattern(parse("bab")).word == (1, 2, 1)

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Pattern(())

    def test_single_letter_rejected(self):
        with pytest.raises(ValueError):
            Pattern((1,))

    def test_str(self):
        assert str(aba) == "aba"


class TestContainsPattern:
    def test_whole_word(self):
        assert contains_pattern(parse("aba"), aba)

    def test_sorted_word_avoids(self):
        assert not contains_pattern(parse("aabb"), aba)

    def test_subsequence_up_to_relabeling(self):
        assert contains_pattern(parse("acba"), aba)


class TestPushLegality:
    def test_figure_frames(self):
        assert not push_is_legal([1, 2, 3], 1, aba)
        assert push_is_legal([1], 1, aba)
        assert push_is_legal([1, 1], 3, aba)

    def test_matches_containment(self):
        # legality is exactly avoidance of the pattern in stack-plus-candidate
        for stack in [(1,), (1, 2), (2, 1, 1), (1, 2, 3)]:
            for x in range(1, 4):
                combined = (x,) + tuple(reversed(stack))
                assert push_is_legal(stack, x, aba) == (
                    not contains_pattern(combined, aba)
                )

    @given(
        st.sampled_from(canonical_patterns(2, 5)),
        st.one_of(small_words, sparse_words).filter(len),
    )
    @settings(max_examples=400)
    def test_matches_containment_every_short_pattern(self, sigma, w):
        stack, x = avoiding_stack(w[:-1], sigma), w[-1]
        combined = (x,) + tuple(reversed(stack))
        assert push_is_legal(stack, x, sigma) == (not contains_pattern(combined, sigma))

    @pytest.mark.parametrize("sigma,w", LONG_CASES,
                             ids=lambda v: v if isinstance(v, str) else format_word(v))
    def test_long_pattern_on_long_word_is_bounded(self, sigma, w):
        t0 = time.perf_counter()
        out = apply_phi_generic(w, Pattern(parse(sigma)))
        assert time.perf_counter() - t0 < 1.0
        assert Counter(out) == Counter(w)

    @pytest.mark.parametrize("w", LONG_WORDS, ids=format_word)
    def test_distinct_pattern_pass_closed_form(self, w):
        # Under an all-distinct pattern of k letters a push is illegal iff the
        # stack plus the candidate holds k distinct letters.
        k = 9
        out, stack = [], []
        for x in w:
            while len(set(stack) | {x}) >= k:
                out.append(stack.pop())
            stack.append(x)
        assert apply_phi_generic(w, Pattern(tuple(range(1, k + 1)))) == tuple(
            out + stack[::-1]
        )

    def test_too_few_letters_is_legal_at_once(self):
        t0 = time.perf_counter()
        assert push_is_legal(list(range(1, 9)) * 4, 1, Pattern(tuple(range(1, 10))))
        assert time.perf_counter() - t0 < 1.0


class TestSinglePass:
    def test_figure_example(self):
        assert format_word(apply_phi(parse("abcac"), aba)) == "cbcaa"
        assert format_word(apply_phi_aba(parse("abcac"))) == "cbcaa"

    def test_empty(self):
        assert apply_phi((), aba) == ()

    def test_derived_examples(self):
        assert format_word(apply_phi(parse("abcabc"), aba)) == "cbcbaa"
        assert format_word(apply_phi_aba(parse("aabb"))) == "bbaa"
        assert format_word(apply_phi_aba(parse("baa"))) == "aab"

    @given(small_words)
    def test_multiset_preserved(self, w):
        assert Counter(apply_phi_aba(w)) == Counter(w)

    @given(small_words)
    def test_sorted_is_absorbing(self, w):
        if is_sorted(w):
            assert is_sorted(apply_phi_aba(w))

    def test_fast_path_equals_generic_exhaustively(self):
        for w in small_corpus(7):
            assert apply_phi_aba(w) == apply_phi_generic(w, aba), format_word(w)

    @given(small_words)
    def test_fast_path_equals_generic_random(self, w):
        assert apply_phi_aba(w) == apply_phi_generic(w, aba)

    @given(sparse_words)
    def test_fast_path_equals_generic_sparse(self, w):
        assert apply_phi_aba(w) == apply_phi_generic(w, aba)

    @pytest.mark.parametrize("sigma", canonical_patterns(2, 4), ids=str)
    def test_generic_equals_definition_exhaustively(self, sigma):
        for w in small_corpus(7):
            want = oracle_pass(w, sigma)
            assert apply_phi_generic(w, sigma) == want, format_word(w)
            assert trace(w, sigma).output == want, format_word(w)

    def test_sparse_letter_ids(self):
        # Letter ids far above the word length take the same route as dense ones.
        w = (10**12, 7, 10**12, 7, 3)
        assert apply_phi_aba(w) == apply_phi_generic(w, aba)


class TestIterate:
    def test_zero_is_identity(self):
        assert iterate(parse("abcac"), aba, 0) == parse("abcac")

    def test_derived_examples(self):
        assert format_word(iterate(parse("abcabc"), aba, 2)) == "baabcc"
        assert format_word(iterate(parse("abcabc"), aba, 3)) == "aaccbb"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iterate((), aba, -1)


class TestTrace:
    def test_figure_event_sequence(self):
        t = trace(parse("abcac"), aba)
        kinds = [(e.kind, format_word((e.letter,))) for e in t.events]
        assert kinds == [
            ("push", "a"), ("push", "b"), ("push", "c"),
            ("pop", "c"), ("pop", "b"),
            ("push", "a"), ("push", "c"),
            ("pop", "c"), ("pop", "a"), ("pop", "a"),
        ]
        assert format_word(t.output) == "cbcaa"

    def test_empty_and_doubleton(self):
        assert trace((), aba).events == ()
        t = trace(parse("aa"), aba)
        assert [e.kind for e in t.events] == ["push", "push", "pop", "pop"]
        assert t.output == (1, 1)

    @given(small_words)
    def test_replay_soundness(self, w):
        t = trace(w, aba)
        assert len(t.events) == 2 * len(w)
        stack, out = [], []
        for e in t.events:
            if e.kind == "push":
                stack.append(e.letter)
            else:
                assert stack and stack[-1] == e.letter
                out.append(stack.pop())
            assert tuple(stack) == e.stack_after
            assert tuple(out) == e.output_after
        assert not stack
        assert tuple(out) == t.output == apply_phi(w, aba)

    def test_line_format(self):
        t = trace(parse("aa"), aba)
        assert str(t.events[0]) == "PUSH a | stack=a | out="
        assert str(t.events[2]) == "POP a | stack=a | out=a"


class TestSortingDepth:
    def test_examples(self):
        assert sorting_depth(parse("abcabc"), aba).depth == 3
        assert sorting_depth(parse("aabb"), aba).depth == 0
        assert sorting_depth(parse("abcac"), aba).depth == 2

    def test_never_sorts_under_ab(self):
        result = sorting_depth(parse("abab"), Pattern(parse("ab")))
        assert not result.sorts
        assert result.cycle_start == (1, 2, 1, 2)

    @pytest.mark.parametrize("sorts,depth", [(True, None), (False, 2)])
    def test_result_rejects_inconsistent_depth(self, sorts, depth):
        with pytest.raises(ValueError):
            DepthResult(sorts=sorts, depth=depth)

    def test_indeterminate_on_tiny_cap(self):
        with pytest.raises(DepthIndeterminateError):
            sorting_depth(parse("abcabc"), aba, cap=1)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            sorting_depth(parse("abab"), aba, cap=-1)

    def test_every_word_sorts_within_letter_count_passes(self):
        # Every word sorts within N passes, so the default cap never trips.
        for w in small_corpus(6):
            result = sorting_depth(w, aba)
            assert result.sorts and result.depth <= len(set(w))


class TestAbaDepth:
    def test_equals_first_sorted_generic_iterate(self):
        # The oracle: walk the subsequence-checked pass until the word sorts.
        for w in small_corpus(8):
            n = len(set(w))
            t, x = 0, w
            while not is_sorted(x) and t <= n:
                x, t = apply_phi_generic(x, aba), t + 1
            assert aba_depth(w) == t <= n, format_word(w)

    def test_broken_pass_gives_counterexample(self, monkeypatch):
        # A pass that never sorts: the depth stops at N + 1 instead of hanging.
        monkeypatch.setattr(machine, "apply_phi_aba", tuple)
        assert aba_depth(parse("abab")) == 3
        result = check_upper_bound(4)
        assert not result.passed and result.counterexample == parse("aba")
