from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setsort.enumeration import CellSpec, canonical_partitions
from setsort.machine import (
    ABA,
    DepthIndeterminateError,
    DepthResult,
    Pattern,
    apply_phi,
    apply_phi_aba,
    apply_phi_generic,
    iterate,
    push_is_legal,
    sorting_depth,
    trace,
)
from setsort.words import canonicalize, format_word, is_sorted, parse

aba = Pattern(ABA)
small_words = st.lists(st.integers(1, 5), max_size=10).map(tuple)


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

    def test_sparse_letter_ids(self):
        # Letter ids far above the word length take the dict-counted route.
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
            DepthResult(word=(1, 2, 1), sigma=aba, sorts=sorts, depth=depth)

    def test_indeterminate_on_tiny_cap(self):
        with pytest.raises(DepthIndeterminateError):
            sorting_depth(parse("abcabc"), aba, cap=1)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            sorting_depth(parse("abab"), aba, cap=-1)

    def test_aba_cap_defaults_to_letter_count(self):
        # Every word sorts within N passes, so the default cap never trips.
        for w in small_corpus(6):
            result = sorting_depth(w, aba)
            assert result.sorts and result.depth <= len(set(w))
