from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setsort import words
from setsort.words import (
    canonicalize,
    clumped_count,
    format_word,
    is_sorted,
    leftmost_nonclumped,
    mcount,
    parse,
    reverse,
    truncate,
)

small_words = st.lists(st.integers(1, 6), max_size=12).map(tuple)


def brute_canonicalize(word):
    # independent relabeling: first-occurrence order, built from scratch
    order = []
    for x in word:
        if x not in order:
            order.append(x)
    return tuple(order.index(x) + 1 for x in word)


class TestParseFormat:
    def test_compact(self):
        assert parse("abcac") == (1, 2, 3, 1, 3)

    def test_numeric(self):
        assert parse("1,2,3,1,3") == (1, 2, 3, 1, 3)

    def test_empty(self):
        assert parse("") == ()

    def test_preserves_letter_identity(self):
        assert parse("cacba") == (3, 1, 3, 2, 1)

    @pytest.mark.parametrize("bad", ["a,b", "1,x,3", "ab1", "0", "-1,2", "1,,2"])
    def test_malformed(self, bad):
        with pytest.raises(words.ParseError):
            parse(bad)

    def test_format_compact(self):
        assert format_word((1, 2, 3, 1, 3)) == "abcac"

    def test_format_numeric_above_z(self):
        assert format_word((1, 27)) == "1,27"

    @given(small_words)
    def test_round_trip(self, w):
        assert parse(format_word(w)) == w


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize((2, 1, 2)) == (1, 2, 1)
        assert canonicalize(parse("cacba")) == (1, 2, 1, 3, 2)
        assert canonicalize(()) == ()

    @given(small_words)
    def test_matches_oracle(self, w):
        assert canonicalize(w) == brute_canonicalize(w)

    @given(small_words)
    def test_idempotent(self, w):
        assert canonicalize(canonicalize(w)) == canonicalize(w)

    @given(small_words)
    def test_result_is_canonical(self, w):
        c = canonicalize(w)
        assert all(x <= max(c[:i], default=0) + 1 for i, x in enumerate(c))


class TestStatistics:
    def test_mcount(self):
        assert mcount((1, 2, 3, 1, 3)) == 2
        assert mcount(parse("aaa")) == 3
        assert mcount(()) == 0

    def test_clumped_count(self):
        assert clumped_count((1, 1, 1, 2, 3, 4, 2, 4)) == 2
        assert clumped_count(parse("aabbcc")) == 3
        assert clumped_count(parse("abcabc")) == 0

    def test_leftmost_nonclumped(self):
        assert leftmost_nonclumped((1, 1, 1, 2, 3, 4, 2, 4)) == 2
        assert leftmost_nonclumped(parse("aabb")) is None
        assert leftmost_nonclumped(parse("abcabc")) == 1

    def test_is_sorted(self):
        assert is_sorted(parse("aabbcc"))
        assert not is_sorted(parse("abcabc"))
        assert is_sorted(())

    @given(small_words)
    def test_sorted_iff_all_letters_clumped(self, w):
        assert is_sorted(w) == (clumped_count(w) == len(set(w)))

    @given(small_words)
    def test_nonclumped_none_iff_sorted(self, w):
        assert (leftmost_nonclumped(w) is None) == is_sorted(w)


class TestReverseTruncate:
    def test_reverse(self):
        assert format_word(reverse(parse("abcac"))) == "cacba"
        assert reverse(parse("aa")) == (1, 1)
        assert reverse(()) == ()

    @given(small_words)
    def test_reverse_involution(self, w):
        assert reverse(reverse(w)) == w
        assert len(reverse(w)) == len(w)
        assert mcount(reverse(w)) == mcount(w)

    def test_truncate(self):
        assert truncate((1, 1, 1, 2, 2, 1, 1, 3)) == (1, 2, 1, 3)
        assert truncate(parse("abc")) == (1, 2, 3)
        assert truncate(parse("aaaa")) == (1,)

    @given(small_words)
    def test_truncate_idempotent_no_adjacent_repeats(self, w):
        t = truncate(w)
        assert truncate(t) == t
        assert all(a != b for a, b in zip(t, t[1:]))

    @given(small_words, st.data())
    def test_run_expansion_recovers_truncation(self, w, data):
        t = truncate(w)
        runs = [data.draw(st.integers(1, 3)) for _ in t]
        expanded = tuple(chain(*((x,) * k for x, k in zip(t, runs))))
        assert truncate(expanded) == t
