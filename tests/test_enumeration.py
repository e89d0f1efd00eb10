import json
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setsort.cli import main
from setsort.enumeration import (
    CellSpec,
    all_canonical_upto,
    canonical_partitions,
    classify_family,
    find_witnesses,
    is_witness,
    rgs_words,
    run_expansions,
    run_free_classes,
    run_free_upto,
    stirling2,
    witness_table,
)
from setsort.words import canonicalize, format_word, n_distinct, parse, truncate


def full_scan_witnesses(cell):
    """The oracle: every class of the cell through the witness test."""
    return [w for w in canonical_partitions(cell) if is_witness(w, cell.n_letters)]


ORACLE_CELLS = [
    (n, length) for n in range(1, 5) for length in range(n, 2 * n + 3)
] + [(5, length) for length in range(5, 11)] + [(3, 11), (3, 12)]  # witness-dense rows


def combination_expansions(word, length):
    """The oracle: each choice of run starts, one generator per word."""
    for cuts in combinations(range(1, length), len(word) - 1):
        bounds = (0,) + cuts + (length,)
        yield tuple(x for x, a, b in zip(word, bounds, bounds[1:]) for _ in range(b - a))


def brute_cell(n, length):
    # all words over {1..n}, filtered to restricted-growth with n letters
    return [
        w
        for w in product(range(1, n + 1), repeat=length)
        if canonicalize(w) == w and n_distinct(w) == n
    ]


def cells_upto(max_len):
    """The oracle corpus: every cell of length 1..max_len, shortest first,
    each cell from canonical_partitions."""
    return [
        w
        for length in range(1, max_len + 1)
        for n in range(1, length + 1)
        for w in canonical_partitions(CellSpec(n, length))
    ]


def bell_numbers(count):
    """B(0), ..., B(count - 1), read off the Bell triangle."""
    bells, row = [], [1]
    for _ in range(count):
        bells.append(row[0])
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return bells


class TestStirling:
    @pytest.mark.parametrize(
        "l,n,want",
        [(0, 0, 1), (1, 1, 1), (3, 2, 3), (6, 3, 90), (7, 3, 301),
         (8, 4, 1701), (9, 4, 7770), (10, 5, 42525), (11, 5, 246730),
         (4, 6, 0), (5, 0, 0)],
    )
    def test_values(self, l, n, want):
        assert stirling2(l, n) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestStream:
    def test_small_cells(self):
        got = [format_word(w) for w in canonical_partitions(CellSpec(2, 3))]
        assert got == ["aab", "aba", "abb"]
        assert list(canonical_partitions(CellSpec(3, 3))) == [(1, 2, 3)]

    @pytest.mark.parametrize("n,length,run_free,repeat", [
        pytest.param(n, l, run_free, repeat, id="-".join(
            [str(n), str(l)] + ["run-free"] * run_free + [f"repeat{repeat}"] * (repeat > 1)))
        for l in range(1, 7)
        for n in [*range(1, l + 1), None]
        for run_free in (False, True)
        for repeat in (1, 2)
    ])
    def test_matches_brute_force(self, n, length, run_free, repeat):
        # Any letter count is the union of the cells, in lexicographic order.
        cells = sorted(
            w for k in (range(1, length + 1) if n is None else [n]) for w in brute_cell(k, length)
        )
        want = [
            w for w in cells
            if (not run_free or truncate(w) == w) and min(Counter(w).values()) >= repeat
        ]
        assert list(rgs_words(length, n, run_free, repeat)) == want
        if n is not None and not run_free and repeat == 1:
            assert list(canonical_partitions(CellSpec(n, length))) == want

    @given(st.integers(1, 8).flatmap(lambda l: st.tuples(st.integers(1, l), st.just(l))))
    def test_cardinality_and_order(self, cell):
        n, length = cell
        stream = list(canonical_partitions(CellSpec(n, length)))
        assert len(stream) == stirling2(length, n)
        assert all(a < b for a, b in zip(stream, stream[1:]))
        assert all(canonicalize(w) == w and n_distinct(w) == n for w in stream)

    @pytest.mark.parametrize("n,length", [(0, 3), (3, 0)])
    def test_nonpositive_cell_rejected(self, n, length):
        with pytest.raises(ValueError, match="cell parameters must be positive"):
            CellSpec(n, length)


class TestWitnessSearch:
    def test_unique_minimal_witness(self):
        report = find_witnesses(CellSpec(3, 6))
        assert report.total_classes == 90
        assert [w.witness for w in report.witnesses] == [(1, 2, 3, 1, 2, 3)]

    def test_below_minimal_length_no_witness(self):
        report = find_witnesses(CellSpec(3, 5))
        assert report.total_classes == 25
        assert report.witnesses == ()

    def test_next_minimal_count(self):
        report = find_witnesses(CellSpec(3, 7))
        assert report.total_classes == 301
        assert len(report.witnesses) == 12

    def test_witness_predicate(self):
        assert is_witness((1, 2, 3, 1, 2, 3), 3)
        assert not is_witness((1, 1, 2, 2), 2)

    def test_witnesses_sorted_and_distinct(self):
        witnesses = [w.witness for w in find_witnesses(CellSpec(3, 7)).witnesses]
        assert witnesses == sorted(set(witnesses))

    def test_profiles(self, capsys):
        # The profile fields are derived where they are printed: in the records.
        main(["--format", "records", "--jobs", "1",
              "enumerate", "--n", "3", "--length", "7", "--witnesses"])
        profiles = json.loads(capsys.readouterr().out)["payload"]["witnesses"]
        assert len(profiles) == 12
        for prof in profiles:
            assert sorted(prof["multiplicities"].values()) == [2, 2, 3]
            assert prof["multiplicities"][prof["triple_letter"]] == 3
            assert prof["family"] in {"head-triple", "tail-heavy", "prefix-heavy"}
        head = [prof for prof in profiles if prof["family"] == "head-triple"]
        assert head and all(prof["first_letter_mult"] == 3 for prof in head)

    @pytest.mark.parametrize("word", [
        "aabbcc",  # no triple letter
        "abbba",  # b sits wholly before the second a
        "aabbbcc",  # b sits wholly after the second a
    ])
    def test_no_family_outside_the_three(self, word):
        assert classify_family(parse(word)) is None

    def test_no_family_tag_at_minimal_length(self):
        report = find_witnesses(CellSpec(3, 6))
        assert report.witnesses[0].family is None

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError):
            find_witnesses(CellSpec(3, 6), jobs=jobs)

    def test_jobs_clamped_to_cpu_count(self, no_pool):
        # jobs has no effect: a huge value still searches in this process.
        report = find_witnesses(CellSpec(3, 7), jobs=10**6)
        assert len(report.witnesses) == comb(4, 2) + 2 * comb(3, 2)

    def test_parallel_equals_sequential(self, no_pool):
        # Every search runs in one process, whatever jobs says.
        for cell in (CellSpec(3, 10), CellSpec(4, 9), CellSpec(5, 11)):
            one = find_witnesses(cell, jobs=1)
            two = find_witnesses(cell, jobs=2)
            assert two.total_classes == one.total_classes
            assert [w.witness for w in two.witnesses] == [w.witness for w in one.witnesses]

    @pytest.mark.parametrize("n,length", ORACLE_CELLS)
    def test_quotient_search_equals_full_scan(self, n, length):
        cell = CellSpec(n, length)
        report = find_witnesses(cell)
        assert [w.witness for w in report.witnesses] == full_scan_witnesses(cell)
        assert report.total_classes == stirling2(length, n)

    def test_n6_next_minimal_cell(self):
        report = find_witnesses(CellSpec(6, 13))
        assert report.total_classes == stirling2(13, 6) == 9_321_312
        assert len(report.witnesses) == 51
        tally = Counter(w.family for w in report.witnesses)
        assert tally == {"tail-heavy": 15, "prefix-heavy": 15, "head-triple": 21}


class TestQuotient:
    @pytest.mark.parametrize("n,length", [(2, 6), (3, 8), (4, 9)])
    def test_run_free_classes_match_filtered_cells(self, n, length):
        # Run-free words with every letter at least twice, from the full cells.
        want = sorted(
            (
                w
                for l in range(2 * n, length + 1)
                for w in canonical_partitions(CellSpec(n, l))
                if truncate(w) == w and min(Counter(w).values()) >= 2
            ),
            key=lambda w: (len(w), w),
        )
        assert list(run_free_classes(CellSpec(n, length))) == want

    @pytest.mark.parametrize("max_len", range(1, 9))
    def test_all_canonical_upto_is_every_rgs_word(self, max_len):
        stream = list(all_canonical_upto(max_len))
        assert len(stream) == sum(
            stirling2(l, n) for l in range(1, max_len + 1) for n in range(1, l + 1)
        )
        assert stream == sorted(cells_upto(max_len), key=lambda w: (len(w), w))

    @pytest.mark.parametrize("max_len", range(1, 9))
    def test_run_free_upto_is_truncation_quotient(self, max_len):
        stream = list(run_free_upto(max_len))
        assert len(set(stream)) == len(stream)
        assert set(stream) == {truncate(p) for p in cells_upto(max_len)}
        assert stream == sorted(stream, key=lambda w: (len(w), w))
        per_length = Counter(len(w) for w in stream)
        assert [per_length[l] for l in range(1, max_len + 1)] == bell_numbers(max_len)

    @pytest.mark.parametrize("length", range(1, 11))
    def test_run_expansions_match_combinations(self, length):
        # Every run-free word over <= 4 letters of length <= 6, canonical or not.
        words = [
            w for l in range(1, 7) for w in product(range(1, 5), repeat=l) if truncate(w) == w
        ]
        for word in words:
            assert list(run_expansions(word, length)) == list(combination_expansions(word, length))
        assert list(run_expansions((3,), length)) == [(3,) * length]
        assert list(run_expansions([2, 1], length)) == [
            (2,) * k + (1,) * (length - k) for k in range(1, length)
        ]
        assert all(list(run_expansions(w, length)) == [] for w in words if len(w) > length)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 9))
    def test_run_expansions(self, letters, length):
        word = truncate(letters)
        expansions = list(run_expansions(word, length))
        assert len(set(expansions)) == len(expansions)
        assert all(len(w) == length and truncate(w) == word for w in expansions)
        if len(word) <= length:
            assert len(expansions) == comb(length - 1, len(word) - 1)


class TestWitnessTable:
    def test_rows(self):
        rows = witness_table(3, 3, l_offset_max=1)
        assert (3, 6, 90, 1) in rows
        assert (3, 7, 301, 12) in rows
        lengths = [r[1] for r in rows]
        assert lengths == list(range(3, 8))

    def test_empty_length_range_rejected(self):
        # L in [3, 2*3 - 4] is empty at N = 3, though not at N = 4.
        with pytest.raises(ValueError, match="empty L-range at N=3: 3..2"):
            witness_table(3, 4, l_offset_max=-4)
        assert witness_table(3, 3, l_offset_max=-3) == [(3, 3, 1, 0)]
