#!/usr/bin/env python3
"""Histogram of sorting depths over all canonical words up to a length.

Depth t means the word first becomes sorted after t aba passes; the
maximum observed depth at each length never exceeds the distinct-letter
count.

Only run-free words go through the machine: a word has the depth of its
truncation (trunc-commute), and a run-free word of length l is the
truncation of exactly C(L, l) canonical words of length <= L, its weight.

Usage: python scripts/depth_histogram.py [--max-len 9]
"""

import argparse
from collections import Counter
from math import comb

from setsort.cli import usage_errors
from setsort.enumeration import run_free_upto
from setsort.machine import aba_depth


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=9)
    args = parser.parse_args()

    hist = Counter()
    with usage_errors(parser):
        for w in run_free_upto(args.max_len):
            hist[aba_depth(w)] += comb(args.max_len, len(w))
    total = sum(hist.values())
    print(f"{total} canonical words, length <= {args.max_len}")
    for depth in sorted(hist):
        print(f"depth {depth}: {hist[depth]}")


if __name__ == "__main__":
    main()
