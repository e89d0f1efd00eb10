#!/usr/bin/env python3
"""Histogram of sorting depths over all canonical words up to a length.

Depth t means the word first becomes sorted after t aba passes; the
maximum observed depth at each length never exceeds the distinct-letter
count.

Usage: python scripts/depth_histogram.py [--max-len 9]
"""

import argparse
from collections import Counter

from setsort.cli import usage_errors
from setsort.machine import sorting_depth
from setsort.verification import all_canonical_upto


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=9)
    args = parser.parse_args()

    with usage_errors(parser):
        hist = Counter(sorting_depth(w).depth for w in all_canonical_upto(args.max_len))
    total = sum(hist.values())
    print(f"{total} canonical words, length <= {args.max_len}")
    for depth in sorted(hist):
        print(f"depth {depth}: {hist[depth]}")


if __name__ == "__main__":
    main()
