"""Command-line front end.

Subcommands: apply, trace, depth, stats, enumerate, verify.  The checks
that verify offers, their order in ``verify all`` and the N each accepts
come from ``verification.CHECKS``.  Output comes in three encodings
selected by --format: human text (default), line-delimited JSON records,
or CSV for tabular payloads.  Exit codes: 0 success, 1 verification
failure / never-sorts under --strict, 2 usage error (an N-range below a
check's least N included), 3 indeterminate depth.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import enumeration, verification, words
from .machine import (
    DepthIndeterminateError,
    Pattern,
    iterate,
    sorting_depth,
    trace,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def emit_record(command: str, payload: dict) -> None:
    record = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    print(json.dumps(record, sort_keys=True))


def _parse_sigma(text: str) -> Pattern:
    return Pattern(words.parse(text))


def cmd_apply(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    out = iterate(p, sigma, args.iterations)
    if args.format == "records":
        emit_record("apply", {
            "input": words.format_word(p),
            "sigma": str(sigma),
            "iterations": args.iterations,
            "output": words.format_word(out),
        })
    else:
        print(words.format_word(out))
    return EXIT_OK


def cmd_trace(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    t = trace(p, sigma)
    if args.format == "records":
        emit_record("trace", {
            "input": words.format_word(p),
            "sigma": str(sigma),
            "events": [
                {
                    "kind": e.kind,
                    "letter": words.format_word((e.letter,)),
                    "stack": words.format_word(e.stack_after),
                    "out": words.format_word(e.output_after),
                }
                for e in t.events
            ],
            "output": words.format_word(t.output),
        })
    else:
        for e in t.events:
            print(e)
        print(f"output: {words.format_word(t.output)}")
    return EXIT_OK


def cmd_depth(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    try:
        result = sorting_depth(p, sigma, cap=args.cap)
    except DepthIndeterminateError as exc:
        if args.format == "records":
            emit_record("depth", {"input": words.format_word(p),
                                  "sigma": str(sigma), "status": "indeterminate"})
        else:
            print(f"indeterminate (cap): {exc}")
        return EXIT_INDETERMINATE
    if args.format == "records":
        emit_record("depth", {
            "input": words.format_word(p),
            "sigma": str(sigma),
            "status": "sorted" if result.sorts else "never-sorts",
            "depth": result.depth,
        })
    elif result.sorts:
        print(result.depth)
    else:
        print("never-sorts (cycle)")
    if not result.sorts and args.strict:
        return EXIT_FAIL
    return EXIT_OK


def cmd_stats(args) -> int:
    p = words.parse(args.partition)
    nc = words.leftmost_nonclumped(p)
    payload = {
        "word": words.format_word(p),
        "length": len(p),
        "distinct": words.n_distinct(p),
        "mcount": words.mcount(p),
        "clumped": words.clumped_count(p),
        "nonclumped": words.format_word((nc,)) if nc is not None else None,
        "sorted": words.is_sorted(p),
        "canonical": words.format_word(words.canonicalize(p)),
        "truncation": words.format_word(words.truncate(p)),
        "reverse": words.format_word(words.reverse(p)),
    }
    if args.format == "records":
        emit_record("stats", payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _profile_payload(prof: enumeration.WitnessProfile) -> dict:
    return {
        "witness": words.format_word(prof.witness),
        "multiplicities": {
            words.format_word((a,)): m for a, m in sorted(prof.multiplicities.items())
        },
        "triple_letter": (
            words.format_word((prof.triple_letter,)) if prof.triple_letter else None
        ),
        "first_letter_mult": prof.first_letter_mult,
        "family": prof.family,
    }


def cmd_enumerate(args) -> int:
    cell = enumeration.CellSpec(args.n, args.length)
    report = enumeration.find_witnesses(cell, jobs=args.jobs)
    if args.format == "records":
        payload = {
            "n_letters": cell.n_letters,
            "length": cell.length,
            "total_classes": report.total_classes,
            "witness_count": len(report.witnesses),
        }
        if args.witnesses:
            payload["witnesses"] = [_profile_payload(w) for w in report.witnesses]
        emit_record("enumerate", payload)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n_letters", "length", "witness", "family"])
        for prof in report.witnesses:
            writer.writerow([cell.n_letters, cell.length,
                             words.format_word(prof.witness), prof.family or ""])
    else:
        print(f"cell N={cell.n_letters} L={cell.length}: "
              f"{report.total_classes} classes, {len(report.witnesses)} witnesses")
        if args.witnesses:
            for prof in report.witnesses:
                family = f" [{prof.family}]" if prof.family else ""
                print(f"  {words.format_word(prof.witness)}{family}")
    return EXIT_OK


SUITE_NAMES = ["all", *verification.CHECKS]


def cmd_verify(args) -> int:
    if args.suite == "all":
        results = verification.run_suite(
            args.n_min, args.n_max, args.corpus_len, args.bound_len, jobs=args.jobs)
    else:
        results = verification.SuiteRun(
            args.n_min, args.n_max, args.corpus_len, args.bound_len, args.jobs,
            sigma=_parse_sigma(args.sigma), probe_len=args.corpus_len, cap=args.cap,
        ).run([args.suite])
    for result in results:
        if args.format == "records":
            emit_record("verify", {
                "name": result.name,
                "scope": result.scope,
                "passed": result.passed,
                "detail": result.detail,
                "counterexample": (
                    words.format_word(result.counterexample)
                    if result.counterexample is not None else None
                ),
                "expected": result.expected,
                "actual": result.actual,
            })
        else:
            print(result.summary())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setsort",
        description="Pattern-avoiding stack sorting of set partitions.",
    )
    parser.add_argument(
        "--format", choices=["human", "records", "csv"], default="human",
        help="output encoding (csv applies to enumerate only)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=os.cpu_count() or 1,
        help="worker processes for enumeration and verification (clamped to the CPU count)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="run one or more stack passes")
    p.add_argument("partition")
    p.add_argument("--sigma", default="aba")
    p.add_argument("--iterations", type=int, default=1)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("trace", help="push/pop event stream of one pass")
    p.add_argument("partition")
    p.add_argument("--sigma", default="aba")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("depth", help="least number of passes until sorted")
    p.add_argument("partition")
    p.add_argument("--sigma", default="aba")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the word never sorts")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("stats", help="word statistics")
    p.add_argument("partition")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enumerate", help="scan one (N, L) cell for witnesses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--witnesses", action="store_true",
                   help="list each witness with its profile")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run lemma/theorem checks")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--n", dest="n_single", type=int, default=None,
                   help="shorthand for --n-min N --n-max N")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--corpus-len", type=_positive_int, default=8)
    p.add_argument("--bound-len", type=_positive_int, default=9)
    p.add_argument("--sigma", default="ab", help="pattern for probe-sigma")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n_single", None) is not None:
        args.n_min = args.n_max = args.n_single
    try:
        return args.func(args)
    except DepthIndeterminateError as exc:
        parser.exit(EXIT_INDETERMINATE, f"indeterminate (cap): {exc}\n")
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
