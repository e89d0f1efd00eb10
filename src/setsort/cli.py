"""Command-line front end.

Subcommands: apply, trace, depth, stats, enumerate, verify.  The checks
that verify offers, their order in ``verify all`` and the N each accepts
come from ``verification.CHECKS``.  Output comes in three encodings
selected by --format: human text (default), line-delimited JSON records,
or CSV (enumerate only).  Human text and records come from one payload
per result, printed through ``_show``.  Exit codes: 0 success, 1 verification
failure / never-sorts under --strict, 2 usage error (an N-range below a
check's least N included), 3 indeterminate depth.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from typing import Iterable, Iterator

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


def _show(args, payload: dict, lines: Iterable[object]) -> None:
    """The one output path: the command's record, or its human ``lines``.

    ``lines`` is consumed only when printed, so a lazy iterable costs a
    records query nothing.
    """
    if args.format == "records":
        emit_record(args.command, payload)
    else:
        print(*lines, sep="\n")


@contextmanager
def usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Exit 2 with ``error: ...`` on a ValueError, 3 on a capped depth."""
    try:
        yield
    except DepthIndeterminateError as exc:
        parser.exit(EXIT_INDETERMINATE, f"indeterminate (cap): {exc}\n")
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")


def _parse_sigma(text: str) -> Pattern:
    return Pattern(words.parse(text))


def cmd_apply(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    out = words.format_word(iterate(p, sigma, args.iterations))
    _show(args, {
        "input": words.format_word(p),
        "sigma": str(sigma),
        "iterations": args.iterations,
        "output": out,
    }, [out])
    return EXIT_OK


def cmd_trace(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    t = trace(p, sigma)
    out = words.format_word(t.output)
    _show(args, {
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
        "output": out,
    }, chain(t.events, [f"output: {out}"]))
    return EXIT_OK


def cmd_depth(args) -> int:
    p = words.parse(args.partition)
    sigma = _parse_sigma(args.sigma)
    payload = {"input": words.format_word(p), "sigma": str(sigma)}
    try:
        result = sorting_depth(p, sigma, cap=args.cap)
    except DepthIndeterminateError as exc:
        _show(args, {**payload, "status": "indeterminate"}, [f"indeterminate (cap): {exc}"])
        return EXIT_INDETERMINATE
    payload["status"] = "sorted" if result.sorts else "never-sorts"
    payload["depth"] = result.depth
    _show(args, payload, [result.depth if result.sorts else "never-sorts (cycle)"])
    return EXIT_FAIL if args.strict and not result.sorts else EXIT_OK


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
    _show(args, payload, (f"{key}: {value}" for key, value in payload.items()))
    return EXIT_OK


def _profile_payload(prof: enumeration.WitnessProfile) -> dict:
    """A witness's record: its letters' multiplicities, the unique
    multiplicity-3 letter (if there is exactly one) and its family tag."""
    mult = Counter(prof.witness)
    triples = [a for a, m in mult.items() if m == 3]
    return {
        "witness": words.format_word(prof.witness),
        "multiplicities": {words.format_word((a,)): m for a, m in sorted(mult.items())},
        "triple_letter": words.format_word(triples) if len(triples) == 1 else None,
        "first_letter_mult": mult[prof.witness[0]],
        "family": prof.family,
    }


def cmd_enumerate(args) -> int:
    cell = enumeration.CellSpec(args.n, args.length)
    report = enumeration.find_witnesses(cell)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n_letters", "length", "witness", "family"])
        for prof in report.witnesses:
            writer.writerow([cell.n_letters, cell.length,
                             words.format_word(prof.witness), prof.family or ""])
        return EXIT_OK
    payload = {
        "n_letters": cell.n_letters,
        "length": cell.length,
        "total_classes": report.total_classes,
        "witness_count": len(report.witnesses),
    }
    if args.witnesses:
        payload["witnesses"] = [_profile_payload(w) for w in report.witnesses]
    _show(args, payload, chain(
        [f"cell N={cell.n_letters} L={cell.length}: "
         f"{report.total_classes} classes, {len(report.witnesses)} witnesses"],
        (f"  {w['witness']}" + (f" [{w['family']}]" if w["family"] else "")
         for w in payload.get("witnesses", ())),
    ))
    return EXIT_OK


SUITE_NAMES = ["all", *verification.CHECKS]


def cmd_verify(args) -> int:
    suite = verification.SuiteRun(
        args.n_min, args.n_max, args.corpus_len, args.bound_len,
        sigma=_parse_sigma(args.sigma), cap=args.cap,
    )
    passed = True
    for result in suite.run(verification.CHECKS if args.suite == "all" else [args.suite]):
        passed = passed and result.passed
        c = result.counterexample
        _show(args, {**vars(result), "counterexample": None if c is None else words.format_word(c)},
             [result.summary()])
        sys.stdout.flush()  # a long run shows each result when it is found
    return EXIT_OK if passed else EXIT_FAIL


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Parsing leaves it unchanged: each call fills a fresh Namespace, and
    ``main`` edits only that.
    """
    parser = argparse.ArgumentParser(
        prog="setsort",
        description="Pattern-avoiding stack sorting of set partitions.",
    )
    parser.add_argument(
        "--format", choices=["human", "records", "csv"], default="human",
        help="output encoding (csv applies to enumerate only)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted for compatibility; every search runs in one process",
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
    if args.format == "csv" and args.command != "enumerate":
        parser.exit(EXIT_USAGE, "error: --format csv applies to enumerate only\n")
    if getattr(args, "n_single", None) is not None:
        args.n_min = args.n_max = args.n_single
    with usage_errors(parser):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
