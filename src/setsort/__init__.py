"""Deterministic pattern-avoiding stack sorting of set partitions.

Words are tuples of positive integer letter-ids; canonical representatives
are restricted growth strings.  The machine module runs single stack
passes, the enumeration module scans (N, L) cells for words that survive
N - 1 aba passes unsorted, and the verification module re-derives the
published witness counts exhaustively.
"""

from .words import (
    Word,
    ParseError,
    canonicalize,
    clumped_count,
    format_word,
    is_sorted,
    mcount,
    parse,
    reverse,
    truncate,
)
from .machine import (
    ABA,
    DepthResult,
    Pattern,
    Trace,
    TraceEvent,
    apply_phi,
    apply_phi_aba,
    iterate,
    sorting_depth,
    trace,
)
from .enumeration import (
    CellSpec,
    WitnessProfile,
    WitnessReport,
    canonical_partitions,
    find_witnesses,
    stirling2,
    witness_table,
)
from .verification import CheckResult, run_suite

__all__ = [
    "ABA",
    "CellSpec",
    "CheckResult",
    "DepthResult",
    "ParseError",
    "Pattern",
    "Trace",
    "TraceEvent",
    "Word",
    "WitnessProfile",
    "WitnessReport",
    "apply_phi",
    "apply_phi_aba",
    "canonical_partitions",
    "canonicalize",
    "clumped_count",
    "find_witnesses",
    "format_word",
    "is_sorted",
    "iterate",
    "mcount",
    "parse",
    "reverse",
    "run_suite",
    "sorting_depth",
    "stirling2",
    "trace",
    "truncate",
    "witness_table",
]
