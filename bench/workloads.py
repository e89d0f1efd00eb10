"""The four benchmark workloads, their pinned answers and their oracles.

Each workload builds its inputs up front (that is part of set-up), then
``execute()`` makes the timed calls into setsort and keeps the raw outputs,
and ``check()`` compares those outputs with answers the benchmark holds or
computes itself.  Checking runs after timing, and after the per-layer
counters are read, so oracle calls into setsort never show in a metric.

setsort is called through module attributes (``enumeration.find_witnesses``,
not a name imported from it), so the wrappers that tracing installs on
those attributes see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from math import comb

from setsort import cli, enumeration, machine, verification

# (N, L) -> (witness count, sha256 of the witness list in output order,
# one word per line, letters comma-separated).  Computed once from the
# full-cell scan; the class count of each cell is checked against S(L, N)
# from ``stirling`` below instead of being pinned.
PINNED_CELLS = {
    (3, 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 4): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 5): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 6): (1, "02ba9b0f2b0e053e37582577e88cf5c21e5079f6e1c2321cd03c5c88362e39bb"),
    (3, 7): (12, "0b7129defc40b6885c10f64e6a054a8fca07f0afbfaa7eb1b14b1489befa2e1d"),
    (3, 8): (81, "2cce9f70e42341dc57cf8f9a5c249ff499fb56b4fc8c6450b5f93a41f6c58f35"),
    (3, 9): (414, "b453f1946929664ecf62a5c49514b629829e9f9db76b6ff44924efef4eec6b09"),
    (3, 10): (1797, "8dee208525e597b46bde4e996d5e35a019288e69577d5e990446a208a98677d3"),
    (3, 11): (7020, "8c3b017d1e62ee42a63e94a8d971f1e10b63ecdf4668369b0ba1367c5449719b"),
    (3, 12): (25525, "13e840475b1d1725716d9031a3e7aba40bc7bbe0f9e98fe39d69ef26dfd43f69"),
    (4, 4): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 5): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 6): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 7): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 8): (1, "d0a7d91b701c05768059de8f8e074f0f7306d0547cbb71354df982f1a139e119"),
    (4, 9): (22, "5cbeb55f9f2b965bdf705917a3ed25a64834e851cb550061c31f6bc7de3bbf6a"),
    (5, 5): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 6): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 7): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 8): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 9): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (5, 10): (1, "9f20057f1a9c2d9c9612ea04f4202a13f40475115a7a123782e7acd9dcd2a193"),
    (5, 11): (35, "55f0ec785b8ac1db5166ebeaae676c1ab1101fad8bbf6e7ed2515c4140aca286"),
}

SWEEP_CELLS = tuple(
    [(3, n) for n in range(3, 13)]
    + [(4, n) for n in range(4, 10)]
    + [(5, n) for n in range(5, 12)]
)

SUITE_ARGS = {"n_min": 3, "n_max": 4, "corpus_len": 9, "bound_len": 10}
SUITE_CHECKS = (
    "lemma-decomposition", "clump-growth", "trunc-commute", "upper-bound",
    "theorem-minimal", "theorem-count", "multiplicity-profile", "family-counts",
    "theorem-minimal", "theorem-count", "multiplicity-profile", "family-counts",
    "lockstep", "probe-sigma-ab",
)

QUERY_COMMANDS = ("apply", "trace", "depth", "stats")
QUERY_SIGMAS = ("aba", "abc", "abab", "abac", "abcb")
QUERIES_PER_REP = 1500
# Exit codes the CLI documents; 3 (indeterminate depth) is a valid answer.
QUERY_EXIT_CODES = {0, 3}


def stirling(length: int, n_letters: int) -> int:
    """S(L, N) by the triangle recurrence, independent of setsort.stirling2."""
    row = [1] + [0] * n_letters  # S(0, k)
    for _ in range(length):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n_letters + 1)]
    return row[n_letters]


def bell_upto(max_len: int) -> int:
    """Number of canonical words of every length 1..max_len."""
    return sum(stirling(n, k) for n in range(1, max_len + 1) for k in range(1, n + 1))


def closed_form(n: int) -> int:
    """Witness count at L = 2N+1: C(N+1,2) + 2 C(N,2)."""
    return comb(n + 1, 2) + 2 * comb(n, 2)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def witness_digest(witnesses) -> str:
    text = "\n".join(",".join(map(str, w)) for w in witnesses)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Inputs built in __init__; execute() is timed; check() returns failure messages."""

    jobs = 1  # widest process pool the workload starts
    # A batch workload is one query: the user waits for the whole scan or
    # suite.  Otherwise each call into setsort is a query of its own.
    batch = True

    def inputs(self):
        raise NotImplementedError

    def classes(self) -> int:
        """Word classes the workload covers per repetition (not those visited)."""
        raise NotImplementedError

    def execute(self) -> list[tuple[str, float]]:
        """Run the timed calls; return (label, seconds) for each call into setsort."""
        raise NotImplementedError

    def check(self) -> tuple[int, list[str]]:
        """(ops attempted, failure messages) for the last execute()."""
        raise NotImplementedError


class CellWorkload(Workload):
    def __init__(self, cells, jobs: int):
        self.cells = [enumeration.CellSpec(n, length) for n, length in cells]
        self.jobs = jobs
        self.found = []  # per cell: (classes, witness count, digest, first witness)

    def inputs(self):
        return {"cells": [[c.n_letters, c.length] for c in self.cells], "jobs": self.jobs}

    def classes(self) -> int:
        return sum(stirling(c.length, c.n_letters) for c in self.cells)

    def execute(self):
        # Keep only what check() needs, so the process does not grow with
        # every cell's witness profiles (a sweep writes a row and moves on).
        self.found = []
        calls = []
        for cell in self.cells:
            t0 = time.perf_counter()
            report = enumeration.find_witnesses(cell, jobs=self.jobs)
            calls.append(("find_witnesses", time.perf_counter() - t0))
            witnesses = [p.witness for p in report.witnesses]
            self.found.append((report.total_classes, len(witnesses),
                               witness_digest(witnesses), witnesses[:1]))
            del report, witnesses
        return calls

    def check(self):
        failures = []
        for cell, (classes, count, found_digest, first) in zip(self.cells, self.found):
            n, length = cell.n_letters, cell.length
            want_count, want_digest = PINNED_CELLS[(n, length)]
            problems = []
            if classes != stirling(length, n):
                problems.append(f"classes {classes} != S(L,N) {stirling(length, n)}")
            if count != want_count:
                problems.append(f"witnesses {count} != {want_count}")
            elif found_digest != want_digest:
                problems.append("witness list digest differs")
            if length == 2 * n and (count, first) != (1, [tuple(range(1, n + 1)) * 2]):
                problems.append("length-2N witnesses are not exactly (1..N)^2")
            if length == 2 * n + 1 and count != closed_form(n):
                problems.append(f"count {count} != C(N+1,2)+2C(N,2) = {closed_form(n)}")
            if problems:
                failures.append(f"cell ({n}, {length}): " + "; ".join(problems))
        return len(self.cells), failures


class VerifySuite(Workload):
    def __init__(self):
        self.results = []

    def inputs(self):
        return dict(SUITE_ARGS)

    def classes(self) -> int:
        # Three corpus checks over lengths <= corpus_len, upper-bound over
        # lengths <= bound_len, every cell a theorem check scans, and the
        # probe-sigma corpus (lengths <= 4, fixed inside run_suite).
        n_min, n_max = SUITE_ARGS["n_min"], SUITE_ARGS["n_max"]
        cells = sum(
            stirling(length, n)
            for n in range(n_min, n_max + 1)
            for length in range(n, 2 * n + 2)
        )
        return (
            3 * bell_upto(SUITE_ARGS["corpus_len"])
            + bell_upto(SUITE_ARGS["bound_len"])
            + cells
            + bell_upto(4)
        )

    def execute(self):
        t0 = time.perf_counter()
        self.results = verification.run_suite(**SUITE_ARGS)
        return [("run_suite", time.perf_counter() - t0)]

    def check(self):
        failures = [f"{r.name} [{r.scope}] did not pass" for r in self.results if not r.passed]
        names = tuple(r.name for r in self.results)
        if names != SUITE_CHECKS:
            failures.append(f"suite ran {names}, expected {SUITE_CHECKS}")
        return max(len(self.results), len(SUITE_CHECKS)), failures


def make_queries(seed: int, count: int = QUERIES_PER_REP) -> list[list[str]]:
    """A seeded stream of single-word CLI invocations (argv lists)."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        command = rng.choice(QUERY_COMMANDS)
        alphabet = "abcd"[: rng.randint(2, 4)]
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(8, 14)))
        argv = ["--format", "records", command, word]
        if command != "stats":
            argv += ["--sigma", rng.choice(QUERY_SIGMAS)]
        if command == "apply":
            argv += ["--iterations", str(rng.randint(1, 3))]
        queries.append(argv)
    return queries


def _parse(text: str) -> tuple[int, ...]:
    return tuple(ord(c) - ord("a") + 1 for c in text)


def _fmt(word) -> str:
    return "".join(chr(ord("a") + x - 1) for x in word)


def _runs(word) -> list[int]:
    return [x for i, x in enumerate(word) if i == 0 or word[i - 1] != x]


def _is_sorted(word) -> bool:
    return len(_runs(word)) == len(set(word))


def _canonical(word) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(x, len(relabel) + 1) for x in word)


def _generic_pass(word, sigma) -> tuple[int, ...]:
    return machine.apply_phi_generic(word, machine.Pattern(_parse(sigma)))


def _check_depth(p, sigma: str, payload: dict, code: int) -> str | None:
    """Orbit oracle: the generic pass with the benchmark's own sortedness test."""
    cap = len(set(p)) if _canonical(_parse(sigma)) == (1, 2, 1) else 4 * len(p)
    status = payload.get("status")
    if code == 3:
        if status != "indeterminate":
            return f"exit 3 with status {status}"
    elif status not in ("sorted", "never-sorts"):
        return f"exit {code} with status {status}"
    orbit = [tuple(p)]
    for _ in range(cap):
        if _is_sorted(orbit[-1]) or _canonical(orbit[-1]) in map(_canonical, orbit[:-1]):
            break
        orbit.append(_generic_pass(orbit[-1], sigma))
    last = orbit[-1]
    if status == "sorted":
        t = payload.get("depth")
        if not (isinstance(t, int) and t == len(orbit) - 1 and _is_sorted(last)):
            return f"depth {t}: iterate {t} should be the first sorted one"
    elif status == "never-sorts":
        if _is_sorted(last) or _canonical(last) not in map(_canonical, orbit[:-1]):
            return "never-sorts but the orbit sorts or does not repeat within the cap"
    elif _is_sorted(last) or len({_canonical(w) for w in orbit}) != len(orbit):
        return "indeterminate but the orbit sorts or repeats within the cap"
    return None


def check_query(argv: list[str], code: int, out: str) -> str | None:
    """None when the query's answer agrees with its oracle, else a message."""
    if code not in QUERY_EXIT_CODES:
        return code if isinstance(code, str) else f"exit code {code}"
    try:
        record = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON record"
    command, p = argv[2], _parse(argv[3])
    payload = record.get("payload", {})
    if record.get("command") != command:
        return f"record for {record.get('command')}"
    if command != "depth" and code != 0:
        return f"exit code {code}"
    sigma = argv[argv.index("--sigma") + 1] if "--sigma" in argv else None
    if command == "apply":
        w = p
        for _ in range(int(argv[argv.index("--iterations") + 1])):
            w = _generic_pass(w, sigma)
        if payload.get("output") != _fmt(w):
            return f"output {payload.get('output')} != generic route {_fmt(w)}"
    elif command == "trace":
        events = payload.get("events", [])
        want = _fmt(_generic_pass(p, sigma))
        pushes = sorted(e["letter"] for e in events if e["kind"] == "push")
        if payload.get("output") != want or not events or events[-1]["out"] != want:
            return f"trace output {payload.get('output')} != {want}"
        if len(events) != 2 * len(p) or pushes != sorted(argv[3]):
            return "trace does not push and pop each letter once"
    elif command == "depth":
        return _check_depth(p, sigma, payload, code)
    else:
        runs = _runs(p)
        multiplicity = Counter(p)
        clumped = {x for x in multiplicity if runs.count(x) == 1}
        nonclumped = next((x for x in p if x not in clumped), None)
        want = {
            "word": argv[3], "length": len(p), "distinct": len(multiplicity),
            "mcount": max(multiplicity.values()), "clumped": len(clumped),
            "nonclumped": _fmt((nonclumped,)) if nonclumped else None,
            "sorted": _is_sorted(p), "canonical": _fmt(_canonical(p)),
            "truncation": _fmt(runs), "reverse": argv[3][::-1],
        }
        if payload != want:
            return f"stats {payload} != {want}"
    return None


class WordQueries(Workload):
    """A closed loop with one client: each query is sent after the last returns."""

    batch = False

    def __init__(self, seed: int):
        self.queries = make_queries(seed)
        self.answers = []

    def inputs(self):
        return {"queries": self.queries}

    def classes(self) -> int:
        return len(self.queries)  # one word class per query

    def execute(self):
        self.answers = []
        calls = []
        for argv in self.queries:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a query that raises is a failed op
                    code = f"raised {exc!r}"
                elapsed = time.perf_counter() - t0
            calls.append((argv[2], elapsed))
            self.answers.append((code, buf.getvalue()))
        return calls

    def check(self):
        failures = []
        for argv, (code, out) in zip(self.queries, self.answers):
            try:
                problem = check_query(argv, code, out)
            except Exception as exc:  # a malformed record must count, not abort the run
                problem = f"oracle raised {exc!r}"
            if problem:
                failures.append(f"{' '.join(argv[2:])}: {problem}")
        return len(self.queries), failures


# name -> constructor taking the seed; only word-queries uses it.
WORKLOADS = {
    "cell-scan": lambda seed: CellWorkload([(5, 11)], jobs=1),
    "sweep-par": lambda seed: CellWorkload(SWEEP_CELLS, jobs=2),
    "verify-suite": lambda seed: VerifySuite(),
    "word-queries": WordQueries,
}
