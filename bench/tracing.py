"""Per-layer tracing of setsort, installed from outside the package.

``install()`` replaces chosen functions of ``setsort.words``, ``machine``,
``enumeration`` and ``verification`` by wrappers that count calls and their
inclusive time (tracing cost included).  A function is replaced under every
name any setsort module binds it to, so calls between layers are seen as
well as the benchmark's own.  Nothing under ``src/`` changes.

Pool workers are forked with the wrappers already in place.  The shard
wrapper hands each worker's counter deltas back inside the pickled shard
result, and unpickling in the parent merges them, so one set of counters
covers the whole process tree.  This relies on the pool forking; under a
spawning pool only the parent's side would be counted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter_ns

# (module, function, counter key) for every plainly timed function.
TIMED = (
    ("words", "is_sorted", "words.is_sorted"),
    ("words", "clumped_count", "words.clumped_count"),
    ("words", "truncate", "words.truncate"),
    ("words", "canonicalize", "words.canonicalize"),
    ("machine", "apply_phi_aba", "machine.apply_phi_aba"),
    ("machine", "_pass_generic", "machine.generic_pass"),
    ("machine", "sorting_depth", "machine.sorting_depth"),
    ("enumeration", "profile_witness", "enumeration.profile_witness"),
)

# verification function -> check name, as ``setsort verify`` spells it.
CHECKS = {
    "check_lemma_decomposition": "lemma-decomposition",
    "check_clump_growth": "clump-growth",
    "check_trunc_commute": "trunc-commute",
    "check_upper_bound": "upper-bound",
    "check_theorem_minimal": "theorem-minimal",
    "check_theorem_count": "theorem-count",
    "check_multiplicity_profile": "multiplicity-profile",
    "check_family_counts": "family-counts",
    "check_cor_lockstep": "lockstep",
    "probe_sigma": "probe-sigma",
}

MAX_PASSES = 5  # exit_after_passes buckets 0..4, enough for N <= 5

_active: Tracer | None = None


class Tracer:
    def __init__(self):
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.shards: list[tuple[int, int, int]] = []  # (start ns, end ns, classes)
        self.cells: list[dict] = []  # one per find_witnesses call
        self.check: str | None = None  # verification check now running
        self.pid = os.getpid()


def _replace(package, orig, wrapper) -> None:
    """Rebind ``orig`` to ``wrapper`` under every name a setsort module gives it."""
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def _timed(counts, key, fn):
    calls, ns = key + ".calls", key + ".ns"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[ns] += _clock() - t0
            counts[calls] += 1

    return wrapper


def _stream(tracer, fn):
    """Time each step of the RGS stream, not the consumer's work between steps."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t0 = _clock()
            try:
                word = next(it)
            except StopIteration:
                counts["enumeration.stream.ns"] += _clock() - t0
                return
            counts["enumeration.stream.ns"] += _clock() - t0
            counts["enumeration.stream.words"] += 1
            if tracer.check:
                counts[f"verification.{tracer.check}.classes"] += 1
            yield word

    return wrapper


def _is_witness(counts, fn):
    """Histogram of aba passes made before is_witness returns."""

    @functools.wraps(fn)
    def wrapper(word, n_letters):
        before = counts["machine.apply_phi_aba.calls"]
        t0 = _clock()
        result = fn(word, n_letters)
        counts["enumeration.is_witness.ns"] += _clock() - t0
        counts["enumeration.is_witness.calls"] += 1
        passes = counts["machine.apply_phi_aba.calls"] - before
        counts[f"machine.exit_after_passes.{passes}"] += 1
        counts["enumeration.witnesses"] += bool(result)
        return result

    return wrapper


def _check(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer, tracer.check = tracer.check, name
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[f"verification.{name}.ns"] += _clock() - t0
            tracer.check = outer

    return wrapper


class _ShardResult(tuple):
    """A worker's shard result that carries the worker's counters home."""

    def __reduce__(self):
        return _merge_shard, (tuple(self), self.delta, self.span)


def _merge_shard(result, delta, span):
    # Runs in the parent's result thread while its main thread waits on the
    # pool, so nothing else writes the counters meanwhile.
    if _active is not None:
        for key, value in delta.items():
            _active.counts[key] += value
        _active.shards.append(span)
    return result


def _shard(tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(args):
        in_worker = os.getpid() != tracer.pid
        before = dict(counts) if in_worker else None
        t0 = _clock()
        result = fn(args)
        span = (t0, _clock(), result[0])
        if not in_worker:
            tracer.shards.append(span)
            return result
        out = _ShardResult(result)
        out.delta = {k: v - before.get(k, 0) for k, v in counts.items() if v != before.get(k, 0)}
        out.span = span
        return out

    return wrapper


def _cell(tracer, fn):
    """Per find_witnesses call: wall time, its shards, and the pool's overhead."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(cell, jobs=1, *args, **kwargs):
        first_shard = len(tracer.shards)
        profile_before = counts["enumeration.profile_witness.ns"]
        t0 = _clock()
        report = fn(cell, jobs, *args, **kwargs)
        wall = _clock() - t0
        shards = tracer.shards[first_shard:]
        span = max(s[1] for s in shards) - min(s[0] for s in shards) if shards else 0
        profile = counts["enumeration.profile_witness.ns"] - profile_before
        tracer.cells.append({
            "jobs": jobs,
            "wall_ns": wall,
            "classes": sum(s[2] for s in shards),
            "largest_shard": max((s[2] for s in shards), default=0),
            "shard_ns": sum(s[1] - s[0] for s in shards),
            "overhead_ns": wall - span - profile,
        })
        return report

    return wrapper


def _counting(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(package) -> Tracer:
    """Wrap the traced functions of an imported setsort package; return the tracer."""
    global _active
    tracer = _active = Tracer()
    counts = tracer.counts
    mods = {name: sys.modules[f"{package.__name__}.{name}"]
            for name in ("words", "machine", "enumeration", "verification")}
    for mod, fname, key in TIMED:
        orig = getattr(mods[mod], fname)
        _replace(package, orig, _timed(counts, key, orig))
    enum, verify = mods["enumeration"], mods["verification"]
    _replace(package, enum.canonical_partitions, _stream(tracer, enum.canonical_partitions))
    _replace(package, enum.is_witness, _is_witness(counts, enum.is_witness))
    _replace(package, enum._search_shard, _shard(tracer, enum._search_shard))
    _replace(package, enum.find_witnesses, _cell(tracer, enum.find_witnesses))
    verify.find_witnesses = _counting(counts, "verification.cell_scans", verify.find_witnesses)
    for fname, name in CHECKS.items():
        orig = getattr(verify, fname)
        _replace(package, orig, _check(tracer, name, orig))
    return tracer


def _per_call_us(counts, key) -> float:
    calls = counts.get(key + ".calls", 0)
    return counts.get(key + ".ns", 0) / calls / 1e3 if calls else 0.0


def layer_metrics(tracer: Tracer, nproc: int) -> dict[str, tuple[float | None, str]]:
    """name -> (value, unit) for every per-layer metric; 0 where a layer was idle."""
    c = dict(tracer.counts)
    m: dict[str, tuple[float | None, str]] = {}
    for key, with_calls in (
        ("words.is_sorted", True), ("words.clumped_count", False),
        ("words.truncate", False), ("words.canonicalize", True),
        ("machine.apply_phi_aba", True), ("machine.generic_pass", True),
        ("machine.sorting_depth", False), ("enumeration.is_witness", False),
        ("enumeration.profile_witness", True),
    ):
        m[key + "_us"] = (_per_call_us(c, key), "us")
        if with_calls:
            m[key + "_calls"] = (c.get(key + ".calls", 0), "count")
    hist = [c.get(f"machine.exit_after_passes.{k}", 0) for k in range(MAX_PASSES)]
    for k, n in enumerate(hist):
        m[f"machine.exit_after_passes.{k}"] = (n, "count")
    tested = c.get("enumeration.is_witness.calls", 0)
    passes = sum(k * n for k, n in enumerate(hist))
    m["machine.passes_per_word"] = (passes / tested if tested else 0.0, "passes/word")
    streamed = c.get("enumeration.stream.words", 0)
    m["enumeration.stream_us_per_word"] = (
        c.get("enumeration.stream.ns", 0) / streamed / 1e3 if streamed else 0.0, "us")
    m["enumeration.classes_scanned"] = (tested, "count")
    m["enumeration.witness_ratio"] = (
        c.get("enumeration.witnesses", 0) / tested if tested else 0.0, "ratio")

    cells = tracer.cells
    shard_s = [(end - start) / 1e9 for start, end, _ in tracer.shards]
    biggest = max(cells, key=lambda cell: cell["classes"], default=None)
    busy = sum(cell["jobs"] * cell["wall_ns"] for cell in cells)
    m["enumeration.shard_count"] = (len(shard_s), "count")
    m["enumeration.largest_shard_share"] = (
        biggest["largest_shard"] / biggest["classes"] if biggest and biggest["classes"] else 0.0,
        "ratio")
    m["enumeration.shard_s.max"] = (max(shard_s, default=0.0), "s")
    m["enumeration.shard_s.sum"] = (sum(shard_s), "s")
    m["enumeration.parallel_efficiency"] = (
        None if nproc < 2 else sum(cell["shard_ns"] for cell in cells) / busy if busy else 0.0,
        "ratio")
    m["enumeration.pool_overhead_s"] = (sum(cell["overhead_ns"] for cell in cells) / 1e9, "s")

    for name in CHECKS.values():
        m[f"verification.{name}_s"] = (c.get(f"verification.{name}.ns", 0) / 1e9, "s")
        m[f"verification.{name}.classes"] = (c.get(f"verification.{name}.classes", 0), "count")
    m["verification.cell_scans"] = (c.get("verification.cell_scans", 0), "count")
    return m
