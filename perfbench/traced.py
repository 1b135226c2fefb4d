"""The traced part: each workload's public permlcs calls, in process.

A pass makes the same calls as the workload's CLI commands on the same
inputs (the `step.*` spans group them per command), plus the finer calls
behind the per-layer metrics.  Spans are recorded from here, around each
call into a layer, and never from inside the library.  Only public names
are used, so refactors behind them do not break the benchmark.

Each iteration runs one traced pass and then the identical pass with
recording off; the difference of their walls is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

from permlcs import (
    Permutation,
    build_exact,
    build_general,
    build_hadamard_set,
    check_probabilistic_bound,
    code_report,
    compose,
    dumps_permset,
    invert,
    lcs_all_pairs,
    lcs_pair,
    lis,
    loads_permset,
    random_perm_set,
    read_permset,
    restrict,
    sample_lis,
    trial_rng,
    write_permset,
)

import workloads as wl
from oracle import MAX_ORACLE_N, lcs_quadratic
from stats import high_percentile, median

# Threads for the `lcs_all_pairs(..., threads=2)` probe, never above nproc.
PROBE_THREADS = min(2, os.cpu_count() or 1)


class Tracer:
    """Spans kept in memory: name, start, end, parent, workload and extras.

    With `enabled=False` every span is a no-op, which gives the untraced
    pass the same code path minus the recording.
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out


class Checks:
    """Counts checked operations and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.problems.append(f"{label}: got {got!r}, want {want!r}")


def rss_bytes() -> int:
    """Current resident set size of this process, 0 where /proc is missing."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


# -- pieces shared by the passes --

def _pairwise(t: Tracer, c: Checks, s, matrix, **attrs) -> None:
    """lcs_pair on every pair, checked against the matrix from lcs_all_pairs."""
    perms = list(s)
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            with t.span("subseq.lcs_pair", pair=f"{i}-{j}", **attrs):
                v = lcs_pair(perms[i], perms[j])
            c.expect(f"lcs_pair {i},{j}", v, matrix[i, j])


def _relabel_lis(t: Tracer, c: Checks, a, b, want: int, **attrs) -> None:
    """LCS through the public API: relabel a by positions in b, then LIS."""
    with t.span("perm.invert", **attrs):
        b_inv = invert(b)
    with t.span("perm.compose", **attrs):
        relabeled = compose(b_inv, a)
    word = relabeled.one_line
    with t.span("subseq.lis", **attrs):
        got = lis(word)
    c.expect("lis of the relabeled pair", got, want)


def _oracle(t: Tracer, c: Checks, s, rng: random.Random, out: dict) -> None:
    """Restrict a seed-chosen pair to m <= 2048 values and compare lcs_pair
    with the benchmark's own quadratic LCS."""
    perms = list(s)
    i, j = sorted(rng.sample(range(len(perms)), 2))
    n = perms[0].n
    m = n if n <= MAX_ORACLE_N else MAX_ORACLE_N - rng.randrange(MAX_ORACLE_N // 4)
    with t.span("oracle.check", pair=f"{i}-{j}", m=m):
        a, b = restrict(perms[i], m), restrict(perms[j], m)
        fast = lcs_pair(a, b)
        slow = lcs_quadratic(a.one_line, b.one_line)
    c.expect(f"oracle pair {i},{j} at m={m}", fast, slow)
    out["oracle"] = {"pair": [i, j], "m": m, "lcs_pair": fast, "quadratic": slow}


def _after_construct(t: Tracer, c: Checks, made, path: Path, out: dict) -> None:
    """One member through from_one_line, and the set through dumps/loads."""
    out["entries"] = made.k * made.n
    out["bytes"] = path.stat().st_size
    first = list(made)[0]
    images = first.one_line
    with t.span("perm.from_one_line"):
        again = Permutation.from_one_line(images)
    c.expect("from_one_line(one_line)", again == first, True)
    with t.span("fileio.dumps_permset"):
        text = dumps_permset(made)
    with t.span("fileio.loads_permset"):
        loaded = loads_permset(text)
    c.expect("loads(dumps(set)) members", list(loaded) == list(made), True)


def _verify_and_sweeps(t: Tracer, c: Checks, path: Path, want_max: int, want_min: int,
                       rng: random.Random, out: dict) -> None:
    """The verify step (read, lcs_all_pairs), then on the same set: the
    threads=2 sweep, every pair on its own, the relabel/LIS split on one
    pair and the oracle.  Only the set read back is alive, as in `verify`."""
    with t.span("step.verify"):
        with t.span("fileio.read_permset"):
            s = read_permset(path)
        with t.span("subseq.lcs_all_pairs"):
            matrix = lcs_all_pairs(s)
    c.expect("max pair", matrix.max_pair, want_max)
    c.expect("min pair", matrix.min_pair, want_min)
    with t.span("subseq.lcs_all_pairs_t2", threads=PROBE_THREADS):
        m2 = lcs_all_pairs(s, threads=PROBE_THREADS)
    c.expect("threaded matrix", m2.entries, matrix.entries)
    _pairwise(t, c, s, matrix)
    perms = list(s)
    i, j = sorted(rng.sample(range(len(perms)), 2))
    _relabel_lis(t, c, perms[i], perms[j], matrix[i, j], pair=f"{i}-{j}")
    _oracle(t, c, s, rng, out)
    pairs = len(matrix.off_diagonal())
    out["sweep"] = {"pairs": pairs, "elements": pairs * s.n, "max_piles": matrix.max_pair}


# -- the passes, one per workload --

def hadamard_pass(t: Tracer, c: Checks, seed: int, work: Path, out: dict) -> None:
    path = work / "traced.permset"
    gc.collect()
    rss0 = rss_bytes()
    with t.span("step.construct"):
        with t.span("hadamard.build_hadamard_set"):
            made = build_hadamard_set(wl.HADAMARD_K, wl.HADAMARD_S)
        out["rss_growth"] = rss_bytes() - rss0
        with t.span("fileio.write_permset"):
            write_permset(made, path)
    _after_construct(t, c, made, path, out)
    del made
    _verify_and_sweeps(t, c, path, wl.HADAMARD_LCS, wl.HADAMARD_LCS, random.Random(seed), out)


def algebraic_pass(t: Tracer, c: Checks, seed: int, work: Path, out: dict) -> None:
    path = work / "traced.permset"
    with t.span("algebraic.build_exact", n=wl.ALGEBRAIC_N_PRIME):
        exact = build_exact(wl.ALGEBRAIC_N_PRIME, wl.ALGEBRAIC_K)
    with t.span("perm.restrict", members=exact.k):
        restricted = [restrict(p, wl.ALGEBRAIC_N) for p in exact]
    del exact
    gc.collect()
    rss0 = rss_bytes()
    with t.span("step.construct"):
        with t.span("algebraic.build_general"):
            made = build_general(wl.ALGEBRAIC_N, wl.ALGEBRAIC_K)
        out["rss_growth"] = rss_bytes() - rss0
        with t.span("fileio.write_permset"):
            write_permset(made, path)
    c.expect("build_general == restrict(build_exact)", list(made) == restricted, True)
    del restricted
    _after_construct(t, c, made, path, out)
    del made
    _verify_and_sweeps(t, c, path, wl.ALGEBRAIC_MAX_PAIR, wl.ALGEBRAIC_MIN_PAIR,
                       random.Random(seed), out)
    with t.span("step.distance"):
        with t.span("fileio.read_permset"):
            read = read_permset(path)
        with t.span("codes.code_report"):
            report = code_report(read)
    c.expect("min_distance", report.min_distance, wl.ALGEBRAIC_N - wl.ALGEBRAIC_MAX_PAIR)


def sample_pass(t: Tracer, c: Checks, seed: int, work: Path, out: dict) -> None:
    n, k, trials = wl.SAMPLE_N, wl.SAMPLE_K, wl.SAMPLE_TRIALS
    with t.span("step.sample"):
        with t.span("bounds.check_probabilistic_bound"):
            check = check_probabilistic_bound(n, k, trials, seed)
        with t.span("bounds.sample_lis"):
            lengths = sample_lis(n, trials, seed)
        (work / "traced.csv").write_text(lengths.to_csv(), encoding="ascii")
    c.expect("violations", check.violations, 0)
    lo, hi = wl.sample_max_window(n)
    c.expect("maxima in window", all(lo <= v < hi for v in check.max_lcs_per_trial), True)

    rng = random.Random(seed)
    oracle_trial = rng.randrange(trials)
    pairs = elements = max_piles = 0
    gc.collect()
    rss0 = rss_bytes()
    for trial in range(trials):
        with t.span("bounds.random_perm_set", trial=trial):
            sampled = random_perm_set(n, k, trial_rng(seed, trial))
        if trial == 0:
            out["rss_growth"] = rss_bytes() - rss0
            out["entries"] = k * n
        with t.span("subseq.lcs_all_pairs", trial=trial):
            matrix = lcs_all_pairs(sampled)
        c.expect(f"trial {trial} max pair", matrix.max_pair, check.max_lcs_per_trial[trial])
        with t.span("subseq.lcs_all_pairs_t2", trial=trial, threads=PROBE_THREADS):
            m2 = lcs_all_pairs(sampled, threads=PROBE_THREADS)
        c.expect(f"trial {trial} threaded matrix", m2.entries, matrix.entries)
        _pairwise(t, c, sampled, matrix, trial=trial)
        a, b = list(sampled)[:2]
        _relabel_lis(t, c, a, b, matrix[0, 1], pair="0-1", trial=trial)
        if trial == oracle_trial:
            _oracle(t, c, sampled, rng, out)
        pairs += len(matrix.off_diagonal())
        elements += len(matrix.off_diagonal()) * n
        max_piles = max(max_piles, matrix.max_pair)
    out["sweep"] = {"pairs": pairs, "elements": elements, "max_piles": max_piles}


PASSES = {
    "hadamard-roundtrip": hadamard_pass,
    "algebraic-verify": algebraic_pass,
    "random-sample": sample_pass,
}


def layer_metrics(workload: str, t: Tracer, out: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer the workload bypasses
    has no spans and reads 0."""
    m: dict[str, float] = {}
    growth = out.get("rss_growth", 0)
    m["hadamard.build_hadamard_set_s"] = t.total("hadamard.build_hadamard_set")
    m["hadamard.rss_growth_mb"] = growth / 1e6 if workload == "hadamard-roundtrip" else 0.0
    m["algebraic.build_exact_s"] = t.total("algebraic.build_exact")
    m["algebraic.build_general_s"] = t.total("algebraic.build_general")
    m["perm.from_one_line_s"] = t.total("perm.from_one_line")
    m["perm.restrict_s"] = t.total("perm.restrict")
    m["perm.bytes_per_entry"] = growth / out["entries"] if out.get("entries") else 0.0

    write_s, read_s = t.total("fileio.write_permset"), median(t.durations("fileio.read_permset"))
    nbytes = out.get("bytes", 0)
    m["fileio.dumps_permset_s"] = t.total("fileio.dumps_permset")
    m["fileio.write_permset_s"] = write_s
    m["fileio.write_mb_per_s"] = nbytes / 1e6 / write_s if write_s else 0.0
    m["fileio.loads_permset_s"] = t.total("fileio.loads_permset")
    m["fileio.read_permset_s"] = read_s
    m["fileio.read_mb_per_s"] = nbytes / 1e6 / read_s if read_s else 0.0
    m["fileio.bytes"] = float(nbytes)

    pair_times = t.durations("subseq.lcs_pair")
    hi = high_percentile(pair_times)
    m["subseq.lcs_pair_s"] = median(pair_times)
    m["subseq.lcs_pair_hi_s"] = hi[1] if hi else max(pair_times, default=0.0)
    m["subseq.lis_s"] = median(t.durations("subseq.lis"))
    m["subseq.lcs_minus_lis_s"] = median(_lcs_minus_lis(t))
    sweep_s = t.total("subseq.lcs_all_pairs")
    sweep = out.get("sweep", {})
    elements = sweep.get("elements", 0)
    m["subseq.lcs_all_pairs_s"] = sweep_s
    m["subseq.lcs_all_pairs_t2_s"] = t.total("subseq.lcs_all_pairs_t2")
    m["subseq.pairs"] = float(sweep.get("pairs", 0))
    m["subseq.elements"] = float(elements)
    m["subseq.max_piles"] = float(sweep.get("max_piles", 0))
    m["subseq.elements_per_s"] = elements / sweep_s if sweep_s else 0.0

    report_s = t.total("codes.code_report")
    m["codes.code_report_s"] = report_s
    m["codes.overhead_s"] = report_s - sweep_s if report_s else 0.0
    m["bounds.random_perm_set_s"] = median(t.durations("bounds.random_perm_set"))
    m["bounds.check_probabilistic_bound_s"] = t.total("bounds.check_probabilistic_bound")
    m["bounds.sample_lis_s"] = t.total("bounds.sample_lis")
    return m


def _lcs_minus_lis(t: Tracer) -> list[float]:
    """lcs_pair time minus lis time, for each pair that has both spans."""
    key = lambda s: (s.get("pair"), s.get("trial"))  # noqa: E731
    lcs = {key(s): s["end"] - s["start"] for s in t.spans if s["name"] == "subseq.lcs_pair"}
    return [lcs[key(s)] - (s["end"] - s["start"])
            for s in t.spans if s["name"] == "subseq.lis" and key(s) in lcs]


def traced_run(workload: str, seed: int, seconds: float, work: Path, deadline: float,
               trace_path: Path) -> dict:
    """Traced and untraced passes, alternating, until `seconds` have passed
    (at least one pair).  Per-layer metrics are medians over traced passes."""
    run = PASSES[workload]
    c = Checks()
    per_pass: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    overheads: list[float] = []
    steps: list[float] = []
    outs: list[dict] = []
    end = time.perf_counter() + seconds
    while True:
        walls = {}
        # Alternate which pass goes first, so a warm-up effect does not bias
        # the overhead one way.
        for enabled in (True, False) if len(tracers) % 2 == 0 else (False, True):
            t, out = Tracer(workload, enabled), {}
            t0 = time.perf_counter()
            run(t, c, seed, work, out)
            walls[enabled] = time.perf_counter() - t0
            if enabled:
                tracers.append(t)
                outs.append(out)
                per_pass.append(layer_metrics(workload, t, out))
                steps.append(sum(s["end"] - s["start"] for s in t.spans
                                 if s["name"].startswith("step.")))
            gc.collect()
        overheads.append(walls[True] - walls[False])
        if time.perf_counter() >= end or time.monotonic() + 2 * sum(walls.values()) > deadline:
            break

    with open(trace_path, "w") as f:
        for number, t in enumerate(tracers):
            for s in t.spans:
                f.write(json.dumps({**s, "pass": number}) + "\n")

    metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_s"] = median(overheads)
    metrics["trace.spans"] = float(median([len(t.spans) for t in tracers]))
    self_time: dict[str, list[float]] = {}
    for t in tracers:
        for name, v in t.self_times().items():
            self_time.setdefault(name, []).append(v)
    return {
        "metrics": metrics,
        "step_s": median(steps),
        "attempted": c.attempted,
        "problems": c.problems,
        "passes": len(tracers),
        "self_time": {name: median(v) for name, v in self_time.items()},
        "oracle": outs[-1].get("oracle"),
    }
