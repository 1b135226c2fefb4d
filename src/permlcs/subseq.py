"""Exact LIS / LCS kernels, and the seeded sampler that measures random
sets with them.

`lcs_pair` computes every pairwise LCS in O(n log n): relabel one
permutation by positions in the other, then run patience sorting.  The test
suite cross-checks it against an independent quadratic DP and brute-force
enumeration, kept in `tests/oracles.py`.

Every answer is the LIS of a word relabeled through a position array, and
takes one route, `_lanes`, over `int32` words: it measures a stream of
(position array, word) jobs, four to a C call, `lis_lanes`, whose lanes
each relabel through their own position array.  An LCS of two members is
one job, the earlier member relabeled through the later one's positions;
`_column` yields the jobs of member j against each earlier member, making
j's position array once with `invert`, the one n-sized word a column makes.
An LIS is a job with no position array, whose word is read as it is, and an
LDS a job relabeled through the reversal: `lis`/`lds` accept only words of
distinct integers that fit `int64` (anything else is a ValueError) and
measure the order that sorts the word, whose LIS and LDS are the word's,
since it is the inverse of the word's ranks.  `_map_threads` is the
library's one way to spread independent calls (a sweep's columns, the
sampler's trials) over threads; it keeps results by index.

The sampler (`_sample`, `check_probabilistic_bound` and `sample_lis`)
measures trial t on the set `perm._trial_set(n, k, seed, t)` draws, the one
`random_perm_set` draws from `trial_rng(seed, t)`, made in one C call when
the library loads, so a sample never imports `numpy.random`: `_trial`
streams its pairs, and its first member's LIS, through `_lanes`.  Trials
run on every CPU this process may use, up to the number whose words fit
`_TRIALS_BUDGET`, and their results are kept by trial index, so every
sample is the same for any number of CPUs.

Patience sorting runs in C, `lis_lanes` in `_native.c`, with pile tops the
kernel allocates and grows itself (a failed allocation is a MemoryError);
the comments there describe the padded pile tops, the neighbour-pile check,
the miss count that gates it and the lockstep search.  The first LCS call
builds and loads the library through `_native.library()`; importing the
module does neither.  Where it cannot be built or loaded, `perm.invert`
scatters member j's positions with numpy and `_lanes` runs `_lis_core`, the
same algorithm in Python, over a view of each relabeled word, with equal
answers and no output; there is no switch between the two.

Patience sorting needs no tie-breaking policy here: inputs are permutations,
so pile-top binary search never sees equal values.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import _native
from .perm import Permutation, PermSet, _ground_set, _trial_set, invert

_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max

_T = TypeVar("_T")


def _map_threads(fn: Callable[[int], _T], count: int, workers: int) -> list[_T]:
    """[fn(i) for i in range(count)], computed on `workers` threads.

    The caller's thread is one of the workers, and each worker takes the
    next index from one shared counter.  Results are kept by index, so the
    list is the same for any `workers`.  The first exception a call raises
    stops every worker before its next index and is raised here; no thread
    outlives the call.  With one worker it runs inline and starts no thread.
    The parallel part is the native code that releases the GIL: the C
    kernel and draw through ctypes, or numpy's shuffle without them.
    """
    workers = min(workers, count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    results: list = [None] * count
    pending = iter(range(count))
    errors: list[BaseException] = []
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return next(pending, None)

    def work() -> None:
        nonlocal pending
        for i in iter(take, None):
            try:
                results[i] = fn(i)
            except BaseException as exc:  # raised again by the caller
                with lock:
                    errors.append(exc)
                    pending = iter(())
                return

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        with lock:  # stops the others at once if starting one failed
            pending = iter(())
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _lis_core(seq: Iterable[int]) -> int:
    """Patience sorting over distinct values; length of the pile-top list."""
    tops: list[int] = []
    append = tops.append
    for v in seq:
        i = bisect_left(tops, v)
        if i == len(tops):
            append(v)
        else:
            tops[i] = v
    return len(tops)


def _distinct_word(seq: Sequence[int]) -> np.ndarray:
    """The order that sorts `seq`, a word of distinct integers that fit
    int64, as a contiguous int32 word: the inverse of its ranks, so it has
    the word's LIS and LDS.

    Raises ValueError for anything else: floats, integers outside int64,
    strings, nesting, generators, or a repeated value.
    """
    try:
        arr = np.asarray(seq)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"sequence must be a 1-D word of int64 integers: {exc}") from exc
    if arr.ndim == 1 and arr.size == 0:  # numpy reads [] as float64
        return np.empty(0, dtype=np.int32)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or (
            arr.dtype.kind == "u" and arr.max() > _INT64_MAX):
        raise ValueError(f"sequence must be a 1-D word of int64 integers, "
                         f"not {arr.ndim}-D {arr.dtype}")
    if arr.size > _INT32_MAX:  # its order would not fit the kernel's word
        raise ValueError(f"sequence longer than {_INT32_MAX} elements")
    order = np.argsort(arr)
    ordered = arr[order]
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("sequence elements must be distinct")
    del ordered  # so the peak is the order and its int32 copy
    return order.astype(np.int32)


def lis(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence of a word of
    distinct integers that fit int64.

    The empty sequence has LIS 0.  It is the LIS of the order that sorts the
    word, read as it is.
    """
    return _lanes([(None, _distinct_word(seq))])[0]


def lds(seq: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence: the LIS of the
    order that sorts the word, relabeled through the reversal."""
    order = _distinct_word(seq)
    return _lanes([(np.arange(order.size - 1, -1, -1, dtype=np.int32), order)])[0]


def lcs_pair(a: Permutation, b: Permutation) -> int:
    """Exact LCS length of two permutations on the same [n].

    Each value of `a`'s word is relabeled by its position in `b`; a common
    subsequence is exactly an increasing run of those positions.
    """
    if a.n != b.n:
        raise ValueError(f"cannot compare permutations on [{a.n}] and [{b.n}]")
    return _lanes(_column((a, b), 1))[0]


@dataclass(frozen=True)
class LcsMatrix:
    """Symmetric k x k table of pairwise LCS lengths (diagonal = n)."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def off_diagonal(self) -> list[tuple[int, int, int]]:
        """(i, j, lcs) for all 0-based i < j."""
        return [
            (i, j, self.entries[i][j])
            for i in range(self.k)
            for j in range(i + 1, self.k)
        ]

    @property
    def max_pair(self) -> int:
        """Length of the longest common subsequence in the set."""
        return max(v for _, _, v in self.off_diagonal())

    @property
    def min_pair(self) -> int:
        return min(v for _, _, v in self.off_diagonal())


def _lanes(jobs: Iterable[tuple[np.ndarray | None, np.ndarray]]) -> list[int]:
    """The LIS of pos[word] for each (pos, word) job, or of the word itself
    where pos is None, in order: the library's one door to the patience
    kernel.  The words of one call to it share their length.

    Natively each `lis_lanes` call measures the next four jobs, with pile
    tops the kernel allocates itself, and this raises MemoryError when it
    cannot.  A group of jobs is dropped before the next is taken, so a
    stream of jobs holds a position array only while a pending group, or
    the stream itself, refers to it.  Without the library, `_lis_core` reads
    each relabeled word through a memoryview, so no list of Python ints is
    made."""
    lib = _native.library()
    if lib is None:
        return [_lis_core(memoryview(word if pos is None else pos[word])) for pos, word in jobs]
    lanes = _native.LANES
    lengths, result, pending = np.empty(lanes, dtype=np.intp), [], iter(jobs)
    while group := list(itertools.islice(pending, lanes)):
        count = len(group)
        group += group[:1] * (lanes - count)  # slots past count are not read
        if lib.lis_lanes(*(pos for pos, _ in group), *(word for _, word in group),
                         count, group[0][1].size, lengths):
            raise MemoryError("no room for the pile tops")
        result += lengths[:count].tolist()
        del group  # its position arrays go before the next group's are made
    return result


def _column(perms: Sequence[Permutation], j: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The jobs of column j for `_lanes`: member j's position array, the
    word of `invert(perms[j])`, built once when the first job is taken and
    the one n-sized word the column makes, with each earlier member in
    turn; their LIS is the LCS of member j with each earlier member."""
    pos = invert(perms[j]).array
    for i in range(j):
        yield pos, perms[i].array


def lcs_all_pairs(s: PermSet, *, threads: int = 1) -> LcsMatrix:
    """Fill the pairwise LCS table of a set; requires k >= 2.

    The columns (one per member, against every earlier member) run through
    `_map_threads` on `threads` workers, serially by default; each worker
    holds one n-sized word, member j's positions.  A second worker gained
    nothing on the Hadamard k=8 s=6 sweep but took 0.623 s against 0.922 s
    on lattice 2^21 k=8 (2-vCPU Xeon), so the default waits on ROADMAP
    items 6 and 7.  Columns are assembled in order, so the matrix is
    identical for any `threads`.
    """
    k = s.k
    if k < 2:
        raise ValueError("pairwise LCS needs at least two permutations")
    columns = _map_threads(lambda c: _lanes(_column(s.perms, c + 1)), k - 1, threads)
    grid = [[s.n] * k for _ in range(k)]
    for j, values in enumerate(columns, start=1):
        for i, v in enumerate(values):
            grid[i][j] = v
            grid[j][i] = v
    return LcsMatrix(s.n, tuple(tuple(row) for row in grid))


# Bytes of trial words held at once, each trial of k members on [n] counted
# as _TRIAL_WORDS + k words of 4n bytes: at n = 2**16 and 2**18, a trial's
# traced peak is (k + 2.01 to 2.05) * 4n with the C library at k = 3, whose
# one kernel call holds the positions of columns 1 and 2, and
# (k + 3.01 to 3.06) at k = 8, whose first call holds those of columns 1 to
# 3; its draw, one (k, n) block, peaks at k words.  Without the library it is
# (k + 3.07 to 3.28) * 4n at either k, in the relabel.  So n = 10**4 is never
# capped, and at n = MAX_N, k = 3 one trial runs alone.
_TRIALS_BUDGET = 1 << 28
_TRIAL_WORDS = 4


def _workers(n: int, k: int) -> int:
    """How many trials of k members on [n] run at once: the CPUs this
    process may use, capped by `_TRIALS_BUDGET`, and never below one.
    Raises ValueError for an n that `_ground_set` refuses."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _TRIALS_BUDGET // ((k + _TRIAL_WORDS) * 4 * _ground_set(n))))


@dataclass(frozen=True)
class LisSample:
    """Observed LIS lengths over `trials` uniform random permutations."""

    n: int
    trials: int
    seed: int
    lengths: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["trial,length"]
        lines += [f"{t},{v}" for t, v in enumerate(self.lengths)]
        return "\n".join(lines) + "\n"


def sample_lis(n: int, trials: int, seed: int) -> LisSample:
    """LIS of the permutation trial t draws, `_trial_set(n, 1, seed, t)`,
    for each t; trials run on `_workers(n, 1)` threads."""
    if trials < 1:
        raise ValueError("need at least one trial")
    lengths = _map_threads(lambda t: _trial(n, 1, seed, t, True)[0], trials, _workers(n, 1))
    return LisSample(n=n, trials=trials, seed=seed, lengths=tuple(lengths))


def lcs_threshold(n: int) -> float:
    """The 2e*sqrt(n) level that random pairs essentially never reach."""
    return 2.0 * math.e * math.sqrt(n)


@dataclass(frozen=True)
class ProbabilisticCheck:
    """Max-pair LCS of sampled random k-sets versus the 2e*sqrt(n) level."""

    n: int
    k: int
    trials: int
    seed: int
    threshold: float
    max_lcs_per_trial: tuple[int, ...]

    @property
    def violations(self) -> int:
        return sum(v >= self.threshold for v in self.max_lcs_per_trial)

    @property
    def all_below(self) -> bool:
        return self.violations == 0

    @property
    def min_max_lcs(self) -> int:
        """Empirical upper estimate of the guaranteed common-subsequence length."""
        return min(self.max_lcs_per_trial)


def _trial(n: int, k: int, seed: int, t: int, lis: bool) -> list[int]:
    """Trial t: every pair of the k-set `_trial_set(n, k, seed, t)` draws,
    column by column, then, if `lis`, its first member's LIS, as one job
    stream for `_lanes`: four share each kernel call (one at k = 3), and a
    column's position array lives only while a call needs it."""
    perms = _trial_set(n, k, seed, t).perms
    jobs = itertools.chain.from_iterable(_column(perms, j) for j in range(1, k))
    return _lanes(itertools.chain(jobs, [(None, perms[0].array)] if lis else ()))


def _sample(n: int, k: int, trials: int, seed: int,
            lis: bool) -> tuple[ProbabilisticCheck, LisSample | None]:
    """The trial loop: each worker reduces `_trial` to its max-pair LCS
    and, if `lis`, its first member's LIS, which `sample_lis` measures for
    trial t.  Trials run on `_workers(n, k)` threads, which hold that many
    sets at once; results are kept by trial index.  Returns the check of the
    maxima and, if `lis`, the sample of the lengths."""
    if k < 2:
        raise ValueError("need at least two permutations per sampled set")
    if trials < 1:
        raise ValueError("need at least one trial")
    pairs = k * (k - 1) // 2

    def trial(t: int) -> tuple[int, int | None]:
        lengths = _trial(n, k, seed, t, lis)
        return max(lengths[:pairs]), lengths[pairs] if lis else None

    maxima, lengths = zip(*_map_threads(trial, trials, _workers(n, k)))
    check = ProbabilisticCheck(
        n=n, k=k, trials=trials, seed=seed,
        threshold=lcs_threshold(n), max_lcs_per_trial=maxima,
    )
    return check, LisSample(n=n, trials=trials, seed=seed, lengths=lengths) if lis else None


def check_probabilistic_bound(n: int, k: int, trials: int, seed: int) -> ProbabilisticCheck:
    """Max-pair LCS of `trials` seeded random k-sets on [n] against `lcs_threshold(n)`."""
    return _sample(n, k, trials, seed, lis=False)[0]
