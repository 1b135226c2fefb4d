"""Exact LIS / LCS kernels.

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
library's one way to spread independent calls (a sweep's columns,
`bounds`' trials) over threads; it keeps results by index.

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
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import _native
from .perm import Permutation, PermSet, invert

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
    kernel through ctypes and numpy's shuffle.
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
