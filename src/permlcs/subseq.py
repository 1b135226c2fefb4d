"""Exact LIS / LCS kernels.

`lcs_pair` computes every pairwise LCS in O(n log n): relabel one
permutation by positions in the other, then run patience sorting.  The test
suite cross-checks it against an independent quadratic DP and brute-force
enumeration, kept in `tests/oracles.py`.

Every answer is an LCS of two permutations and takes one route, `_column`,
over `int32` words.  An LIS is the LCS with the identity and an LDS the LCS
with the reversal: `lis`/`lds` accept only words of distinct integers that
fit `int64` (anything else is a ValueError) and measure the word's ranks
0..m-1, which have the same increasing subsequences, against the identity
or the reversal of [m].  `_column` builds member j's position array once
with `invert` and then makes one C call per four earlier members,
`lis_lanes`, which relabels each through it and measures the four in
lockstep: the position array is the one n-sized array a column makes.
`_map_threads` is the library's one way to spread independent calls (a
sweep's columns, `bounds`' trials) over threads; it keeps results by index.

Patience sorting runs in C, `lis_lanes` in `_native.c`, with pile tops the
kernel allocates and grows itself (a failed allocation is a MemoryError);
the comments there describe the padded pile tops, the neighbour-pile check,
the miss count that gates it and the lockstep search.  The first LCS call
builds and loads the library through `_native.library()`; importing the
module does neither.  Where it cannot be built or loaded, `_column` takes
member j's positions from `perm.invert` and runs `_lis_core`, the same
algorithm in Python, over a view of each relabeled member, with equal
answers and no output; there is no switch between the two.

Patience sorting needs no tie-breaking policy here: inputs are permutations,
so pile-top binary search never sees equal values.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import _native
from .perm import Permutation, PermSet, _adopt, invert

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
    """The ranks 0..m-1 of `seq`, a word of distinct integers that fit int64,
    as a contiguous int32 word.

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
    if arr.size > _INT32_MAX:  # its ranks would not fit the kernel's word
        raise ValueError(f"sequence longer than {_INT32_MAX} elements")
    uniq, ranks = np.unique(arr, return_inverse=True)  # ranks, once distinct
    if uniq.size != arr.size:
        raise ValueError("sequence elements must be distinct")
    return ranks.astype(np.int32)


def lis(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence of a word of
    distinct integers that fit int64.

    The empty sequence has LIS 0.  It is the LCS of the word's ranks with
    the identity.
    """
    ranks = _distinct_word(seq)
    return lcs_pair(_adopt(ranks), _adopt(np.arange(ranks.size, dtype=np.int32)))


def lds(seq: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence: the LCS of the
    word's ranks with the reversal."""
    ranks = _distinct_word(seq)
    return lcs_pair(_adopt(ranks), _adopt(np.arange(ranks.size - 1, -1, -1, dtype=np.int32)))


def lcs_pair(a: Permutation, b: Permutation) -> int:
    """Exact LCS length of two permutations on the same [n].

    Each value of `a`'s word is relabeled by its position in `b`; a common
    subsequence is exactly an increasing run of those positions.
    """
    if a.n != b.n:
        raise ValueError(f"cannot compare permutations on [{a.n}] and [{b.n}]")
    return _column((a, b), 1)[0]


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


def _column(perms: Sequence[Permutation], j: int) -> list[int]:
    """LCS of member j with each earlier member: the library's one door to
    the patience kernel.  j's position array is built once, the one n-sized
    word the column makes; natively each `lis_lanes` call then relabels up to
    four earlier members through it and measures them together, with pile
    tops the kernel allocates itself, and raises MemoryError when it cannot.
    Without the library, `_lis_core` reads each relabeled member through a
    memoryview, so no list of Python ints is made."""
    lib = _native.library()
    if lib is None:
        pos = invert(perms[j]).array
        return [_lis_core(memoryview(pos[perms[i].array])) for i in range(j)]
    n, lanes = perms[j].n, _native.LANES
    pos, lengths = np.empty(n, dtype=np.int32), np.empty(lanes, dtype=np.intp)
    lib.invert(perms[j].array, n, pos)
    column: list[int] = []
    for first in range(0, j, lanes):
        words = [p.array for p in perms[first:min(first + lanes, j)]]
        count = len(words)
        words += words[:1] * (lanes - count)  # slots past count are not read
        if lib.lis_lanes(pos, *words, count, n, lengths):
            raise MemoryError("no room for the pile tops")
        column += lengths[:count].tolist()
    return column


def lcs_all_pairs(s: PermSet, *, threads: int = 1) -> LcsMatrix:
    """Fill the pairwise LCS table of a set; requires k >= 2.

    The columns (one per member, against every earlier member) run through
    `_map_threads` on `threads` workers, serially by default: each worker
    holds one n-sized word, member j's positions, and a second worker
    gained nothing on the Hadamard k=8 s=6 sweep.  Columns are assembled in
    order, so the matrix is identical for any `threads`.
    """
    k = s.k
    if k < 2:
        raise ValueError("pairwise LCS needs at least two permutations")
    columns = _map_threads(lambda c: _column(s.perms, c + 1), k - 1, threads)
    grid = [[s.n] * k for _ in range(k)]
    for j, values in enumerate(columns, start=1):
        for i, v in enumerate(values):
            grid[i][j] = v
            grid[j][i] = v
    return LcsMatrix(s.n, tuple(tuple(row) for row in grid))
