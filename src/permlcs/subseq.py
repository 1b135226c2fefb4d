"""Exact LIS / LCS kernels.

`lcs_pair` computes every pairwise LCS in O(n log n): relabel one
permutation by positions in the other, then run patience sorting.  The test
suite cross-checks it against an independent quadratic DP and brute-force
enumeration, kept in `tests/oracles.py`.

Patience sorting needs no tie-breaking policy here: inputs are permutations,
so pile-top binary search never sees equal values.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .perm import Permutation, PermSet


def _lis_core(seq: Sequence[int]) -> int:
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


def _check_distinct(seq: Sequence[int]) -> None:
    if len(set(seq)) != len(seq):
        raise ValueError("sequence elements must be distinct")


def lis(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence.

    The empty sequence has LIS 0.
    """
    _check_distinct(seq)
    return _lis_core(seq)


def lds(seq: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence."""
    _check_distinct(seq)
    return _lis_core([-v for v in seq])


def lcs_pair(a: Permutation, b: Permutation) -> int:
    """Exact LCS length of two permutations on the same [n].

    Each value of `a`'s word is relabeled by its position in `b`; a common
    subsequence is exactly an increasing run of those positions.
    """
    if a.n != b.n:
        raise ValueError(f"cannot compare permutations on [{a.n}] and [{b.n}]")
    pos = np.empty(b.n, dtype=np.int64)
    pos[b.array] = np.arange(b.n)
    return _lis_core(pos[a.array].tolist())


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


def lcs_all_pairs(s: PermSet, *, threads: int = 1) -> LcsMatrix:
    """Fill the pairwise LCS table of a set; requires k >= 2.

    With threads > 1 the k(k-1)/2 pairs are evaluated by a thread pool;
    results are assembled in pair order, so the matrix is identical either
    way.
    """
    k = s.k
    if k < 2:
        raise ValueError("pairwise LCS needs at least two permutations")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(lambda ij: lcs_pair(s.perms[ij[0]], s.perms[ij[1]]), pairs))
    else:
        values = [lcs_pair(s.perms[i], s.perms[j]) for i, j in pairs]
    grid = [[s.n] * k for _ in range(k)]
    for (i, j), v in zip(pairs, values):
        grid[i][j] = v
        grid[j][i] = v
    return LcsMatrix(s.n, tuple(tuple(row) for row in grid))
