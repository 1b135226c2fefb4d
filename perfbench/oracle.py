"""Quadratic LCS kept inside the benchmark, independent of permlcs.

The traced run compares `permlcs.lcs_pair` against this on one restricted
pair per workload, so a fast but wrong kernel fails the benchmark whatever
the seed.  It works on plain 1-based value lists and never imports permlcs.
"""

from __future__ import annotations

from typing import Sequence

MAX_ORACLE_N = 2048


def lcs_quadratic(a: Sequence[int], b: Sequence[int]) -> int:
    """Textbook two-row dynamic program for the LCS length of two sequences."""
    if max(len(a), len(b)) > MAX_ORACLE_N:
        raise ValueError(f"quadratic LCS oracle is limited to length {MAX_ORACLE_N}")
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            if x == y:
                cur.append(prev[j] + 1)
            else:
                up, left = prev[j + 1], cur[j]
                cur.append(up if up >= left else left)
        prev = cur
    return prev[-1]
