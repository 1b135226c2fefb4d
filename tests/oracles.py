"""Reference implementations used only to cross-check the library.

Brute-force and quadratic oracles for the LIS/LCS engine, and the scalar,
one-element-at-a-time definitions that the array-backed permutation
operations, the bulk PERMSET writer and the constructions' vectorised key
and digit code must agree with, and the whole-grid flip that the digit
builder's walk must agree with.  Kept deliberately naive and independent of
the shipped kernels: this module imports nothing from `permlcs` and reads
library objects only through their attributes (`.n`, `.word`, `.rows`,
the construction parameters' `s1`, `s2`, `s3`, `k`, `p`).
"""

import itertools
from typing import NamedTuple

import numpy as np

DP_SIZE_LIMIT = 2048


def lis_quadratic(seq):
    """O(n^2) longest-strictly-increasing DP."""
    if not seq:
        return 0
    best = [1] * len(seq)
    for i, v in enumerate(seq):
        for j in range(i):
            if seq[j] < v and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best)


def lcs_by_enumeration(a_line, b_line):
    """Try every subsequence of a, longest first; exponential, tiny n only."""
    for r in range(len(a_line), 0, -1):
        for sub in itertools.combinations(a_line, r):
            it = iter(b_line)
            if all(v in it for v in sub):
                return r
    return 0


def lcs_pair_dp(a, b) -> int:
    """Quadratic-DP LCS of two permutations, the independent oracle for `lcs_pair`."""
    if a.n != b.n:
        raise ValueError(f"cannot compare permutations on [{a.n}] and [{b.n}]")
    n = a.n
    if n > DP_SIZE_LIMIT:
        raise ValueError(f"DP oracle guarded at n <= {DP_SIZE_LIMIT}, got {n}")
    aw, bw = a.word, b.word
    prev = [0] * (n + 1)
    cur = [0] * (n + 1)
    for i in range(1, n + 1):
        ai = aw[i - 1]
        cur[0] = 0
        for j in range(1, n + 1):
            if ai == bw[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                pj = prev[j]
                cj = cur[j - 1]
                cur[j] = pj if pj >= cj else cj
        prev, cur = cur, prev
    return prev[n]


# -- scalar twins of the array-backed permutation operations and value lines --


def compose_word(a, b) -> tuple[int, ...]:
    """0-based word of a . b, one entry at a time."""
    aw = a.word
    return tuple(aw[v] for v in b.word)


def invert_word(a) -> tuple[int, ...]:
    inv = [0] * a.n
    for t, v in enumerate(a.word):
        inv[v] = t
    return tuple(inv)


def restrict_word(a, m: int) -> tuple[int, ...]:
    return tuple(v for v in a.word if v < m)


def value_line(one_line) -> str:
    """A PERMSET value line, one `str()` per value."""
    return " ".join(map(str, one_line)) + "\n"


# -- scalar twins of the lattice construction's key arrays --


class LatticePoint(NamedTuple):
    x: int
    y: int
    z: int


class SortKey(NamedTuple):
    """Ordering key; compared with `major` most significant, `minor` least."""

    minor: int
    middle: int
    major: int


def _check_point(pt: LatticePoint, params) -> None:
    if not (1 <= pt.x <= params.s1 and 1 <= pt.y <= params.s2 and 1 <= pt.z <= params.s3):
        raise ValueError(f"{pt} outside [{params.s1}]x[{params.s2}]x[{params.s3}]")


def from_lattice(pt: LatticePoint, params) -> int:
    """Lattice point -> element of [n]; x least significant, z most."""
    _check_point(pt, params)
    return pt.x + params.s1 * (pt.y - 1) + params.s1 * params.s2 * (pt.z - 1)


def to_lattice(a: int, params) -> LatticePoint:
    """Element of [n] -> lattice point; inverse of `from_lattice`."""
    if not 1 <= a <= params.n:
        raise ValueError(f"element {a} outside [1, {params.n}]")
    a0 = a - 1
    x = a0 % params.s1 + 1
    y = (a0 // params.s1) % params.s2 + 1
    z = a0 // (params.s1 * params.s2) + 1
    return LatticePoint(x, y, z)


def sort_key(j: int, pt: LatticePoint, params) -> SortKey:
    """Key triple of a lattice point under generator j."""
    if not 1 <= j <= params.k:
        raise ValueError(f"generator index {j} outside [1, {params.k}]")
    _check_point(pt, params)
    major = (j * j * pt.x + 2 * j * pt.y + 2 * pt.z) % params.p
    middle = j * pt.x + pt.y
    return SortKey(minor=pt.x, middle=middle, major=major)


def value_sort_key(j: int, a: int, params) -> SortKey:
    """Key triple of an element of [n] under generator j."""
    return sort_key(j, to_lattice(a, params), params)


# -- scalar twins of the Hadamard construction's digit arithmetic --


def agreement_columns(h, i: int, j: int) -> set[int]:
    """Columns in 1..order-1 where rows i and j carry the same sign.

    For a matrix whose first column is all +1 the result has exactly
    order/2 - 1 members.
    """
    if i == j:
        raise ValueError("rows must be distinct")
    k = h.order
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError(f"row indices ({i}, {j}) outside [0, {k})")
    ri, rj = h.rows[i], h.rows[j]
    return {c for c in range(1, k) if ri[c] == rj[c]}


class DigitVector(NamedTuple):
    """Base-s digits of x - 1, most significant first, presented 1-based."""

    base: int
    digits: tuple[int, ...]


def digits_of(x: int, base: int, width: int) -> DigitVector:
    if not 1 <= x <= base**width:
        raise ValueError(f"element {x} outside [1, {base ** width}]")
    rest = x - 1
    out = []
    for _ in range(width):
        rest, d = divmod(rest, base)
        out.append(d + 1)
    return DigitVector(base, tuple(reversed(out)))


def value_of(dv: DigitVector) -> int:
    if any(not 1 <= d <= dv.base for d in dv.digits):
        raise ValueError(f"digits out of range for base {dv.base}")
    x0 = 0
    for d in dv.digits:
        x0 = x0 * dv.base + (d - 1)
    return x0 + 1


def flipped_grid(row, s) -> np.ndarray:
    """The 0-based word of Hadamard row `row`'s digit member: the grid with
    one axis per digit column 1..k-1, the most significant first, flipped
    along the row's -1 columns and raveled.  `s` is one base for every
    column, on [s**(k-1)], or a tuple of the k-1 columns' bases, on the
    ground set of their product."""
    k = len(row)
    shape = s if isinstance(s, tuple) else (s,) * (k - 1)
    grid = np.arange(np.prod(shape, dtype=np.int64), dtype=np.int32).reshape(shape)
    return np.flip(grid, axis=tuple(c - 1 for c in range(1, k) if row[c] == -1)).ravel()
