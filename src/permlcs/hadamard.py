"""Sign-matrix construction of k permutations with short pairwise LCS.

Elements of [n'], n' = s**(k-1), are read as (k-1)-digit base-s numbers.
Row i of a normalized Hadamard matrix of order k chooses, per digit
position, either the identity or the reversal of [s]; permutation i maps
each element digit-wise through those choices, that is, flips the grid of
[n'] with one axis per digit column along row i's -1 columns.  Any two rows
agree on exactly k/2 - 1 of the digit columns, which pigeonholes every
common subsequence down to length at most s**(k/2 - 1).

Supported orders: powers of two (doubling construction) and q + 1 for
primes q = 3 (mod 4) (quadratic-residue construction).

The builder makes its members one row at a time: `_digit_stream` checks
every parameter and returns the set's record with a stream of members, and
`build_hadamard_set` gathers the stream into a `PermSet`.  `construct` hands
the same stream to the PERMSET writer, so it holds one member, whatever k
is.  No member makes the grid: one walk, `_cut`, builds each member on
[n], n = n' included, from the sub-grids that hold only values below n, in
O(n) words.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arith import is_prime
from .perm import MAX_N, Permutation, PermSet, _adopt, _ground_set, _restriction_size


@dataclass(frozen=True)
class HadamardMatrix:
    """Square +/-1 matrix in which distinct rows differ in exactly order/2 entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("matrix must be square")
        if any(v not in (1, -1) for r in rows for v in r):
            raise ValueError("entries must be +1 or -1")
        for i in range(k):
            for j in range(i + 1, k):
                diff = sum(a != b for a, b in zip(rows[i], rows[j]))
                if 2 * diff != k:
                    raise ValueError(
                        f"rows {i} and {j} differ in {diff} entries, need {k} / 2"
                    )

    @property
    def order(self) -> int:
        return len(self.rows)


def sylvester(order: int) -> HadamardMatrix:
    """Doubling construction; order must be a power of two."""
    if order < 1 or order & (order - 1):
        raise ValueError(f"order {order} is not a power of two")
    rows = [[1]]
    while len(rows) < order:
        rows = [r + r for r in rows] + [r + [-v for v in r] for r in rows]
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def paley(order: int) -> HadamardMatrix:
    """Quadratic-residue construction for order q + 1, q prime = 3 (mod 4),
    written down normalized.

    Row 0 is all +1; row 1 + a is +1 followed by chi(b - a) for b in Z_q,
    with -1 on the diagonal b = a (chi is the quadratic character mod q).
    """
    q = order - 1
    if q < 3 or q % 4 != 3 or not is_prime(q):
        raise ValueError(f"order {order} needs order-1 to be a prime = 3 (mod 4)")
    residues = {v * v % q for v in range(1, q)}
    chi = [-1] + [1 if v in residues else -1 for v in range(1, q)]  # chi[0]: diagonal
    rows = [[1] * order] + [[1] + [chi[(b - a) % q] for b in range(q)] for a in range(q)]
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def hadamard_matrix(order: int) -> HadamardMatrix:
    """A normalized Hadamard matrix of the given order, if one is supported."""
    if order >= 1 and order & (order - 1) == 0:
        return sylvester(order)
    if order >= 4 and order % 4 == 0 and is_prime(order - 1) and (order - 1) % 4 == 3:
        return paley(order)
    raise ValueError(f"no supported Hadamard construction for order {order}")


def digit_lcs_bound(k: int, s: int) -> int:
    """s**(k/2 - 1): the pairwise LCS guarantee of the digit construction,
    computed in Python ints so that a numpy integer cannot wrap."""
    return operator.index(s) ** (operator.index(k) // 2 - 1)


def digit_ground_set(k: int, s: int) -> int:
    """n' = s**(k-1), or MAX_N + 1 for any n' above the ground-set cap.

    Raises ValueError unless k >= 2 and s >= 2.  The power is computed in
    Python ints, so a numpy integer cannot wrap, and not at all once k - 1
    exceeds 24 (it would be unbounded); the sentinel sorts an above-cap
    `bench` cell after every valid one, so their rows print first.
    """
    k, s = operator.index(k), operator.index(s)
    if k < 2:
        raise ValueError(f"need at least k=2 rows, got {k}")
    if s < 2:
        raise ValueError(f"digit base must be at least 2, got {s}")
    if k - 1 >= MAX_N.bit_length():
        return MAX_N + 1
    return min(s ** (k - 1), MAX_N + 1)


def _cut(flipped: tuple[bool, ...], s: int, n: int) -> np.ndarray:
    """The values below n of the base-s digit grid flipped along `flipped`,
    in position order, made without the grid.

    From the most significant column down, the positions left form one
    sub-grid whose leading value digits equal those of m = n - 1.  Along
    the column, the slices whose value digit is below m's digit hold only
    values below n and are kept whole, the one equal to it is walked next,
    and the rest are skipped.  The kept slices precede the walked one, or
    follow it where the column is flipped, so the output fills from both
    ends inward, and the one slot left takes m itself."""
    out = np.empty(n, dtype=np.int32)
    lo, hi, lead, m = 0, n, 0, n - 1
    for c in range(len(flipped)):
        rest = flipped[c + 1:]
        size = s ** len(rest)
        digit = m // size % s
        if not digit:
            continue
        # One axis per digit column below c; n' <= 2**24 keeps them at most
        # 23, under numpy 1.x's 32-dim cap.
        block = np.arange(size, dtype=np.int32).reshape((s,) * len(rest))
        block = np.flip(block, axis=tuple(a for a, f in enumerate(rest) if f)).ravel()
        width = digit * size
        starts = np.arange(lead, lead + width, size, dtype=np.int32)
        if flipped[c]:
            hi -= width
            span, starts = out[hi:hi + width], starts[::-1]
        else:
            span, lo = out[lo:lo + width], lo + width
        np.add(starts[:, None], block, out=span.reshape(digit, size))
        lead += width
    out[lo] = lead
    return out


def _digit_stream(k: int, s: int, n: int | None = None) -> tuple[dict, Iterator[Permutation]]:
    """`build_hadamard_set`'s record and member stream; every usage error,
    an `n` outside [1, s**(k-1)] included, is raised here, before the first
    member is built."""
    k, s = operator.index(k), operator.index(s)  # so the record holds Python ints
    n_prime = _ground_set(digit_ground_set(k, s), "s**(k-1)")
    h = hadamard_matrix(k)
    n = n_prime if n is None else _restriction_size(n, n_prime)
    record = {"k": k, "s": s, "n_prime": n_prime, "n": n, "lcs_bound": digit_lcs_bound(k, s)}
    return record, (_adopt(_cut(tuple(v == -1 for v in row[1:]), s, n)) for row in h.rows)


def build_hadamard_set(k: int, s: int, *, n: int | None = None) -> PermSet:
    """k digit-wise permutations on [s**(k-1)] with pairwise LCS <= s**(k/2-1).

    Passing `n` (1 <= n <= s**(k-1)) cuts every member to [n], as
    `perm.restrict` would, without building the s**(k-1) grid; the bound
    carries over since restriction never grows an LCS.
    """
    record, members = _digit_stream(k, s, n)
    return PermSet(tuple(members), provenance="hadamard", params=record)
