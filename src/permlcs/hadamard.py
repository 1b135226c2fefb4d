"""Sign-matrix construction of k permutations with short pairwise LCS.

Elements of [n'], n' = s**(k-1), are read as (k-1)-digit base-s numbers.
Row i of a normalized Hadamard matrix of order k chooses, per digit
position, either the identity or the reversal of [s]; permutation i maps
each element digit-wise through those choices.  Any two rows agree on
exactly k/2 - 1 of the digit columns, which pigeonholes every common
subsequence down to length at most s**(k/2 - 1).

Supported orders: powers of two (doubling construction) and q + 1 for
primes q = 3 (mod 4) (quadratic-residue construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .perm import MAX_N, Permutation, PermSet


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
    """Quadratic-residue construction for order q + 1, q prime = 3 (mod 4)."""
    q = order - 1
    if q < 3 or q % 4 != 3 or not is_prime(q):
        raise ValueError(f"order {order} needs order-1 to be a prime = 3 (mod 4)")
    residues = {v * v % q for v in range(1, q)}
    chi = [0] + [1 if v in residues else -1 for v in range(1, q)]
    rows = [[1] * order]
    for a in range(q):
        row = [-1] + [chi[(a - b) % q] for b in range(q)]
        row[a + 1] = 1
        rows.append(row)
    return normalize(HadamardMatrix(tuple(tuple(r) for r in rows)))


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows/columns until the first row and column are all +1.

    Row and column negation both preserve the pairwise-difference property.
    """
    rows = [list(r) for r in h.rows]
    for r in rows:
        if r[0] == -1:
            r[:] = [-v for v in r]
    for c, v in enumerate(rows[0]):
        if v == -1:
            for r in rows:
                r[c] = -r[c]
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def hadamard_matrix(order: int) -> HadamardMatrix:
    """A normalized Hadamard matrix of the given order, if one is supported."""
    if order >= 1 and order & (order - 1) == 0:
        return sylvester(order)
    if order >= 4 and order % 4 == 0 and is_prime(order - 1) and (order - 1) % 4 == 3:
        return paley(order)
    raise ValueError(f"no supported Hadamard construction for order {order}")


def digit_lcs_bound(k: int, s: int) -> int:
    """s**(k/2 - 1): the pairwise LCS guarantee of the digit construction."""
    return s ** (k // 2 - 1)


def digit_ground_set(k: int, s: int) -> int:
    """n' = s**(k-1), or MAX_N + 1 for any n' above the ground-set cap.

    Raises ValueError unless k >= 2 and s >= 2.  The power is past the cap
    once k - 1 exceeds 24, and it is not computed there: it would be an
    unbounded integer.
    """
    if k < 2:
        raise ValueError(f"need at least k=2 rows, got {k}")
    if s < 2:
        raise ValueError(f"digit base must be at least 2, got {s}")
    if k - 1 >= MAX_N.bit_length():
        return MAX_N + 1
    return min(s ** (k - 1), MAX_N + 1)


def build_hadamard_set(k: int, s: int, *, n: int | None = None) -> PermSet:
    """k digit-wise permutations on [s**(k-1)] with pairwise LCS <= s**(k/2-1).

    Passing `n` restricts every member to [n] (n <= s**(k-1)); the bound on
    the full set carries over since restriction never grows an LCS.
    """
    n_prime = digit_ground_set(k, s)
    if n_prime > MAX_N:
        raise ValueError(f"s**(k-1) exceeds the ground-set cap {MAX_N}")
    if n is None:
        n = n_prime
    elif not 1 <= n <= n_prime:
        raise ValueError(f"restriction size {n} outside [1, {n_prime}]")
    h = hadamard_matrix(k)

    x0 = np.arange(n_prime, dtype=np.int64)
    powers = [s ** (k - 2 - c) for c in range(k - 1)]  # weight of digit column c+1
    perms = []
    for row in h.rows:
        flipped = [c for c in range(1, k) if row[c] == -1]
        out = x0.copy()
        for c in flipped:
            w = powers[c - 1]
            digit = (x0 // w) % s
            # replacing digit d by (s-1) - d changes the value by (s-1-2d)*w
            out += (s - 1 - 2 * digit) * w
        if n < n_prime:
            out = out[out < n]
        perms.append(Permutation(out))

    record = {"k": k, "s": s, "n_prime": n_prime, "n": n, "lcs_bound": digit_lcs_bound(k, s)}
    return PermSet(tuple(perms), provenance="hadamard", params=record)
