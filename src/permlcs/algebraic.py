"""Modular-arithmetic construction of k permutations with short pairwise LCS.

The ground set [n], n = k^2 * s1^3, is identified with the integer lattice
[s1] x [s2] x [s3] (s2 = s3 = s1*k).  Generator j in [k] assigns each
lattice point a key triple

    major  = (j^2*x + 2*j*y + 2*z) mod p      p = smallest prime > 4*s3
    middle = j*x + y
    minor  = x

and orders [n] by (major, middle, minor) lexicographically, major most
significant.  The resulting k permutations have pairwise LCS at most
2p - 1 < 16*(n*k)**(1/3).  For general n, the construction is run on the
smallest exactly-representable n' >= n (n' <= 8n) and restricted back.

Keys are computed on the int32 axes x, y, z of the (s3, s2, s1) grid, whose C
order is the point's 0-based value.  With W = k*s1 + s2 + 1, one above the
largest middle, and 1 <= minor <= s1, the closed form
(major*W + middle)*s1 + minor - 1 is an int32 key (< p*W*s1 < 24n' < 2^29) that
orders as the triple, built in place on each member's fresh `major` array.
Each member is one argsort of it over the kept points [n], cast to int32
once; triples are 1-1, so a tied kept key stops the build.

The builders make their members one at a time: `_params` and `params_from`
check every parameter, `_build` returns the set's record with a stream of
members, and `build_exact`/`build_general` gather the stream into a
`PermSet`.  `construct` hands the same stream to the PERMSET writer, so its
peak holds one member, its key and sort scratch, whatever k is: at
n = 2^21 its `ru_maxrss` is 76 MiB at k = 8 and 77 MiB at k = 32, where
holding all k took 141 and 342.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .arith import ceil_cbrt, next_prime_above
from .perm import Permutation, PermSet, _adopt, _ground_set


@dataclass(frozen=True)
class ConstructionParams:
    """Derived quantities of the lattice construction.

    s1, s2, s3 are the lattice side lengths (s2 = s3 = s1*k so that
    n = s1*s2*s3 exactly), and p is the key modulus, the smallest prime
    above 4*s3.
    """

    n: int
    k: int
    s1: int
    s2: int
    s3: int
    p: int


def _params(n: int, k: int) -> ConstructionParams:
    """Parameters of the smallest exact n' = k^2 * s1^3 >= n (n' <= 8n)."""
    k = operator.index(k)  # so the record holds Python ints
    if k < 3:
        raise ValueError(f"need at least k=3 generators, got {k}")
    if n < k * k:
        raise ValueError(f"need n >= k^2 = {k * k}, got {n}")
    s1 = ceil_cbrt(-(-n // (k * k)))
    n_prime = _ground_set(k * k * s1**3, f"n' = {k}^2*{s1}^3")
    s3 = s1 * k
    p = next_prime_above(4 * s3)
    if not p < 8 * s3:
        raise RuntimeError(f"prime search overran the Bertrand window: p={p}, s3={s3}")
    return ConstructionParams(n=n_prime, k=k, s1=s1, s2=s3, s3=s3, p=p)


def params_from(n: int, k: int) -> ConstructionParams:
    """Parameters for the exact case n = k^2 * s1^3; rejects other n."""
    params = _params(n, k)
    if params.n != n:
        raise ValueError(f"n={n} is not of the form k^2*s1^3 for k={k}; use build_general")
    return params


def _coordinate_arrays(params: ConstructionParams):
    x = np.arange(1, params.s1 + 1, dtype=np.int32)
    y = np.arange(1, params.s2 + 1, dtype=np.int32)[:, None]
    z = np.arange(1, params.s3 + 1, dtype=np.int32)[:, None, None]
    return x, y, z


def _key_arrays(j: int, x, y, z, params: ConstructionParams):
    major = (j * j * x + 2 * j * y + 2 * z) % params.p
    middle = j * x + y
    return major, middle, x


def _member(j: int, x, y, z, params: ConstructionParams, n: int) -> Permutation:
    """Generator j's permutation of [params.n], restricted to [n]: one argsort
    of its int32 key over the kept points.  The key is built in place on the
    fresh `major` array, so the member's scratch is that array, the int64
    order and the word cast from it once."""
    key, middle, minor = _key_arrays(j, x, y, z, params)
    key *= params.k * params.s1 + params.s2 + 1  # W, one above the largest middle
    key += middle
    key *= params.s1
    key += minor - 1
    key = key.ravel()[:n]
    word = np.argsort(key).astype(np.int32)
    ranked = key[word]
    if not (ranked[1:] != ranked[:-1]).all():
        raise RuntimeError(f"duplicate sort key for j={j}; keys must be 1-1 on [n]")
    return _adopt(word)


def _build(params: ConstructionParams, n: int) -> tuple[dict, Iterator[Permutation]]:
    """The record of the k generator permutations on [params.n], each
    restricted to [n], and a stream that builds them one at a time.

    Restriction never grows an LCS, so every result keeps the 2p - 1 bound.
    """
    n = operator.index(n)  # so the record holds Python ints
    record = asdict(params) | {
        "n": n, "n_prime": params.n, "exact": n == params.n, "lcs_bound": 2 * params.p - 1,
    }
    x, y, z = _coordinate_arrays(params)
    return record, (_member(j, x, y, z, params, n) for j in range(1, params.k + 1))


def _general_stream(n: int, k: int) -> tuple[dict, Iterator[Permutation]]:
    """`build_general`'s record and member stream; every usage error is
    raised here, before the first member is built."""
    return _build(_params(n, k), n)


def build_exact(n: int, k: int) -> PermSet:
    """The k generator permutations on [n] for exact n = k^2 * s1^3.

    Pairwise LCS of the result is at most 2p - 1 (and so at most
    16*(n*k)**(1/3)).
    """
    record, members = _build(params_from(n, k), n)
    return PermSet(tuple(members), provenance="algebraic", params=record)


def build_general(n: int, k: int) -> PermSet:
    """Generator permutations for any n >= k^2.

    Rounds n up to the smallest exact n' = k^2 * ceil((n/k^2)^(1/3))^3
    (n' <= 8n), builds there, and restricts every member back to [n].
    Pairwise LCS of the result is at most 32*(n*k)**(1/3).
    """
    record, members = _general_stream(n, k)
    return PermSet(tuple(members), provenance="algebraic", params=record)
