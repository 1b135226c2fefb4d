"""Permutations on [n] = {1, ..., n} and ordered collections of them.

Storage is 0-based: a permutation pi is held as one read-only `np.int64`
array, the word (pi(1)-1, ..., pi(n)-1).  One-line notation and the file
formats are 1-based.  `from_one_line`, `one_line` and iteration convert
here; the native PERMSET codec converts in C, where `render_line` adds 1 and
`parse_line` subtracts 1.  Values are immutable and validated once, on
construction, by a range check and one O(n) `np.bincount`; the operations
below work on the arrays and never box the entries as Python ints.  `word`,
`one_line` and iteration build Python ints on access, for callers that want
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

# Largest ground set the builders and samplers accept.  They check it before
# allocating anything, so an oversize request is a ValueError rather than a
# MemoryError partway through a build.
MAX_N = 1 << 24


def _integer_array(word: Iterable[int]) -> np.ndarray:
    """`word` as a non-empty integer array, for the public constructors."""
    a = np.asarray(word if isinstance(word, np.ndarray) else list(word))
    if a.size == 0:  # tested first: numpy reads [] as float64
        raise ValueError("ground set must be non-empty")
    if a.dtype.kind not in "iu":
        raise ValueError(f"one-line form is not a rearrangement of 1..{a.size}")
    return a


def _checked(a: np.ndarray, *, copy: bool) -> np.ndarray:
    """Integer array `a` as a read-only int64 word, copied only if `copy` or
    its dtype needs it; ValueError unless it is a rearrangement of 0..n-1."""
    n = a.size
    if n == 0:
        raise ValueError("ground set must be non-empty")
    if a.ndim != 1 or a.min() < 0 or a.max() >= n:
        raise ValueError(f"one-line form is not a rearrangement of 1..{n}")
    a = a.astype(np.int64, copy=copy)
    if not np.bincount(a, minlength=n).all():
        raise ValueError(f"one-line form is not a rearrangement of 1..{n}")
    a.flags.writeable = False
    return a


def _adopt(word: np.ndarray) -> "Permutation":
    """The member with 0-based word `word`, a fresh array no caller holds: not copied."""
    p = Permutation.__new__(Permutation)
    p._array = _checked(word, copy=False)
    return p


class Permutation:
    """A bijection on [n], stored as the 0-based word of its one-line form.

    The word (any integer sequence or array) is copied into a fresh int64
    array, checked, and made read-only.
    """

    __slots__ = ("_array",)

    def __init__(self, word: Iterable[int]):
        self._array = _checked(_integer_array(word), copy=True)

    @classmethod
    def from_one_line(cls, images: Iterable[int]) -> "Permutation":
        """Build from 1-based one-line notation pi(1) ... pi(n)."""
        # int64 arithmetic: in an unsigned dtype `a - 1` would wrap the illegal 0 into range
        return _adopt(np.subtract(_integer_array(images), 1, dtype=np.int64))

    @property
    def array(self) -> np.ndarray:
        """The read-only 0-based word."""
        return self._array

    @property
    def n(self) -> int:
        return self._array.size

    @property
    def word(self) -> tuple[int, ...]:
        """The 0-based word as Python ints."""
        return tuple(self._array.tolist())

    @property
    def one_line(self) -> tuple[int, ...]:
        """1-based one-line notation."""
        return tuple((self._array + 1).tolist())

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self.one_line)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.word})"


def identity(n: int) -> Permutation:
    """The identity permutation on [n]."""
    return _adopt(np.arange(n))


def reversal(n: int) -> Permutation:
    """The order-reversing permutation t -> n+1-t."""
    return _adopt(np.arange(n - 1, -1, -1))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a . b)(t) = a(b(t))."""
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations on [{a.n}] and [{b.n}]")
    return _adopt(a.array[b.array])


def invert(a: Permutation) -> Permutation:
    inv = np.empty(a.n, dtype=np.int64)
    inv[a.array] = np.arange(a.n)
    return _adopt(inv)


def restrict(a: Permutation, m: int) -> Permutation:
    """Delete every value above m from the one-line form; the survivors,
    in order, are a permutation on [m]."""
    if not 1 <= m <= a.n:
        raise ValueError(f"restriction size {m} outside [1, {a.n}]")
    return _adopt(a.array[a.array < m])


PROVENANCE_TAGS = ("algebraic", "hadamard", "random", "imported")


@dataclass(frozen=True)
class PermSet:
    """An ordered collection of permutations on a common [n].

    Duplicate members are legal (they matter for code-distance reporting).
    `params` records construction parameters and is excluded from equality,
    so a set written to disk and read back compares equal member-wise.
    """

    perms: tuple[Permutation, ...]
    provenance: str = "imported"
    params: Mapping[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(self.perms))
        if not self.perms:
            raise ValueError("a PermSet needs at least one permutation")
        n = self.perms[0].n
        if any(p.n != n for p in self.perms):
            raise ValueError("all permutations must share the same ground set")
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def n(self) -> int:
        return self.perms[0].n

    @property
    def k(self) -> int:
        return len(self.perms)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.perms)

    def __len__(self) -> int:
        return len(self.perms)
