"""Permutations on [n] = {1, ..., n} and ordered collections of them.

Storage is 0-based: a permutation pi is held as one read-only, C-contiguous
`np.int32` array, the word (pi(1)-1, ..., pi(n)-1).  Every ground set is
capped at `MAX_N` = 2^24 < 2^31, so `int32` holds every entry.  One-line
notation and the file formats are 1-based: `from_one_line`, `one_line` and
iteration convert here, and the native PERMSET codec in C, where `render_line`
adds 1 and `parse_line` subtracts 1.  Values are immutable.  Sizes are
integers: `_ground_set` and `restrict` apply `operator.index`, so a float
raises TypeError.  `_ground_set` alone decides 1 <= n <= MAX_N, and every
maker of a word asks it before allocating one.  A word is validated once,
where it enters: `Permutation(word)` and `from_one_line` check its size, its
range and one O(n) pass that marks each value in a 1-byte array, and
`parse_line` checks a PERMSET value line in C under a capped header.  The
builders, `rng.permutation` draws and the operations below are rearrangements
by construction, so `_adopt` checks nothing.  No operation boxes an entry as a
Python int; `word`, `one_line` and iteration build them on access.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _native

# Largest ground set of any member, below 2^31 so an int32 word holds every
# entry; `_ground_set` refuses a larger n with a ValueError before allocating.
MAX_N = 1 << 24


def _ground_set(n: int, label: str = "") -> int:
    """n as an int, once 1 <= n <= MAX_N; TypeError for a non-integer n,
    ValueError otherwise, naming the size as `label` (default `n = <n>`)."""
    n = operator.index(n)  # a float raises TypeError, as range(2.5) does
    if n < 1:
        raise ValueError("ground set must be non-empty")
    if n > MAX_N:
        raise ValueError(f"{label or f'n = {n}'} exceeds the ground-set cap {MAX_N}")
    return n


def _checked(word: Iterable[int], *, first: int = 0) -> np.ndarray:
    """`word`, a rearrangement of first..first+n-1, as a fresh, read-only,
    C-contiguous int32 word `word` - first; ValueError for any other `word`
    and for a size `_ground_set` refuses.  The public constructors' one
    check."""
    a = np.asarray(word if isinstance(word, np.ndarray) else list(word))
    n = _ground_set(a.size)  # sized first: numpy reads [] as float64
    if a.dtype.kind not in "iu" or a.ndim != 1 or a.min() < first or a.max() >= first + n:
        raise ValueError(f"one-line form is not a rearrangement of 1..{n}")
    # Marked in the input's own dtype: numpy indexes with an int64 array
    # faster than with the int32 word cast from it.
    seen = np.zeros(first + n, dtype=bool)
    seen[a] = True
    if not seen[first:].all():
        raise ValueError(f"one-line form is not a rearrangement of 1..{n}")
    # In range, so the word fits int32 and an unsigned 0 cannot wrap below first.
    a = np.subtract(a, first, dtype=np.int32, casting="unsafe")
    a.flags.writeable = False
    return a


def _adopt(word: np.ndarray) -> "Permutation":
    """The member with 0-based word `word`, a fresh rearrangement of
    0..n-1 that the library made itself (a builder's order, an operation's
    result, an `rng.permutation` draw, a line `parse_line` accepted), sized
    by its maker before it was allocated, so it is not checked again.  Not
    copied, unless it must be cast to a C-contiguous int32 array."""
    p = Permutation.__new__(Permutation)
    p._array = np.ascontiguousarray(word, dtype=np.int32)
    p._array.flags.writeable = False
    return p


class Permutation:
    """A bijection on [n], stored as the 0-based word of its one-line form.

    The word (any integer sequence or array) is copied into a fresh int32
    array, checked, and made read-only.
    """

    __slots__ = ("_array",)

    def __init__(self, word: Iterable[int]):
        self._array = _checked(word)

    @classmethod
    def from_one_line(cls, images: Iterable[int]) -> "Permutation":
        """Build from 1-based one-line notation pi(1) ... pi(n)."""
        p = cls.__new__(cls)
        p._array = _checked(images, first=1)
        return p

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
    return _adopt(np.arange(_ground_set(n), dtype=np.int32))


def reversal(n: int) -> Permutation:
    """The order-reversing permutation t -> n+1-t."""
    return _adopt(np.arange(_ground_set(n) - 1, -1, -1, dtype=np.int32))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a . b)(t) = a(b(t))."""
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations on [{a.n}] and [{b.n}]")
    return _adopt(a.array[b.array])


def invert(a: Permutation) -> Permutation:
    inv = np.empty(a.n, dtype=np.int32)
    lib = _native.library()
    if lib is None:
        inv[a.array] = np.arange(a.n, dtype=np.int32)
    else:
        lib.invert(a.array, a.n, inv)
    return _adopt(inv)


def _restriction_size(m: int, n: int) -> int:
    """m as an int, once 1 <= m <= n: the one check of a cut to [m] of a
    member on [n], which a builder can make before it builds any member."""
    if not 1 <= (m := operator.index(m)) <= n:
        raise ValueError(f"restriction size {m} outside [1, {n}]")
    return m


def restrict(a: Permutation, m: int) -> Permutation:
    """Delete every value above m, an integer in [1, a.n], from the one-line
    form: the survivors, in order, are a permutation on [m], and `a` itself at
    m = a.n.  The builders cut their own members instead: the lattice slices
    its keys to [n] before its one argsort, and the digit set builds only
    the sub-grids that hold values below n."""
    m = _restriction_size(m, a.n)
    return a if m == a.n else _adopt(a.array[a.array < m])


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
