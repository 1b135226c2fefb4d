"""Permutations on [n] = {1, ..., n} and ordered collections of them.

Storage is 0-based: a permutation pi is the word (pi(1)-1, ..., pi(n)-1).
Everything user-facing (one-line notation, file formats, constructor input)
is 1-based; conversion happens only at this boundary.  Values are immutable
and validated once, on construction; no operation re-validates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

# Largest ground set the builders and samplers accept.  They check it before
# allocating anything, so an oversize request is a ValueError rather than a
# MemoryError partway through a build.
MAX_N = 1 << 24


@dataclass(frozen=True)
class Permutation:
    """A bijection on [n], stored as the 0-based word of its one-line form."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if sorted(word) != list(range(len(word))):
            raise ValueError(f"one-line form is not a rearrangement of 1..{len(word)}")

    @classmethod
    def from_one_line(cls, images: Iterable[int]) -> "Permutation":
        """Build from 1-based one-line notation pi(1) ... pi(n)."""
        return cls(tuple(v - 1 for v in images))

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def one_line(self) -> tuple[int, ...]:
        """1-based one-line notation."""
        return tuple(v + 1 for v in self.word)

    def __call__(self, t: int) -> int:
        """pi(t) in the 1-based convention."""
        if not 1 <= t <= len(self.word):
            raise ValueError(f"argument {t} outside [1, {len(self.word)}]")
        return self.word[t - 1] + 1

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.one_line)


def identity(n: int) -> Permutation:
    """The identity permutation on [n]."""
    if n < 1:
        raise ValueError("ground set must be non-empty")
    return Permutation(tuple(range(n)))


def reversal(n: int) -> Permutation:
    """The order-reversing permutation t -> n+1-t."""
    if n < 1:
        raise ValueError("ground set must be non-empty")
    return Permutation(tuple(range(n - 1, -1, -1)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a . b)(t) = a(b(t))."""
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations on [{a.n}] and [{b.n}]")
    aw = a.word
    return Permutation(tuple(aw[v] for v in b.word))


def invert(a: Permutation) -> Permutation:
    inv = [0] * len(a.word)
    for t, v in enumerate(a.word):
        inv[v] = t
    return Permutation(tuple(inv))


def restrict(a: Permutation, m: int) -> Permutation:
    """Delete every value above m from the one-line form; the survivors,
    in order, are a permutation on [m]."""
    if not 1 <= m <= a.n:
        raise ValueError(f"restriction size {m} outside [1, {a.n}]")
    return Permutation(tuple(v for v in a.word if v < m))


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
