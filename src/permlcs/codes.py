"""Permutation codes under deletion distance.

For two permutations on the same [n], half the number of deletions plus
insertions needed to turn one into the other is exactly n - LCS, so all
distances here are computed through the LCS engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import Permutation, PermSet
from .subseq import lcs_all_pairs, lcs_pair


def d_del(a: Permutation, b: Permutation) -> int:
    """Deletion distance between two permutations on the same ground set."""
    return a.n - lcs_pair(a, b)


def min_distance(s: PermSet) -> int:
    """Minimum pairwise deletion distance; 0 when codewords repeat."""
    return s.n - lcs_all_pairs(s).max_pair


@dataclass(frozen=True)
class CodeReport:
    """Code parameters of a permutation set over the deletion metric."""

    n: int
    k: int
    min_distance: int
    max_pair_lcs: int
    provenance: str
    duplicate_codewords: bool

    def as_dict(self) -> dict:
        out = {
            "n": self.n, "k": self.k, "min_distance": self.min_distance,
            "max_pair_lcs": self.max_pair_lcs, "provenance": self.provenance,
        }
        if self.duplicate_codewords:
            out["warning"] = "duplicate codewords; distance degenerates to 0"
        return out


def code_report(s: PermSet) -> CodeReport:
    """Two permutations on [n] have LCS n exactly when they are equal, so a
    repeated codeword is exactly a minimum distance of 0."""
    dist = min_distance(s)
    return CodeReport(
        n=s.n, k=s.k, min_distance=dist, max_pair_lcs=s.n - dist,
        provenance=s.provenance, duplicate_codewords=dist == 0,
    )
