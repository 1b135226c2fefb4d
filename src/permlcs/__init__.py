"""Sets of permutations with provably short pairwise common subsequences.

Two deterministic constructions (a mod-p lattice ordering and a Hadamard
digit construction), an exact O(n log n) LIS/LCS engine, seeded random
baselines, and the deletion-code view of the same quantities.  The
`permlcs` CLI fronts all of it.
"""

from .algebraic import ConstructionParams, build_exact, build_general, params_from
from .arith import ceil_cbrt, ceil_root, floor_root, is_prime, next_prime_above
from .bounds import (
    LisSample,
    ProbabilisticCheck,
    check_probabilistic_bound,
    lcs_threshold,
    pigeonhole_pair,
    random_perm,
    random_perm_set,
    sample_lis,
    trial_rng,
)
from .codes import CodeReport, code_report, d_del, min_distance
from .fileio import FormatError, dumps_permset, loads_permset, read_permset, write_permset
from .hadamard import (
    HadamardMatrix,
    build_hadamard_set,
    hadamard_matrix,
    normalize,
    paley,
    sylvester,
)
from .perm import Permutation, PermSet, compose, identity, invert, restrict, reversal
from .subseq import LcsMatrix, lcs_all_pairs, lcs_pair, lds, lis

__version__ = "0.1.0"

__all__ = [
    "ConstructionParams", "build_exact", "build_general", "params_from",
    "ceil_cbrt", "ceil_root", "floor_root", "is_prime", "next_prime_above",
    "LisSample", "ProbabilisticCheck",
    "check_probabilistic_bound", "lcs_threshold", "pigeonhole_pair",
    "random_perm", "random_perm_set", "sample_lis", "trial_rng",
    "CodeReport", "code_report", "d_del", "min_distance",
    "FormatError", "dumps_permset", "loads_permset", "read_permset", "write_permset",
    "HadamardMatrix", "build_hadamard_set", "hadamard_matrix", "normalize",
    "paley", "sylvester",
    "Permutation", "PermSet", "compose", "identity", "invert", "restrict",
    "reversal",
    "LcsMatrix", "lcs_all_pairs", "lcs_pair", "lds", "lis",
]
