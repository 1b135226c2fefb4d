"""Sets of permutations with provably short pairwise common subsequences.

Two deterministic constructions (a mod-p lattice ordering and a Hadamard
digit construction), an exact O(n log n) LIS/LCS engine, seeded random
baselines, and the deletion-code view of the same quantities.  The
`permlcs` CLI fronts all of it.

`import permlcs` loads no submodule: each public name is imported from its
owning submodule the first time it is used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that owns it, in the order of __all__.
_OWNERS = {
    name: module
    for module, names in (
        ("algebraic", ("ConstructionParams", "build_exact", "build_general", "params_from")),
        ("arith", ("ceil_cbrt", "ceil_root", "floor_root", "is_prime", "next_prime_above")),
        ("bounds", ("pigeonhole_pair",)),
        ("codes", ("CodeReport", "code_report", "d_del", "min_distance")),
        ("fileio", ("FormatError", "dumps_permset", "loads_permset", "read_permset",
                    "write_permset")),
        ("hadamard", ("HadamardMatrix", "build_hadamard_set", "hadamard_matrix",
                      "paley", "sylvester")),
        ("perm", ("Permutation", "PermSet", "compose", "identity", "invert", "random_perm",
                  "random_perm_set", "restrict", "reversal", "trial_rng")),
        ("subseq", ("LcsMatrix", "LisSample", "ProbabilisticCheck", "check_probabilistic_bound",
                    "lcs_all_pairs", "lcs_pair", "lcs_threshold", "lds", "lis", "sample_lis")),
    )
    for name in names
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    """Import `name` from its owning submodule and keep it here."""
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
