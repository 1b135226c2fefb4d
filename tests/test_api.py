"""The public surface of `permlcs` and the independence of the test oracles."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import permlcs

# Reference code that lives in tests/oracles.py, or was deleted, with the
# size limits and caps that went with it; the shipped library holds none.
NOT_SHIPPED = {
    "lcs_pair_dp", "DP_SIZE_LIMIT", "prefix_lcs_table", "PREFIX_TABLE_SIZE_LIMIT",
    "LatticePoint", "SortKey", "from_lattice", "to_lattice", "sort_key", "value_sort_key",
    "key_triples", "_coordinate_arrays", "_key_arrays",
    "DigitVector", "digits_of", "value_of", "agreement_columns",
    "dumps_matrix", "loads_matrix", "DEFAULT_SIZE_CAP", "MAX_NK",
    "dumps_permline", "loads_permline", "read_permline", "write_permline",
    "verify_cube_root_lower_bound", "LowerBoundReport", "icbrt", "cube_root_floor",
    "_WITNESSES", "_WITNESS_LIMIT", "normalize",
}


def test_star_import_resolves():
    namespace = {}
    exec("from permlcs import *", namespace)
    assert set(permlcs.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(permlcs.__all__) == len(set(permlcs.__all__))


def test_all_is_the_public_surface():
    assert permlcs.__all__ == [
        "ConstructionParams", "build_exact", "build_general", "params_from",
        "ceil_cbrt", "ceil_root", "floor_root", "is_prime", "next_prime_above",
        "pigeonhole_pair",
        "CodeReport", "code_report", "d_del", "min_distance",
        "FormatError", "dumps_permset", "loads_permset", "read_permset", "write_permset",
        "HadamardMatrix", "build_hadamard_set", "hadamard_matrix",
        "paley", "sylvester",
        "Permutation", "PermSet", "compose", "identity", "invert", "random_perm",
        "random_perm_set", "restrict", "reversal", "trial_rng",
        "LcsMatrix", "LisSample", "ProbabilisticCheck", "check_probabilistic_bound",
        "lcs_all_pairs", "lcs_pair", "lcs_threshold", "lds", "lis", "sample_lis",
    ]


def test_names_load_on_first_use():
    assert set(permlcs.__all__) <= set(dir(permlcs))
    for name in permlcs.__all__:
        owner = importlib.import_module(f"permlcs.{permlcs._OWNERS[name]}")
        assert getattr(permlcs, name) is getattr(owner, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        permlcs.no_such_name


def test_reference_code_not_shipped():
    assert NOT_SHIPPED.isdisjoint(permlcs.__all__)
    assert NOT_SHIPPED.isdisjoint(vars(permlcs))
    for info in pkgutil.iter_modules(permlcs.__path__):
        module = importlib.import_module(f"permlcs.{info.name}")
        assert NOT_SHIPPED.isdisjoint(vars(module)), info.name


def test_test_only_accessors_not_shipped():
    assert not hasattr(permlcs.HadamardMatrix, "is_normalized")
    assert not callable(permlcs.identity(3))


def test_oracles_import_nothing_from_permlcs():
    tree = ast.parse((Path(__file__).with_name("oracles.py")).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules
    assert not any(m == "permlcs" or m.startswith(("permlcs.", ".")) for m in modules)
