import pytest

from permlcs import (
    PermSet,
    Permutation,
    build_exact,
    build_hadamard_set,
    code_report,
    d_del,
    identity,
    lcs_all_pairs,
    min_distance,
    random_perm,
    reversal,
    trial_rng,
)


def test_d_del_examples():
    p = Permutation.from_one_line([5, 3, 1, 2, 4])
    assert d_del(p, p) == 0
    assert d_del(identity(9), reversal(9)) == 8
    assert d_del(Permutation.from_one_line([2, 1, 4, 3]), identity(4)) == 2


def test_d_del_mismatched_n():
    with pytest.raises(ValueError):
        d_del(identity(3), identity(4))


def test_metric_axioms_sampled():
    rng = trial_rng(2718)
    n = 50
    for _ in range(200):
        a, b, c = (random_perm(n, rng) for _ in range(3))
        assert d_del(a, b) == d_del(b, a)
        assert d_del(a, a) == 0
        assert (d_del(a, b) == 0) == (a == b)
        assert d_del(a, c) <= d_del(a, b) + d_del(b, c)


def test_min_distance_examples():
    assert min_distance(PermSet((identity(11), reversal(11)))) == 10
    dup = PermSet((identity(6), identity(6)))
    assert min_distance(dup) == 0
    with pytest.raises(ValueError):
        min_distance(PermSet((identity(4),)))


def test_duality_exact():
    for s in (
        build_exact(72, 3),
        build_hadamard_set(4, 2),
        PermSet((identity(9), reversal(9))),
    ):
        assert min_distance(s) + lcs_all_pairs(s).max_pair == s.n


def test_code_report_algebraic():
    s = build_exact(72, 3)
    rep = code_report(s)
    assert rep.n == 72 and rep.k == 3
    assert rep.min_distance == 72 - rep.max_pair_lcs
    assert rep.provenance == "algebraic"
    assert not rep.duplicate_codewords
    # cube-root-law consequence, checked exactly: (n - d)^3 <= 32^3 * n * k
    assert (72 - rep.min_distance) ** 3 <= 32**3 * 72 * 3


def test_code_report_hadamard():
    rep = code_report(build_hadamard_set(4, 2))
    assert rep.n == 8
    assert rep.max_pair_lcs <= 2
    assert rep.min_distance >= 6


def test_code_report_duplicates_flagged():
    p = identity(7)
    rep = code_report(PermSet((p, p)))
    assert rep.min_distance == 0
    assert rep.duplicate_codewords
    assert "warning" in rep.as_dict()


def test_code_report_flags_equal_but_distinct_members():
    # members built apart compare and hash equal, so the set dedupes them
    s = PermSet((identity(6), reversal(6), Permutation.from_one_line(range(1, 7))))
    assert len(set(s.perms)) == 2
    rep = code_report(s)
    assert rep.duplicate_codewords and rep.min_distance == 0
    assert "warning" in rep.as_dict()
    assert not code_report(PermSet((identity(6), reversal(6)))).duplicate_codewords
