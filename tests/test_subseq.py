import itertools
import math
import random

import pytest

from permlcs import (
    PermSet,
    Permutation,
    build_exact,
    compose,
    identity,
    lcs_all_pairs,
    lcs_pair,
    lds,
    lis,
    reversal,
)
from oracles import lcs_by_enumeration, lcs_pair_dp, lis_quadratic


def rand_perm(rng, n):
    return Permutation.from_one_line(rng.sample(range(1, n + 1), n))


def test_lis_examples():
    assert lis(identity(7).one_line) == 7
    assert lis(reversal(7).one_line) == 1
    assert lis([3, 1, 4, 2, 5]) == 3 == lis_quadratic([3, 1, 4, 2, 5])
    assert lis([]) == 0


def test_lds_examples():
    assert lds(reversal(6).one_line) == 6
    assert lds(identity(6).one_line) == 1
    assert lds([3, 1, 4, 2, 5]) == 2 == lis_quadratic([-v for v in [3, 1, 4, 2, 5]])
    assert lds([]) == 0


def test_duplicate_values_rejected():
    with pytest.raises(ValueError):
        lis([1, 2, 2])
    with pytest.raises(ValueError):
        lds([4, 4])


def test_lis_matches_quadratic_oracle():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(0, 60)
        seq = rng.sample(range(1000), n)
        assert lis(seq) == lis_quadratic(seq)
        assert lds(seq) == lis_quadratic([-v for v in seq])


def test_lis_exhaustive_tiny():
    # every permutation of [5]: patience == quadratic DP == definition
    for word in itertools.permutations(range(1, 6)):
        assert lis(word) == lis_quadratic(word)


def test_lcs_pair_examples():
    p = Permutation.from_one_line([4, 2, 5, 1, 3])
    assert lcs_pair(p, p) == 5
    assert lcs_pair(identity(9), reversal(9)) == 1
    a = Permutation.from_one_line([2, 1, 4, 3])
    assert lcs_pair(a, identity(4)) == 2 == lcs_pair_dp(a, identity(4))


def test_lcs_pair_mismatched_n():
    with pytest.raises(ValueError):
        lcs_pair(identity(3), identity(4))
    with pytest.raises(ValueError):
        lcs_pair_dp(identity(3), identity(4))


def test_lcs_dp_trivial():
    assert lcs_pair_dp(identity(3), identity(3)) == 3
    assert lcs_pair_dp(identity(6), reversal(6)) == 1


def test_lcs_dp_size_guard():
    big = identity(3000)
    with pytest.raises(ValueError):
        lcs_pair_dp(big, big)


def test_lcs_matches_enumeration_tiny():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 7)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        want = lcs_by_enumeration(a.one_line, b.one_line)
        assert lcs_pair(a, b) == want
        assert lcs_pair_dp(a, b) == want


def test_lcs_fast_equals_dp_random():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(1, 128)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        assert lcs_pair(a, b) == lcs_pair_dp(a, b)


def test_lcs_symmetry_and_bounds():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 80)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        v = lcs_pair(a, b)
        assert v == lcs_pair(b, a)
        assert 1 <= v <= n


def test_lcs_relabeling_invariance():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 60)
        a, b, sigma = (rand_perm(rng, n) for _ in range(3))
        assert lcs_pair(compose(sigma, a), compose(sigma, b)) == lcs_pair(a, b)


def test_all_pairs_trivial_sets():
    p = Permutation.from_one_line([3, 1, 2])
    m = lcs_all_pairs(PermSet((p, p)))
    assert m.max_pair == 3 and m.min_pair == 3
    m = lcs_all_pairs(PermSet((identity(6), reversal(6), identity(6))))
    assert m.max_pair == 6  # the duplicate pair
    assert m.min_pair == 1


def test_all_pairs_requires_two():
    with pytest.raises(ValueError):
        lcs_all_pairs(PermSet((identity(4),)))


def test_all_pairs_matches_dp_on_construction():
    s = build_exact(72, 3)
    m = lcs_all_pairs(s)
    assert m.k == 3 and m.n == 72
    for i, j, v in m.off_diagonal():
        assert v == lcs_pair_dp(s.perms[i], s.perms[j])
        assert m[i, j] == m[j, i] == v
    assert m[0, 0] == 72


def test_all_pairs_threaded_matches_serial():
    rng = random.Random(55)
    s = PermSet(tuple(rand_perm(rng, 40) for _ in range(5)))
    assert lcs_all_pairs(s, threads=4) == lcs_all_pairs(s)


def test_erdos_szekeres_floor():
    rng = random.Random(13)
    for n in (10, 50, 100, 400):
        ceil_sqrt = math.isqrt(n - 1) + 1
        for _ in range(20):
            word = rng.sample(range(1, n + 1), n)
            assert max(lis(word), lds(word)) >= ceil_sqrt
