import json
import random
import tracemalloc

import numpy as np
import pytest

from permlcs import (
    build_exact,
    build_general,
    build_hadamard_set,
    ceil_cbrt,
    lcs_all_pairs,
    params_from,
    random_perm_set,
    restrict,
    trial_rng,
)
from permlcs.algebraic import _coordinate_arrays, _key_arrays
from permlcs.perm import MAX_N

from oracles import (
    LatticePoint,
    SortKey,
    from_lattice,
    lcs_pair_dp,
    sort_key,
    to_lattice,
    value_sort_key,
)


def test_params_examples():
    p = params_from(9, 3)
    assert (p.s1, p.s2, p.s3, p.p) == (1, 3, 3, 13)
    p = params_from(72, 3)
    assert (p.s1, p.s2, p.s3, p.p) == (2, 6, 6, 29)


def test_params_preconditions():
    with pytest.raises(ValueError):
        params_from(9, 2)  # k < 3
    with pytest.raises(ValueError):
        params_from(10, 3)  # not k^2 * s1^3
    with pytest.raises(ValueError):
        params_from(8, 3)  # n < k^2


def test_params_bertrand_window():
    for k in (3, 4, 5, 8, 11):
        for s1 in (1, 2, 3, 5, 9):
            p = params_from(k * k * s1**3, k)
            assert 4 * p.s3 < p.p < 8 * p.s3
            assert p.s2 == p.s3 == p.s1 * k


def test_lattice_bijection_examples():
    params = params_from(72, 3)
    assert from_lattice(LatticePoint(1, 1, 1), params) == 1
    assert from_lattice(LatticePoint(2, 6, 6), params) == 72
    assert from_lattice(LatticePoint(2, 3, 4), params) == 42
    assert to_lattice(1, params) == LatticePoint(1, 1, 1)
    assert to_lattice(72, params) == LatticePoint(2, 6, 6)


def test_lattice_round_trip_exhaustive():
    params = params_from(72, 3)
    for a in range(1, 73):
        assert from_lattice(to_lattice(a, params), params) == a


def test_lattice_range_errors():
    params = params_from(72, 3)
    with pytest.raises(ValueError):
        from_lattice(LatticePoint(3, 1, 1), params)
    with pytest.raises(ValueError):
        to_lattice(0, params)
    with pytest.raises(ValueError):
        to_lattice(73, params)


def test_sort_key_hand_values():
    params = params_from(9, 3)
    assert sort_key(1, LatticePoint(1, 1, 1), params) == SortKey(1, 2, 5)
    assert sort_key(3, LatticePoint(1, 1, 1), params) == SortKey(1, 4, 4)
    with pytest.raises(ValueError):
        sort_key(0, LatticePoint(1, 1, 1), params)
    with pytest.raises(ValueError):
        sort_key(4, LatticePoint(1, 1, 1), params)


def test_keys_injective_per_generator():
    for n, k in ((9, 3), (72, 3), (128, 4), (243, 3)):
        params = params_from(n, k)
        for j in range(1, k + 1):
            triples = {value_sort_key(j, a, params) for a in range(1, n + 1)}
            assert len(triples) == n


def test_vectorized_keys_match_scalar():
    params = params_from(243, 3)
    x, y, z = (a.ravel() for a in np.broadcast_arrays(*_coordinate_arrays(params)))
    rng = random.Random(17)
    for j in range(1, params.k + 1):
        major, middle, minor = _key_arrays(j, x, y, z, params)
        for a in rng.sample(range(1, params.n + 1), 40):
            key = value_sort_key(j, a, params)
            assert (minor[a - 1], middle[a - 1], major[a - 1]) == key


def test_middle_key_stays_in_proof_window():
    # |middle difference| can reach 2*k*s1 + 2*s2, which must stay below p
    for n, k in ((9, 3), (72, 3), (576, 3), (128, 4)):
        params = params_from(n, k)
        assert 2 * k * params.s1 + 2 * params.s2 < params.p


def test_build_general_matches_lexsort_of_key_triples():
    # reference order: numpy's lexsort of the (major, middle, minor) triples,
    # independent of the build's packed key; the last two inputs are the
    # algebraic-verify benchmark set and a larger k=5 set
    rng = random.Random(41)
    cases = [(n, k) for k in range(3, 13)
             for n in (k * k, k * k + 1, 8 * k * k - 1, 8 * k * k, rng.randint(k * k, 30 * k * k))]
    for n, k in cases + [(100_000, 8), (12_345, 5)]:
        params = params_from(k * k * ceil_cbrt(-(-n // (k * k))) ** 3, k)
        x, y, z = (a.ravel() for a in np.broadcast_arrays(*_coordinate_arrays(params)))
        for j, p in enumerate(build_general(n, k).perms, start=1):
            major, middle, minor = _key_arrays(j, x, y, z, params)
            order = np.lexsort((minor, middle, major))
            assert np.array_equal(p.array, order[order < n]), (n, k, j)


def test_lattice_build_scratch_stays_small():
    # The int32 keys are computed on the grid's axes and sorted over the kept
    # points only, so the build's traced peak above its members stays within
    # 4 int64 words per point of [n'].
    for n, k in ((100_000, 8), (100_000, 3)):
        tracemalloc.start()
        try:
            s = build_general(n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = peak - sum(p.array.nbytes for p in s.perms)
        assert scratch <= 4 * 8 * s.params["n_prime"], (n, k, scratch)


def test_lattice_key_fits_int32_up_to_the_cap():
    # largest key: major = p-1, middle = k*s1 + s2 and minor = s1, so below
    # p*W*s1 with W = k*s1 + s2 + 1; largest sum that _key_arrays reduces
    # mod p: j = k, x = s1, y = s2, z = s3
    for k in range(3, 4097):
        s1 = ceil_cbrt(MAX_N // (k * k))
        if k * k * s1**3 > MAX_N:
            s1 -= 1
        params = params_from(k * k * s1**3, k)
        width = k * s1 + params.s2 + 1
        assert params.p * width * s1 - 1 < 2**31
        assert k * k * s1 + 2 * k * params.s2 + 2 * params.s3 < 2**31


def test_build_exact_9_3_frozen():
    s = build_exact(9, 3)
    assert [p.one_line for p in s.perms] == [
        (9, 1, 4, 2, 7, 5, 3, 8, 6),
        (7, 2, 5, 8, 3, 6, 9, 1, 4),
        (8, 3, 1, 6, 4, 9, 7, 2, 5),
    ]
    m = lcs_all_pairs(s)
    # all three pairwise values sit inside [ceil(9^(1/3)), 2p-1] = [3, 25]
    assert [v for _, _, v in m.off_diagonal()] == [4, 4, 4]
    assert s.provenance == "algebraic"
    assert s.params["p"] == 13


def test_build_exact_72_3_against_dp():
    s = build_exact(72, 3)
    m = lcs_all_pairs(s)
    assert [(i, j, v) for i, j, v in m.off_diagonal()] == [(0, 1, 15), (0, 2, 19), (1, 2, 17)]
    for i, j, v in m.off_diagonal():
        assert lcs_pair_dp(s.perms[i], s.perms[j]) == v
    assert m.max_pair <= 2 * 29 - 1
    assert m.max_pair <= 16 * 6  # 16 * (n*k)^(1/3), exact here
    assert m.max_pair >= ceil_cbrt(72)


def test_build_exact_pair_bound_sweep():
    rng = random.Random(4)
    for _ in range(8):
        k = rng.choice((3, 4, 5))
        s1 = rng.choice((1, 2, 3))
        n = k * k * s1**3
        s = build_exact(n, k)
        m = lcs_all_pairs(s)
        assert m.max_pair <= 2 * s.params["p"] - 1
        assert m.max_pair >= ceil_cbrt(n)


def test_build_general_exact_case_identical():
    assert build_general(72, 3).perms == build_exact(72, 3).perms


def test_build_general_10_3():
    s = build_general(10, 3)
    assert s.n == 10
    assert s.params["n_prime"] == 72 and s.params["s1"] == 2
    assert not s.params["exact"]
    big = build_exact(72, 3)
    assert s.perms == tuple(restrict(p, 10) for p in big.perms)
    m = lcs_all_pairs(s)
    assert [v for _, _, v in m.off_diagonal()] == [5, 4, 6]
    assert m.max_pair ** 3 <= 32**3 * 10 * 3


def test_build_general_preconditions():
    with pytest.raises(ValueError):
        build_general(8, 3)
    with pytest.raises(ValueError):
        build_general(100, 2)


def test_builds_take_any_integer_and_refuse_a_float():
    # the integer cube root's Newton seed calls bit_length, which numpy integers lack
    assert build_general(np.int64(100), 3) == build_general(100, 3)
    assert build_exact(np.int64(72), 3) == build_exact(72, 3)
    with pytest.raises(TypeError):
        build_general(100.0, 3)
    with pytest.raises(TypeError):
        build_exact(72.0, 3)


@pytest.mark.parametrize("build, args, kwargs", [
    (build_general, (100, 3), {}),
    (build_exact, (72, 3), {}),
    (build_hadamard_set, (4, 3), {}),
    (build_hadamard_set, (4, 3), {"n": 10}),
    (lambda n, k: random_perm_set(n, k, trial_rng(0)), (5, 3), {}),
])
def test_records_of_numpy_integer_sizes_are_plain_json(build, args, kwargs):
    record = dict(build(*args, **kwargs).params)
    as_numpy = dict(build(*map(np.int64, args), **{k: np.int64(v) for k, v in kwargs.items()}).params)
    assert json.dumps(as_numpy) == json.dumps(record)


def test_build_general_random_cases_theorem_bound():
    rng = random.Random(99)
    for _ in range(6):
        k = rng.randint(3, 6)
        n = rng.randint(k * k, 4000)
        s = build_general(n, k)
        assert s.n == n and s.k == k
        m = lcs_all_pairs(s)
        assert m.max_pair ** 3 <= 32**3 * n * k
        assert m.max_pair >= ceil_cbrt(n)
        for p in s.perms:
            assert sorted(p.one_line) == list(range(1, n + 1))


def test_emitted_words_are_numpy_free():
    s = build_general(30, 3)
    for p in s.perms:
        assert all(type(v) is int for v in p.word)
    assert type(s.params["p"]) is int
