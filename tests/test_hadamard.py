import random

import pytest

from permlcs import (
    HadamardMatrix,
    build_hadamard_set,
    hadamard_matrix,
    identity,
    lcs_all_pairs,
    normalize,
    paley,
    restrict,
    sylvester,
)

from oracles import DigitVector, agreement_columns, digits_of, lcs_pair_dp, value_of

SYLVESTER_4 = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
    (1, -1, -1, 1),
)


def assert_normalized(h):
    assert h.rows[0] == (1,) * h.order
    assert tuple(r[0] for r in h.rows) == (1,) * h.order


def test_sylvester_small_orders():
    assert sylvester(1).rows == ((1,),)
    assert sylvester(2).rows == ((1, 1), (1, -1))
    assert sylvester(4).rows == SYLVESTER_4


def test_sylvester_rejects_non_powers():
    for order in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            sylvester(order)


def test_sylvester_invariants():
    h = sylvester(8)
    assert_normalized(h)
    for i in range(8):
        for j in range(i + 1, 8):
            assert sum(a != b for a, b in zip(h.rows[i], h.rows[j])) == 4


def test_matrix_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        HadamardMatrix(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        HadamardMatrix(((1, 0), (1, -1)))
    with pytest.raises(ValueError):
        HadamardMatrix(((1, 1, 1), (1, -1, -1)))


def test_paley_small_orders():
    h = paley(4)
    assert h.order == 4
    assert_normalized(h)
    h12 = paley(12)
    assert_normalized(h12)
    for i in range(12):
        for j in range(i + 1, 12):
            assert sum(a != b for a, b in zip(h12.rows[i], h12.rows[j])) == 6


def test_paley_rejects_unsupported():
    for order in (10, 6, 16):  # 9 not prime, 5 = 1 mod 4, 15 not prime
        with pytest.raises(ValueError):
            paley(order)


def test_normalize_fixpoint_and_row_negation():
    h = sylvester(4)
    assert normalize(h) == h
    negated = HadamardMatrix((tuple(-v for v in h.rows[0]),) + h.rows[1:])
    assert normalize(negated) == h


def test_normalize_random_signed():
    rng = random.Random(8)
    base = sylvester(8)
    rows = [list(r) for r in base.rows]
    for i in range(8):
        if rng.random() < 0.5:
            rows[i] = [-v for v in rows[i]]
    for c in range(8):
        if rng.random() < 0.5:
            for r in rows:
                r[c] = -r[c]
    fixed = normalize(HadamardMatrix(tuple(tuple(r) for r in rows)))
    assert_normalized(fixed)


def test_hadamard_matrix_dispatch():
    assert hadamard_matrix(8).rows == sylvester(8).rows
    assert hadamard_matrix(12).order == 12
    with pytest.raises(ValueError):
        hadamard_matrix(10)


def test_agreement_columns_examples():
    h = sylvester(4)
    assert agreement_columns(h, 0, 1) == {2}
    assert agreement_columns(h, 2, 3) == {2}
    with pytest.raises(ValueError):
        agreement_columns(h, 1, 1)


def test_agreement_columns_size_forced():
    for order in (4, 8, 12, 16):
        h = hadamard_matrix(order)
        for i in range(order):
            for j in range(i + 1, order):
                assert len(agreement_columns(h, i, j)) == order // 2 - 1


def test_digit_round_trip():
    for s, width in ((2, 3), (3, 3), (5, 2)):
        for x in range(1, s**width + 1):
            dv = digits_of(x, s, width)
            assert all(1 <= d <= s for d in dv.digits)
            assert value_of(dv) == x
    assert digits_of(1, 2, 3) == DigitVector(2, (1, 1, 1))
    assert digits_of(8, 2, 3) == DigitVector(2, (2, 2, 2))


def test_digit_errors():
    with pytest.raises(ValueError):
        digits_of(9, 2, 3)
    with pytest.raises(ValueError):
        value_of(DigitVector(2, (1, 3)))


def test_build_4_2_frozen():
    s = build_hadamard_set(4, 2)
    assert s.n == 8 and s.k == 4
    assert s.perms[0] == identity(8)  # all-ones row keeps the standard order
    assert [p.one_line for p in s.perms[1:]] == [
        (6, 5, 8, 7, 2, 1, 4, 3),
        (4, 3, 2, 1, 8, 7, 6, 5),
        (7, 8, 5, 6, 3, 4, 1, 2),
    ]
    m = lcs_all_pairs(s)
    assert m.max_pair == 2
    for i, j, v in m.off_diagonal():
        assert lcs_pair_dp(s.perms[i], s.perms[j]) == v == 2


def test_build_matches_digitwise_reference():
    # independent scalar route: flip digits per row sign, reassemble
    for k, s in ((4, 2), (4, 3), (8, 2)):
        built = build_hadamard_set(k, s)
        h = hadamard_matrix(k)
        for row, p in zip(h.rows, built.perms):
            images = p.one_line
            for x in range(1, built.n + 1):
                dv = digits_of(x, s, k - 1)
                mapped = tuple(
                    d if row[c + 1] == 1 else s + 1 - d
                    for c, d in enumerate(dv.digits)
                )
                assert images[x - 1] == value_of(DigitVector(s, mapped))


def test_build_bounds():
    cases = {(4, 2): 2, (4, 3): 3, (4, 4): 4, (8, 2): 8}
    for (k, s), bound in cases.items():
        built = build_hadamard_set(k, s)
        assert built.n == s ** (k - 1)
        m = lcs_all_pairs(built)
        assert m.max_pair <= bound == s ** (k // 2 - 1)
        h = hadamard_matrix(k)
        for i, j, v in m.off_diagonal():
            assert v <= s ** len(agreement_columns(h, i, j))


@pytest.mark.parametrize("k,s", [(4, 5), (8, 3), (8, 4), (12, 2)])
def test_digit_set_lcs_is_exactly_the_bound(k, s):
    # unrestricted digit sets sit on their guarantee; k=12 is a Paley order
    m = lcs_all_pairs(build_hadamard_set(k, s))
    assert m.min_pair == m.max_pair == s ** (k // 2 - 1)


def test_build_restricted():
    full = build_hadamard_set(4, 3)
    cut = build_hadamard_set(4, 3, n=10)
    assert cut.n == 10
    assert cut.perms == tuple(restrict(p, 10) for p in full.perms)
    assert lcs_all_pairs(cut).max_pair <= lcs_all_pairs(full).max_pair


def test_build_parameter_errors():
    with pytest.raises(ValueError):
        build_hadamard_set(1, 2)
    with pytest.raises(ValueError):
        build_hadamard_set(4, 0)
    with pytest.raises(ValueError):
        build_hadamard_set(4, 1)  # base 1 puts every member on [1]
    with pytest.raises(ValueError):
        build_hadamard_set(4, 2, n=9)
    with pytest.raises(ValueError):
        build_hadamard_set(10, 2)  # no order-10 matrix
    with pytest.raises(ValueError):
        build_hadamard_set(8, 300)

