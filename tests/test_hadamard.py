import collections
import math
import tracemalloc

import numpy as np
import pytest

import permlcs.hadamard as hadamard
from permlcs import (
    HadamardMatrix,
    Permutation,
    PermSet,
    build_hadamard_set,
    hadamard_matrix,
    identity,
    lcs_all_pairs,
    paley,
    restrict,
    sylvester,
)

from oracles import (
    DigitVector,
    agreement_columns,
    digits_of,
    flipped_grid,
    lcs_pair_dp,
    value_of,
)

SYLVESTER_4 = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
    (1, -1, -1, 1),
)

# paley(12) row by row, + for 1 and - for -1: row 1 + a is + then chi(b - a)
# for b in Z_11, with - on the diagonal
PALEY_12 = (
    "++++++++++++",
    "+-+-+++---+-",
    "+--+-+++---+",
    "++--+-+++---",
    "+-+--+-+++--",
    "+--+--+-+++-",
    "+---+--+-+++",
    "++---+--+-++",
    "+++---+--+-+",
    "++++---+--+-",
    "+-+++---+--+",
    "++-+++---+--",
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
    assert tuple("".join("+" if v == 1 else "-" for v in r) for r in h12.rows) == PALEY_12
    for i in range(12):
        for j in range(i + 1, 12):
            assert sum(a != b for a, b in zip(h12.rows[i], h12.rows[j])) == 6


def test_paley_rejects_unsupported():
    for order in (10, 6, 16):  # 9 not prime, 5 = 1 mod 4, 15 not prime
        with pytest.raises(ValueError):
            paley(order)


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


@pytest.mark.parametrize("k,s", [(4, 5), (8, 3), (8, 4), (12, 2), (8, 6), (16, 2), (20, 2)])
def test_digit_set_lcs_is_exactly_the_bound(k, s):
    # unrestricted digit sets sit on their guarantee; k=12 and k=20 are Paley
    # orders, and (20, 2) sweeps 190 pairs at n = 2**19
    m = lcs_all_pairs(build_hadamard_set(k, s))
    assert m.min_pair == m.max_pair == s ** (k // 2 - 1)


# Unrestricted digit sets whose columns have their own bases, by order:
# (one base per digit column 1..k-1, the distinct pair LCS values)
MIXED_BASES = {
    8: ((7, 6, 4, 5, 5, 5, 5), 4),  # n = 105,000
    12: ((2, 2, 3, 2, 3, 3, 2, 2, 3, 2, 2), 5),  # n = 10,368
    16: ((2,) * 6 + (3,) * 3 + (1,) * 6, 7),  # n = 1,728
    4: ((47, 40, 30), 3),  # n = 56,400
}


def test_mixed_base_pairs_have_the_product_of_their_agreeing_bases(routes):
    """Each pair's LCS is the product of the bases of the columns where its
    rows agree, so the pairs of one set have different answers and a sweep
    that measured the wrong pair, or misplaced one in the table, fails."""
    for kernel in routes:
        for k, (bases, distinct) in MIXED_BASES.items():
            if kernel == "python" and k == 8:
                continue  # 0.66 s on the Python route; the others take 0.19 s together
            h = hadamard_matrix(k)
            m = lcs_all_pairs(PermSet(tuple(Permutation(flipped_grid(row, bases))
                                            for row in h.rows)))
            want = [(i, j, math.prod(bases[c - 1] for c in agreement_columns(h, i, j)))
                    for i in range(k) for j in range(i + 1, k)]
            assert m.off_diagonal() == want, (kernel, k)
            assert len({v for _, _, v in want}) == distinct


def _oracle_members(k, s, n):
    """`restrict` to [n] of each row's whole-grid flip, the oracle member."""
    return tuple(restrict(Permutation(flipped_grid(row, s)), n) for row in hadamard_matrix(k).rows)


def test_build_restricted():
    full = build_hadamard_set(4, 3)
    assert full.perms == _oracle_members(4, 3, 27)
    cut = build_hadamard_set(4, 3, n=10)
    assert cut.n == 10
    assert cut.perms == _oracle_members(4, 3, 10)
    assert lcs_all_pairs(cut).max_pair <= lcs_all_pairs(full).max_pair
    # a Paley order, cut from n' = 2**11
    paley_cut = build_hadamard_set(12, 2, n=1000)
    assert paley_cut.n == 1000 and paley_cut.params["n_prime"] == 2048
    assert paley_cut.perms == _oracle_members(12, 2, 1000)
    # n = n' is the unrestricted build
    same = build_hadamard_set(4, 3, n=27)
    assert same.perms == full.perms and same.params == full.params


@pytest.mark.parametrize("k, s", [(8, 6), (8, 3), (4, 5), (12, 3), (4, 3), (12, 2), (16, 2), (2, 7)])
def test_digit_cut_matches_flip_then_restrict(k, s):
    """A member on [n] is walked from the sub-grids it keeps, at every n up
    to n' = s**(k-1); its bytes are those of the oracle's whole-grid flip
    cut with `perm.restrict`."""
    n_prime = s ** (k - 1)
    for n in (1, 2, 3, n_prime // 3 + 1, n_prime // 2, n_prime - 1, n_prime):
        cut = build_hadamard_set(k, s, n=n).perms
        want = _oracle_members(k, s, n)
        assert [p.array.tobytes() for p in cut] == [p.array.tobytes() for p in want], n


@pytest.mark.parametrize("n, words", [(1000, 4), (8**7, 1.5)])
def test_digit_cut_holds_no_grid(n, words):
    """Streaming k = 8, s = 8 (n' = 2**21) holds a few words of n values,
    not the grid.  Cut to n = 1000, flipping each whole member, then
    cutting it, peaked at 25.2 MB traced; at n = n' the walk peaks at 1.25
    words of 4n, where flipping the shared grid read 2.0."""
    tracemalloc.start()
    try:
        _, members = hadamard._digit_stream(8, 8, n)
        collections.deque(members, maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= words * 4 * n + 64 * 1024


def test_build_holds_each_member_once():
    """Peak traced memory is the k members and the scratch of the walk
    that builds the last one (8.34 members at k=8, s=6); copying every
    member again took 12.0 times."""
    k = 8
    tracemalloc.start()
    try:
        built = build_hadamard_set(k, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (k + 1) * built.perms[0].array.nbytes


def test_build_parameter_errors():
    with pytest.raises(ValueError):
        build_hadamard_set(1, 2)
    with pytest.raises(ValueError):
        build_hadamard_set(4, 0)
    with pytest.raises(ValueError):
        build_hadamard_set(4, 1)  # base 1 puts every member on [1]
    with pytest.raises(ValueError, match=r"^restriction size 9 outside \[1, 8\]$"):
        build_hadamard_set(4, 2, n=9)
    with pytest.raises(ValueError):
        build_hadamard_set(10, 2)  # no order-10 matrix
    with pytest.raises(ValueError):
        build_hadamard_set(8, 300)



@pytest.mark.parametrize("k, s", [(3, 2**63 - 1), (8, 6), (4, 2**32), (2, 7), (24, 2), (26, 3)])
def test_digit_sizes_take_numpy_integers_as_python_ints(k, s):
    # s ** (k - 1) in int64 would wrap: (2**63 - 1)**2 is 1 mod 2**64, a
    # ground set under the cap
    for kk, ss in ((np.int64(k), np.int64(s)), (np.int32(k), s), (k, np.uint64(s))):
        assert hadamard.digit_ground_set(kk, ss) == hadamard.digit_ground_set(k, s)
        assert hadamard.digit_lcs_bound(kk, ss) == hadamard.digit_lcs_bound(k, s)
        assert type(hadamard.digit_lcs_bound(kk, ss)) is int
    assert hadamard.digit_ground_set(3, np.int64(2**63 - 1)) == hadamard.MAX_N + 1
    with pytest.raises(TypeError):
        hadamard.digit_ground_set(4.0, 2)
    with pytest.raises(TypeError):
        hadamard.digit_lcs_bound(4, 2.5)
