import random

import numpy as np
import pytest

from permlcs import (
    PermSet,
    Permutation,
    compose,
    identity,
    invert,
    lcs_pair,
    restrict,
    reversal,
)
from oracles import compose_word, invert_word, restrict_word


def rand_perm(rng, n):
    return Permutation.from_one_line(rng.sample(range(1, n + 1), n))


def test_identity():
    assert identity(1).one_line == (1,)
    assert identity(4).one_line == (1, 2, 3, 4)
    assert identity(8).one_line == tuple(range(1, 9))


def test_reversal():
    assert reversal(1).one_line == (1,)
    assert reversal(4).one_line == (4, 3, 2, 1)


def test_empty_ground_set_rejected():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        reversal(0)


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        Permutation.from_one_line([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation.from_one_line([0, 1, 2])
    with pytest.raises(ValueError):
        Permutation.from_one_line([1, 2, 5])


def test_compose_identity_laws():
    rng = random.Random(11)
    for n in (1, 2, 5, 17):
        p = rand_perm(rng, n)
        assert compose(p, identity(n)) == p
        assert compose(identity(n), p) == p


def test_compose_inverse_pair():
    a = Permutation.from_one_line([2, 3, 1])
    b = Permutation.from_one_line([3, 1, 2])
    assert compose(a, b) == identity(3)
    assert invert(a) == b


def test_compose_mismatched_n():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_associative():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 64)
        a, b, c = (rand_perm(rng, n) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_invert_involution_and_reversal():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 40)
        p = rand_perm(rng, n)
        assert invert(invert(p)) == p
        assert compose(p, invert(p)) == identity(n)
    assert invert(identity(9)) == identity(9)
    assert invert(reversal(9)) == reversal(9)


def test_restrict_examples():
    assert restrict(identity(8), 5).one_line == (1, 2, 3, 4, 5)
    assert restrict(reversal(8), 3).one_line == (3, 2, 1)
    assert restrict(Permutation.from_one_line([3, 1, 4, 2]), 2).one_line == (1, 2)


def test_restrict_range_errors():
    p = identity(4)
    with pytest.raises(ValueError):
        restrict(p, 0)
    with pytest.raises(ValueError):
        restrict(p, 5)


def test_restrict_chain():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 50)
        p = rand_perm(rng, n)
        m1 = rng.randint(1, n)
        m2 = rng.randint(1, m1)
        assert restrict(restrict(p, m1), m2) == restrict(p, m2)


def test_restrict_never_grows_lcs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 60)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        m = rng.randint(1, n)
        assert lcs_pair(restrict(a, m), restrict(b, m)) <= lcs_pair(a, b)


def test_perm_set_validation():
    with pytest.raises(ValueError):
        PermSet(())
    with pytest.raises(ValueError):
        PermSet((identity(3), identity(4)))
    with pytest.raises(ValueError):
        PermSet((identity(3),), provenance="homemade")
    s = PermSet((identity(3), reversal(3)), provenance="imported")
    assert s.n == 3 and s.k == 2 and len(s) == 2


def test_perm_set_allows_duplicates():
    s = PermSet((identity(4), identity(4)))
    assert s.k == 2


def test_equal_members_compare_and_hash_equal():
    a = Permutation.from_one_line([3, 1, 2])
    b = Permutation([2, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != Permutation.from_one_line([1, 3, 2])
    assert len({a, b, identity(3), identity(3)}) == 2


def test_array_is_read_only():
    p = reversal(5)
    with pytest.raises(ValueError):
        p.array[0] = 0
    with pytest.raises(AttributeError):
        p.array = identity(5).array
    assert p.one_line == (5, 4, 3, 2, 1)


def test_construction_copies_its_input():
    word = np.array([1, 0, 2])
    p = Permutation(word)
    word[0] = 2
    assert p.word == (1, 0, 2)


def test_non_integer_words_rejected_not_truncated():
    with pytest.raises(ValueError):
        Permutation.from_one_line([1, 1.5])
    with pytest.raises(ValueError):
        Permutation.from_one_line([2, 1, 2**70])
    with pytest.raises(ValueError):
        Permutation.from_one_line([])


def test_array_operations_match_scalar_oracles():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 80)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        m = rng.randint(1, n)
        assert compose(a, b).word == compose_word(a, b)
        assert invert(a).word == invert_word(a)
        assert restrict(a, m).word == restrict_word(a, m)
