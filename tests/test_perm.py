import random
import tracemalloc

import numpy as np
import pytest

from permlcs import (
    PermSet,
    Permutation,
    build_general,
    build_hadamard_set,
    compose,
    dumps_permset,
    identity,
    invert,
    lcs_pair,
    loads_permset,
    random_perm,
    random_perm_set,
    read_permset,
    restrict,
    reversal,
    trial_rng,
    write_permset,
)
import permlcs._native as _native
import permlcs.perm as perm
from permlcs.perm import MAX_N, _adopt
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
    p = reversal(8)
    assert restrict(p, p.n) is p  # members are immutable: no copy at m = n


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


def test_sequence_protocol_and_repr():
    p = Permutation.from_one_line([3, 1, 2])
    assert len(p) == 3
    assert list(p) == [3, 1, 2]  # 1-based, unlike `word`
    assert repr(p) == "Permutation((2, 0, 1))"
    assert (p == "x") is False and (p != "x") is True
    s = PermSet((p, identity(3)))
    assert list(s) == [p, identity(3)]


def test_array_is_read_only():
    p = reversal(5)
    with pytest.raises(ValueError):
        p.array[0] = 0
    with pytest.raises(AttributeError):
        p.array = identity(5).array
    assert p.one_line == (5, 4, 3, 2, 1)
    # builders and the sampler hand over their arrays without a copy
    members = (*build_hadamard_set(4, 3).perms, *build_hadamard_set(4, 3, n=10).perms,
               *build_general(40, 3).perms, random_perm(7, trial_rng(3)))
    for q in members:
        with pytest.raises(ValueError):
            q.array[0] = 0


WORD_MAKERS = {
    "identity": lambda tmp: [identity(7), identity(1)],
    "reversal": lambda tmp: [reversal(7), reversal(1)],
    "compose": lambda tmp: [compose(reversal(7), Permutation([3, 0, 6, 1, 5, 2, 4]))],
    "invert": lambda tmp: [invert(Permutation([3, 0, 6, 1, 5, 2, 4]))],
    "restrict": lambda tmp: [restrict(reversal(7), 4), restrict(reversal(7), 1)],
    "Permutation": lambda tmp: [
        Permutation([2, 0, 1]), Permutation(np.array([2, 0, 1], dtype=np.uint8)),
        Permutation(np.repeat(np.arange(4, -1, -1), 2)[::2])],  # a strided view
    "from_one_line": lambda tmp: [
        Permutation.from_one_line([3, 1, 2]),
        Permutation.from_one_line(np.array([3, 1, 2], dtype=np.uint64)),
        Permutation.from_one_line(np.repeat(np.arange(5, 0, -1, dtype=np.int16), 2)[::2])],
    "random_perm": lambda tmp: [random_perm(100, trial_rng(2))],
    "random_perm_set": lambda tmp: [*random_perm_set(50, 3, trial_rng(4))],
    "_adopt": lambda tmp: [_adopt(np.arange(7, dtype=np.int32)[::-1])],  # a reversed view
    "build_hadamard_set": lambda tmp: [
        *build_hadamard_set(4, 3), *build_hadamard_set(4, 3, n=10),
        *build_hadamard_set(12, 2),  # the Paley order
        *build_hadamard_set(8, 2, n=100)],
    "build_general": lambda tmp: [
        *build_general(40, 3), *build_general(27, 3), *build_general(1000, 8)],
    "read_permset": lambda tmp: [*_round_trip(tmp)],
    "loads_permset": lambda tmp: [*loads_permset(dumps_permset(build_general(40, 3)))],
}


def _round_trip(tmp):
    path = tmp / "s.permset"
    write_permset(build_general(40, 3), path)
    return read_permset(path)


@pytest.mark.parametrize("maker", WORD_MAKERS)
def test_every_member_is_a_read_only_contiguous_int32_word(maker, tmp_path, routes):
    for route in routes:
        for p in WORD_MAKERS[maker](tmp_path):
            a = p.array
            assert a.dtype == np.int32
            assert a.flags.c_contiguous
            assert not a.flags.writeable
            assert sorted(a.tolist()) == list(range(p.n))


def test_checked_runs_only_where_a_word_enters(monkeypatch):
    """The builders, the sampler, the operations and a line the native
    parse accepts make rearrangements by construction, so only the public
    constructors (and the reader's exact path through them) check a word."""
    checked, calls = perm._checked, []

    def counting(word, **kw):
        calls.append(len(word))
        return checked(word, **kw)

    monkeypatch.setattr(perm, "_checked", counting)
    p = Permutation([3, 0, 6, 1, 5, 2, 4])
    calls.clear()
    identity(7), reversal(7), compose(p, p), invert(p), restrict(p, 4)
    build_hadamard_set(4, 3, n=20), build_hadamard_set(12, 2), build_general(1000, 8)
    random_perm(100, trial_rng(2))
    if _native.library() is not None:
        loads_permset("permset 1 2 3\n3 1 2\n1 2 3")
    assert calls == []
    Permutation([1, 0])
    Permutation.from_one_line([2, 1])
    loads_permset("permset 1 1 2\r\n2 1\r\n")
    assert calls == [2, 2, 2]


def test_every_member_is_capped_at_max_n():
    # zero-copy broadcast views: nothing of length MAX_N + 1 is allocated
    over = MAX_N + 1
    cap = f"^n = {over} exceeds the ground-set cap {MAX_N}$"
    with pytest.raises(ValueError, match=cap):
        Permutation(np.broadcast_to(np.int64(0), (over,)))
    with pytest.raises(ValueError, match=cap):
        Permutation.from_one_line(np.broadcast_to(np.int64(1), (over,)))
    # the makers size a word before allocating it: refused at a small traced
    # peak, not after a 67 MB arange, nor with a MemoryError at 2**40
    makers = {"identity": identity, "reversal": reversal,
              "random_perm": lambda n: random_perm(n, trial_rng(0))}
    for n in (over, 2**40):
        cap = f"^n = {n} exceeds the ground-set cap {MAX_N}$"
        for name, make in makers.items():
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=cap):
                    make(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**16, (name, n, peak)


SIZED = {
    "identity": identity,
    "reversal": reversal,
    "random_perm": lambda n: random_perm(n, trial_rng(0)),
    "restrict": lambda n: restrict(identity(5), n),
    "build_hadamard_set": lambda n: build_hadamard_set(4, 3, n=n).perms[1],
}


@pytest.mark.parametrize("make", SIZED.values(), ids=SIZED.keys())
def test_sizes_are_integers(make):
    # A float size is refused as range(2.5) is, not rounded into a member on
    # [3] (reversal(2.5) would hold -1) nor passed on to numpy.
    with pytest.raises(TypeError):
        make(2.5)
    # A numpy integer is a size like any other.
    assert make(np.int64(4)).array.tobytes() == make(4).array.tobytes()


def test_construction_copies_its_input():
    word = np.array([1, 0, 2], dtype=np.int64)
    p = Permutation(word)
    word[0] = 2
    assert p.word == (1, 0, 2)
    images = np.array([2, 1, 3], dtype=np.int64)
    q = Permutation.from_one_line(images)
    images[0] = 3
    assert q.one_line == (2, 1, 3)


def test_from_one_line_keeps_its_word_without_a_second_copy():
    """Peak traced memory is the 0-based int32 word plus its 1-byte mark,
    under two member-sized arrays; copying the word again took 3.0 times."""
    images = np.random.default_rng(6).permutation(10**6) + 1
    tracemalloc.start()
    try:
        p = Permutation.from_one_line(images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * p.array.nbytes + 2**16  # 64 KiB for interpreter bookkeeping


def test_unsigned_one_line_cannot_wrap_zero_into_range():
    # 0 - 1 in the input's own dtype would wrap to 255 (or 65535), which is
    # a legal 0-based value when n is 256 (or 65536)
    with pytest.raises(ValueError):
        Permutation.from_one_line(np.arange(256, dtype=np.uint8))
    with pytest.raises(ValueError):
        Permutation.from_one_line(np.arange(65536, dtype=np.uint16))
    assert Permutation.from_one_line(np.array([2, 1], dtype=np.uint8)).word == (1, 0)


def test_non_integer_words_rejected_not_truncated():
    with pytest.raises(ValueError):
        Permutation.from_one_line([1, 1.5])
    with pytest.raises(ValueError):
        Permutation.from_one_line([2, 1, 2**70])
    with pytest.raises(ValueError, match="^ground set must be non-empty$"):
        Permutation.from_one_line([])
    for word in (np.array([True]), np.array([True, False])):
        with pytest.raises(ValueError):
            Permutation.from_one_line(word)
        with pytest.raises(ValueError):
            Permutation(word)


def test_array_operations_match_scalar_oracles(routes):
    # `invert` fills its word in C when the library loads, else by numpy
    for kernel in routes:
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 80)
            a, b = rand_perm(rng, n), rand_perm(rng, n)
            m = rng.randint(1, n)
            assert compose(a, b).word == compose_word(a, b)
            assert invert(a).word == invert_word(a)
            assert restrict(a, m).word == restrict_word(a, m)
