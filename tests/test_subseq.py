import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from permlcs import (
    PermSet,
    Permutation,
    build_exact,
    build_hadamard_set,
    compose,
    dumps_permset,
    identity,
    lcs_all_pairs,
    lcs_pair,
    lds,
    lis,
    loads_permset,
    reversal,
)
import permlcs._native as _native
import permlcs.subseq as subseq
from oracles import lcs_by_enumeration, lcs_pair_dp, lis_quadratic


def rand_perm(rng, n):
    return Permutation.from_one_line(rng.sample(range(1, n + 1), n))


def test_lis_examples(routes):
    for kernel in routes:
        assert lis(identity(7).one_line) == 7
        assert lis(reversal(7).one_line) == 1
        assert lis([3, 1, 4, 2, 5]) == 3 == lis_quadratic([3, 1, 4, 2, 5])
        assert lis([]) == 0
        assert lis(np.array([2**63 - 1, -(2**63), 0])) == 2
        assert lis(np.array([9, 2**63 - 1, 3], dtype=np.uint64)) == 2


def test_lds_examples(routes):
    for kernel in routes:
        assert lds(reversal(6).one_line) == 6
        assert lds(identity(6).one_line) == 1
        assert lds([3, 1, 4, 2, 5]) == 2 == lis_quadratic([-v for v in [3, 1, 4, 2, 5]])
        assert lds([]) == 0
        assert lds(np.array([-(2**63), 0])) == 1
        assert lds(np.array([9, 2**63 - 1, 3], dtype=np.uint64)) == 2


def test_duplicate_values_rejected():
    with pytest.raises(ValueError):
        lis([1, 2, 2])
    with pytest.raises(ValueError):
        lds([4, 4])
    for word in ([-(2**63), 7, -(2**63)], np.array([5, 1, 10**12, 1]),
                 np.arange(6, dtype=np.int32) % 5):
        with pytest.raises(ValueError, match="must be distinct"):
            lis(word)
        with pytest.raises(ValueError, match="must be distinct"):
            lds(word)


def test_lis_matches_quadratic_oracle(routes):
    for kernel in routes:
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(0, 60)
            seq = rng.sample(range(1000), n)
            assert lis(seq) == lis_quadratic(seq)
            assert lds(seq) == lis_quadratic([-v for v in seq])


def test_lis_exhaustive_tiny(routes):
    # every permutation of [5]: patience == quadratic DP == definition
    for kernel in routes:
        for word in itertools.permutations(range(1, 6)):
            assert lis(word) == lis_quadratic(word)


def test_int64_max_ends_an_increasing_run(routes):
    # The native kernel pads unused pile tops with INT64_MAX; a word holding
    # that value itself must still start a pile of its own.
    top = 2**63 - 1
    shuffled = random.Random(3).sample(range(500), 500)
    words = [[5, top, 6, 7], [top], [top, 0], [-(2**63), top],
             list(range(64)) + [top] + list(range(64, 130)), [5, 6, 7, 0, top],
             shuffled + [top], shuffled[:250] + [top] + shuffled[250:]]
    for kernel in routes:
        assert lis([0, top]) == 2
        assert lis(list(range(70)) + [top]) == 71
        assert lds([top, 0]) == 2
        assert lds([top] + list(range(69, -1, -1))) == 71
        for word in words:
            assert lis(word) == lis_quadratic(word)
            assert lds(word) == lis_quadratic([-v for v in word])


def test_monotone_words_cross_every_capacity_doubling(routes):
    # The native kernel searches 64 pile tops at first and doubles that up to
    # n whenever the piles fill it; monotone words reach every step.
    for kernel in routes:
        for n in (1, 63, 64, 65, 127, 128, 129, 4097):
            up = np.arange(n) - n // 2
            assert (lis(up), lds(up)) == (n, 1)
            assert (lis(up[::-1]), lds(up[::-1])) == (1, n)


def test_native_kernel_matches_python_kernel_on_long_words():
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    rng = np.random.default_rng(8)
    words = [rng.permutation(10**5) for _ in range(3)]
    # every column of a digit set: long runs that land on the previous pile
    # or its neighbour, the case the native kernel checks before searching
    s = build_hadamard_set(8, 4)
    for j in range(1, s.k):
        pos = np.empty(s.n, dtype=np.int64)
        pos[s.perms[j].array] = np.arange(s.n)
        words += [pos[s.perms[i].array] for i in range(j)]
    for word in words:
        word = np.ascontiguousarray(word, dtype=np.int64)
        assert subseq._lis_word(word) == subseq._lis_core(word.tolist())


def test_lcs_pair_examples(routes):
    for kernel in routes:
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


def test_lcs_matches_enumeration_tiny(routes):
    for kernel in routes:
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 7)
            a, b = rand_perm(rng, n), rand_perm(rng, n)
            want = lcs_by_enumeration(a.one_line, b.one_line)
            assert lcs_pair(a, b) == want
            assert lcs_pair_dp(a, b) == want


def test_lcs_fast_equals_dp_random(routes):
    for kernel in routes:
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


def test_all_pairs_matches_dp_on_construction(routes):
    for kernel in routes:
        s = build_exact(72, 3)
        m = lcs_all_pairs(s)
        assert m.k == 3 and m.n == 72
        for i, j, v in m.off_diagonal():
            assert v == lcs_pair_dp(s.perms[i], s.perms[j])
            assert m[i, j] == m[j, i] == v
        assert m[0, 0] == 72


def test_all_pairs_threaded_matches_serial(routes):
    rng = random.Random(55)
    s = PermSet(tuple(rand_perm(rng, 40) for _ in range(5)))
    for kernel in routes:
        assert lcs_all_pairs(s, threads=4) == lcs_all_pairs(s)


def test_erdos_szekeres_floor():
    rng = random.Random(13)
    for n in (10, 50, 100, 400):
        ceil_sqrt = math.isqrt(n - 1) + 1
        for _ in range(20):
            word = rng.sample(range(1, n + 1), n)
            assert max(lis(word), lds(word)) >= ceil_sqrt


def test_non_integer_words_rejected(routes):
    # lis/lds take words of integers that fit int64, and nothing else
    words = [
        [0.5, 2.5, 1.5], np.array([3.0, 1.0, 2.0]),  # floats
        [2**70, 5, 2**64, -(2**65)], [2**63, 1, 2], [2**63, -1],  # big ints
        np.array([9, 2**63, 3], dtype=np.uint64),  # uint64 above 2**63 - 1
        "abc", "cba", ["a", "b"],  # strings
        np.arange(6).reshape(2, 3), [[1, 2], [3, 4]], [[1], [2, 3]],  # nesting
        (v for v in [3, 1, 2]),  # generators
    ]
    for kernel in routes:
        for word in words:
            with pytest.raises(ValueError, match="1-D word of int64 integers"):
                lis(word)
            with pytest.raises(ValueError, match="1-D word of int64 integers"):
                lds(word)


@pytest.mark.parametrize("cc", [
    (sys.executable, "-c", "print('compiler noise'); raise SystemExit(1)"),
    ("permlcs-no-such-compiler",),
], ids=["fails", "missing"])
def test_failed_build_falls_back_silently(cc, tmp_path, monkeypatch, capfd, request):
    _native.library.cache_clear()
    request.addfinalizer(_native.library.cache_clear)  # forget the failed build
    source = tmp_path / "_native.c"
    source.write_bytes(_native._SOURCE.read_bytes())
    monkeypatch.setattr(_native, "_SOURCE", source)
    monkeypatch.setattr(_native, "_CC", cc)
    rng = random.Random(4)
    words = [rng.sample(range(1, 500), rng.randint(0, 80)) for _ in range(30)]
    pairs = [(rand_perm(rng, 60), rand_perm(rng, 60)) for _ in range(10)]
    got = ([lis(w) for w in words], [lds(w) for w in words],
           [lcs_pair(a, b) for a, b in pairs])
    s = PermSet(pairs[0])  # the PERMSET codec shares the loader and falls back with it
    assert loads_permset(dumps_permset(s)).perms == s.perms
    assert _native.library.cache_info().currsize == 1
    assert _native.library() is None
    assert capfd.readouterr() == ("", "")
    assert list(tmp_path.glob("__pycache__/*")) == []  # no torn or temp library left
    assert got == ([lis_quadratic(w) for w in words],
                   [lis_quadratic([-v for v in w]) for w in words],
                   [lcs_pair_dp(a, b) for a, b in pairs])


def test_compiler_command_keys_the_library(tmp_path, monkeypatch):
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    source = tmp_path / "_native.c"
    source.write_bytes(_native._SOURCE.read_bytes())
    monkeypatch.setattr(_native, "_SOURCE", source)
    word, tops = np.array([3, 1, 4, 2, 5], dtype=np.int64), np.empty(5, dtype=np.int64)
    for flag in ("-O2", "-O1", "-O2"):
        monkeypatch.setattr(_native, "_CC", ("cc", flag, "-shared", "-fPIC"))
        lib = _native.library.__wrapped__()  # uncached: build for this command
        assert lib.lis_length(word.ctypes.data, 5, tops.ctypes.data) == 3
    assert len(list(tmp_path.glob("__pycache__/_native-*"))) == 2


def test_importing_the_cli_builds_and_loads_nothing():
    code = (
        "import ctypes, subprocess, numpy\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *a, **k: calls.append(('CDLL', a))\n"
        "subprocess.Popen = lambda *a, **k: calls.append(('Popen', a))\n"
        "import permlcs.cli, permlcs._native as native, sys\n"
        "print(calls, native.library.cache_info().currsize == 0,\n"
        "      'concurrent.futures' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(subseq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (res.returncode, res.stdout) == (0, "[] True False\n"), res.stderr
