import ctypes
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from permlcs import (
    PermSet,
    Permutation,
    build_exact,
    build_general,
    build_hadamard_set,
    check_probabilistic_bound,
    compose,
    dumps_permset,
    identity,
    lcs_all_pairs,
    lcs_pair,
    lds,
    lis,
    loads_permset,
    random_perm,
    reversal,
    sample_lis,
    trial_rng,
)
import permlcs._native as _native
import permlcs.bounds as bounds
import permlcs.subseq as subseq
from permlcs.cli import main
from oracles import lcs_by_enumeration, lcs_pair_dp, lis_quadratic, value_line


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


def test_lis_takes_any_int64_range_word_through_its_ranks(routes):
    # The kernel sees the word's int32 ranks; the LIS of the raw values is the
    # same, at both ends of int64, in unsigned words and in int32 words.
    rng = np.random.default_rng(5)
    words = [
        [-(2**63), 2**63 - 1, 0, 5],
        np.array([-(2**63), 2**63 - 1, 0, 5], dtype=np.int64),
        np.array([9, 2**63 - 1, 3, 2**32, 0], dtype=np.uint64),
        rng.permutation(2**20)[:500].astype(np.uint64) * (2**43),
        np.array([2**31 - 1, -(2**31), 7, -1, 2**30], dtype=np.int32),
        rng.permutation(1000).astype(np.int32) - 500,
    ]
    for kernel in routes:
        for word in words:
            raw = [int(v) for v in word]
            assert lis(word) == subseq._lis_core(raw)
            assert lds(word) == subseq._lis_core([-v for v in raw])


def test_lis_refuses_a_word_whose_ranks_overflow_int32(monkeypatch):
    # A word longer than int32's largest rank is refused before it is sorted;
    # the limit is lowered here so that no such word is ever allocated.
    monkeypatch.setattr(subseq, "_INT32_MAX", 4)
    for f in (lis, lds):
        assert f([2, 1, 4, 3]) == 2
        with pytest.raises(ValueError, match="^sequence longer than 4 elements$"):
            f([5, 4, 1, 3, 2])


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


def test_lis_of_wide_int64_words_matches_quadratic_oracle(routes):
    # lis/lds measure the order that sorts the word, whose LIS and LDS are
    # the word's, since it is the inverse of the word's ranks
    for kernel in routes:
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = np.unique(rng.integers(-10**12, 10**12, size=rng.integers(0, 300)))
            word = rng.permutation(values)
            assert lis(word) == lis_quadratic(word.tolist())
            assert lds(word) == lis_quadratic((-word).tolist())


def test_ranking_a_word_takes_one_argsort_of_memory(routes):
    # The order (an intp argsort), the word in that order and its neighbour
    # comparison: about 3.3 words of 4n bytes for an int32 word and 4.3 for
    # an int64 one.  Ranking through np.unique took 9.3 and 12.3.
    n = 2**16
    member = random_perm(n, trial_rng(6)).array
    for kernel in routes:
        for word, words in ((member, 4), (member.astype(np.int64) * 10**6 - 10**12, 5)):
            for f in (lis, lds):
                f(word[:10])  # loads the native library untraced
                tracemalloc.start()
                try:
                    f(word)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < words * 4 * n, (f.__name__, word.dtype)


def test_lis_exhaustive_tiny(routes):
    # every permutation of [5]: patience == quadratic DP == definition
    for kernel in routes:
        for word in itertools.permutations(range(1, 6)):
            assert lis(word) == lis_quadratic(word)


def test_int64_max_ends_an_increasing_run(routes):
    # The native kernel pads unused pile tops with INT32_MAX; a word holding
    # that value itself must still start a pile of its own.  `lis`/`lds` pass
    # orders, which never reach it, so `lis_lanes` gets these words directly:
    # as the position array through which a lane relabels the identity, and
    # as a lane read as it is.
    top = 2**31 - 1
    shuffled = random.Random(3).sample(range(500), 500)
    words = [[5, top, 6, 7], [top], [top, 0], [-(2**31), top],
             list(range(64)) + [top] + list(range(64, 130)), [5, 6, 7, 0, top],
             shuffled + [top], shuffled[:250] + [top] + shuffled[250:]]
    lengths = np.empty(_native.LANES, dtype=np.intp)
    for kernel in routes:
        if kernel == "native":
            for word in words + [[0, top], list(range(70)) + [top]]:
                for w in (word, word[::-1]):
                    pos, lane = np.array(w, dtype=np.int32), np.arange(len(w), dtype=np.int32)
                    for args in ((pos, lane), (None, pos)):
                        assert _native.library().lis_lanes(
                            *(args[0],) * _native.LANES, *(args[1],) * _native.LANES,
                            1, len(w), lengths) == 0
                        assert lengths[0] == subseq._lis_core(w)
        # and the public route, whose raw values reach the int64 maximum
        big = 2**63 - 1
        assert lis([0, big]) == 2
        assert lis(list(range(70)) + [big]) == 71
        assert lds([big, 0]) == 2
        assert lds([big] + list(range(69, -1, -1))) == 71
        for word in words:
            word = [big if v == top else v for v in word]
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
    # invert + lis_lanes against an independent
    # reference, np.take + _lis_core, on every column of a digit set, whose long
    # runs land on the previous pile or its neighbour, the case the kernel
    # checks before searching; of a lattice set; of three random words; and
    # of identical words whose LIS crosses every capacity doubling
    lib = _native.library()
    if lib is None:
        pytest.skip("no native kernel on this machine")
    rng = np.random.default_rng(8)
    sets = [build_hadamard_set(8, 4).perms, build_general(100000, 8).perms,
            [Permutation(rng.permutation(10**5)) for _ in range(3)]]
    sets += [[identity(n)] * 2 for n in (1, 63, 64, 65, 129, 4097)]
    lengths = np.empty(_native.LANES, dtype=np.intp)
    for perms in sets:
        n = perms[0].n
        pos = np.empty(n, dtype=np.int32)
        for j in range(1, len(perms)):
            lib.invert(perms[j].array, n, pos)
            want_pos = np.empty(n, dtype=np.int32)
            want_pos[perms[j].array] = np.arange(n, dtype=np.int32)
            assert np.array_equal(pos, want_pos)
            for i in range(j):
                word = perms[i].array
                assert lib.lis_lanes(*(pos,) * 4, *(word,) * 4, 1, n, lengths) == 0
                want = np.take(want_pos, word)
                assert lengths[0] == subseq._lis_core(want.tolist())


# Word classes for `lis_lanes`, each a rearrangement of the ranks 0..n-1 as
# a lane sees them after the relabel:
LANE_CLASSES = {
    # every value starts a pile, so the piles pass each cap doubling
    "up": lambda rng, n: np.arange(n),
    "down": lambda rng, n: np.arange(n)[::-1],
    "random": lambda rng, n: rng.permutation(n),
    # the largest rank last, where it starts the last pile
    "random, top last": lambda rng, n: np.append(rng.permutation(n - 1), n - 1),
    # near the last pile, then far, then near again
    "sorted, random, sorted": lambda rng, n: np.concatenate(
        [np.arange(n // 3), n // 3 + rng.permutation(n - 2 * (n // 3)),
         np.arange(n - n // 3, n)]),
    # random, then sorted: its piles fill cap late
    "random, sorted": lambda rng, n: np.concatenate(
        [rng.permutation(n // 2), np.arange(n // 2, n)]),
    # runs of 8 rising ranks, the runs falling: a digit-set-like word
    "rising runs, falling": lambda rng, n: np.concatenate(
        [np.arange(start, min(start + 8, n)) for start in range(0, n, 8)][::-1]),
}
LANE_SIZES = (1, 2, 63, 64, 65, 511, 512, 513, 4097)


def lane_cases():
    """(positions, words) arguments of `lis_lanes` calls, a position array or
    None for each lane.  Counts 1 to 4 at each n of LANE_SIZES, each call's
    lanes of different classes; then lanes that fill cap in lockstep,
    whichever first; a lane that fills it early beside one that fills it
    late; and a lane that searches in lockstep up to its last value.  Every
    third call's lanes share one position array; in the others each lane has
    its own, but in half of them the last lane has None and holds its values
    themselves.  A position array is a shuffle of the ranks,
    so the relabel gathers from all over it, and a lane's word is the
    indices in it of its class's ranks; the largest rank is INT32_MAX in
    every other call."""
    rng = np.random.default_rng(29)
    names = list(LANE_CLASSES)
    specs = [(n, [names[(i + lane) % len(names)] for lane in range(count)])
             for i, (n, count) in enumerate(itertools.product(
                 LANE_SIZES, range(1, _native.LANES + 1)))]
    specs += [(4097, ["random", "random", "random, top last"]),
              (4097, ["random, sorted", "sorted, random, sorted"]),
              (4097, ["random, top last", "random"])]
    cases = []
    for i, (n, lanes) in enumerate(specs, start=1):
        values = np.arange(n, dtype=np.int32)
        if i % 2:
            values[-1] = 2**31 - 1
        shared = rng.permutation(values)
        positions, words = [], []
        for lane, name in enumerate(lanes):
            ranks = LANE_CLASSES[name](rng, n)
            if i % 3 == 2 and lane == len(lanes) - 1:
                positions.append(None)
                words.append(values[ranks])
                continue
            pos = shared if i % 3 == 0 else rng.permutation(values)
            positions.append(pos)
            words.append(np.argsort(pos)[ranks].astype(np.int32))
        cases.append((positions, words))
    return cases


def lane_lengths(positions, words):
    """_lis_core's LIS of each lane: pos[a], or a itself where pos is None."""
    return [subseq._lis_core((a if q is None else q[a]).tolist())
            for q, a in zip(positions, words)]


def test_lis_lanes_matches_python_kernel():
    # Each lane's length is _lis_core's LIS of its relabeled word, whatever
    # the other lanes hold, as they search in lockstep and as cap grows.
    lib = _native.library()
    if lib is None:
        pytest.skip("no native kernel on this machine")
    lanes = _native.LANES
    lengths = np.empty(lanes, dtype=np.intp)
    for positions, words in lane_cases():
        lengths[:] = -1
        count = len(words)
        pad = lanes - count  # unused slots repeat the first
        assert lib.lis_lanes(*positions, *positions[:1] * pad, *words, *words[:1] * pad,
                             count, len(words[0]), lengths) == 0
        assert lengths[:count].tolist() == lane_lengths(positions, words)


# Mutants of `lis_lanes` and its neighbour-check loop `near`, each a
# (find, replace, reason) edit of `_native.c`; the lane equivalence oracle
# must reject each.
LANE_MUTANTS = [
    ("b0[half] < v0", "b0[half] <= v0",
     "a lockstep search that passes a top equal to its value: INT32_MAX lands past cap"),
    ("status = grow(w, count, &cap, n);", "status = grow(x, 1, &cap, n);",
     "a lockstep lane that fills cap grows only its own tops: the others search past theirs"),
    ("for (ptrdiff_t span = cap; span > 1;", "for (ptrdiff_t span = cap / 2; span > 1;",
     "the lockstep search skips the upper half of the tops"),
    ("b < n; b += BLOCK", "b + BLOCK <= n; b += BLOCK",
     "the last partial block is never measured"),
    ("words[LANES] = {a0, a1, a2, a3}", "words[LANES] = {a1, a0, a2, a3}",
     "lanes 0 and 1 measure each other's word"),
    ("*q = positions[l], *a", "*q = positions[0], *a",
     "every lane relabels through lane 0's position array"),
    ("} else if (p == 0 || tops[p - 1] < v) {", "} else {",
     "a value below the last pile's top stays on it without the left-neighbour test"),
]
# Mutants that change no answer, kept with the reason the oracle accepts them.
EQUIVALENT_LANE_MUTANTS = [
    ("#define GATE 128u", "#define GATE 0u",
     "every lane searches in lockstep and no value tries the neighbour piles: only speed changes"),
]
# A child that loads one build (argv[1]), reads lane_cases() from a file
# (argv[2]: per call, as int32, its count, n and number of position arrays,
# each lane's index among them or -1 for None, the arrays, then the words)
# and prints each call's lengths; argv[3] is LANES.  It imports no numpy, so
# it starts fast.
_LANES_CHILD = """
import ctypes, json, sys
from array import array
lanes = int(sys.argv[3])
fn = ctypes.CDLL(sys.argv[1]).lis_lanes
fn.restype = ctypes.c_int
fn.argtypes = [ctypes.c_void_p] * (2 * lanes) + [ctypes.c_ssize_t] * 2 + [ctypes.c_void_p]
data = array("i")
with open(sys.argv[2], "rb") as f:
    data.frombytes(f.read())
base = ctypes.addressof((ctypes.c_int32 * len(data)).from_buffer(data))
out, at, got = (ctypes.c_ssize_t * lanes)(), 0, []
while at < len(data):
    count, n, arrays = data[at:at + 3]
    table, at = data[at + 3:at + 3 + count], at + 3 + count
    starts = [base + 4 * (at + n * slot) for slot in range(arrays + count)]
    at += n * (arrays + count)
    qs, words = [starts[t] if t >= 0 else None for t in table], starts[arrays:]
    pad = lanes - count
    if fn(*qs, *qs[:1] * pad, *words, *words[:1] * pad, count, n, out):
        sys.exit("lis_lanes returned -1")
    got.append(list(out)[:count])
print(json.dumps(got))
"""


def misjudged(tmp_path, child, args, want, mutants, equivalent=()):
    """Build `_native.c` as it is and each (find, replace, reason) mutant of
    it with the package's own compiler command, run `child` on each build in
    a child process (argv: the library, then `args`), and return the reasons
    of the builds judged wrong.  The source as it is and each `equivalent`
    mutant must print `want` as JSON; every other mutant must print anything
    else, or crash.  A mutant may write out of bounds, hence the child."""
    source = _native._SOURCE.read_text()
    variants = [("the source as it is", source, True)]
    for find, replace, reason in [*mutants, *equivalent]:
        assert source.count(find) == 1, find
        variants.append((reason, source.replace(find, replace),
                         (find, replace, reason) in equivalent))
    builds = []
    for i, (_, text, _) in enumerate(variants):
        (tmp_path / f"m{i}.c").write_text(text)
        builds.append(subprocess.Popen(
            [*_native._CC, "-o", str(tmp_path / f"m{i}.so"), str(tmp_path / f"m{i}.c")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
    assert [b.wait(timeout=120) for b in builds] == [0] * len(variants)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(subseq.__file__))}
    runs = [subprocess.Popen([sys.executable, "-c", child, str(tmp_path / f"m{i}.so"), *args],
                             env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
            for i in range(len(variants))]
    wrong = []
    for (reason, _, accepted), run in zip(variants, runs):
        stdout, _ = run.communicate(timeout=120)
        if (run.returncode == 0 and json.loads(stdout) == want) != accepted:
            wrong.append(reason)
    return wrong


def test_lane_kernel_mutants_fail_the_equivalence_oracle(tmp_path):
    # A child that crashes or prints a wrong length rejects a mutant.
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    cases = lane_cases()
    want = [lane_lengths(positions, words) for positions, words in cases]
    with open(tmp_path / "cases", "wb") as f:
        for positions, words in cases:
            arrays = list({id(q): q for q in positions if q is not None}.values())
            table = [-1 if q is None else [id(a) for a in arrays].index(id(q)) for q in positions]
            head = [len(words), len(words[0]), len(arrays), *table]
            f.write(np.concatenate([head, *arrays, *words]).astype(np.int32).tobytes())
    assert misjudged(tmp_path, _LANES_CHILD, [str(tmp_path / "cases"), str(_native.LANES)],
                     want, LANE_MUTANTS, EQUIVALENT_LANE_MUTANTS) == []


# Mutants of `invert` and the PERMSET codec, `parse_line` and `render_line`,
# each a (find, replace, reason) edit of `_native.c`; their oracles are
# `lcs_pair_dp`, `oracles.value_line` and the exact read path.
HELPER_MUTANTS = [
    ("pos[a[i]] = (int32_t)i;", "pos[i] = a[i];",
     "invert copies its word: right only for an involution, such as the reversal"),
    ("        if (word[v] & mark)\n            return 0;\n", "",
     "parse_line takes a line with a repeated value"),
    ("    for (ptrdiff_t i = 0; i < n; i++)\n        word[i] &= ~mark;\n", "",
     "parse_line leaves each value marked"),
    ("if (p == end || *p < '1' || *p > '9')", "if (p == end || *p < '0' || *p > '9')",
     "parse_line takes a token with a leading zero as canonical"),
    ("v >= POWERS_OF_TEN[width]", "v > POWERS_OF_TEN[width]",
     "render_line writes each power of ten one digit short"),
    ("        p[-1] = '\\n';", "        p[-1] = ' ';",
     "render_line ends a line with a space, not a newline"),
]
# A child that loads one build (argv[1]) in place of the package's own, reads
# the cases from a JSON file (argv[2]) and prints, as JSON, the LCS of each
# pair, the document of the members and what `parse_line` makes of each line.
_HELPERS_CHILD = """
import ctypes, json, sys
import numpy as np
import permlcs._native as native
from permlcs import PermSet, Permutation, dumps_permset, lcs_pair
lib = ctypes.CDLL(sys.argv[1])
for name, (restype, argtypes) in native._signatures().items():
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = restype, argtypes
native.library = lambda: lib
with open(sys.argv[2]) as f:
    cases = json.load(f)

def parse(line, n):
    word = np.empty(n, dtype=np.int32)
    return word.tolist() if lib.parse_line(line.encode(), len(line), n, word) else None

print(json.dumps({
    "lcs": [lcs_pair(Permutation(a), Permutation(b)) for a, b in cases["pairs"]],
    "document": dumps_permset(PermSet(tuple(Permutation(w) for w in cases["members"]))),
    "lines": [parse(line, n) for line, n in cases["lines"]],
}))
"""


def test_invert_and_codec_mutants_fail_their_oracles(tmp_path, monkeypatch):
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    rng = random.Random(12)
    pairs = [(rand_perm(rng, n), rand_perm(rng, n)) for n in (5, 9, 30, 30)]
    pairs.append((reversal(8), Permutation([1, 2, 0, 4, 5, 6, 7, 3])))  # a 3-cycle, a 5-cycle
    # both members pass 10, 100 and 1000 but start at 1, so a render one digit
    # short garbles a line without writing before the buffer
    members = [identity(1000), Permutation(np.arange(1000) * 7 % 1000)]
    lines = [(value_line(p.one_line), 1000) for p in members]
    lines += [(line, 3) for line in ("3 1 2\n", "3 1 2", "1 1 3\n", "01 2 3\n", "1  2 3\n",
                                     "1 2 3 \n", "1 2 3\r\n", "1 2 4\n", "1 2\n")]
    (tmp_path / "cases").write_text(json.dumps({
        "pairs": [(a.word, b.word) for a, b in pairs],
        "members": [p.word for p in members],
        "lines": lines}))

    def exact(line, n):
        # the member the exact read path makes of a canonical line, else None
        try:
            (p,) = loads_permset(f"permset 1 1 {n}\n{line}").perms
        except ValueError:
            return None
        return list(p.word) if line in (value_line(p.one_line), value_line(p.one_line)[:-1]) else None

    monkeypatch.setattr(_native, "library", lambda: None)
    want = {"lcs": [lcs_pair_dp(a, b) for a, b in pairs],
            "document": "permset 1 2 1000\n" + "".join(value_line(p.one_line) for p in members),
            "lines": [exact(line, n) for line, n in lines]}
    assert misjudged(tmp_path, _HELPERS_CHILD, [str(tmp_path / "cases")], want,
                     HELPER_MUTANTS) == []


def test_every_answer_goes_through_lanes(monkeypatch, routes, tmp_path, capsys):
    """`_lanes` is the one door to the patience kernel on both routes: every
    length the library reports, and each sampled trial's LIS, is one of its
    jobs.  A sweep hands it one column per call, a sampled trial every pair
    of its set and then its LIS in one call."""
    lanes, calls = subseq._lanes, []

    def counting(jobs):
        jobs = list(jobs)
        calls.append(len(jobs))
        return lanes(jobs)

    monkeypatch.setattr(subseq, "_lanes", counting)
    s = build_hadamard_set(4, 3)
    csv = tmp_path / "lis.csv"
    entries = {  # the jobs of each `_lanes` call
        "lis": (lambda: lis([3, 1, 2]), [1]),
        "lds": (lambda: lds([3, 1, 2]), [1]),
        "lcs_pair": (lambda: lcs_pair(identity(5), reversal(5)), [1]),
        "lcs_all_pairs": (lambda: lcs_all_pairs(s), list(range(1, s.k))),
        "sample_lis": (lambda: sample_lis(20, 3, 1), [1] * 3),
        # two trials of three members: three pairs each, and one LIS
        "check_probabilistic_bound": (lambda: check_probabilistic_bound(20, 3, 2, 1), [3] * 2),
        "_sample(lis=True)": (lambda: bounds._sample(20, 3, 2, 1, lis=True), [4] * 2),
        "sample --lis-csv": (lambda: main(["sample", "--n", "20", "--k", "3", "--trials", "2",
                                           "--lis-csv", str(csv)]), [4] * 2),
    }
    for kernel in routes:
        for name, (call, jobs) in entries.items():
            calls.clear()
            call()
            assert sorted(calls) == jobs, name
    capsys.readouterr()


def test_python_route_holds_no_list_of_ints(monkeypatch):
    """Without the library, `_lanes` reads each relabeled member through a
    memoryview, so a pair holds the position array and one relabeled word
    beside its members, not a list of n Python ints as well (about 9 more
    words of 4n bytes)."""
    monkeypatch.setattr(_native, "library", lambda: None)
    n = 2**16
    a, b = (random_perm(n, trial_rng(seed)) for seed in (1, 2))
    # lis sorts its word first; the word is handed its order here, so the
    # peak is the kernel's alone
    order = subseq._distinct_word(a.array)
    monkeypatch.setattr(subseq, "_distinct_word", lambda seq: order)
    for call in (lambda: lcs_pair(a, b), lambda: lis(a.array), lambda: lds(a.array)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 4 * n


def test_sweep_holds_one_word():
    # member j's positions, 4n bytes made once per column; the kernel makes
    # its own pile tops, so no relabeled word or n-sized pile-top array is
    # made (they were two more words, and gathering with numpy through an
    # int32 index made an 8n-byte intp copy of each member as well)
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    s = build_hadamard_set(8, 5)
    lcs_all_pairs(s)  # the first call may build the library
    tracemalloc.start()
    try:
        lcs_all_pairs(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * s.n


def test_native_kernel_refuses_a_word_of_another_layout():
    # The argument table checks each array's dtype and layout, so a word that
    # is not a contiguous int32 array never reaches C as the wrong bytes, and
    # C never writes into a read-only array or past `lis_lanes`' lengths.
    lib = _native.library()
    if lib is None:
        pytest.skip("no native kernel on this machine")
    pos = np.empty(5, dtype=np.int32)
    lengths = np.empty(_native.LANES, dtype=np.intp)
    member = np.array([2, 0, 3, 1, 4], dtype=np.int32)
    lib.invert(member, 5, pos)
    assert pos.tolist() == [1, 3, 0, 2, 4]
    words = [member, member[::-1].copy(), member.copy(), np.arange(5, dtype=np.int32)]
    positions = [pos, pos, None, pos]  # None: the lane reads its word as it is
    assert lib.lis_lanes(*positions, *words, 4, 5, lengths) == 0
    assert lengths.tolist() == [5, 1, 3, 3]

    def lanes_with(slot, bad):
        args = [*positions, *words, 4, 5, lengths]
        args[slot] = bad
        return lambda: lib.lis_lanes(*args)

    frozen = np.empty(5, dtype=np.int32)
    frozen.flags.writeable = False
    for bad in (member.astype(np.int64), member[::-1]):
        calls = [lambda: lib.invert(bad, 5, pos), lambda: lib.invert(member, 5, bad)]
        calls += [lanes_with(slot, bad) for slot in range(2 * _native.LANES)]
        for call in calls:
            with pytest.raises(ctypes.ArgumentError):
                call()
    for slot in range(_native.LANES, 2 * _native.LANES):  # a word is never None
        with pytest.raises(ctypes.ArgumentError):
            lanes_with(slot, None)()
    frozen_lengths = np.empty(_native.LANES, dtype=np.intp)
    frozen_lengths.flags.writeable = False
    out = 2 * _native.LANES + 2
    for call in (lambda: lib.invert(member, 5, frozen),
                 lanes_with(out, frozen_lengths),
                 lanes_with(out, lengths.astype(np.int32)),
                 lanes_with(out, np.empty(2 * _native.LANES, dtype=np.intp)[::2]),
                 lanes_with(out, np.empty(_native.LANES - 1, dtype=np.intp))):
        with pytest.raises(ctypes.ArgumentError):
            call()


def test_lanes_constant_is_the_c_one():
    assert re.search(r"^#define LANES (\d+)$", _native._SOURCE.read_text(),
                     re.MULTILINE).group(1) == str(_native.LANES)


def test_a_failed_pile_top_allocation_is_a_memory_error():
    # A child lowers its own address-space limit just above what it holds, so
    # the kernel's realloc of the pile tops fails while the piles of an
    # increasing word grow toward n; `lcs_pair`, the one entry to the kernel,
    # must say so as MemoryError.
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    if not sys.platform.startswith("linux"):
        pytest.skip("reads the address space in use from Linux's /proc")
    code = (
        "import resource\n"
        "from permlcs import _native, identity, lcs_pair\n"
        "assert _native.library() is not None\n"
        "n = 2**22\n"
        "a = identity(n)\n"
        "def limited(extra, call):\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY,) * 2)\n"
        "    with open('/proc/self/status') as f:\n"
        "        vm = next(int(l.split()[1]) for l in f if l.startswith('VmSize:')) * 1024\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (vm + extra, resource.RLIM_INFINITY))\n"
        "    try:\n"
        "        return call()\n"
        "    except MemoryError as exc:\n"
        "        return str(exc)\n"
        "    finally:\n"
        "        resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY,) * 2)\n"
        "print(limited(24 << 20, lambda: lcs_pair(a, a)))\n"
        "print(lcs_pair(a, a))\n"
    )
    src = os.path.dirname(os.path.dirname(subseq.__file__))
    env = {**os.environ, "PYTHONPATH": src,
           "ASAN_OPTIONS": os.environ.get("ASAN_OPTIONS", "") + ":allocator_may_return_null=1"}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    n = 2**22
    assert (res.returncode, res.stdout) == (
        0, f"no room for the pile tops\n{n}\n"), res.stderr


def test_argument_table_names_every_c_export():
    # A function _native.c exports without an argument table entry would be
    # called with unchecked arguments; an entry with no function fails every
    # load.  Exported means defined at the start of a line, not `static`.
    # ctypes does not compare argtypes with the prototype, so an entry that
    # misses a parameter would hand C garbage for it: the counts must match.
    source = _native._SOURCE.read_text()
    exported = dict(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(([^)]*)\)",
                               source, re.MULTILINE))
    assert sorted(exported) == sorted(_native._signatures())
    for name, (_, argtypes) in _native._signatures().items():
        params = exported[name].strip()
        assert (0 if params in ("", "void") else params.count(",") + 1) == len(argtypes), name

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


def test_sweep_starts_no_thread_by_default(monkeypatch):
    s = build_hadamard_set(4, 3)
    expected = lcs_all_pairs(s)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert lcs_all_pairs(s) == expected


def test_map_threads_takes_each_index_once_under_contention():
    # More workers than cores and a short switch interval, so a lost update
    # of the shared counter would repeat or skip an index.
    count, taken, out = 3000, [], []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(
            subseq._map_threads(lambda i: taken.append(i) or i * i, count, 8)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not runner.is_alive()
    assert out == [[i * i for i in range(count)]]
    assert sorted(taken) == list(range(count))


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
    pos = np.array([2, 0, 3, 1, 4], dtype=np.int32)
    lane = np.arange(5, dtype=np.int32)
    lengths = np.empty(_native.LANES, dtype=np.intp)
    names = []
    for flag in ("-O2", "-O1", "-O2"):
        monkeypatch.setattr(_native, "_CC", ("cc", flag, "-shared", "-fPIC"))
        lib = _native.library.__wrapped__()  # uncached: build for this command
        assert lib.lis_lanes(*(pos,) * _native.LANES, *(lane,) * _native.LANES, 1, 5, lengths) == 0
        assert lengths[0] == 3
        names.append(os.path.basename(lib._name))
    assert names[0] == names[2] != names[1]
    # each build deletes the other command's library
    assert [p.name for p in tmp_path.glob("__pycache__/_native-*")] == [names[2]]


def test_build_deletes_stale_libraries_of_this_interpreter(tmp_path, monkeypatch):
    if _native.library() is None:
        pytest.skip("no native kernel on this machine")
    source = tmp_path / "_native.c"
    source.write_bytes(_native._SOURCE.read_bytes())
    monkeypatch.setattr(_native, "_SOURCE", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    suffix = EXTENSION_SUFFIXES[0]
    stale = [cache / f"_native-00000000{suffix}"]
    kept = [cache / "_native-00000000.cpython-00-other.so", cache / "fileio.cpython-311.pyc"]
    for path in stale + kept:
        path.write_bytes(b"")
    lib = _native.library.__wrapped__()
    assert sorted(cache.iterdir()) == sorted([Path(lib._name), *kept])


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
