import math
import os
import threading
import tracemalloc

import pytest

import permlcs._native as _native
from permlcs import (
    PermSet,
    build_exact,
    ceil_cbrt,
    check_probabilistic_bound,
    identity,
    lcs_all_pairs,
    lcs_pair,
    lds,
    lis,
    lcs_threshold,
    pigeonhole_pair,
    random_perm,
    random_perm_set,
    restrict,
    reversal,
    sample_lis,
    trial_rng,
)
import permlcs.bounds as bounds
from permlcs.bounds import BOUND_CHECKS, check_bounds, largest_m_with_factorial_below
from permlcs.cli import main
from permlcs.perm import MAX_N


def test_random_perm_deterministic():
    a = random_perm(50, trial_rng(123))
    b = random_perm(50, trial_rng(123))
    assert a == b
    assert random_perm(1, trial_rng(0)).one_line == (1,)


def test_random_perm_positional_uniformity():
    # value 1's position over many draws at n=5: each slot near 1/5
    counts = [0] * 5
    draws = 20000
    rng = trial_rng(99)
    for _ in range(draws):
        p = random_perm(5, rng)
        counts[p.word.index(0)] += 1
    expected = draws / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 25  # df=4; crossing 25 by chance is ~1e-4


def test_sample_lis_trivial_and_determinism():
    s = sample_lis(1, 10, seed=4)
    assert s.lengths == (1,) * 10
    again = sample_lis(200, 25, seed=4)
    assert again == sample_lis(200, 25, seed=4)
    assert len(again.lengths) == 25
    assert all(1 <= v <= 200 for v in again.lengths)


def test_sample_lis_monotone_floor_with_lds():
    s = sample_lis(256, 30, seed=11)
    for t, up in enumerate(s.lengths):
        word = trial_rng(11, t).permutation(256).tolist()
        assert up == lis(word)
        assert max(up, lds(word)) >= 16


def test_sample_lis_csv():
    s = sample_lis(9, 3, seed=0)
    lines = s.to_csv().splitlines()
    assert lines[0] == "trial,length"
    assert len(lines) == 4
    assert lines[1] == f"0,{s.lengths[0]}"


def test_sample_draws_each_trial_once_for_both_measures(monkeypatch):
    # `sample --lis-csv` takes each trial's LIS from the first member of the
    # set it already drew, which is the permutation sample_lis draws
    draws = []
    real = bounds.trial_rng
    monkeypatch.setattr(bounds, "trial_rng", lambda seed, t=0: draws.append(t) or real(seed, t))
    check, sample = bounds._sample(300, 3, 7, 5, lis=True)
    assert sorted(draws) == list(range(7))  # in any order when trials run on threads
    assert check == check_probabilistic_bound(300, 3, 7, 5)
    assert sample == sample_lis(300, 7, 5)
    assert bounds._sample(300, 3, 7, 5, lis=False) == (check, None)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_sample_equals_serial_trials_for_any_worker_count(monkeypatch, workers):
    n, k, trials, seed = 200, 3, 13, 21  # 13 trials: no worker count above 1 divides it
    expected_max = tuple(lcs_all_pairs(random_perm_set(n, k, trial_rng(seed, t))).max_pair
                         for t in range(trials))
    expected_lis = tuple(lis(random_perm_set(n, k, trial_rng(seed, t)).perms[0].word)
                         for t in range(trials))
    monkeypatch.setattr(bounds, "_workers", lambda n, k: workers)
    check, sample = bounds._sample(n, k, trials, seed, lis=True)
    assert check.max_lcs_per_trial == expected_max
    assert sample.lengths == expected_lis
    assert sample_lis(n, trials, seed).lengths == expected_lis


@pytest.mark.parametrize("k", range(2, 10))
def test_packed_trial_equals_the_sweep_and_the_lis_measured_apart(routes, k):
    # A trial hands every pair of its set and its LIS to the kernel in one
    # stream of jobs; each answer is what the sweep and lcs_pair give alone.
    for kernel in routes:
        for n in (1, 2, 63, 64, 65, 1000, 4097):
            for seed in (0, 5):
                check, sample = bounds._sample(n, k, 2, seed, lis=True)
                for t in range(2):
                    s = random_perm_set(n, k, trial_rng(seed, t))
                    assert check.max_lcs_per_trial[t] == lcs_all_pairs(s).max_pair, (n, seed, t)
                    assert sample.lengths[t] == lcs_pair(s.perms[0], identity(n)), (n, seed, t)


def test_a_sampled_trial_fills_every_kernel_call(monkeypatch, capsys, tmp_path):
    # Four jobs to a `lis_lanes` call, whatever column each comes from: a
    # k = 3 trial's three pairs and LIS take one call, and a k = 8 trial's
    # 28 pairs and LIS take ceil(29 / 4) = 8, the last holding one lane.
    lib = _native.library()
    if lib is None:
        pytest.skip("no native kernel on this machine")
    real, counts = lib.lis_lanes, []

    def counting(*args):
        counts.append(args[2 * _native.LANES])  # the call's count of lanes
        return real(*args)

    monkeypatch.setattr(lib, "lis_lanes", counting)
    assert main(["sample", "--n", "10000", "--k", "3", "--trials", "200",
                 "--lis-csv", str(tmp_path / "lis.csv")]) == 0
    capsys.readouterr()
    assert counts == [4] * 200
    counts.clear()
    monkeypatch.setattr(bounds, "_workers", lambda n, k: 1)  # the trials' calls in order
    bounds._sample(1000, 8, 3, 0, lis=True)
    assert counts == ([4] * 7 + [1]) * 3
    counts.clear()
    bounds._sample(1000, 8, 3, 0, lis=False)
    assert counts == [4] * 7 * 3


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failing_trial_stops_the_sample_and_leaves_no_thread(monkeypatch, workers):
    class Boom(Exception):
        pass

    drawn = []
    boom = Boom("trial 3")
    real = bounds.trial_rng

    def failing_rng(seed, t=0):
        drawn.append(t)
        if t == 3:
            raise boom
        return real(seed, t)

    monkeypatch.setattr(bounds, "_workers", lambda n, k: workers)
    monkeypatch.setattr(bounds, "trial_rng", failing_rng)
    before = threading.active_count()
    with pytest.raises(Boom) as raised:
        bounds._sample(2000, 3, 50, 0, lis=True)
    assert raised.value is boom
    assert 3 in drawn and len(drawn) < 50
    assert threading.active_count() == before


def test_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    expected = bounds._sample(100, 3, 5, 2, lis=True)
    monkeypatch.setattr(bounds, "_workers", lambda n, k: 1)
    monkeypatch.setattr(threading, "Thread", no_thread)
    assert bounds._sample(100, 3, 5, 2, lis=True) == expected
    assert sample_lis(100, 5, 2) == expected[1]


def test_worker_count_is_the_cpus_unless_the_words_do_not_fit():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert bounds._workers(10**4, 3) == cpus
    assert bounds._workers(MAX_N, 3) == 1
    with pytest.raises(ValueError, match="ground set must be non-empty"):
        bounds._workers(0, 3)


def test_sample_on_two_workers_holds_at_most_two_trials(monkeypatch, routes):
    """One worker holds one trial's words, at most the
    (k + `_TRIAL_WORDS`) * 4n bytes that `_TRIALS_BUDGET` is counted in on
    either route, and (k + 2) * 4n with the C kernel, so two workers peak at
    no more than twice what one does."""
    n, k = 2**16, 3

    def peak(workers):
        monkeypatch.setattr(bounds, "_workers", lambda n, k: workers)
        tracemalloc.start()
        try:
            bounds._sample(n, k, 6, 9, lis=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for kernel in routes:
        bounds._sample(n, k, 1, 9, lis=True)  # loads the native library untraced
        serial = peak(1)
        assert serial <= (k + (2 if kernel == "native" else bounds._TRIAL_WORDS)) * 4 * n + 2**17
        assert peak(2) <= 2 * serial + 2**17


def test_sample_lis_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_lis(10, 0, seed=1)


def test_sample_lis_rejects_empty_ground_set():
    for n in (0, -1):
        with pytest.raises(ValueError, match="ground set must be non-empty"):
            sample_lis(n, 3, seed=0)


def test_random_perm_keeps_its_word_without_a_second_copy():
    """Peak traced memory is numpy's int64 draw and the int32 member cast
    from it, plus 128 KiB (12,000,393 B at n = 10**6); copying the word
    again into a member took 3.0 times its bytes."""
    n = 10**6
    rng = trial_rng(8)
    tracemalloc.start()
    try:
        random_perm(n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 4 * n + 2**17


def test_sample_lis_rejects_oversize_ground_set():
    with pytest.raises(ValueError):
        sample_lis(MAX_N + 1, 1, seed=0)


def test_probabilistic_check_small():
    chk = check_probabilistic_bound(400, 2, trials=50, seed=7)
    assert chk.threshold == pytest.approx(2 * math.e * 20)
    assert chk.violations == 0 and chk.all_below
    assert chk.min_max_lcs >= 1
    assert chk == check_probabilistic_bound(400, 2, trials=50, seed=7)


def test_probabilistic_check_n1():
    chk = check_probabilistic_bound(1, 3, trials=5, seed=1)
    assert chk.max_lcs_per_trial == (1,) * 5
    assert chk.all_below  # 1 < 2e


def test_probabilistic_check_min_respects_cube_root():
    chk = check_probabilistic_bound(216, 3, trials=10, seed=3)
    assert chk.min_max_lcs >= ceil_cbrt(216)


def test_lcs_threshold_value():
    assert lcs_threshold(10**4) == pytest.approx(543.656, abs=1e-3)


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (7, 3), (25, 4), (121, 5)])
def test_largest_m_values(k, m):
    assert largest_m_with_factorial_below(k, n=100) == m


def test_largest_m_capped_by_n():
    assert largest_m_with_factorial_below(25, n=2) == 2
    assert largest_m_with_factorial_below(25, n=1) == 1


def test_pigeonhole_pair_agreement():
    for k, seed in ((3, 1), (7, 2), (25, 3)):
        s = random_perm_set(30, k, trial_rng(seed))
        m, i, j = pigeonhole_pair(s)
        assert i != j
        assert restrict(s.perms[i], m) == restrict(s.perms[j], m)
        assert math.factorial(m) < k


def test_pigeonhole_pair_k2():
    s = PermSet((identity(5), reversal(5)))
    m, i, j = pigeonhole_pair(s)
    assert m == 1 and (i, j) == (0, 1)


def test_pigeonhole_pair_needs_two_members():
    with pytest.raises(ValueError, match="^need at least two permutations$"):
        pigeonhole_pair(PermSet((identity(5),)))


def test_lower_bound_report_identity_reversal():
    s = PermSet((identity(16), reversal(16), random_perm(16, trial_rng(5))))
    max_pair = lcs_all_pairs(s).max_pair
    assert max_pair >= 4  # monotone subsequence gives ceil(sqrt(16))
    rep = BOUND_CHECKS["lower"](s.n, s.k, max_pair)
    assert rep["applicable"] and rep["threshold"] == 3 and rep["holds"]
    m, i, j = pigeonhole_pair(s)
    assert restrict(s.perms[i], m) == restrict(s.perms[j], m)


def test_lower_bound_report_algebraic():
    s = build_exact(72, 3)
    max_pair = lcs_all_pairs(s).max_pair
    assert max_pair <= 2 * 29 - 1
    rep = BOUND_CHECKS["lower"](s.n, s.k, max_pair)
    assert rep["applicable"] and rep["threshold"] == 5 and rep["holds"]


def test_lower_bound_requires_three():
    assert BOUND_CHECKS["lower"](4, 2, 1) == {"applicable": False, "note": "needs k >= 3"}


# `verify --bound all` verdicts no CLI test reaches: theorem2 failing on a
# repeated member (LCS = n) while theorem1 is only reported, `lower` failing
# (no real set can), and `lower` not applying at k = 2.
@pytest.mark.parametrize("n, k, max_lcs, passed, failing", [
    (400, 4, 400, False, {"theorem2", "theorem1"}),
    (1000, 3, 9, False, {"lower"}),
    (9, 2, 9, True, set()),
])
def test_check_bounds_all(n, k, max_lcs, passed, failing):
    reports, got = check_bounds("all", n, k, max_lcs)
    assert got is passed and list(reports) == list(BOUND_CHECKS)
    assert {name for name, r in reports.items() if r.get("holds") is False} == failing
    assert reports["theorem1"].get("asserted", False) is False


def test_random_set_provenance():
    s = random_perm_set(12, 4, trial_rng(0))
    assert s.provenance == "random" and s.k == 4 and s.n == 12
