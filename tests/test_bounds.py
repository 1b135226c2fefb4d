import math
import tracemalloc

import pytest

from permlcs import (
    PermSet,
    build_exact,
    ceil_cbrt,
    check_probabilistic_bound,
    identity,
    lcs_all_pairs,
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
from permlcs.bounds import BOUND_CHECKS, check_bounds, largest_m_with_factorial_below
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


def test_sample_lis_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_lis(10, 0, seed=1)


def test_sample_lis_rejects_empty_ground_set():
    for n in (0, -1):
        with pytest.raises(ValueError, match="ground set must be non-empty"):
            sample_lis(n, 3, seed=0)


def test_random_perm_keeps_its_word_without_a_second_copy():
    """Peak traced memory is the shuffled word plus `np.bincount`'s counts;
    copying the word into a member took 3.0 times its bytes."""
    rng = trial_rng(8)
    tracemalloc.start()
    try:
        p = random_perm(10**6, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * p.array.nbytes


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
