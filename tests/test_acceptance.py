"""Acceptance gate: one test per criterion, exact tolerances, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline.
Construction-heavy collections are built once per module and shared.
"""

import math
import statistics
import time

import numpy as np
import pytest

from permlcs import (
    build_exact,
    build_general,
    build_hadamard_set,
    ceil_cbrt,
    check_probabilistic_bound,
    d_del,
    lcs_all_pairs,
    lcs_pair,
    lds,
    lis,
    min_distance,
    pigeonhole_pair,
    random_perm,
    random_perm_set,
    restrict,
    trial_rng,
)
from permlcs.algebraic import _coordinate_arrays, _key_arrays, params_from
from permlcs.cli import main

from oracles import lcs_pair_dp, value_sort_key

SEED = 20240601

EXACT_GRID = [
    (k, s1) for k in (3, 4, 5, 8) for s1 in (1, 2, 3, 4) if k * k * s1**3 <= 10**5
]


def verdict(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def exact_builds():
    t0 = time.perf_counter()
    items = []
    for k, s1 in EXACT_GRID:
        n = k * k * s1**3
        s = build_exact(n, k)
        items.append({"n": n, "k": k, "set": s, "max_lcs": lcs_all_pairs(s).max_pair})
    return {"items": items, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def general_builds():
    rng = trial_rng(SEED, 3)
    t0 = time.perf_counter()
    items = []
    for _ in range(50):
        k = int(rng.integers(3, 9))
        n = int(rng.integers(k * k, 10**5 + 1))
        s = build_general(n, k)
        items.append({"n": n, "k": k, "set": s, "max_lcs": lcs_all_pairs(s).max_pair})
    return {"items": items, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def hadamard_builds():
    t0 = time.perf_counter()
    items = []
    for k, s in ((4, 2), (4, 3), (4, 4), (8, 2)):
        built = build_hadamard_set(k, s)
        items.append({
            "n": built.n, "k": k, "s": s, "set": built,
            "max_lcs": lcs_all_pairs(built).max_pair,
        })
    return {"items": items, "elapsed": time.perf_counter() - t0}


def test_criterion_01_oracle_equivalence():
    rng = trial_rng(SEED, 1)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 129))
        a, b = random_perm(n, rng), random_perm(n, rng)
        if lcs_pair(a, b) != lcs_pair_dp(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert verdict(1, "oracle equivalence (patience vs quadratic DP)", ok,
                   f"500 pairs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_exact_construction_bounds(exact_builds):
    failures = []
    for item in exact_builds["items"]:
        p = item["set"].params["p"]
        s3 = item["set"].params["s3"]
        if not (item["max_lcs"] <= 2 * p - 1 and item["max_lcs"] <= 16 * s3):
            failures.append((item["n"], item["k"]))
    elapsed = exact_builds["elapsed"]
    ok = not failures and elapsed < 60.0
    assert verdict(2, "exact-case pair bound 2p-1 and 16*(nk)^(1/3)", ok,
                   f"{len(exact_builds['items'])} cases, failures={failures}, {elapsed:.1f}s")


def test_criterion_03_general_construction_bound(general_builds):
    failures = [
        (it["n"], it["k"])
        for it in general_builds["items"]
        if it["max_lcs"] ** 3 > 32**3 * it["n"] * it["k"]
    ]
    elapsed = general_builds["elapsed"]
    ok = not failures and elapsed < 120.0
    assert verdict(3, "general-case bound 32*(nk)^(1/3)", ok,
                   f"50 cases, failures={failures}, {elapsed:.1f}s")


def test_criterion_04_hadamard_bounds(hadamard_builds):
    failures = []
    for item in hadamard_builds["items"]:
        bound = item["s"] ** (item["k"] // 2 - 1)
        if item["max_lcs"] > bound:
            failures.append((item["k"], item["s"]))
    built42 = next(it for it in hadamard_builds["items"] if (it["k"], it["s"]) == (4, 2))
    dp_ok = all(
        lcs_pair_dp(a, b) <= 2
        for idx, a in enumerate(built42["set"].perms)
        for b in built42["set"].perms[idx + 1:]
    )
    elapsed = hadamard_builds["elapsed"]
    ok = not failures and dp_ok and elapsed < 30.0
    assert verdict(4, "digit-construction bound s^(k/2-1)", ok,
                   f"failures={failures}, dp_ok={dp_ok}, {elapsed:.1f}s")


def test_criterion_05_cube_root_floor(exact_builds, general_builds, hadamard_builds):
    violations = []
    for group in (exact_builds, general_builds, hadamard_builds):
        for item in group["items"]:
            if item["max_lcs"] < ceil_cbrt(item["n"]):
                violations.append((item["n"], item["k"]))
    total = sum(len(g["items"]) for g in (exact_builds, general_builds, hadamard_builds))
    ok = not violations
    assert verdict(5, "cube-root floor on every constructed set", ok,
                   f"{total} sets, violations={violations}")


def test_criterion_06_monotone_subsequence_floor():
    violations = 0
    trials = 1000
    for size_idx, n in enumerate((100, 1024, 10**4)):
        floor = math.isqrt(n - 1) + 1
        for t in range(trials):
            word = trial_rng(SEED + 6000 + size_idx, t).permutation(n).tolist()
            if max(lis(word), lds(word)) < floor:
                violations += 1
    ok = violations == 0
    assert verdict(6, "monotone-subsequence floor ceil(sqrt(n))", ok,
                   f"3x{trials} trials, violations={violations}")


def test_criterion_07_random_pair_lcs_statistics():
    n = 10**4
    chk = check_probabilistic_bound(n, 2, trials=200, seed=SEED + 7)
    mean = statistics.mean(chk.max_lcs_per_trial)
    lo, hi = 1.5 * math.sqrt(n), 2.5 * math.sqrt(n)
    ok = chk.violations == 0 and lo < mean < hi
    assert verdict(7, "random-pair LCS below 2e*sqrt(n), mean near 2*sqrt(n)", ok,
                   f"200 pairs, violations={chk.violations}, mean={mean:.1f} in ({lo:.0f}, {hi:.0f})")


def test_criterion_08_key_injectivity():
    collisions = 0
    checked = 0
    rng = trial_rng(SEED, 8)
    for k, s1 in EXACT_GRID:
        n = k * k * s1**3
        if n > 10**4:
            continue
        params = params_from(n, k)
        x, y, z = (a.ravel() for a in np.broadcast_arrays(*_coordinate_arrays(params)))
        for j in range(1, k + 1):
            major, middle, minor = _key_arrays(j, x, y, z, params)
            stacked = np.stack([major, middle, minor], axis=1)
            distinct = len(np.unique(stacked, axis=0))
            checked += 1
            if distinct != n:
                collisions += n - distinct
            # spot-check the vectorized keys against the scalar definition
            for a in rng.integers(1, n + 1, size=5):
                key = value_sort_key(j, int(a), params)
                assert (minor[a - 1], middle[a - 1], major[a - 1]) == key
    ok = collisions == 0
    assert verdict(8, "key triples 1-1 on [n] for every generator", ok,
                   f"{checked} (case, generator) tables, collisions={collisions}")


def test_criterion_09_deletion_code_duality(exact_builds, general_builds, hadamard_builds):
    broken = []
    for group in (exact_builds, general_builds, hadamard_builds):
        for item in group["items"]:
            if min_distance(item["set"]) + item["max_lcs"] != item["n"]:
                broken.append((item["n"], item["k"]))
    rng = trial_rng(SEED, 9)
    axiom_failures = 0
    for _ in range(200):
        a, b, c = (random_perm(50, rng) for _ in range(3))
        sym = d_del(a, b) == d_del(b, a)
        idn = (d_del(a, b) == 0) == (a == b) and d_del(a, a) == 0
        tri = d_del(a, c) <= d_del(a, b) + d_del(b, c)
        if not (sym and idn and tri):
            axiom_failures += 1
    ok = not broken and axiom_failures == 0
    assert verdict(9, "distance duality and metric axioms", ok,
                   f"duality breaks={broken}, axiom failures={axiom_failures}/200 triples")


def test_criterion_10_pigeonhole_pair():
    failures = []
    for k, want_m in ((3, 2), (7, 3), (25, 4)):
        s = random_perm_set(40, k, trial_rng(SEED + 10, k))
        m, i, j = pigeonhole_pair(s)
        same = restrict(s.perms[i], m) == restrict(s.perms[j], m)
        if m != want_m or i == j or not same:
            failures.append((k, m, i, j, same))
    ok = not failures
    assert verdict(10, "pigeonhole pair agrees on [m]", ok, f"failures={failures}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a1.permset", tmp_path / "a2.permset"
    construct = ["construct", "algebraic", "--n", "500", "--k", "4"]
    assert main(construct + ["--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main(construct + ["--out", str(out2)]) == 0
    stdout2 = capsys.readouterr().out
    files_equal = out1.read_bytes() == out2.read_bytes()
    reports_equal = stdout1.replace(str(out1), "X") == stdout2.replace(str(out2), "X")

    bench = ["bench", "--grid", "algebraic:k=3,4:s1=1,2",
             "--grid", "random:n=200:k=3", "--seed", "5"]
    assert main(bench) == 0
    csv1 = capsys.readouterr().out
    assert main(bench) == 0
    csv2 = capsys.readouterr().out
    ok = files_equal and reports_equal and csv1 == csv2
    assert verdict(11, "construct and bench outputs byte-identical", ok,
                   f"permset={files_equal}, report={reports_equal}, csv={csv1 == csv2}")
