"""Seeded random baselines and exact lower-bound checkers.

Randomness comes from numpy's PCG64, and every trial draws from a generator
derived from (seed, trial index), so results are reproducible trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import ceil_cbrt, ceil_root
from .hadamard import digit_lcs_bound
from .perm import MAX_N, Permutation, PermSet, _adopt, restrict
from .subseq import _lis_word, lcs_all_pairs


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """The PCG64 stream for one (seed, trial) pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def random_perm(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform random permutation on [n] (in-place shuffle under the hood)."""
    if n < 1:
        raise ValueError("ground set must be non-empty")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the ground-set cap {MAX_N}")
    return _adopt(rng.permutation(n))


def random_perm_set(n: int, k: int, rng: np.random.Generator) -> PermSet:
    return PermSet(
        tuple(random_perm(n, rng) for _ in range(k)),
        provenance="random",
        params={"n": n, "k": k},
    )


@dataclass(frozen=True)
class LisSample:
    """Observed LIS lengths over `trials` uniform random permutations."""

    n: int
    trials: int
    seed: int
    lengths: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["trial,length"]
        lines += [f"{t},{v}" for t, v in enumerate(self.lengths)]
        return "\n".join(lines) + "\n"


def sample_lis(n: int, trials: int, seed: int) -> LisSample:
    if trials < 1:
        raise ValueError("need at least one trial")
    lengths = tuple(_lis_word(random_perm(n, trial_rng(seed, t)).array) for t in range(trials))
    return LisSample(n=n, trials=trials, seed=seed, lengths=lengths)


def lcs_threshold(n: int) -> float:
    """The 2e*sqrt(n) level that random pairs essentially never reach."""
    return 2.0 * math.e * math.sqrt(n)


# -- the bounds `permlcs verify` asserts, by name --
# Each check maps (n, k, max pair LCS) to a report dict.  Decisions are exact
# integer comparisons; float thresholds are display only.

THEOREM2_FACTOR = 32


def theorem2_threshold(n: int, k: int) -> float:
    """32*(n*k)**(1/3), one ulp up so the printed value never understates it."""
    return math.nextafter(THEOREM2_FACTOR * float(n * k) ** (1.0 / 3.0), math.inf)


def _check_lower(n: int, k: int, max_lcs: int) -> dict:
    if k < 3:
        return {"applicable": False, "note": "needs k >= 3"}
    # ceil(n**(1/3)): every set of k >= 3 permutations on [n] has a pair
    # with an LCS at least this long (Beame and Huynh-Ngoc).
    threshold = ceil_cbrt(n)
    return {"applicable": True, "threshold": threshold,
            "holds": max_lcs >= threshold, "direction": ">="}


def _check_theorem2(n: int, k: int, max_lcs: int) -> dict:
    return {"applicable": True, "threshold": theorem2_threshold(n, k),
            "holds": max_lcs**3 <= THEOREM2_FACTOR**3 * n * k, "direction": "<="}


def _check_theorem1(n: int, k: int, max_lcs: int) -> dict:
    if k < 4 or k % 2 != 0:
        return {"applicable": False, "note": "needs even k >= 4"}
    threshold = digit_lcs_bound(k, ceil_root(n, k - 1))
    return {"applicable": True, "threshold": threshold,
            "holds": max_lcs <= threshold, "direction": "<="}


BOUND_CHECKS = {"theorem2": _check_theorem2, "theorem1": _check_theorem1, "lower": _check_lower}
BOUND_CHOICES = (*BOUND_CHECKS, "all")


def check_bounds(choice: str, n: int, k: int, max_lcs: int) -> tuple[dict, bool]:
    """`verify --bound choice`'s verdict: (reports by bound name, passed).

    A single named bound must apply to (n, k), or this raises ValueError.
    `all` reports every entry of BOUND_CHECKS and asserts only `theorem2`
    and, where it applies, `lower`, which hold for every construction.
    `theorem1` guesses the digit base from n alone, which is right only for
    an unrestricted digit set (n = s**(k-1)); a lattice or restricted digit
    set may exceed it while its own guarantee holds.  So under `all` it is
    reported but marked `"asserted": False`.
    """
    if choice != "all":
        report = BOUND_CHECKS[choice](n, k, max_lcs)
        if not report["applicable"]:
            raise ValueError(f"bound {choice} not applicable: {report['note']}")
        return {choice: report}, report["holds"]
    reports = {name: check(n, k, max_lcs) for name, check in BOUND_CHECKS.items()}
    if reports["theorem1"]["applicable"]:
        reports["theorem1"]["asserted"] = False
    passed = all(r["holds"] for r in reports.values()
                 if r["applicable"] and r.get("asserted", True))
    return reports, passed


@dataclass(frozen=True)
class ProbabilisticCheck:
    """Max-pair LCS of sampled random k-sets versus the 2e*sqrt(n) level."""

    n: int
    k: int
    trials: int
    seed: int
    threshold: float
    max_lcs_per_trial: tuple[int, ...]

    @property
    def violations(self) -> int:
        return sum(v >= self.threshold for v in self.max_lcs_per_trial)

    @property
    def all_below(self) -> bool:
        return self.violations == 0

    @property
    def min_max_lcs(self) -> int:
        """Empirical upper estimate of the guaranteed common-subsequence length."""
        return min(self.max_lcs_per_trial)


def check_probabilistic_bound(n: int, k: int, trials: int, seed: int) -> ProbabilisticCheck:
    if k < 2:
        raise ValueError("need at least two permutations per sampled set")
    if trials < 1:
        raise ValueError("need at least one trial")
    maxima = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        sampled = random_perm_set(n, k, rng)
        maxima.append(lcs_all_pairs(sampled).max_pair)
    return ProbabilisticCheck(
        n=n, k=k, trials=trials, seed=seed,
        threshold=lcs_threshold(n), max_lcs_per_trial=tuple(maxima),
    )


def largest_m_with_factorial_below(k: int, n: int) -> int:
    """Largest m with m! < k, capped at n."""
    m, fact = 1, 1
    while fact * (m + 1) < k and m + 1 <= n:
        m += 1
        fact *= m
    return min(m, n)


def pigeonhole_pair(s: PermSet) -> tuple[int, int, int]:
    """(m, i, j): two members that order the elements 1..m identically.

    m is the largest integer with m! < k (capped at n); with m! orderings
    and k > m! members, a coincidence is forced.  Indices are 0-based and
    the first matching pair in scan order is returned.
    """
    if s.k < 2:
        raise ValueError("need at least two permutations")
    m = largest_m_with_factorial_below(s.k, s.n)
    seen: dict[Permutation, int] = {}
    for idx, p in enumerate(s.perms):
        key = restrict(p, m)
        if key in seen:
            return m, seen[key], idx
        seen[key] = idx
    raise RuntimeError(f"no coinciding pair among {s.k} orderings of [{m}]")
