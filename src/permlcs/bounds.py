"""Seeded random baselines and exact lower-bound checkers.

Randomness comes from numpy's PCG64, and every trial draws from a generator
derived from (seed, trial index), so results are reproducible trial by trial.
Trials run on every CPU this process may use, up to the number whose words
fit `_TRIALS_BUDGET`, and their results are kept by trial index, so every
sample is the same for any number of CPUs.

Every CLI command's parser reads `BOUND_CHOICES`, so this module imports
only `arith` and the standard library at load time; numpy, `perm`, the
sampler's `subseq` and theorem1's `hadamard` are imported where they are
called, the sampler's before any of its threads starts.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import ceil_cbrt, ceil_root

if TYPE_CHECKING:
    import numpy as np

    from .perm import Permutation, PermSet

# Bytes of trial words held at once, each trial of k members on [n] counted
# as _TRIAL_WORDS + k words of 4n bytes: at n = 2**16 and 2**18, a trial's
# traced peak is (k + 2.0 to 2.1) * 4n with the C kernel at k = 3, at its
# last draw, and (k + 3.0 to 3.1) at k = 8, whose first call holds the
# positions of columns 1 to 3; without one it is (k + 3.1 to 3.3) * 4n at
# either k, in the relabel.  So n = 10**4 is never capped, and at n = MAX_N,
# k = 3 one trial runs alone.
_TRIALS_BUDGET = 1 << 28
_TRIAL_WORDS = 4


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """The PCG64 stream for one (seed, trial) pair."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def random_perm(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform random permutation on [n] (in-place shuffle under the hood)."""
    from .perm import _adopt, _ground_set

    return _adopt(rng.permutation(_ground_set(n)))


def random_perm_set(n: int, k: int, rng: np.random.Generator) -> PermSet:
    from .perm import PermSet

    return PermSet(
        tuple(random_perm(n, rng) for _ in range(k)),
        provenance="random",
        params={"n": operator.index(n), "k": operator.index(k)},
    )


def _workers(n: int, k: int) -> int:
    """How many trials of k members on [n] run at once: the CPUs this
    process may use, capped by `_TRIALS_BUDGET`, and never below one.
    Raises ValueError for an n that `_ground_set` refuses."""
    from .perm import _ground_set

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _TRIALS_BUDGET // ((k + _TRIAL_WORDS) * 4 * _ground_set(n))))


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
    """LIS of the permutation trial t draws from trial_rng(seed, t), for
    each t; trials run on `_workers(n, 1)` threads."""
    if trials < 1:
        raise ValueError("need at least one trial")
    from .subseq import _map_threads

    lengths = _map_threads(lambda t: _trial(n, 1, seed, t, True)[0], trials, _workers(n, 1))
    return LisSample(n=n, trials=trials, seed=seed, lengths=tuple(lengths))


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
    from .hadamard import digit_lcs_bound

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


def _trial(n: int, k: int, seed: int, t: int, lis: bool) -> list[int]:
    """Trial t: every pair of the k-set `random_perm_set` draws from
    trial_rng(seed, t), column by column, then, if `lis`, its first member's
    LIS, as one job stream for `_lanes`: four share each kernel call (one at
    k = 3), and a column's position array lives only while a call needs it."""
    from .subseq import _column, _lanes

    perms = random_perm_set(n, k, trial_rng(seed, t)).perms
    jobs = itertools.chain.from_iterable(_column(perms, j) for j in range(1, k))
    return _lanes(itertools.chain(jobs, [(None, perms[0].array)] if lis else ()))


def _sample(n: int, k: int, trials: int, seed: int,
            lis: bool) -> tuple[ProbabilisticCheck, LisSample | None]:
    """The trial loop: each worker reduces `_trial` to its max-pair LCS
    and, if `lis`, its first member's LIS, which `sample_lis` measures for
    trial t.  Trials run on `_workers(n, k)` threads, which hold that many
    sets at once; results are kept by trial index.  Returns the check of the
    maxima and, if `lis`, the sample of the lengths."""
    if k < 2:
        raise ValueError("need at least two permutations per sampled set")
    if trials < 1:
        raise ValueError("need at least one trial")
    from .subseq import _map_threads

    pairs = k * (k - 1) // 2

    def trial(t: int) -> tuple[int, int | None]:
        lengths = _trial(n, k, seed, t, lis)
        return max(lengths[:pairs]), lengths[pairs] if lis else None

    maxima, lengths = zip(*_map_threads(trial, trials, _workers(n, k)))
    check = ProbabilisticCheck(
        n=n, k=k, trials=trials, seed=seed,
        threshold=lcs_threshold(n), max_lcs_per_trial=maxima,
    )
    return check, LisSample(n=n, trials=trials, seed=seed, lengths=lengths) if lis else None


def check_probabilistic_bound(n: int, k: int, trials: int, seed: int) -> ProbabilisticCheck:
    return _sample(n, k, trials, seed, lis=False)[0]


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
    from .perm import restrict

    m = largest_m_with_factorial_below(s.k, s.n)
    seen: dict[Permutation, int] = {}
    for idx, p in enumerate(s.perms):
        key = restrict(p, m)
        if key in seen:
            return m, seen[key], idx
        seen[key] = idx
    raise RuntimeError(f"no coinciding pair among {s.k} orderings of [{m}]")
