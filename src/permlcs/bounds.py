"""The bounds `permlcs verify` asserts, and the pigeonhole pair.

`check_bounds` is verify's whole verdict over the checks in `BOUND_CHECKS`.
`pigeonhole_pair` finds two members that order [m] alike, so their LCS is
at least m.  Every command's parser reads `BOUND_CHOICES`, so `hadamard`
and `perm` are imported where they are called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .arith import ceil_cbrt, ceil_root

if TYPE_CHECKING:
    from .perm import Permutation, PermSet


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
