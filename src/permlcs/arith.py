"""Exact integer arithmetic: primality by trial division and integer roots.

No float is used: roots come from integer Newton steps, and comparisons of
the form m <= c * (n*k)**(1/3) are decided exactly via m**3 <= c**3 * n * k.
"""

from __future__ import annotations

import math
import operator


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to floor(sqrt(n)).

    Every prime the library asks for is below 2**15; n >= 2**32 is refused
    so that a direct call cannot run for hours.
    """
    if n >= 1 << 32:
        raise ValueError(f"n={n} exceeds the trial-division range 2**32")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def next_prime_above(t: int) -> int:
    """Smallest prime strictly greater than t."""
    n = max(t + 1, 2)
    while not is_prime(n):
        n += 1
    return n


def floor_root(n: int, r: int) -> int:
    """Largest x with x**r <= n, computed in integer arithmetic for any size of n."""
    n = operator.index(n)  # a numpy integer has no bit_length; a float raises TypeError
    if n < 0 or r < 1:
        raise ValueError("floor_root requires n >= 0 and r >= 1")
    if n < 2 or r == 1:
        return n
    # From above the root, integer Newton steps fall strictly while x**r > n
    # and never below the floor root (AM-GM): the first one that does not fall ends it.
    x = 1 << -(-n.bit_length() // r)
    while (y := ((r - 1) * x + n // x ** (r - 1)) // r) < x:
        x = y
    return x


def ceil_root(n: int, r: int) -> int:
    """Smallest x with x**r >= n."""
    x = floor_root(n, r)
    return x if x**r == n else x + 1


def ceil_cbrt(n: int) -> int:
    return ceil_root(n, 3)
