import random

import numpy as np
import pytest

from permlcs import ceil_cbrt, ceil_root, floor_root, is_prime, next_prime_above


def test_small_primes():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_primes_below_2_16_match_sieve():
    # every modulus the builders ask for (p < 2**15, Paley q <= 23) is in range
    limit = 1 << 16
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, 256):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2047, 3215031751):
        assert not is_prime(n)


def test_large_64bit_primes():
    # beyond the trial-division range: refused, not answered slowly
    for n in (2**61 - 1, 18446744073709551557, 18446744073709551555, 3825123056546413051):
        with pytest.raises(ValueError):
            is_prime(n)


def test_range_guard():
    assert is_prime(2**32 - 5)  # largest prime below 2**32
    assert not is_prime(2**32 - 1)
    for n in (2**32, 10**25):
        with pytest.raises(ValueError):
            is_prime(n)


def test_next_prime_above():
    assert next_prime_above(12) == 13
    assert next_prime_above(24) == 29
    assert next_prime_above(0) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(13) == 17


# floor(10**(400/3)), checked against a 300-digit decimal.Decimal cube root
CBRT_1E400 = int(
    "2154434690031883721759293566519350495259344942192108582489235506346411106648"
    "3408001854415035432432761012612204917809204465575051000832"
)


def test_integer_roots_exhaustive():
    for n in range(1, 2000):
        c = floor_root(n, 3)
        assert c**3 <= n < (c + 1) ** 3
        cc = ceil_cbrt(n)
        assert (cc - 1) ** 3 < n <= cc**3
    # seeded sweep over wide n and several r, where a float seed would be off
    rng = random.Random(2009)
    for _ in range(3000):
        n, r = rng.getrandbits(rng.randint(1, 200)), rng.randint(2, 9)
        x = floor_root(n, r)
        assert x**r <= n < (x + 1) ** r


@pytest.mark.parametrize(
    "n,r,floor,ceil",
    [(64, 3, 4, 4), (63, 3, 3, 4), (65, 3, 4, 5), (128, 7, 2, 2),
     (127, 7, 1, 2), (1, 5, 1, 1), (10**15, 3, 10**5, 10**5),
     # past float range (10**400 is above 2**1024): the root must come from integers alone
     pytest.param(10**399, 3, 10**133, 10**133, id="10**399-3"),
     pytest.param(10**400, 3, CBRT_1E400, CBRT_1E400 + 1, id="10**400-3")],
)
def test_root_spot_values(n, r, floor, ceil):
    assert floor_root(n, r) == floor
    assert ceil_root(n, r) == ceil


def test_root_rejects_bad_input():
    with pytest.raises(ValueError):
        floor_root(-1, 3)
    with pytest.raises(ValueError):
        floor_root(8, 0)


def test_roots_take_any_integer_and_refuse_a_float():
    # the Newton seed calls bit_length, which numpy integers lack
    for n in (27, 28, 10**15):
        assert floor_root(np.int64(n), 3) == floor_root(n, 3)
        assert ceil_cbrt(np.int64(n)) == ceil_cbrt(n)
    for f in (floor_root, ceil_root):
        with pytest.raises(TypeError):
            f(27.0, 3)
