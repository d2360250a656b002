"""The shared integer helpers against their brute-force definitions."""

from math import gcd, prod

import pytest
from hypothesis import example, given, strategies as st

from twistctl.arith import (
    conductor_bound,
    divisors,
    euler_phi,
    factorize,
    iroot,
    is_prime,
    prime_power,
    primes_up_to,
    primitive_root,
)

LIMIT = 3000
PRIMES = [n for n in range(LIMIT) if n >= 2
          and all(n % d for d in range(2, n))]


def test_is_prime():
    assert [n for n in range(-5, LIMIT) if is_prime(n)] == PRIMES


def test_primes_up_to():
    for bound in (-1, 0, 1, 2, 3, 100, 2999):
        assert primes_up_to(bound) == [p for p in PRIMES if p <= bound]
    assert primes_up_to(100, exclude=(2, 3, 7)) \
        == [p for p in PRIMES if p <= 100 and p not in (2, 3, 7)]


def loop_primes_up_to(bound, exclude=()):
    """The sieve that clears one multiple at a time, walking every p up to
    the bound: the reference for the slice assignments of primes_up_to."""
    sieve = bytearray([1]) * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            if p not in exclude:
                out.append(p)
            for k in range(p * p, bound + 1, p):
                sieve[k] = 0
    return out


def test_primes_up_to_matches_the_loop():
    for bound in range(LIMIT + 1):
        assert primes_up_to(bound) == loop_primes_up_to(bound), bound
    exclude = {2, 5, 97, 2999, 3001}
    for bound in (1, 2, 97, 98, 2999, 20000):
        assert primes_up_to(bound, exclude) \
            == loop_primes_up_to(bound, exclude), bound


def test_factorize():
    assert factorize(1) == []
    for n in range(2, LIMIT):
        factors = factorize(n)
        assert [p for p, _ in factors] == [p for p in PRIMES if n % p == 0]
        assert all(e >= 1 for _, e in factors)
        assert prod(p ** e for p, e in factors) == n


def test_divisors():
    for n in range(1, LIMIT):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_euler_phi():
    for n in range(1, LIMIT):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                   if gcd(k, n) == 1)


def test_prime_power():
    powers = {p ** k: (p, k) for p in PRIMES for k in range(1, 12)
              if p ** k < LIMIT}
    for q in range(-2, LIMIT):
        if q in powers:
            assert prime_power(q) == powers[q]
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                prime_power(q)


def test_conductor_bound():
    assert conductor_bound([], 5) == 1
    assert conductor_bound([2], 1) == 4       # Q(i)
    assert conductor_bound([3], 3) == 9       # Q(zeta_9)^+
    assert conductor_bound([2, 3], 2) == 24
    assert conductor_bound((7, 3, 2), 6) == 504


@given(st.integers(0, 10 ** 80 - 1), st.integers(1, 60))
@example(0, 1)
@example(0, 60)
@example(1, 1)
@example(1, 60)
@example(2 ** 40, 40)
@example(2 ** 40 - 1, 40)
@example(10 ** 80 - 1, 1)
def test_iroot_is_the_floor_of_the_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(0, 10 ** 6), st.integers(1, 60))
def test_iroot_of_a_power_is_exact(r, k):
    assert iroot(r ** k, k) == r
    if r:
        assert iroot(r ** k - 1, k) == r - 1


def brute_force_order(g, m):
    """The order of g mod m: the least t >= 1 with g^t = 1, among the
    divisors of phi(m), which every order divides."""
    return next(t for t in divisors(euler_phi(m)) if pow(g, t, m) == 1)


def test_primitive_root():
    """A generator of (Z/p^e)^x for every odd p < 2000 and e <= 3, the least
    one mod p; for e = 1 the order is also walked out power by power."""
    for p in PRIMES[1:]:
        if p >= 2000:
            break
        g = primitive_root(p)
        assert g == primitive_root(p, 1)
        assert all(brute_force_order(h, p) < p - 1 for h in range(2, g))
        x, t = g, 1
        while x != 1:
            x, t = x * g % p, t + 1
        assert t == p - 1, p
        for e in (2, 3):
            assert brute_force_order(primitive_root(p, e), p ** e) \
                == euler_phi(p ** e), (p, e)
