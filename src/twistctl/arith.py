"""Integer helpers shared by the package: primes, factorizations, divisors,
primitive roots, integer k-th roots.

Everything here works by sieving or trial division, which is plenty for the
moduli, norms, field sizes and prime ranges the package handles.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, prod


def primes_up_to(bound: int, exclude=()) -> list[int]:
    """The primes p <= bound that are not in exclude, ascending."""
    sieve = bytearray([1]) * (bound + 1)
    for p in range(2, isqrt(max(bound, 0)) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in compress(range(2, bound + 1), sieve[2:])
            if p not in exclude]


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, primes ascending; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending, built from the
    factorization: a smooth n, such as a power of a denominator, is quick."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or ValueError."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


def primitive_root(p: int, e: int = 1) -> int:
    """A generator of (Z/p^e)^x for an odd prime p: the least one mod p,
    plus p when e > 1 and it is 1 mod p^2 to the power p - 1."""
    factors = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    return g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0: Newton on ints from 2^ceil(bits/k)."""
    r = 1 << -(-n.bit_length() // k)
    while r ** k > n:
        r = ((k - 1) * r + n // r ** (k - 1)) // k
    return r


def euler_phi(n: int) -> int:
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result


def conductor_bound(primes, m: int) -> int:
    """prod of q^(1 + v_q(m)) over the primes q, and one more 2 at q = 2: it
    holds the conductor of every Dirichlet character of order dividing m
    unramified off the primes, as one primitive mod q^e has order divisible
    by q^(e-1), by 2^(e-2) at q = 2 (Washington, Cyclotomic Fields, ch. 3)."""
    v = dict(factorize(m))
    return prod(q ** (1 + v.get(q, 0) + (q == 2)) for q in primes)
