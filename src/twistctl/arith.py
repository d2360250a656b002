"""Integer helpers shared by the package: primes, factorizations, divisors,
primitive roots, integer k-th roots, and arithmetic in F_p[x].

Everything here works by sieving or trial division, which is plenty for the
moduli, norms, field sizes and prime ranges the package handles.  F_p[x]
is on int lists, ascending: products, division with remainder, gcds,
base^e mod (f, p) by one kernel, the squarefree test and the distinct-degree
split, so finite fields and the mod-p layer of polynomials need no Fraction.
"""

from __future__ import annotations

from itertools import compress, zip_longest
from math import isqrt, prod
from typing import Sequence

from .errors import NotSeparableModP


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


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmod_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _ptrim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def pmod_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def pmod_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] * inv % p
        if c:
            quot[i] = c
            for j, d in enumerate(b):
                rem[i + j] = (rem[i + j] - c * d) % p
    return _ptrim(quot), _ptrim(rem[:db])


def pmod_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pmod_pow_mod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """base^e mod (mod, p), trimmed ([] for a constant modulus), by left to
    right square and multiply on d = deg mod residues: a squaring is the
    products r_i r_j, i <= j, of the nonzero r_i, a step by the base is
    pmod_mul over its nonzero residues (by x, a shift), and each product is
    reduced from the top by mod over its leading coefficient, skipping zero
    residues, and taken mod p once."""
    d = len(mod) - 1
    if d < 1:
        return []
    inv = pow(mod[-1], -1, p)

    def reduced(acc):
        for i in range(len(acc) - 1, d - 1, -1):
            if c := acc[i] * inv % p:
                for j, t in enumerate(mod):
                    acc[i - d + j] -= c * t
        return [c % p for c in acc[:d]]

    b = reduced(list(base))
    r = [1]
    for bit in bin(e)[2:]:
        terms = [(i, a) for i, a in enumerate(r) if a]
        acc = [0] * (2 * d - 1)
        for k, (i, a) in enumerate(terms):
            acc[2 * i] += a * a
            for j, s in terms[k + 1:]:
                acc[i + j] += 2 * a * s
        r = reduced(acc)
        if bit == "1":
            r = reduced(pmod_mul(b, r, p))
    return _ptrim(r)


def squarefree_mod_p(fp: list[int], p: int) -> list[int]:
    """fp, residues mod p led by a nonzero one, or NotSeparableModP if it has
    a repeated factor: for monic f reduced to fp, exactly when p | disc(f)."""
    deriv = _ptrim([i * c % p for i, c in enumerate(fp)][1:])
    if len(pmod_gcd(fp, deriv, p)) > 1:
        raise NotSeparableModP(f"polynomial is not separable mod {p}")
    return fp


def distinct_degree_parts(fp: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(e, g_e), e ascending, g_e the monic product of the irreducible factors
    of degree e of fp, residues mod p with no repeated factor."""
    inv = pow(fp[-1], -1, p)
    work = [c * inv % p for c in fp]
    out = []
    x = xq = [0, 1]  # xq is x^(p^e) mod work
    e = 0
    while len(work) > 1:
        e += 1
        if 2 * e > len(work) - 1:
            # what is left is a single irreducible factor
            out.append((len(work) - 1, work))
            break
        xq = pmod_pow_mod(xq, p, work, p)
        g = pmod_gcd(work, pmod_sub(xq, x, p), p)
        if len(g) > 1:
            out.append((e, g))
            work = pmod_divmod(work, g, p)[0]
    return out
