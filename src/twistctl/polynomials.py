"""Rational polynomials as coefficient tuples, and their reduction mod p.

A QPoly is a value: its `fractions.Fraction` coefficients are stored
ascending with trailing zeros stripped, so equal polynomials compare equal
structurally, and the zero polynomial has an empty tuple and degree -1.  The
program parses a minimal polynomial, evaluates it at field elements,
differentiates it and reduces it mod p; it does no arithmetic in Q[x].

A reduced polynomial is a plain list of ints, and the F_p[x] kernels it
meets live in arith.  Here are the entry points that take a QPoly
(pmod_reduce, pmod_squarefree, ddf_mod_p), equal-degree factorization, and
Hensel lifting of one factor or of every factor to one precision
(lifted_factors).  On them rests certify_irreducible, the one test of a
minimal polynomial: factor-degree patterns mod p, then recombination of the
lifted factors at one prime, so a polynomial is certified irreducible or
refused, and the primes where it splits completely come out of the same
scan.  The one reader of a document's rational lists lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import lcm
from random import Random
from typing import Iterable, Sequence

from .arith import (distinct_degree_parts, iroot, is_prime, pmod_divmod,
                    pmod_gcd, pmod_mul, pmod_pow_mod, pmod_sub,
                    squarefree_mod_p)
from .errors import (BadReduction, CoefficientDimensionMismatch,
                     NotIrreducible, NotSeparableModP, SchemaError,
                     typed_from_json)

def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class QPoly:
    """Immutable polynomial over Q: coefficients, evaluation, derivative."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "QPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "QPoly(" + " + ".join(terms) + ")"

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; x may be a Fraction, int, or any ring element
        supporting addition/multiplication with Fractions."""
        if not self.coeffs:
            return x * 0
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc


def rational_from_json(x, what: str) -> Fraction:
    """A rational as a document holds it: an int, or an exact string such as
    "-3/4" or "0.25".  A float (whose binary value is not the decimal it was
    written as), a zero denominator or anything else raises SchemaError,
    naming what holds it."""
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"{what} holds {x!r}, which is not an int or an exact "
                      "rational string")


def rationals_from_json(x, what: str, length: int | None = None) -> list[Fraction]:
    """A document's list of rationals (see rational_from_json), of exactly
    length entries when a length is given: the one reader of every
    coordinate list and coefficient list a document holds."""
    items = typed_from_json(x, list, what)
    if length is not None and len(items) != length:
        raise CoefficientDimensionMismatch(
            f"{what} has {len(items)} entries, expected {length}")
    return [rational_from_json(c, what) for c in items]


def poly_from_strings(items: Sequence[str | int]) -> QPoly:
    return QPoly(rationals_from_json(items, "a polynomial"))


def poly_to_strings(p: QPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


# --------------------------------------------------------------------------
# mod p: a QPoly reduced to an int list, then the kernels of arith
# --------------------------------------------------------------------------

def pmod_reduce(f: QPoly, p: int) -> list[int]:
    """Reduce a rational polynomial mod p.  Raises BadReduction if any
    denominator or the leading coefficient vanishes mod p."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise BadReduction(f"denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    if out and out[-1] == 0:
        raise BadReduction(f"leading coefficient vanishes mod {p}")
    return out


def pmod_squarefree(f: QPoly, p: int) -> list[int]:
    """pmod_reduce(f, p) through arith.squarefree_mod_p."""
    return squarefree_mod_p(pmod_reduce(f, p), p)


def ddf_mod_p(f: QPoly, p: int) -> list[tuple[int, int]]:
    """The sorted (degree, count) pairs of the irreducible factors of f mod
    p: f p-integral with a p-unit leading coefficient and separable mod p."""
    return [(e, (len(g) - 1) // e)
            for e, g in distinct_degree_parts(pmod_squarefree(f, p), p)]


def _equal_degree_factors(g: list[int], e: int, p: int) -> list[list[int]]:
    """The monic irreducible factors of g mod the odd prime p, a monic
    squarefree product of factors of degree e: for a random a, drawn from a
    fixed seed, the gcd of g and a^((p^e - 1)/2) - 1 is a proper factor
    with probability about 1/2 (Cantor-Zassenhaus)."""
    if len(g) - 1 == e:
        return [g]
    rng = Random(len(g))
    while True:
        a = [rng.randrange(p) for _ in range(len(g) - 1)]
        h = pmod_gcd(g, pmod_sub(pmod_pow_mod(a, (p ** e - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_equal_degree_factors(h, e, p)
                    + _equal_degree_factors(pmod_divmod(g, h, p)[0], e, p))


def hensel_lift(f: Sequence[int], g: Sequence[int], p: int, n: int) -> list[int]:
    """The monic factor of the monic integer polynomial f modulo p^n above g,
    a monic irreducible factor of f mod p prime to its cofactor h, one p-adic
    digit per step: if G divides f mod p^k, the remainder of f by G is p^k e
    mod p^(k+1), and G + p^k (e / h mod g) divides f mod p^(k+1) (Cohen,
    GTM 138, section 3.5).  A simple root r lifts as g = x - r."""
    h = pmod_divmod([c % p for c in f], g, p)[0]
    h_inv = pmod_pow_mod(h, p ** (len(g) - 1) - 2, g, p)  # F_p[x]/(g) is a field
    lifted = list(g)
    for k in range(1, n):
        e = [c // p ** k for c in pmod_divmod(f, lifted, p ** (k + 1))[1]]
        step = pmod_divmod(pmod_mul(e, h_inv, p), g, p)[1]
        lifted = [c + p ** k * s for c, s in zip_longest(lifted, step, fillvalue=0)]
    return lifted


def lifted_factors(model: list[int], p: int, bound: int) -> tuple[int, list[list[int]]]:
    """(p^n, factors) for the least n with p^n > bound: the irreducible
    factors of the monic integer model, squarefree mod the odd prime p, by
    distinct- and equal-degree factorization, each lifted by hensel_lift."""
    n = 1
    while p ** n <= bound:
        n += 1
    return p ** n, [hensel_lift(model, h, p, n)
                    for e, g in distinct_degree_parts([c % p for c in model], p)
                    for h in _equal_degree_factors(g, e, p)]


# --------------------------------------------------------------------------
# irreducibility over Q (mod-p degree patterns, then recombination of the
# lifted factors at one prime)
# --------------------------------------------------------------------------

_SCAN_LIMIT = 10007  # the first prime past 10^4
_PATTERN_PRIMES = 12  # odd good primes whose factor degrees are read


def monic_integer_model(f: QPoly) -> tuple[int, list[int]]:
    """(lam, F) for monic f over Q: F = lam^d f(y/lam), irreducible with f,
    has the integer coefficients f_i lam^(d-i), lam the lcm over i of the
    exact (d-i)-th root of den f_i or, where there is none, of den f_i."""
    d, lam = f.degree, 1
    for k, den in zip(range(d, 0, -1), (c.denominator for c in f.coeffs)):
        root = iroot(den, k)
        lam = lcm(lam, root if root ** k == den else den)
    return lam, [int(c * lam ** (d - i)) for i, c in enumerate(f.coeffs)]


def root_bound(model: list[int]) -> int:
    """The smaller of Cauchy's 1 + max |F_i| and Fujiwara's 2 max_j
    ceil(|F_(d-j)|^(1/j)), both bounds on the roots of the monic model F."""
    fujiwara = max((iroot(abs(c) - 1, j) + 1
                    for j, c in enumerate(reversed(model[:-1]), 1) if c),
                   default=0)
    return min(1 + max(map(abs, model[:-1])), 2 * fujiwara)


def exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """num / den for integer polynomials (ascending) and a monic den, or None
    when den does not divide num exactly."""
    rem = list(num)
    k = len(den) - 1
    quot = [0] * (len(rem) - k)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + k]
        for j, b in enumerate(den):
            rem[i + j] -= c * b
    return None if any(rem[:k]) else quot


def certify_irreducible(f: QPoly) -> list[int]:
    """The first three odd primes, up to 10007, at which the monic f splits
    into distinct linear factors, once f is certified irreducible over Q;
    NotIrreducible if f has a factor, a repeated one included, or no such
    prime exists.

    One pass over the primes.  At the first good ones the factor degrees mod
    p are read: a rational factor's degree is a subset sum of each pattern.
    If one is still possible after 12 odd good primes, _recombine decides at
    the one of them with the fewest factors.  The rest of the pass only
    tests complete splitting, x^p = x mod f.  A prime where f reduces but is
    not squarefree divides disc F of the monic integer model F, which for a
    squarefree F is not 0 and at most d^d ||F||_2^(2d-2) (Mahler)."""
    d = f.degree
    if d < 1:
        raise NotIrreducible(f"{f!r} is constant")
    model = monic_integer_model(f)[1]
    disc_bound = d ** d * sum(c * c for c in model) ** (d - 1)
    primes = (p for p in range(2, _SCAN_LIMIT + 1) if is_prime(p))
    possible, split, counts, inseparable = set(range(1, d)), [], [], 1
    for p in primes:
        try:
            degs = ddf_mod_p(f, p)
        except BadReduction:
            continue
        except NotSeparableModP:
            inseparable *= p
            if inseparable > disc_bound:
                raise NotIrreducible(f"{f!r} has a repeated factor")
            continue
        sums = {0}
        for deg, count in degs:
            sums = {s + deg * j for s in sums for j in range(count + 1)}
        possible &= sums
        if p > 2:
            counts.append((sum(count for _, count in degs), p))
            split += [p] * (degs == [(1, d)])
        if not possible or len(counts) == _PATTERN_PRIMES:
            break
    if possible and counts:
        _recombine(model, min(counts)[1], possible)
    for p in primes:
        if len(split) >= 3:
            break
        if all(c.denominator % p for c in f.coeffs):
            fp = pmod_reduce(f, p)
            split += [p] * (pmod_pow_mod([0, 1], p, fp, p)
                            == pmod_pow_mod([0, 1], 1, fp, p))
    if not split:
        raise NotIrreducible(
            f"no prime up to {_SCAN_LIMIT} splits {f!r} into distinct linear "
            "factors, so it cannot be certified irreducible")
    return split[:3]


def _recombine(model: list[int], q: int, possible: set[int]) -> None:
    """NotIrreducible if the monic integer polynomial model has a monic
    factor of a degree k <= d/2 in possible.  Its factors mod the odd good
    prime q are lifted, and each set of them of such a degree (at k = d/2
    those holding factor 0, one of each complementary pair) is tried by
    exact division: a factor's coefficients are at most (1 + M)^k, M =
    root_bound(model), so residues mod q^n > 2 (1 + M)^(d/2) give them
    exactly (Berlekamp-Zassenhaus, Cohen GTM 138, section 3.5)."""
    d = len(model) - 1
    big, factors = lifted_factors(
        model, q, 2 * (1 + root_bound(model)) ** (d // 2))
    for size in range(1, len(factors)):
        for subset in combinations(range(len(factors)), size):
            k = sum(len(factors[i]) - 1 for i in subset)
            if k in possible and (2 * k < d or 2 * k == d and subset[0] == 0):
                factor = [1]
                for i in subset:
                    factor = pmod_mul(factor, factors[i], big)
                factor = [(c + big // 2) % big - big // 2 for c in factor]
                if exact_quotient(model, factor) is not None:
                    raise NotIrreducible(f"the monic integer model {model} "
                                         f"has the factor {factor} over Q")
