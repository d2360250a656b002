"""Rational polynomials as coefficient tuples, plus mod-p kernels.

A QPoly is a value: its `fractions.Fraction` coefficients are stored
ascending with trailing zeros stripped, so equal polynomials compare equal
structurally, and the zero polynomial has an empty tuple and degree -1.  The
program parses a minimal polynomial, evaluates it at field elements,
differentiates it and reduces it mod p; it does no arithmetic in Q[x].

The mod-p kernels work on plain lists of ints (ascending): they reduce and
test squarefreeness for the Frobenius and split-prime searches, and back the
distinct-degree factorization that tests irreducibility over Q and F_p.  The
readers of document numbers (rationals and ints, never floats) live here
too, as does the integer cyclotomic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isqrt, lcm
from typing import Iterable, Sequence

from .arith import divisors, primes_up_to
from .errors import BadReduction, NotSeparableModP, SchemaError

Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class QPoly:
    """Immutable polynomial over Q: coefficients, evaluation, derivative."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
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
        return Q(0)

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


def rational_from_json(x) -> Fraction:
    """A rational as a document holds it: an int, or an exact string such as
    "-3/4" or "0.25".  A float (whose binary value is not the decimal it was
    written as), a zero denominator or anything else raises SchemaError."""
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"{x!r} is not an int or an exact rational string")


def int_from_json(x, what: str, size: int | None = None) -> int:
    """x if it is a JSON int (not a bool), in range(size) when a size is
    given; SchemaError otherwise."""
    if type(x) is not int or (size is not None and not 0 <= x < size):
        where = "" if size is None else f" in range({size})"
        raise SchemaError(f"{what} must be an integer{where}, got {x!r}")
    return x


def bool_from_json(x, what: str) -> bool:
    """x if it is a JSON bool; SchemaError otherwise."""
    if type(x) is not bool:
        raise SchemaError(f"{what} must be true or false, got {x!r}")
    return x


def poly_from_strings(items: Sequence[str | int]) -> QPoly:
    return QPoly([rational_from_json(s) for s in items])


def poly_to_strings(p: QPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def cyclotomic(n: int) -> list[int]:
    """The n-th cyclotomic polynomial, ascending integer coefficients: x^n - 1
    divided exactly by the monic Phi_d of each proper divisor d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        phi = cyclotomic(d)
        k = len(phi) - 1
        quot = [0] * (len(num) - k)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = num[i + k]
            for j, b in enumerate(phi):
                num[i + j] -= c * b
        num = quot
    return num


# --------------------------------------------------------------------------
# mod-p kernels (dense int lists, ascending)
# --------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmod_reduce(f: QPoly, p: int) -> list[int]:
    """Reduce a rational polynomial mod p.  Raises BadReduction if any
    denominator or the leading coefficient vanishes mod p."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise BadReduction(f"denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    if f.coeffs and out and len(_ptrim(list(out))) != len(out):
        raise BadReduction(f"leading coefficient vanishes mod {p}")
    return out


def pmod_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _ptrim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def pmod_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
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
    result = [1]
    b = pmod_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pmod_divmod(pmod_mul(result, b, p), mod, p)[1]
        b = pmod_divmod(pmod_mul(b, b, p), mod, p)[1]
        e >>= 1
    return result


def pmod_squarefree(f: QPoly, p: int) -> list[int]:
    """pmod_reduce(f, p), or NotSeparableModP if it has a repeated factor,
    which for monic p-integral f is exactly when p divides disc(f)."""
    fp = pmod_reduce(f, p)
    deriv = _ptrim([i * c % p for i, c in enumerate(fp)][1:])
    if len(pmod_gcd(fp, deriv, p)) > 1:
        raise NotSeparableModP(f"polynomial is not separable mod {p}")
    return fp


def ddf_mod_p(f: QPoly, p: int) -> list[tuple[int, int]]:
    """Distinct-degree factorization degrees of f mod p.

    Returns a sorted list of (degree, count) pairs with
    sum(degree * count) == deg f.  Requires f to be p-integral with p-unit
    leading coefficient and separable mod p.
    """
    fp = pmod_squarefree(f, p)
    if len(fp) - 1 < 1:
        return []
    # make monic
    inv = pow(fp[-1], -1, p)
    work = [c * inv % p for c in fp]
    out: list[tuple[int, int]] = []
    x = [0, 1]
    xq = x  # x^(p^i) mod work, updated each round
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            # what is left is a single irreducible factor
            out.append((len(work) - 1, 1))
            break
        xq = pmod_pow_mod(xq, p, work, p)
        g = pmod_gcd(work, pmod_sub(xq, x, p), p)
        if len(g) - 1 > 0:
            deg_total = len(g) - 1
            out.append((d, deg_total // d))
            work = pmod_divmod(work, g, p)[0]
            xq = pmod_divmod(xq, work, p)[1]
    return sorted(out)


def pmod_roots(f: QPoly, p: int) -> list[int]:
    """All roots of f in F_p by direct scan (p is small here)."""
    fp = pmod_reduce(f, p)
    return [r for r in range(p) if _peval(fp, r, p) == 0]


def _peval(f: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def pmod_hensel_root(f: Sequence[int], r: int, p: int, n: int) -> int:
    """The root of the integer polynomial f modulo p^n above r, a root of f
    mod p where f' does not vanish, by Newton steps that double the
    precision (Cohen, GTM 138, section 3.5)."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    e = 1
    while e < n:
        e = min(2 * e, n)
        q = p ** e
        r = (r - _peval(f, r, q) * pow(_peval(deriv, r, q), -1, q)) % q
    return r


# --------------------------------------------------------------------------
# irreducibility over Q (integer roots of the monic model + mod-p patterns)
# --------------------------------------------------------------------------

def _integer_roots(ic: list[int]) -> list[int]:
    """The integer roots of a monic integer polynomial (ascending
    coefficients): 0 when the constant term vanishes, and the divisors of
    the lowest nonzero coefficient, of either sign, that annihilate it."""
    k = next(i for i, c in enumerate(ic) if c)
    return [0] * (k > 0) + [r for c in divisors(abs(ic[k])) for r in (c, -c)
                            if not sum(a * r ** i for i, a in enumerate(ic))]


_SMALL_PRIMES = primes_up_to(113)


def _monic_integer_model(f: QPoly) -> list[int]:
    """For monic f over Q, the integer coefficients of lam^d f(y/lam) with
    lam = lcm of denominators; irreducibility is preserved."""
    lam = lcm(*(c.denominator for c in f.coeffs))
    d = f.degree
    return [int(f.coeffs[i] * lam ** (d - i)) for i in range(d + 1)]


def _monic_quartic_splits_quadratic(ic: list[int]) -> bool:
    """Whether an integer monic quartic with no rational root factors as a
    product of two monic integer quadratics (Gauss: rational factors of a
    monic integer polynomial are integral)."""
    s0, s1, s2, s3 = ic[0], ic[1], ic[2], ic[3]
    if s0 == 0:
        return False  # has the root 0; handled elsewhere
    for c in divisors(abs(s0)):
        for c1 in (c, -c):
            if s0 % c1 != 0:
                continue
            c2 = s0 // c1
            if c1 != c2:
                num = s1 - s3 * c2
                den = c1 - c2
                if num % den != 0:
                    continue
                b1 = num // den
                b2 = s3 - b1
                if b1 * b2 + c1 + c2 == s2:
                    return True
            else:
                # b1 + b2 = s3, b1 b2 = s2 - 2 c1, consistency s1 = s3 c1
                if s1 != s3 * c1:
                    continue
                disc = s3 * s3 - 4 * (s2 - 2 * c1)
                if disc >= 0 and _is_square(disc) and (s3 + isqrt(disc)) % 2 == 0:
                    return True
    return False


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def irreducibility_over_q(f: QPoly) -> str:
    """Returns "irreducible", "reducible", or "unknown" for a monic f.

    Strategy: on the monic integer model, whose rational roots are integers
    dividing its constant term, a root test (decisive through degree 3) and
    an exact quadratic-split test for quartics; then degree patterns of
    factorizations mod up to 12 good primes.  The possible degrees of a
    rational factor must be subset sums of every mod-p pattern; an empty
    intersection certifies irreducibility.  A surviving pattern after the
    prime budget yields "unknown" rather than an expensive certificate.
    """
    d = f.degree
    if d <= 0:
        return "reducible"
    if d == 1:
        return "irreducible"
    model = _monic_integer_model(f)
    if _integer_roots(model):
        return "reducible"
    if d <= 3:
        return "irreducible"  # no rational root and degree <= 3
    if d == 4:
        return "reducible" if _monic_quartic_splits_quadratic(model) else "irreducible"
    possible = set(range(1, d))  # proper factor degrees still in play
    tried = 0
    for p in _SMALL_PRIMES:
        if tried >= 12:
            break
        try:
            degs = ddf_mod_p(f, p)
        except (BadReduction, NotSeparableModP):
            continue
        tried += 1
        if degs == [(d, 1)]:
            return "irreducible"
        # subset sums of the multiset of factor degrees mod p
        sums = {0}
        for deg, count in degs:
            for _ in range(count):
                sums |= {s + deg for s in sums}
        possible &= sums
        if not possible:
            return "irreducible"
    return "unknown"
