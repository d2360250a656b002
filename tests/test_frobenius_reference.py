"""frobenius_at reads ramification off Phi mod p; the earlier rule tested
the discriminant of Phi.  That rule is kept here as the reference: for a
monic p-integral Phi the two agree, and where Phi does not reduce mod p
the reference stopped with BadReduction while frobenius_at now reports
the prime as ramified."""

from fractions import Fraction

import sympy

from twistctl import synth
from twistctl.arith import primes_up_to
from twistctl.errors import BadReduction, Ramified
from twistctl.numberfield import FrobeniusResult, field_make, frobenius_at
from twistctl.polynomials import pmod_gcd, pmod_pow_mod, pmod_reduce


def sympy_discriminant(min_poly):
    x = sympy.symbols("x")
    disc = sympy.discriminant(
        sum(sympy.Rational(c.numerator, c.denominator) * x ** i
            for i, c in enumerate(min_poly.coeffs)), x)
    return Fraction(int(disc.p), int(disc.q))


def reference_frobenius(field, p):
    """Ramified iff disc(Phi), computed by sympy, is 0 or p divides its
    numerator or denominator; otherwise the same Frobenius search."""
    disc = sympy_discriminant(field.min_poly)
    if disc == 0 or disc.numerator % p == 0 or disc.denominator % p == 0:
        raise Ramified(f"prime {p} is ramified (or bad) for this field")
    phi_p = pmod_reduce(field.min_poly, p)
    xp = pmod_pow_mod([0, 1], p, phi_p, p)
    matches = []
    for i, img in enumerate(field.aut_images):
        if any(c.denominator % p == 0 for c in img.coords):
            raise Ramified(f"prime {p} divides an automorphism-image denominator")
        img_p = [c.numerator * pow(c.denominator, -1, p) % p for c in img.coords]
        width = max(len(img_p), len(xp), 1)
        diff = [((img_p[k] if k < len(img_p) else 0)
                 - (xp[k] if k < len(xp) else 0)) % p for k in range(width)]
        while diff and diff[-1] == 0:
            diff.pop()
        if not diff or len(pmod_gcd(phi_p, diff, p)) > 1:
            matches.append(i)
    if not matches:
        raise Ramified(f"no Frobenius found at {p}; data inconsistent")
    return FrobeniusResult(min(matches),
                           not field.is_abelian and len(matches) > 1)


def outcome(fn, field, p):
    try:
        return fn(field, p)
    except (Ramified, BadReduction) as exc:
        return type(exc).__name__


FIELDS = {
    "rational": synth.rational_field(),
    "gaussian": synth.gaussian_field(),
    "sqrt2": synth.sqrt2_field(),
    "sqrt5": synth.sqrt5_field(),
    "eisenstein": synth.eisenstein_field(),
    "biquadratic": synth.biquadratic_field(),
    "cubic_klein": synth.cubic_klein_field(),
    "x^2+1/4": field_make([Fraction(1, 4), 0, 1], [[0, 1], [0, -1]]),
    "x^2+1/9": field_make([Fraction(1, 9), 0, 1], [[0, 1], [0, -1]]),
}


def test_reduction_rule_matches_the_discriminant_rule():
    changed = set()
    for name, field in FIELDS.items():
        for p in primes_up_to(2999):
            new = outcome(frobenius_at, field, p)
            ref = outcome(reference_frobenius, field, p)
            if ref == "BadReduction":
                assert new == "Ramified", (name, p)
                changed.add((name, p))
            else:
                assert new == ref, (name, p)
    assert changed == {("x^2+1/4", 2)}
