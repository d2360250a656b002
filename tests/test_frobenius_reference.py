"""frobenius_at against two references.

frobenius_at decides ramification from one integer the field keeps: p
divides disc(Phi) or its denominator, or Phi is not p-integral.  It then
computes x^p once on integer lists and returns the class of sigma_p: the
image equal to x^p when there is one, as always over an abelian field, and
otherwise the first image whose gcd with Phi mod p is not trivial, with
no further gcd.  Both references also test the automorphism-image
denominators, and a test below checks that their primes are among those.

* reference_frobenius tests the discriminant of Phi computed by sympy and
  runs the gcd search; where Phi does not reduce mod p it stopped with
  BadReduction, while frobenius_at reports the prime as ramified.
* gcd_frobenius is the earlier frobenius_at, kept as it was: Phi mod p
  checked squarefree by a gcd with its derivative, x^p from the generic
  pmod_pow_mod, and one gcd of Phi with sigma_i(x) - x^p per automorphism,
  collecting every match, the whole class.  It is compared, result or
  exception type, at every prime below 5000 on every synth field, on
  x^2 + 1/4, x^2 + 1/9 and x^2 + 9 and on the klein model x^4 - 2x^2 + 9
  whose images have denominator 3, and below 20000 on the non-abelian S3
  sextic and D4 octic of test_classify_reference, whose classes have more
  than one element; a spy counts the gcds there.

numberfield.frobenius_modulus, the M0 by which image_report keys primes
over an abelian field, is checked to have, among the primes up to its
bound, exactly the prime factors of the integer frobenius_at reads.
"""

from fractions import Fraction
from math import lcm

import pytest
import sympy

from test_classify_reference import D, FIELDS as CLASSIFY_FIELDS
from twistctl import numberfield, synth
from twistctl.arith import (factorize, pmod_gcd, pmod_pow_mod, pmod_sub,
                            primes_up_to)
from twistctl.errors import BadReduction, NotSeparableModP, Ramified
from twistctl.numberfield import (FrobeniusResult, field_make, frobenius_at,
                                  frobenius_modulus)
from twistctl.polynomials import pmod_reduce, pmod_squarefree


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


def gcd_frobenius(field, p):
    """The earlier frobenius_at: sigma_i is a Frobenius for the primes of
    the irreducible factors of gcd(Phi, sigma_i(x) - x^p) mod p."""
    try:
        phi_p = pmod_squarefree(field.min_poly, p)
    except (BadReduction, NotSeparableModP) as exc:
        raise Ramified(f"prime {p} is ramified for this field") from exc
    xp = pmod_pow_mod([0, 1], p, phi_p, p)
    matches = []
    for i, img in enumerate(field.aut_images):
        if img.den % p == 0:
            raise Ramified(f"prime {p} divides an automorphism-image denominator")
        img_p = [n * pow(img.den, -1, p) % p for n in img.num]
        diff = pmod_sub(img_p, xp, p)
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


def quadratic(c):
    return lambda: field_make([c, 0, 1], [[0, 1], [0, -1]])


def klein_model():
    """Q(zeta_8) on a root of x^4 - 2x^2 + 9, the model of the committed
    klein fixture: 3 divides the index of Z[alpha], and two images have
    denominator 3."""
    third = Fraction(1, 3)
    return field_make([9, 0, -2, 0, 1], [[0, 1, 0, 0], [0, -2 * third, 0, third],
                                         [0, 2 * third, 0, -third],
                                         [0, -1, 0, 0]])


FIELDS = {
    "rational": synth.rational_field,
    "gaussian": synth.gaussian_field,
    "sqrt2": synth.sqrt2_field,
    "sqrt5": synth.sqrt5_field,
    "eisenstein": synth.eisenstein_field,
    "biquadratic": synth.biquadratic_field,
    "cubic_klein": synth.cubic_klein_field,
    "x^2+1/4": quadratic(Fraction(1, 4)),
    "x^2+1/9": quadratic(Fraction(1, 9)),
}

GCD_FIELDS = dict(CLASSIFY_FIELDS, **{
    "x^2+1/4": quadratic(Fraction(1, 4)),
    "x^2+1/9": quadratic(Fraction(1, 9)),
    "x^2+9": quadratic(9),
    "klein_model": klein_model,
})


def test_reduction_rule_matches_the_discriminant_rule():
    changed = set()
    for name, make in FIELDS.items():
        field = make()
        for p in primes_up_to(2999):
            new = outcome(frobenius_at, field, p)
            ref = outcome(reference_frobenius, field, p)
            if ref == "BadReduction":
                assert new == "Ramified", (name, p)
                changed.add((name, p))
            else:
                assert new == ref, (name, p)
    assert changed == {("x^2+1/4", 2)}


NON_ABELIAN = ("s3_sextic", "d4_octic")


@pytest.mark.parametrize("name", sorted(GCD_FIELDS))
def test_integer_power_matches_the_gcd_search(name):
    field = GCD_FIELDS[name]()
    for p in primes_up_to(19999 if name in NON_ABELIAN else 4999):
        assert outcome(frobenius_at, field, p) == \
            outcome(gcd_frobenius, field, p), p


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_the_search_stops_at_the_first_match(name, monkeypatch):
    calls = []

    def gcd(*args):
        calls.append(args)
        return pmod_gcd(*args)

    monkeypatch.setattr(numberfield, "pmod_gcd", gcd)
    field, searched = GCD_FIELDS[name](), 0
    for p in primes_up_to(19999):
        calls.clear()
        result = outcome(frobenius_at, field, p)
        if isinstance(result, FrobeniusResult):
            assert len(calls) <= result.index + 1, p
            searched += bool(calls)
    assert searched > 1000


def test_an_abelian_field_needs_no_gcd(monkeypatch):
    def gcd(*args):
        raise AssertionError("pmod_gcd called on an abelian field")

    monkeypatch.setattr(numberfield, "pmod_gcd", gcd)
    for make in (synth.biquadratic_field, synth.cubic_klein_field, klein_model):
        field = make()
        for p in primes_up_to(500):
            outcome(frobenius_at, field, p)


@pytest.mark.parametrize("name", sorted(GCD_FIELDS) + ["sqrt_D"])
def test_the_modulus_has_the_bad_reduction_primes_up_to_its_bound(name):
    """frobenius_modulus trial-divides B only up to its bound and keeps the
    rest whole, yet below the bound p | M0 exactly when p | B."""
    field = quadratic(-D)() if name == "sqrt_D" else GCD_FIELDS[name]()
    for top in (100, 2000):
        m0 = frobenius_modulus(field, top)
        for p in primes_up_to(top):
            assert (m0 % p == 0) == (field._bad_reduction % p == 0), (top, p)


@pytest.mark.parametrize("name", sorted(set(FIELDS) | set(GCD_FIELDS)))
def test_image_denominators_are_bad_reduction_primes(name):
    """Every prime of an automorphism-image denominator divides the
    integer _bad_reduction that frobenius_at reads: where Phi is
    p-integral and squarefree mod p, Z_(p)[alpha] is the maximal order at
    p, so the images, algebraic integers, are p-integral, and frobenius_at
    needs no test of the denominator, computed here as the reference."""
    field = dict(FIELDS, **GCD_FIELDS)[name]()
    image_den = lcm(*(img.den for img in field.aut_images))
    for p, _ in factorize(image_den):
        assert field._bad_reduction % p == 0, p
