"""Seeded synthetic coefficient systems with twist structure known by
construction.

Each builder returns a system whose twists are planted through the shape of
the data: coefficients drawn from a proper subfield are fixed by the
corresponding automorphisms, a unit prefactor xi(v) with
sigma(xi)/xi = chi(v) plants the character chi on sigma, and mirrored pairs
b_v = sigma(a_v) plant outer twists.  Degenerate coincidences (ratios that
accidentally land on roots of unity) are excluded place by place, so the
groups are exact, not just generic."""

from __future__ import annotations

import random
from fractions import Fraction

from .eigensystem import EigenSystem, system_over_q
from .numberfield import NumberField, field_make


# ---------------------------------------------------------------------------
# small Galois fields over Q used by the builders
# ---------------------------------------------------------------------------

def rational_field() -> NumberField:
    return field_make([0, 1], [[0]])


def gaussian_field() -> NumberField:
    """Q(i): x^2 + 1, automorphisms i -> i and i -> -i."""
    return field_make([1, 0, 1], [[0, 1], [0, -1]])


def sqrt2_field() -> NumberField:
    return field_make([-2, 0, 1], [[0, 1], [0, -1]])


def sqrt5_field() -> NumberField:
    return field_make([-5, 0, 1], [[0, 1], [0, -1]])


def eisenstein_field() -> NumberField:
    """Q(zeta_3): x^2 + x + 1, conjugation sends zeta to zeta^2 = -1 - zeta."""
    return field_make([1, 1, 1], [[0, 1], [-1, -1]])


def biquadratic_field() -> NumberField:
    """Q(sqrt 2, i) on the primitive element alpha = sqrt2 + i.

    Minimal polynomial x^4 - 2x^2 + 9; automorphism order: identity,
    sqrt2 -> -sqrt2, i -> -i, both negated."""
    f = Fraction
    return field_make(
        [9, 0, -2, 0, 1],
        [[0, 1, 0, 0],
         [0, f(-2, 3), 0, f(1, 3)],
         [0, f(2, 3), 0, f(-1, 3)],
         [0, -1, 0, 0]])


def biq_sqrt2(field: NumberField):
    return field.element([0, Fraction(5, 6), 0, Fraction(-1, 6)])


def biq_i(field: NumberField):
    return field.element([0, Fraction(1, 6), 0, Fraction(1, 6)])


def cubic_klein_field() -> NumberField:
    """Q(zeta_3, sqrt 2) on theta = sqrt2 + zeta_3, x^4 + 2x^3 - x^2 - 2x + 7.

    Automorphism order: identity, zeta -> zeta^2, sqrt2 -> -sqrt2, both."""
    f = Fraction
    return field_make(
        [7, -2, -1, 2, 1],
        [[0, 1, 0, 0],
         [f(-1, 11), f(7, 11), f(-6, 11), f(-4, 11)],
         [f(-10, 11), f(-7, 11), f(6, 11), f(4, 11)],
         [-1, -1, 0, 0]])


def ck_zeta(field: NumberField):
    f = Fraction
    return field.element([f(-5, 11), f(2, 11), f(3, 11), f(2, 11)])


def ck_sqrt2(field: NumberField):
    f = Fraction
    return field.element([f(5, 11), f(9, 11), f(-3, 11), f(-2, 11)])


def _nonzero(rng: random.Random, lo: int = 1, hi: int = 9) -> int:
    return rng.randint(lo, hi) * rng.choice((-1, 1))


def _distinct_pair(rng: random.Random) -> tuple[int, int]:
    """Nonzero x, y with |x| != |y|: x/y avoids +-1."""
    while True:
        x, y = _nonzero(rng), _nonzero(rng)
        if abs(x) != abs(y):
            return x, y


def _generic_gaussian(rng: random.Random, field: NumberField):
    """u + vi with u, v nonzero and |u| != |v|: the conjugate ratio avoids
    every fourth root of unity."""
    return field.element(_distinct_pair(rng))


# ---------------------------------------------------------------------------
# builders: each is a field, a seeded rule p -> (a_p, b_p) and one call to
# system_over_q, whose bad places are the primes the rule never sees
# ---------------------------------------------------------------------------

def vantop_system(bound: int = 100, seed: int = 1) -> EigenSystem:
    """Raw rank-3 data over Q(i) shaped like a unitary-group transfer:
    a_v is a generic Gaussian integer and b_v = norm * conj(a_v), with
    central character |.|^3.  After normalization b = conj(a), so the only
    extra twist is the outer one on conjugation, with trivial character."""
    field = gaussian_field()
    rng = random.Random(seed)

    def coeff(p):
        a = _generic_gaussian(rng, field)
        return a, field.apply_aut(1, a) * p
    return system_over_q(field, 3, (2,), bound, coeff, m=3)


def generic_system(bound: int = 100, seed: int = 2) -> EigenSystem:
    """Normalized rank-3 data over Q(i) with no extra twists at all: at every
    place the ratios conj(a)/a, a/b and conj(a)/b all avoid roots of unity."""
    field = gaussian_field()
    rng = random.Random(seed)
    mu = [field.one(), field.gen(), -field.one(), -field.gen()]

    def coeff(p):
        while True:
            a = _generic_gaussian(rng, field)
            b = _generic_gaussian(rng, field)
            conj_a = field.apply_aut(1, a)
            if all(a != z * b and conj_a != z * b for z in mu):
                return a, b
    return system_over_q(field, 3, (2,), bound, coeff)


def rational_inner_system(bound: int = 100, seed: int = 3) -> EigenSystem:
    """Normalized rank-3 data over Q(sqrt 2) whose coefficients are rational:
    both automorphisms carry inner twists with trivial character and there is
    no outer twist (a/b avoids +-1 everywhere)."""
    field = sqrt2_field()
    rng = random.Random(seed)

    def coeff(p):
        x, y = _distinct_pair(rng)
        return field.from_rational(x), field.from_rational(y)
    return system_over_q(field, 3, (2,), bound, coeff)


def klein_system(bound: int = 100, seed: int = 4) -> EigenSystem:
    """Normalized rank-3 data over Q(sqrt 2, i) with a_v generic in Q(sqrt 2)
    and b_v its conjugate.  The twist group is the full Klein four-group:
    fixing i gives an inner twist, negating sqrt 2 gives outer ones, all with
    trivial characters; F_inn = Q(sqrt 2) and F = Q."""
    field = biquadratic_field()
    rng = random.Random(seed)
    r2 = biq_sqrt2(field)

    def coeff(p):
        x, y = _nonzero(rng), _nonzero(rng)
        a = field.from_rational(x) + r2 * y
        return a, field.apply_aut(1, a)
    return system_over_q(field, 3, (2, 3), bound, coeff)


def chi4_system(bound: int = 100, seed: int = 5) -> EigenSystem:
    """Raw rank-2 data over Q(i) with a planted nontrivial inner character:
    a_v = c_v for v = 1 mod 4 and i c_v for v = 3 mod 4 (c_v rational), so
    conjugation twists the system by the quadratic character mod 4."""
    field = gaussian_field()
    rng = random.Random(seed)
    i = field.gen()

    def coeff(p):
        c = field.from_rational(_nonzero(rng))
        return (c if p % 4 == 1 else i * c), None
    return system_over_q(field, 2, (2,), bound, coeff, m=1)


_CUBE_CLASS_MOD_7 = {1: 0, 3: 1, 2: 2, 6: 0, 4: 1, 5: 2}   # discrete log mod 3


def cubic_twist_system(bound: int = 100, seed: int = 6) -> EigenSystem:
    """Normalized rank-3 data over Q(zeta_3) planting the cubic character
    mod 7 on conjugation: a_v = zeta^k(v) c_v and b_v = zeta^-k(v) d_v with
    c, d rational and k(v) the cube class of v mod 7.  Conjugation then
    satisfies both coefficient relations with a character of exact order 3."""
    field = eisenstein_field()
    rng = random.Random(seed)
    zeta = field.gen()

    def coeff(p):
        c, d = _distinct_pair(rng)
        k = _CUBE_CLASS_MOD_7[p % 7]
        return zeta ** k * c, zeta ** (-k % 3) * d
    return system_over_q(field, 3, (3, 7), bound, coeff)


def selfdual_system(bound: int = 100, seed: int = 7) -> EigenSystem:
    """Normalized rank-3 data over Q(i) with b_v = a_v: the system equals its
    own dual on the nose, so the verdict is essentially-self-dual with a
    trivial witness."""
    field = gaussian_field()
    rng = random.Random(seed)

    def coeff(p):
        a = _generic_gaussian(rng, field)
        return a, a
    return system_over_q(field, 3, (2,), bound, coeff)


def cubic_klein_system(bound: int = 100, seed: int = 9) -> EigenSystem:
    """Normalized rank-3 data over Q(zeta_3, sqrt 2) whose twist group is the
    Klein four-group with characters of exact order 3.

    With u_v = x + y sqrt2 and k(v) the cube class of v mod 7, the data
    a_v = zeta^k u_v, b_v = zeta^-k conj(u_v) plants: the zeta-conjugation as
    an inner twist by the cubic character mod 7, sqrt2-negation as an outer
    twist by its inverse, and their product as an outer twist with trivial
    character.  Composing the two outer twists exercises the character
    inversion in the group law with characters of order larger than 2."""
    field = cubic_klein_field()
    rng = random.Random(seed)
    zeta = ck_zeta(field)
    r2 = ck_sqrt2(field)

    def coeff(p):
        x, y = _nonzero(rng), _nonzero(rng)
        u = field.from_rational(x) + r2 * y
        k = _CUBE_CLASS_MOD_7[p % 7]
        return zeta ** k * u, zeta ** (-k % 3) * field.apply_aut(2, u)
    return system_over_q(field, 3, (2, 3, 7), bound, coeff)


def drifting_coefficient_system(bound: int = 100, seed: int = 10) -> EigenSystem:
    """Normalized rank-3 data over Q(i) with rational a_v but generic Gaussian
    b_v: conjugation fixes every a_v yet fails the b relation, so it carries
    no twist and the a-stabilizer strictly contains the detected inner
    subgroup.  Exercises the bound-insufficiency flag of the coefficient-field
    report."""
    field = gaussian_field()
    rng = random.Random(seed)

    def coeff(p):
        a = field.from_rational(_nonzero(rng))
        return a, _generic_gaussian(rng, field)
    return system_over_q(field, 3, (2,), bound, coeff)


def rational_rank2_system(bound: int = 100, seed: int = 11) -> EigenSystem:
    """Normalized rank-2 data with rational coefficients: E = Q has no
    automorphisms besides the identity, so the twist group is forced trivial
    and every fixed field is Q itself."""
    field = rational_field()
    rng = random.Random(seed)
    return system_over_q(
        field, 2, (2,), bound,
        lambda p: (field.from_rational(_nonzero(rng)), None))


def quadratic_rank2_system(bound: int = 100, seed: int = 12) -> EigenSystem:
    """Normalized rank-2 data over Q(sqrt 5) with both coordinates nonzero at
    every place, so conjugation never lands on +-a_v and the twist group is
    trivial: the fixed field stays the full quadratic field."""
    field = sqrt5_field()
    rng = random.Random(seed)
    return system_over_q(
        field, 2, (2, 5), bound,
        lambda p: (field.element([_nonzero(rng), _nonzero(rng)]), None))


def cm_system(bound: int = 200, seed: int = 8) -> EigenSystem:
    """Normalized rank-3 data over Q(zeta_3) that vanishes off the kernel of
    the cubic character mod 7 and is rational on it: the vanishing pattern
    witnesses a nontrivial self-twist.  Only a third of the places carry
    nonzero data, hence the larger default bound."""
    field = eisenstein_field()
    rng = random.Random(seed)

    def coeff(p):
        if _CUBE_CLASS_MOD_7[p % 7]:
            return field.zero(), field.zero()
        x, y = _nonzero(rng), _nonzero(rng)
        return field.from_rational(x), field.from_rational(y)
    return system_over_q(field, 3, (3, 7), bound, coeff)
