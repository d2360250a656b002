"""Differential test of the p-adic roots-of-unity search.

The reference is the search it replaced: sympy factors each cyclotomic
polynomial that survives the split-prime filter over the field, in the
monic integral model lam^d Phi(y/lam), and every linear factor is verified
by exact exponentiation; aut_mult is read off by applying each automorphism
to the generator.  Whole roots_of_unity lists and the UnitRoots order,
powers and aut_mult must agree.  Larger cyclotomic fields on which sympy
takes seconds, Q(zeta_41) of degree 40 on zeta_41 / 2 and 3 zeta_41 / 2
among them, are checked against the closed form |mu| = lcm(2, n) only.
lam, the model and the bound on its roots are read from the helpers the
search reads, monic_integer_model and root_bound.

The roots Y_k of the model at the first split prime are the lifts, by
hensel_lift, of lam times the field's split_roots.  lifted_factors, which
the mu(E) search read before and recombination in certify_irreducible still
reads, lifts every factor at a prime at once; its reference is a scan of all
p residues for the roots of Phi mod p and one Hensel lift per root, at every
split prime of every field here and of test_classify_reference.
"""

from fractions import Fraction as Q
from math import lcm
from pathlib import Path

import pytest
import sympy
from sympy import QQ as SQQ

from twistctl import synth
from twistctl.arith import euler_phi
from twistctl.lmfdb import fetch_newform, to_eigensystem
from twistctl.numberfield import (
    field_make,
    roots_of_unity,
    unit_roots,
)
from test_classify_reference import FIELDS as CLASSIFY_FIELDS
from test_polynomials import residue_roots
from twistctl.polynomials import (
    hensel_lift,
    lifted_factors,
    monic_integer_model,
    pmod_reduce,
    root_bound,
)

CACHE = Path(__file__).parent / "data" / "lmfdb_cache"


def reference_roots_of_unity(field):
    d = field.degree
    one = field.one()
    mu = {one.coords, (-one).coords}
    if d > 1:
        split = field.split_primes
        orders = [k for k in range(3, 2 * (d + 1) ** 2 + 1)
                  if d % euler_phi(k) == 0 and all(p % k == 1 for p in split)]
        for k, root in _cyclotomic_roots_sympy(field, orders):
            if root ** k == one:
                mu.add(root.coords)
    return [field.element(c) for c in sorted(mu)]


def _cyclotomic_roots_sympy(field, orders):
    if not orders:
        return
    lam, model = monic_integer_model(field.min_poly)
    x = sympy.symbols("x")
    expr = sum(c * x ** i for i, c in enumerate(model))
    K = SQQ.algebraic_field(sympy.CRootOf(sympy.Poly(expr, x), 0))
    assert K.mod.to_list() == list(reversed(model))
    for k in orders:
        phi = sympy.cyclotomic_poly(k, x)
        _, factors = sympy.Poly(phi, x, domain=K).factor_list()
        for fac, _ in factors:
            if fac.degree() == 1:
                lead, const = fac.rep.to_list()
                coeffs = (-const / lead).to_list()[::-1]
                coords = [Q(int(c.numerator), int(c.denominator)) * lam ** i
                          for i, c in enumerate(coeffs)]
                yield k, field.element(
                    coords + [Q(0)] * (field.degree - len(coords)))


def reference_unit_roots(field):
    """(order, powers, aut_mult) as the parent built them."""
    mu = reference_roots_of_unity(field)
    one = field.one()
    for zeta in mu:
        powers = [one]
        while (x := powers[-1] * zeta) != one:
            powers.append(x)
        if len(powers) == len(mu):
            break
    log = {z.coords: k for k, z in enumerate(powers)}
    mult = tuple(log[field.apply_aut(i, zeta).coords]
                 for i in range(field.degree))
    return len(mu), tuple(z.coords for z in powers), mult


# ---------------------------------------------------------------------------
# the fields
# ---------------------------------------------------------------------------

def quadratic(c):
    """Q(sqrt(-c)) on a root of x^2 + c."""
    return field_make([Q(c), 0, 1], [[0, 1], [0, -1]])


def cyclotomic_field(n, scale):
    """Q(zeta_n) on alpha = scale * zeta_n: sigma_a(alpha) =
    scale^(1 - a) alpha^a, reduced by the minimal polynomial with sympy's
    rem over QQ."""
    x = sympy.symbols("x")
    s = sympy.Rational(Q(scale).numerator, Q(scale).denominator)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=SQQ)
    d = phi.degree()
    min_poly = sympy.Poly(phi.as_expr().subs(x, x / s) * s ** d, x, domain=SQQ)
    images = []
    for a in [a for a in range(1, n) if lcm(a, n) == a * n]:
        image = sympy.rem(sympy.Poly(s ** (1 - a) * x ** a, x, domain=SQQ),
                          min_poly)
        images.append(_ascending(image, d))
    return field_make(_ascending(min_poly, d + 1), images)


def _ascending(poly, length):
    """The coefficients of a sympy polynomial over QQ as `length` ascending
    Fractions."""
    cs = [Q(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return cs + [Q(0)] * (length - len(cs))


def lmfdb_field(label, auts):
    return to_eigensystem(fetch_newform(label, cache_dir=CACHE), auts).field


FIELDS = {
    "synth.rational": synth.rational_field,
    "synth.gaussian": synth.gaussian_field,
    "synth.sqrt2": synth.sqrt2_field,
    "synth.sqrt5": synth.sqrt5_field,
    "synth.eisenstein": synth.eisenstein_field,
    "synth.biquadratic": synth.biquadratic_field,
    "synth.cubic_klein": synth.cubic_klein_field,
    "lmfdb.11.2.a.a": lambda: lmfdb_field("11.2.a.a", None),
    "lmfdb.16.3.c.a": lambda: lmfdb_field("16.3.c.a", None),
    "lmfdb.47.1.b.a": lambda: lmfdb_field("47.1.b.a", [[0, 1], [1, -1]]),
}
for c in (1, Q(1, 4), Q(1, 9), 9, 45, 3, 27, -2):
    FIELDS[f"x^2+{c}"] = lambda c=c: quadratic(c)
for n in (5, 7, 8, 9, 12, 16):
    for scale in (1, 3, Q(1, 2)):
        FIELDS[f"Phi_{n}.{scale}"] = lambda n=n, scale=scale: \
            cyclotomic_field(n, scale)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_search_matches_the_sympy_reference(name):
    field = FIELDS[name]()
    got = [z.coords for z in roots_of_unity(field)]
    assert got == [z.coords for z in reference_roots_of_unity(field)]
    mu = unit_roots(field)
    assert (mu.order, tuple(z.coords for z in mu.powers), mu.aut_mult) \
        == reference_unit_roots(field)


@pytest.mark.parametrize(
    "n,scale", [pytest.param(n, Q(1, 2), id=str(n)) for n in (15, 20, 24, 41)]
    + [pytest.param(41, Q(3, 2), id="41-3/2")])
def test_larger_cyclotomic_fields_meet_the_closed_form(n, scale):
    field = cyclotomic_field(n, scale)
    mu = unit_roots(field)
    assert mu.order == len(roots_of_unity(field)) == lcm(2, n)
    zeta = mu.powers[1]
    assert zeta ** mu.order == field.one()
    for i in range(field.degree):
        assert field.apply_aut(i, zeta) == zeta ** mu.aut_mult[i]


ALL_FIELDS = dict(FIELDS, **{f"classify.{name}": make
                             for name, make in CLASSIFY_FIELDS.items()})


@pytest.mark.parametrize("name", sorted(ALL_FIELDS))
def test_lifted_factors_match_the_residue_scan(name):
    """At each split prime, with the precision bound of the mu(E) search,
    lifted_factors gives p^n for the same n and linear factors whose roots
    are the hensel_lift lifts of the scanned roots of Phi mod p, times lam,
    as the search lifts the field's split_roots."""
    field = ALL_FIELDS[name]()
    d = field.degree
    lam, model = monic_integer_model(field.min_poly)
    bound = 2 * d * root_bound(model) ** (d - 1)
    for p in field.split_primes:
        n = 1
        while p ** n <= bound:
            n += 1
        big, factors = lifted_factors(model, p, bound)
        assert big == p ** n
        assert all(len(f) == 2 and f[1] == 1 for f in factors)
        want = [-hensel_lift(model, [-lam * r % p, 1], p, n)[0] % big
                for r in residue_roots(pmod_reduce(field.min_poly, p), p)]
        assert sorted(-f[0] % big for f in factors) == sorted(want)
