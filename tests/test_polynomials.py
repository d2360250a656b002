"""Polynomial layer: values, discriminants as norms, mod-p factorization
degrees, x^e mod (f, p), Hensel lifting, irreducibility over Q, the monic
integer model and the bound on its roots.

The mod-p oracle here is written independently of the library: root counting
by direct scan plus a two-quadratic splitting test driven by a precomputed
square-root table.  Library output is frozen against that oracle.  The
cyclotomic polynomials are sympy's.
"""

from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from test_field_reference import FIELDS
from twistctl import synth
from twistctl.arith import (divisors, pmod_divmod, pmod_mul, pmod_pow_mod,
                            primitive_root)
from twistctl.errors import (BadReduction, CoefficientDimensionMismatch,
                             NotIrreducible, NotSeparableModP, SchemaError,
                             label_from_json)
from twistctl.numberfield import field_make
from twistctl.polynomials import (
    QPoly,
    certify_irreducible,
    ddf_mod_p,
    hensel_lift,
    monic_integer_model,
    poly_from_strings,
    poly_to_strings,
    rational_from_json,
    rationals_from_json,
    root_bound,
)

# ---------------------------------------------------------------- oracle


def cyclotomic(n):
    """Phi_n, ascending integer coefficients, from sympy."""
    x = sympy.symbols("x")
    return [int(c) for c in
            reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())]


def residue_roots(f, p):
    """The roots of the integer polynomial f in F_p by a scan of all p
    residues: the search mu(E) ran at a split prime before lifted_factors."""
    return [r for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0]


def naive_factor_degrees(coeffs, p):
    """Factor-degree multiset of a monic separable polynomial of degree <= 4
    over F_p, by root scanning and an O(p) two-quadratic split test."""
    f = [c % p for c in coeffs]
    assert f[-1] == 1 and len(f) - 1 <= 4

    def ev(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        return acc

    roots = [r for r in range(p) if ev(f, r) == 0]
    work = list(f)
    for r in roots:
        # synthetic division by (x - r)
        out = []
        acc = 0
        for c in reversed(work):
            acc = (acc * r + c) % p
            out.append(acc)
        assert out[-1] == 0
        work = list(reversed(out[:-1]))
    counts = {}
    if roots:
        counts[1] = len(roots)
    deg = len(work) - 1
    if deg == 0:
        pass
    elif deg in (2, 3):
        counts[deg] = counts.get(deg, 0) + 1  # rootless deg 2/3 irreducible
    elif deg == 4:
        if _splits_into_quadratics(work, p):
            counts[2] = counts.get(2, 0) + 2
        else:
            counts[4] = 1
    else:
        raise AssertionError("unexpected leftover degree")
    return sorted(counts.items())


def _splits_into_quadratics(f, p):
    # f = x^4+s3 x^3+s2 x^2+s1 x+s0 = (x^2+b1x+c1)(x^2+b2x+c2), scan b1
    s0, s1, s2, s3 = f[0], f[1], f[2], f[3]
    sqrt = {}
    for y in range(p):
        sqrt.setdefault(y * y % p, y)
    for b1 in range(p):
        b2 = (s3 - b1) % p
        csum = (s2 - b1 * b2) % p
        disc = (csum * csum - 4 * s0) % p
        if disc not in sqrt:
            continue
        root = sqrt[disc]
        inv2 = pow(2, -1, p)
        for sgn in (1, -1):
            c1 = (csum + sgn * root) * inv2 % p
            c2 = (csum - c1) % p
            if (b1 * c2 + b2 * c1) % p == s1 % p:
                return True
    return False


# ---------------------------------------------------------------- frozen examples


def test_ddf_frozen_examples():
    # x^2+1 at 5: roots 2, 3 -> two linear factors
    assert ddf_mod_p(QPoly([1, 0, 1]), 5) == [(1, 2)]
    # x^2+1 at 3: no roots -> irreducible quadratic
    assert ddf_mod_p(QPoly([1, 0, 1]), 3) == [(2, 1)]
    # x^2-2 at 7: 3^2 = 2 mod 7
    assert (3 * 3) % 7 == 2
    assert ddf_mod_p(QPoly([-2, 0, 1]), 7) == [(1, 2)]


@pytest.mark.parametrize("f, p", [([1, 0, 1], 5), ([-2, 0, 1], 7),
                                  ([1, 1, 1, 1, 1], 11),
                                  ([-1] + [0] * 11 + [1], 13),
                                  ([7, -2, -1, 2, 1], 73)])
def test_hensel_lifts_each_simple_root(f, p):
    roots = residue_roots(f, p)
    assert roots
    for r in roots:
        for n in (1, 2, 3, 5, 8, 21):
            factor = hensel_lift(f, [-r % p, 1], p, n)
            lifted = -factor[0] % p ** n
            assert factor[1:] == [1] and lifted % p == r
            assert sum(c * lifted ** i for i, c in enumerate(f)) % p ** n == 0


def _schoolbook_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-500, 500), max_size=9),
       st.lists(st.integers(-500, 500), min_size=1, max_size=5),
       st.integers(0, 40), st.sampled_from([2, 3, 7, 97, 10007]))
def test_mod_p_kernels_match_schoolbook_arithmetic(a, b, e, p):
    """pmod_mul and pmod_divmod on residues against a schoolbook product,
    and pmod_pow_mod, which squares left to right, against e such products
    each reduced by the modulus."""
    a, b = [c % p for c in a], [c % p for c in b]
    assume(b[-1])
    assert pmod_mul(a, b, p) == _schoolbook_mul(a, b, p)
    quot, rem = pmod_divmod(a, b, p)
    assert len(rem) < len(b) and all(0 <= c < p for c in quot + rem)
    back = _schoolbook_mul(quot, b, p) + [0] * len(a)
    assert all((back[i] + (rem[i] if i < len(rem) else 0) - c) % p == 0
               for i, c in enumerate(a))
    want = pmod_divmod([1], b, p)[1]
    for _ in range(e):
        want = pmod_divmod(_schoolbook_mul(want, a, p), b, p)[1]
    assert pmod_pow_mod(a, e, b, p) == want


ODD_PRIMES = [p for p in range(3, 500) if sympy.isprime(p)]


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p < 300])
def test_teichmueller_power_is_the_lift_along_phi_k(p):
    """The root of x^k - 1 mod p^n above w = g^((p-1)/k), as mu(E) takes it,
    w^(p^(n-1)) mod p^n, against hensel_lift of x - w along sympy's Phi_k,
    for every k | p - 1 and n <= 8."""
    g = primitive_root(p)
    for k in divisors(p - 1):
        w = pow(g, (p - 1) // k, p)
        phi = cyclotomic(k)
        for n in range(1, 9):
            lifted = -hensel_lift(phi, [-w, 1], p, n)[0] % p ** n
            assert pow(w, p ** (n - 1), p ** n) == lifted, (k, n)


def test_ddf_errors():
    with pytest.raises(BadReduction):
        ddf_mod_p(QPoly([Fraction(1, 5), 0, 1]), 5)
    with pytest.raises(NotSeparableModP):
        ddf_mod_p(QPoly([1, 2, 1]), 5)  # (x+1)^2
    with pytest.raises(BadReduction):
        ddf_mod_p(QPoly([1, 1, 5]), 5)  # leading coefficient dies mod 5


def test_ddf_against_naive_oracle_small():
    polys = [
        [1, 0, 1],          # x^2+1
        [-2, 0, 1],         # x^2-2
        [1, 2, 0, 1],       # cubic
        [-1, -1, 0, 0, 1],  # quartic
        [1, 0, 0, 0, 1],    # x^4+1: famously reducible mod every prime
        [9, 0, -2, 0, 1],   # biquadratic field polynomial
    ]
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        for coeffs in polys:
            f = QPoly(coeffs)
            try:
                got = ddf_mod_p(f, p)
            except NotSeparableModP:
                continue
            assert got == naive_factor_degrees(coeffs, p)


def test_ddf_degree_sum_property():
    f = QPoly([3, 1, 4, 1, 5, 1])
    for p in (7, 11, 13, 101):
        try:
            degs = ddf_mod_p(f, p)
        except (NotSeparableModP, BadReduction):
            continue
        assert sum(d * c for d, c in degs) == f.degree


# ---------------------------------------------------------------- values

def test_evaluate_horner():
    f = QPoly([1, 2, 3])
    assert f.evaluate(Fraction(2)) == 1 + 4 + 12


# ---------------------------------------------------------------- discriminants, cyclotomics

def test_discriminant_against_sympy():
    """NumberField.discriminant, a norm, against sympy on every synth field,
    on x^2 - x - 1, and on the presentations with rational coefficients
    from the arithmetic reference, whose norms carry denominators."""
    fields = [synth.rational_field(), synth.gaussian_field(),
              synth.sqrt2_field(), synth.sqrt5_field(),
              synth.eisenstein_field(), synth.biquadratic_field(),
              synth.cubic_klein_field(),
              field_make([-1, -1, 1], [[0, 1], [1, -1]])]
    fields += [field for field in FIELDS.values()
               if any(c.denominator != 1 for c in field.min_poly.coeffs)]
    assert len(fields) == 12
    x = sympy.symbols("x")
    for field in fields:
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(field.min_poly.coeffs))
        assert field.discriminant() == sympy.discriminant(expr, x), field


# ---------------------------------------------------------------- irreducibility

def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


IRREDUCIBILITY_CASES = [
    [1, 0, 1],          # x^2+1 irreducible
    [-2, 0, 1],         # x^2-2 irreducible
    [9, 0, -2, 0, 1],   # biquadratic, irreducible
    [-1, 0, 0, 1],      # x^3-1 reducible
    [1, 2, 1],          # (x+1)^2 reducible, squarefree mod no prime
    [1, 0, 0, 0, 1],    # x^4+1 irreducible over Q though reducible mod all p
    [-4, 0, 1],         # (x-2)(x+2)
    [2, 3, 0, 0, 0, 1], # quintic, irreducible (Eisenstein-free check)
    [576, 0, -960, 0, 352, 0, -40, 0, 1],  # Q(sqrt2, sqrt3, sqrt5)
    cyclotomic(15), cyclotomic(16), cyclotomic(21), cyclotomic(24),
    [1, 0, 28, 0, 2, 0, 4, 0, 1],          # the D4 octic Q(2^(1/4), i)
    _times([1, 0, 0, 0, 1], [9, 0, -2, 0, 1]),  # two quartic fields
    _times(_times([1, 0, 1], [2, 0, 1]), _times([3, 0, 1], [5, 0, 1])),
    [1, 0, 2, 0, 1],    # (x^2+1)^2
    _times([101, 0, 1], [103, 0, 1]),  # factor coefficients above q/2
    [3, -9, -3, 13, -3, -3, 1],  # f(x) f(x-1), f = x^3-3x+1
]


def test_irreducibility_matches_sympy():
    """certify_irreducible certifies exactly the polynomials sympy calls
    irreducible, returning primes where they split completely, and raises
    NotIrreducible on the others."""
    x = sympy.symbols("x")
    for coeffs in IRREDUCIBILITY_CASES:
        f = QPoly(coeffs)
        truth = sympy.Poly(sum(c * x ** i for i, c in enumerate(coeffs)), x)
        if truth.is_irreducible:
            split = certify_irreducible(f)
            assert 1 <= len(split) <= 3, coeffs
            assert all(ddf_mod_p(f, p) == [(1, f.degree)] for p in split)
        else:
            with pytest.raises(NotIrreducible):
                certify_irreducible(f)


def test_cyclotomic_polynomials_are_certified():
    """Phi_n for every n <= 60; for 25 of them (Z/n)^x is not cyclic, so no
    prime leaves Phi_n irreducible and the mod-p patterns alone never decide
    it.  The split primes are the first three primes 1 mod n."""
    for n in range(1, 61):
        want = [p for p in range(3, 10008, 2) if sympy.isprime(p)
                and p % n == 1 % n][:3]
        assert certify_irreducible(QPoly(cyclotomic(n))) == want, n


monic_factors = st.integers(1, 7).flatmap(
    lambda d: st.lists(st.integers(-20, 20), min_size=d, max_size=d)).map(
    lambda tail: tail + [1])


@settings(max_examples=100, deadline=None)
@given(monic_factors, monic_factors)
def test_a_product_is_never_certified(a, b):
    """Recombination finds a factor, or, when the product has a repeated
    factor, the primes where it is not squarefree pass the bound on its
    discriminant."""
    assume(len(a) + len(b) - 2 <= 8)
    with pytest.raises(NotIrreducible):
        certify_irreducible(QPoly(_times(a, b)))


# x^2, (x - 2)^2, (x^2 + 1)^2 and (x - 2)(x + 5)^2 (x^3 - 5x^2 + 2x - 5)
@pytest.mark.parametrize("coeffs", [
    [0, 0, 1], [4, -4, 1], [1, 0, 2, 0, 1],
    [250, -125, 220, -64, -33, 3, 1]])
def test_a_repeated_factor_is_refused_at_once(coeffs):
    """Refused by the discriminant bound, after a few primes, and not for
    want of a split prime after the scan up to 10007."""
    x = sympy.symbols("x")
    _, parts = sympy.Poly(sum(c * x ** i for i, c in enumerate(coeffs)),
                          x).sqf_list()
    assert max(e for _, e in parts) > 1
    with pytest.raises(NotIrreducible, match="repeated factor"):
        certify_irreducible(QPoly(coeffs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=64), min_size=1,
                max_size=6))
@example([Fraction(1, 3), Fraction(1, 2)])
@example([Fraction(1, 8), 0])
@example([Fraction(c, 2 ** (4 - i)) for i, c in enumerate([1, 2, 4, 8])])
def test_the_integer_model_scales_by_exact_roots(lower):
    """F = lam^d f(y/lam) is monic and integral, and lam is the lcm over i
    of the exact (d-i)-th root of den f_i, found here by a scan, or of den
    f_i itself where it has none: Phi_5(2x) / 2^4 gives lam = 2."""
    f = QPoly(list(lower) + [1])
    d = f.degree
    lam, model = monic_integer_model(f)
    assert all(type(c) is int for c in model) and model[-1] == 1
    assert model == [c * lam ** (d - i) for i, c in enumerate(f.coeffs)]
    want = 1
    for i, c in enumerate(f.coeffs[:-1]):
        den = c.denominator
        want = lcm(want, next((r for r in range(1, den + 1)
                               if r ** (d - i) == den), den))
    assert lam == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6))
@example([3 ** 6, 3 ** 5, 3 ** 4, 3 ** 3, 3 ** 2, 3])
@example([0, 1])
def test_the_root_bound_holds_and_never_exceeds_cauchy(lower):
    """root_bound is at most Cauchy's bound and at least |y| for every
    complex root y, found numerically for a squarefree F."""
    model = list(lower) + [1]
    bound = root_bound(model)
    assert bound <= 1 + max(map(abs, lower))
    poly = sympy.Poly(list(reversed(model)), sympy.symbols("x"))
    assume(sympy.gcd(poly, poly.diff()).degree() == 0)
    roots = poly.nroots(n=30, maxsteps=500)
    assert all(abs(complex(r)) <= bound for r in roots)


def test_json_string_round_trip():
    f = poly_from_strings(["9", "0", "-2", "0", "1"])
    assert poly_to_strings(f) == ["9", "0", "-2", "0", "1"]
    g = poly_from_strings(["1/2", "-3/4", "1"])
    assert g.coeffs == (Fraction(1, 2), Fraction(-3, 4), Fraction(1))
    assert poly_to_strings(g) == ["1/2", "-3/4", "1"]


def test_document_rationals_are_ints_or_exact_strings():
    assert rational_from_json(-3, "c") == -3
    assert rational_from_json("-3/4", "c") == Fraction(-3, 4)
    assert rational_from_json("0.1", "c") == Fraction(1, 10)
    for bad in (0.1, 2.0, True, None, [1], "1/0", "x", ""):
        with pytest.raises(SchemaError, match="^a at place 3 holds "):
            rational_from_json(bad, "a at place 3")


def test_a_rational_list_is_a_json_list_of_its_length():
    assert rationals_from_json(["1/2", 3], "a") == [Fraction(1, 2), 3]
    assert rationals_from_json([], "a", 0) == []
    # "10" would iterate as the coordinates 1 and 0
    for bad in ("10", 10, {"0": 1}, ("1", "0"), None):
        with pytest.raises(SchemaError, match="a must be a JSON list"):
            rationals_from_json(bad, "a", 2)
    for bad in (["1"], ["1", "0", "0"]):
        with pytest.raises(CoefficientDimensionMismatch, match="expected 2"):
            rationals_from_json(bad, "a", 2)
    assert issubclass(CoefficientDimensionMismatch, SchemaError)


def test_document_labels_are_ints_in_one_form():
    assert label_from_json(13, "label") == 13
    assert label_from_json("13", "label") == 13
    assert label_from_json("-4", "label") == -4
    assert label_from_json("v1", "label") == "v1"
    assert label_from_json("13/2", "label") == "13/2"
    for bad in ("013", " 13", "13 ", "+13", "1_3", "-0", True, 1.0, None, [1]):
        with pytest.raises(SchemaError):
            label_from_json(bad, "label")
