"""Differential tests: each routine against the second routine it replaced.

The references below are the earlier implementations, kept as they were:

* fixed_field kept beta only when its stabilizer, found by applying every
  automorphism, was the subgroup, and took its conjugates over left coset
  representatives; it is compared on every subgroup of every field of
  test_classify_reference, the S3 sextic and the D4 octic included;
* generated_subgroup closed the generators under all pairwise products,
  round by round; it is compared on every set of generators of those fields;
* the split primes of the roots-of-unity search were read off a
  distinct-degree factorization; the first three odd ones up to 10007 are
  compared with those a field keeps from its construction, on those fields
  and on x^2 + 1/4;
* the modulus of F_q was the first polynomial passing a Rabin test,
  x^(p^k) = x and gcd(f, x^(p^(k/r)) - x) = 1 for each prime r | k; every
  q = p^k <= 256 is compared;
* ref_finite_field built F_q from the q^2 products of its elements' digit
  polynomials mod the modulus, searched each row of that table for the
  inverse and took powers by square-and-multiply; the five tables and pow
  at every exponent from -3 to 2q + 3 are compared on every q <= 128 and
  on 243 and 256;
* the rational roots came from the rational-root theorem on any polynomial
  over Q; a random monic integer polynomial of degree 2..6 that has one
  must be refused as reducible;
* the automorphism images were validated by evaluating the minimal
  polynomial at each by Horner's rule, and each image's matrix was built
  from its powers in a second pass; the matrices are compared on the fields
  of the roots, classify and Frobenius references, and the refusals on
  those fields with index 0 swapped away from the identity, an image
  repeated and an image moved off the roots;
* the composition table was built from the d^2 exact products
  sigma_i(image_j), each looked up among the images, and the inverse table
  by a search of each row for the identity; both are compared on the
  fields of the roots, classify and Frobenius references (the synth fields,
  x^2 + 1/4 and the klein model with images over 3 among them) and on
  Q(zeta_n) for n = 11, 13 and 41;
* x^e mod (f, p) for monic f had a kernel of its own, ref_x_power, which
  returned d residues untrimmed, and base^e mod (f, p), ref_pow_mod, took
  pmod_divmod of each pmod_mul product; the one kernel pmod_pow_mod is
  compared with both on drawn f, p, bases and e;
* the roots-of-unity search lifted every factor of the model at the first
  split prime by lifted_factors and matched the roots to the automorphisms
  by a permutation; it now lifts the split_roots a field keeps from its
  composition table, which are checked to be d distinct roots of Phi mod
  that prime with r_k = image_k(r_0) on the fields of the composition
  tables, and its UnitRoots stay compared with sympy in
  test_roots_reference;
* the self-twist scan fitted characters trivial at the places with a_v != 0
  and then verified each against both inner relations at sigma = 0 (the
  check is test_scan_reference.ref_verify); verdicts are compared on
  cm_system and cubic_twist_system with a_v zeroed at drawn places and
  b_v != 0 put at drawn places where a_v = 0.
"""

from fractions import Fraction as Q
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from test_classify_reference import FIELDS, subgroups
from test_frobenius_reference import GCD_FIELDS
from test_roots_reference import ALL_FIELDS as ROOTS_FIELDS
from test_scan_reference import ref_verify
from twistctl import synth
from twistctl.arith import (
    divisors,
    factorize,
    is_prime,
    pmod_divmod,
    pmod_gcd,
    pmod_mul,
    pmod_pow_mod,
    pmod_sub,
    prime_power,
    primes_up_to,
)
from twistctl.characters import char_to_json, fit_all
from twistctl.errors import (
    BadReduction,
    InsufficientData,
    NotAnAutomorphism,
    NotClosed,
    NotIrreducible,
    NotSeparableModP,
    TwistctlError,
)
from twistctl.finitefield import FiniteField, _find_irreducible
from twistctl.numberfield import (
    SubfieldDescriptor,
    Subgroup,
    _candidate_elements,
    _product_of_linear,
    field_make,
    fixed_field,
    generated_subgroup,
    stabilizer,
)
from twistctl.polynomials import (
    QPoly,
    certify_irreducible,
    ddf_mod_p,
    pmod_reduce,
)
from twistctl.twists import (
    MIN_PLACES,
    GeneralTypeVerdict,
    _check_detection_input,
    _exponent,
    _max_order,
    _power_ok,
    conductor_bound,
    find_outer,
    general_type_verdict,
    relations,
)

SPLIT_FIELDS = dict(FIELDS, **{"x^2+1/4": lambda: field_make(
    [Q(1, 4), 0, 1], [[0, 1], [0, -1]])})


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def ref_fixed_field(field, subgroup):
    index = field.degree // subgroup.order
    if index == 1:
        return SubfieldDescriptor(subgroup, field.one(), QPoly([-1, 1]), 1)
    for cand in _candidate_elements(field):
        beta = field.zero()
        for s in subgroup:
            beta = beta + field.apply_aut(s, cand)
        if stabilizer(field, [beta]) != subgroup:
            continue
        conjugates = [field.apply_aut(g, beta)
                      for g in ref_left_coset_reps(field, subgroup)]
        poly = _product_of_linear(field, conjugates)
        return SubfieldDescriptor(subgroup, beta,
                                  QPoly([c.as_fraction() for c in poly]), index)


def ref_left_coset_reps(field, subgroup):
    seen = set()
    reps = []
    for g in range(field.degree):
        coset = frozenset(field.compose(g, s) for s in subgroup)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps


def ref_generated_subgroup(field, generators):
    members = {0}
    frontier = set(generators) | {0}
    while frontier:
        new = set()
        for i in frontier | members:
            for j in frontier | members:
                k = field.compose(i, j)
                if k not in members and k not in frontier:
                    new.add(k)
        members |= frontier
        frontier = new
    return Subgroup(tuple(members))


def ref_splits_completely(field, p):
    try:
        return ddf_mod_p(field.min_poly, p) == [(1, field.degree)]
    except (BadReduction, NotSeparableModP):
        return False


def ref_is_irreducible(f, p, k):
    x = [0, 1]
    if pmod_pow_mod(x, p ** k, f, p) != x:
        return False
    for r, _ in factorize(k):
        t = pmod_pow_mod(x, p ** (k // r), f, p)
        if len(pmod_gcd(f, pmod_sub(t, x, p), p)) - 1 > 0:
            return False
    return True


def ref_find_irreducible(p, k):
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        if ref_is_irreducible(f, p, k):
            return f


def ref_finite_field(q):
    """(modulus, add_table, neg_table, mul_table, inv_table, pow) of F_q,
    code c holding the base-p digits of c as coordinates."""
    p, k = prime_power(q)
    modulus = [0, 1] if k == 1 else _find_irreducible(p, k)

    def decode(code):
        digits = []
        for _ in range(k):
            code, d = divmod(code, p)
            digits.append(d)
        return digits

    def encode(digits):
        code = 0
        for d in reversed(list(digits)):
            code = code * p + d % p
        return code

    polys = [decode(c) for c in range(q)]
    add = [[encode([(a + b) % p for a, b in zip(u, v)]) for v in polys]
           for u in polys]
    neg = [encode([(-a) % p for a in u]) for u in polys]
    mul = [[encode(pmod_divmod(pmod_mul(u, v, p), modulus, p)[1])
            for v in polys] for u in polys]
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)

    def power(a, e):
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return power(inv[a], -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = mul[result][base]
            base = mul[base][base]
            e >>= 1
        return result

    return modulus, add, neg, mul, inv, power


def ref_rational_roots(f):
    if not f.coeffs:
        return []
    lcm = 1
    for c in f.coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ic = [int(c * lcm) for c in f.coeffs]
    lead, const = ic[-1], ic[0]
    if const == 0:
        return [Q(0)] + ref_rational_roots(QPoly(f.coeffs[1:]))
    roots = []
    for pnum in divisors(abs(const)):
        for qden in divisors(abs(lead)):
            for s in (1, -1):
                cand = Q(s * pnum, qden)
                if f.evaluate(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def ref_general_type_verdict(sys, bound):
    """The verdict on normalized rank-3 data over Q, the shapes compared."""
    _check_detection_input(sys)
    ob = _max_order(sys)
    places = sys.places(bound)
    determined = [v for v in places if not sys.coeffs[v].a.is_zero()]
    if len(determined) < MIN_PLACES:
        raise InsufficientData(
            f"{len(determined)} places have a_v != 0; at least {MIN_PLACES} "
            f"are needed for a verdict")
    zeros = [v for v in places if sys.coeffs[v].a.is_zero()]
    for cand in fit_all(dict.fromkeys(determined, 0), conductor_bound(sys),
                        ob, sys.field):
        if cand.is_trivial() or not _power_ok(sys, cand):
            continue
        if all(_exponent(cand, v) in (0, None) for v in zeros):
            continue
        if ref_verify(sys, "inner", 0, cand, places):
            return GeneralTypeVerdict("self-twist", cand, bound)
    for t in [t for t in find_outer(relations(sys, bound))
              if t.aut_index == 0]:
        return GeneralTypeVerdict("essentially-self-dual", t.character, bound)
    return GeneralTypeVerdict("general-type", None, bound)


def ref_pow_mod(base, e, mod, p):
    # left to right, so that a step by a sparse base such as x is cheap
    b = pmod_divmod(base, mod, p)[1]
    result = [1]
    for bit in bin(e)[2:]:
        result = pmod_divmod(pmod_mul(result, result, p), mod, p)[1]
        if bit == "1":
            result = pmod_divmod(pmod_mul(result, b, p), mod, p)[1]
    return result


def ref_x_power(f, e, p):
    """x^e mod (f, p) as d residues, f monic of degree d >= 1, by left to
    right square and multiply: a squaring is the products r_i r_j, i <= j,
    reduced by the rows x^d .. x^(2d-2) mod f; a step by x is a shift."""
    d = len(f) - 1
    rows = [[-c % p for c in f[:-1]]]
    for _ in range(d - 2):
        *rest, top = rows[-1]
        rows.append([(s + top * t) % p for s, t in zip([0] + rest, rows[0])])
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            prod[2 * i] += a * a
            for j in range(i + 1, d):
                prod[i + j] += 2 * a * r[j]
        r = prod[:d]
        for c, row in zip(prod[d:], rows):
            for i in range(d):
                r[i] += c * row[i]
        if bit == "1":
            top = r.pop() % p
            r = [s + top * t for s, t in zip([0] + r, rows[0])]
        r = [c % p for c in r]
    return r


def ref_aut_matrix(field, image):
    """(rows, den): sigma(alpha^j) = sum_i rows[i][j] alpha^i / den."""
    powers = [field.one()]
    for _ in range(field.degree - 1):
        powers.append(powers[-1] * image)
    den = lcm(*(p.den for p in powers))
    columns = [[n * (den // p.den) for n in p.num] for p in powers]
    return tuple(zip(*columns)), den


def ref_aut_matrices(field, images):
    """The matrices of the images, elements of field, after the checks in
    order: image 0 is alpha, then for each image Phi(image) = 0 by Horner's
    rule and no repeat of an earlier image."""
    if images[0] != field.gen():
        raise NotClosed("automorphism index 0 must be the identity")
    seen = set()
    for i, img in enumerate(images):
        if not field.min_poly.evaluate(img).is_zero():
            raise NotAnAutomorphism(
                f"image {i} does not annihilate the minimal polynomial")
        if img.key in seen:
            raise NotClosed(f"automorphism image {i} repeats an earlier one")
        seen.add(img.key)
    return tuple(ref_aut_matrix(field, img) for img in images)


def ref_composition_table(field):
    d = field.degree
    index_of = {img.key: k for k, img in enumerate(field.aut_images)}
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            composed = field.apply_aut(i, field.aut_images[j])
            k = index_of.get(composed.key)
            if k is None:
                raise NotClosed(
                    f"composition of automorphisms {i} and {j} leaves the given set")
            row.append(k)
        table.append(tuple(row))
    return tuple(table)


def ref_inverse_table(field):
    d = field.degree
    inv = [None] * d
    for i in range(d):
        for j in range(d):
            if field.composition_table[i][j] == 0:
                inv[i] = j
                break
        if inv[i] is None:
            raise NotClosed(f"automorphism {i} has no inverse in the set")
    return tuple(inv)


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

AUT_FIELDS = dict(ROOTS_FIELDS, **{f"frobenius.{name}": make
                                   for name, make in GCD_FIELDS.items()})


def _spoiled_images(field):
    """Image lists the field must refuse: the first or the last image plus
    1, which is no root of Phi (at index 0 the identity check comes first),
    index 0 swapped with the next image, and the last image repeating the
    one before it."""
    images = list(field.aut_images)
    last = len(images) - 1
    out = [[images[0] + 1] + images[1:], images[:last] + [images[last] + 1]]
    if last:
        out += [[images[1], images[0]] + images[2:],
                images[:last] + [images[last - 1]]]
    return out


@pytest.mark.parametrize("name", sorted(AUT_FIELDS))
def test_automorphism_matrices_match_the_horner_pass(name):
    field = AUT_FIELDS[name]()
    assert field._aut_matrices == ref_aut_matrices(field, field.aut_images)
    for images in _spoiled_images(field):
        with pytest.raises(TwistctlError) as got:
            field_make(field.min_poly, [img.coords for img in images])
        with pytest.raises(TwistctlError) as want:
            ref_aut_matrices(field, images)
        assert (got.type, str(got.value)) == (want.type, str(want.value))


def prime_cyclotomic(n):
    """Q(zeta_n), n prime, on alpha = zeta_n: Phi_n = 1 + x + .. + x^(n-1)
    and sigma_a(alpha) = alpha^a for a = 1 .. n - 1, where alpha^(n-1) =
    -(1 + alpha + .. + alpha^(n-2))."""
    d = n - 1
    return field_make([1] * n, [[int(j == a) for j in range(d)] if a < d
                                else [-1] * d for a in range(1, n)])


TABLE_FIELDS = dict(AUT_FIELDS, **{f"Q(zeta_{n})": lambda n=n:
                                   prime_cyclotomic(n) for n in (11, 13, 41)})


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_composition_tables_match_the_exact_products(name):
    field = TABLE_FIELDS[name]()
    assert field.composition_table == ref_composition_table(field)
    assert field.inverse_table == ref_inverse_table(field)


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_split_roots_are_the_images_of_one_root(name):
    """split_roots are d distinct roots of Phi mod split_primes[0], and
    split_roots[k] is image_k evaluated at split_roots[0]."""
    field = TABLE_FIELDS[name]()
    p, roots = field.split_primes[0], field.split_roots

    def at(coeffs, x):
        return sum(c * x ** m for m, c in enumerate(coeffs)) % p

    phi = pmod_reduce(field.min_poly, p)
    assert len(set(roots)) == field.degree == len(roots)
    for img, r in zip(field.aut_images, roots):
        assert 0 <= r < p and at(phi, r) == 0
        assert at(img.residues(p), roots[0]) == r


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fixed_fields_match_the_stabilizer_search(name):
    field = FIELDS[name]()
    for subgroup in subgroups(field):
        assert fixed_field(field, subgroup) == ref_fixed_field(field, subgroup)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_generated_subgroups_match_the_pairwise_closure(name):
    field = FIELDS[name]()
    d = field.degree
    for mask in range(1 << d):
        gens = [i for i in range(d) if mask >> i & 1]
        assert generated_subgroup(field, gens) == \
            ref_generated_subgroup(field, gens)


@pytest.mark.parametrize("name", sorted(SPLIT_FIELDS))
def test_complete_splitting_matches_the_factorization(name):
    field = SPLIT_FIELDS[name]()
    want = [p for p in range(3, 10008, 2)
            if is_prime(p) and ref_splits_completely(field, p)][:3]
    assert field.split_primes == want


# ---------------------------------------------------------------------------
# finite fields and polynomials
# ---------------------------------------------------------------------------

PRIME_POWERS = [(p, k) for p in primes_up_to(16) for k in range(2, 9)
                if p ** k <= 256]


@pytest.mark.parametrize("p,k", PRIME_POWERS)
def test_moduli_match_the_rabin_test(p, k):
    assert _find_irreducible(p, k) == ref_find_irreducible(p, k)


@pytest.mark.parametrize("q", [q for q in range(2, 129)
                               if len(factorize(q)) == 1] + [243, 256])
def test_finite_fields_match_the_product_tables(q):
    ff = FiniteField(q)
    modulus, add, neg, mul, inv, power = ref_finite_field(q)
    assert ff.modulus == modulus
    assert ff.add_table == add and ff.neg_table == neg
    assert ff.mul_table == mul and ff.inv_table == inv
    exponents = range(-3, 2 * q + 4)
    for a in range(1, q):
        assert [ff.pow(a, e) for e in exponents] \
            == [power(a, e) for e in exponents]
    assert ff.pow(0, 0) == power(0, 0) == 1
    assert all(ff.pow(0, e) == power(0, e) == 0 for e in range(1, 2 * q + 4))
    for e in (-1, -3):
        with pytest.raises(ZeroDivisionError):
            ff.pow(0, e)
        with pytest.raises(ZeroDivisionError):
            power(0, e)


@st.composite
def power_problems(draw):
    """(base, e, f, p): f monic of degree 1 to 12 mod p, e up to p^2, and a
    base of up to 2d + 3 residues, longer than the products of d residues,
    as hensel_lift's cofactor h is."""
    p = draw(st.sampled_from(primes_up_to(500) + [10007]))
    d = draw(st.integers(1, 12))
    f = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    base = draw(st.lists(st.integers(0, p - 1), max_size=2 * d + 3))
    return base, draw(st.integers(0, p * p)), f, p


@settings(max_examples=300, deadline=None)
@given(power_problems())
@example(([0, 1], 0, [1, 1], 2))
@example(([1, 1, 0, 1, 1], 3, [1, 1], 2))
@example(([5, 0, 2, 1, 4, 3], 9, [3, 0, 1], 7))
def test_x_power_matches_the_generic_power(problem):
    """The one kernel pmod_pow_mod against both kernels it replaced: the
    divmod-based power of any base, and the row-based x^e mod (f, p), whose
    d residues are untrimmed."""
    base, e, f, p = problem
    assert pmod_pow_mod(base, e, f, p) == ref_pow_mod(base, e, f, p)
    want = ref_x_power(f, e, p)
    while want and want[-1] == 0:
        want.pop()
    assert pmod_pow_mod([0, 1], e, f, p) == want


@st.composite
def monic_polynomials(draw):
    """Monic integer polynomials of degree 1..6, often with integer roots:
    a product of x - r over drawn roots r and a drawn monic cofactor."""
    roots = draw(st.lists(st.integers(-6, 6), max_size=3))
    tail = draw(st.lists(st.integers(-20, 20), max_size=6 - len(roots)))
    poly = tail + [1]
    for r in roots:
        poly = [(poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + 1)]
    return poly if len(poly) > 1 else [draw(st.integers(-20, 20)), 1]


@settings(max_examples=300, deadline=None)
@given(monic_polynomials())
@example([0, 0, 1])
@example([-36, 0, 1])
def test_a_rational_root_is_found_as_a_factor(ic):
    if len(ic) > 2 and ref_rational_roots(QPoly(ic)):
        with pytest.raises(NotIrreducible):
            certify_irreducible(QPoly(ic))


# ---------------------------------------------------------------------------
# the self-twist verdict
# ---------------------------------------------------------------------------

SYSTEMS = {"cm": synth.cm_system(400), "cubic_twist": synth.cubic_twist_system()}


@st.composite
def verdict_problems(draw):
    """cm_system or cubic_twist_system with a_v zeroed at drawn places (b_v
    kept or zeroed), then b_v set to a nonzero rational at drawn places
    where a_v = 0, with a drawn bound."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    sys_ = SYSTEMS[name]
    field = sys_.field
    zero = field.zero()
    places = sys_.places()
    coeffs = dict(sys_.coeffs)
    for v in draw(st.lists(st.sampled_from(places), max_size=8, unique=True)):
        b = coeffs[v].b if draw(st.booleans()) else zero
        coeffs[v] = coeffs[v]._replace(a=zero, b=b)
    blank = [v for v in places if coeffs[v].a.is_zero()]
    if blank:
        for v in draw(st.lists(st.sampled_from(blank), max_size=4, unique=True)):
            b = field.from_rational(draw(st.sampled_from([-2, -1, 1, 3])))
            coeffs[v] = coeffs[v]._replace(b=b)
    return name, coeffs, draw(st.integers(200, 400))


def _verdict(fn, sys_, bound):
    try:
        v = fn(sys_, bound)
    except (TwistctlError, ValueError) as e:
        return type(e).__name__, str(e)
    return v.kind, v.witness and char_to_json(v.witness), v.bound


def _cm_with_b(*places):
    """cm_system with b_v = 1 at places outside the kernel mod 7."""
    sys_ = SYSTEMS["cm"]
    one = sys_.field.one()
    coeffs = dict(sys_.coeffs)
    for v in places:
        assert coeffs[v].a.is_zero()
        coeffs[v] = coeffs[v]._replace(b=one)
    return "cm", coeffs, 200


@settings(max_examples=40, deadline=None)
@given(verdict_problems())
# the cubic character mod 7 is not 1 at 2, where b_2 != 0 rejects it
@example(_cm_with_b(2))
@example(_cm_with_b(5, 17))
@example(("cm", dict(SYSTEMS["cm"].coeffs), 200))
# 2 places of norm <= 40 have a_v != 0 (13 and 29): too few for a verdict
@example(("cm", dict(SYSTEMS["cm"].coeffs), 40))
def test_verdicts_match_the_verified_scan(problem):
    name, coeffs, bound = problem
    sys_ = SYSTEMS[name]._replace(coeffs=coeffs)
    assert _verdict(lambda s, b: general_type_verdict(relations(s, b)),
                    sys_, bound) \
        == _verdict(ref_general_type_verdict, sys_, bound)
