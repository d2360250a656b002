"""The one coset test of forms.classify_place against the two double-coset
decompositions of forms_reference.classify_place.

Every synth field and two non-abelian fields, an S3 sextic and a D4 octic,
are tried with every pair of subgroups H_inn < H of index 1 or 2, each as a
twist group built directly (outer twists on H minus H_inn, so the reference
takes its second decomposition exactly when the index is 2), at every prime
below 500 where the field is unramified.  Over an abelian field the
conjugation by the double-coset representative changes nothing, so only the
non-abelian fields see it: the sextic tells r sigma^f r^-1 from
r^-1 sigma^f r, and both tell it from sigma^f alone.

The same verdicts, as (residue degree, form) multisets, are read a second
way by forms_reference.factor_pattern_places, from the factor degrees of
the minimal polynomials of F and F_inn mod p alone: on those fields, twist
groups and primes, and on image_report at every prime below 3000 for every
fixture and synth system after detection.  A prime where either polynomial
is not squarefree mod p is skipped; each test bounds how many it skips.

image_report, one classify_place call per class of sigma_p (per class of
p mod M0 over an abelian field), is compared with
forms_reference.ref_image_report, one call per prime: at every prime below
20000 on every synth field, Q(i) as x^2 + 1/4 and as x^2 + 9,
Q(zeta_9)^+ and Q(sqrt D) with D a product of two primes near 10^12, and
below 3000 on the sextic and the octic, which never key by residue.  The
twist groups are those whose verdicts tell Frobenius classes apart; a spy
counts one call per conjugacy class on the sextic and the octic.
"""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import forms_reference as ref
from twistctl import forms, numberfield, synth
from twistctl.arith import primes_up_to
from twistctl.characters import trivial_character
from twistctl.eigensystem import load_system, normalize
from twistctl.errors import NotClosed, Ramified
from twistctl.numberfield import (
    field_make,
    fixed_field,
    frobenius_at,
    subgroup_make,
)
from twistctl.twists import ExtraTwist, TwistGroup, detect


def _field(min_poly, images):
    return field_make(min_poly,
                      [[Fraction(c) for c in row] for row in images])


def s3_sextic():
    """Q(2^(1/3), zeta_3) on theta = 2^(1/3) + zeta_3, with minimal
    polynomial x^6 + 3x^5 + 6x^4 + 3x^3 + 9x + 9.  The images send theta to
    zeta^j 2^(1/3) + zeta^e for e = 1, 2 and j = 0, 1, 2, in that order;
    sympy's QQ.algebraic_field(theta).from_sympy computed them."""
    return _field([9, 9, 0, 3, 6, 3, 1], [
        ["0", "1", "0", "0", "0", "0"],
        ["-1", "0", "4/3", "0", "0", "-1/9"],
        ["-5", "-1", "2/3", "-2", "-1", "-5/9"],
        ["3", "1", "-4/3", "4/3", "2/3", "4/9"],
        ["2", "0", "0", "4/3", "2/3", "1/3"],
        ["-2", "-1", "-2/3", "-2/3", "-1/3", "-1/9"],
    ])


def d4_octic():
    """Q(2^(1/4), i) on theta = 2^(1/4) + i, with minimal polynomial
    x^8 + 4x^6 + 2x^4 + 28x^2 + 1.  The images send theta to
    i^k 2^(1/4) + e for e = i, -i and k = 0, 1, 2, 3, in that order; sympy's
    QQ.algebraic_field(theta).from_sympy computed them."""
    return _field([1, 0, 28, 0, 2, 0, 4, 0, 1], [
        ["0", "1", "0", "0", "0", "0", "0", "0"],
        ["29/24", "-127/24", "13/24", "-5/24", "5/24", "-19/24", "1/24",
         "-5/24"],
        ["0", "-139/12", "0", "-5/12", "0", "-19/12", "0", "-5/12"],
        ["-29/24", "-127/24", "-13/24", "-5/24", "-5/24", "-19/24", "-1/24",
         "-5/24"],
        ["0", "139/12", "0", "5/12", "0", "19/12", "0", "5/12"],
        ["29/24", "127/24", "13/24", "5/24", "5/24", "19/24", "1/24", "5/24"],
        ["0", "-1", "0", "0", "0", "0", "0", "0"],
        ["-29/24", "127/24", "-13/24", "5/24", "-5/24", "19/24", "-1/24",
         "5/24"],
    ])


FIELDS = {name: make for name, make in sorted(vars(synth).items())
          if name.endswith("_field")}
FIELDS.update({"s3_sextic": s3_sextic, "d4_octic": d4_octic})


def subgroups(field):
    out = []
    for mask in range(1 << (field.degree - 1)):
        members = [0] + [i for i in range(1, field.degree) if mask >> (i - 1) & 1]
        try:
            out.append(subgroup_make(field, members))
        except NotClosed:
            pass
    return out


def twist_groups(field):
    """Every twist group H with inner subgroup H_inn of index 1 or 2."""
    chi = trivial_character(field)
    subs = subgroups(field)
    for full in subs:
        for inner in subs:
            if full.order not in (inner.order, 2 * inner.order) \
                    or not set(inner) <= set(full):
                continue
            twists = tuple(
                ExtraTwist("inner" if i in inner else "outer", i, chi, 0, ())
                for i in full)
            yield TwistGroup(field, twists, inner, full)


def unramified_primes(field):
    out = []
    for p in primes_up_to(500):
        try:
            frobenius_at(field, p)
        except Ramified:
            continue
        out.append(p)
    return out


@pytest.mark.parametrize("make,degree,count", [(s3_sextic, 6, 6),
                                                (d4_octic, 8, 10)])
def test_the_non_abelian_fields_have_every_subgroup(make, degree, count):
    field = make()
    assert field.degree == degree and not field.is_abelian
    assert len(subgroups(field)) == count


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_one_coset_test_matches_two_decompositions(name):
    field = FIELDS[name]()
    groups = list(twist_groups(field))
    for p in unramified_primes(field):
        for group in groups:
            assert forms.classify_place(field, group, p, 3) == \
                ref.classify_place(field, group, p, 3), \
                (p, tuple(group.full_subgroup), tuple(group.inner_subgroup))


# ---------------------------------------------------------------------------
# the factor-pattern reference
# ---------------------------------------------------------------------------

def _pattern(verdicts):
    return sorted((v.residue_degree, v.form) for v in verdicts)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_verdicts_match_the_factor_patterns(name):
    field = FIELDS[name]()
    groups = [(group, fixed_field(field, group.full_subgroup).min_poly,
               fixed_field(field, group.inner_subgroup).min_poly)
              for group in twist_groups(field)]
    compared = skipped = 0
    for p in unramified_primes(field):
        for group, f_poly, f_inn_poly in groups:
            want = ref.factor_pattern_places(f_poly, f_inn_poly, p)
            if want is None:
                skipped += 1
                continue
            compared += 1
            assert _pattern(forms.classify_place(field, group, p, 3)) == want, \
                (p, tuple(group.full_subgroup), tuple(group.inner_subgroup))
    assert skipped <= compared // 20, (compared, skipped)


DATA = Path(__file__).parent / "data"
SYSTEMS = {f"fixture.{path.stem}":
           lambda path=path: load_system(json.loads(path.read_text()))
           for path in sorted(DATA.glob("*.json")) if path.stem != "golden_cli"}
SYSTEMS.update({f"synth.{name}": make for name, make in sorted(vars(synth).items())
                if name.endswith("_system")})


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_image_reports_match_the_factor_patterns(name):
    sys_ = SYSTEMS[name]()
    if sys_.n == 3 and not sys_.is_normalized:
        sys_ = normalize(sys_)
    result = detect(sys_, max(sys_.coeffs))
    report = forms.image_report(sys_, result, primes_up_to(3000))
    f_poly, f_inn_poly = result.fixed.min_poly, result.fixed_inner.min_poly
    compared = skipped = 0
    for p, verdicts in report.places:
        want = ref.factor_pattern_places(f_poly, f_inn_poly, p)
        if want is None:
            skipped += 1
            continue
        compared += 1
        assert _pattern(verdicts) == want, p
    assert compared and skipped <= compared // 20, (compared, skipped)


# ---------------------------------------------------------------------------
# one classify_place call per class of sigma_p
# ---------------------------------------------------------------------------

D = 999999999989 * 1000000000039      # two primes


def quadratic(c):
    """Q(sqrt(-c)) on a root of x^2 + c."""
    return _field([c, 0, 1], [[0, 1], [0, -1]])


def zeta9_plus():
    """Q(zeta_9)^+ on alpha = zeta_9 + zeta_9^-1, x^3 - 3x + 1, of conductor
    9: alpha -> alpha^2 - 2 -> -alpha^2 - alpha + 2."""
    return _field([1, -3, 0, 1], [[0, 1, 0], [-2, 0, 1], [2, -1, -1]])


# synth.biquadratic_field is the klein model x^4 - 2x^2 + 9
ABELIAN = {name: make for name, make in sorted(vars(synth).items())
           if name.endswith("_field")}
ABELIAN.update({"x^2+1/4": lambda: quadratic(Fraction(1, 4)),
                "x^2+9": lambda: quadratic(9),
                "zeta9_plus": zeta9_plus,
                "sqrt_D": lambda: quadratic(-D)})


def revealing_groups(field):
    """The trivial twist group, whose places above p have residue degree
    the order of sigma_p, and the whole group over each inner subgroup of
    index 2, split exactly when sigma_p lies in it."""
    return [group for group in twist_groups(field)
            if group.full_subgroup.order == 1
            or group.full_subgroup.order == 2 * group.inner_subgroup.order
            == field.degree]


def stand_ins(field, group, bad_places=(5, 7)):
    """Stand-ins for the system and the detection result that image_report
    reads: n = 3, the field, the bad places, the group and [F:Q]."""
    return (SimpleNamespace(n=3, field=field, bad_places=bad_places),
            SimpleNamespace(group=group, fixed=SimpleNamespace(
                degree=field.degree // group.full_subgroup.order)))


def assert_reports_agree(field, primes):
    """image_report against ref_image_report for each revealing group, on
    stand-ins for the system and the detection result."""
    for group in revealing_groups(field):
        sys_, result = stand_ins(field, group)
        got = forms.image_report(sys_, result, primes)
        want = ref.ref_image_report(sys_, result, primes)
        wrong = [p for (p, v), (_, w) in zip(got.places, want.places)
                 if v != w]
        assert got == want, (tuple(group.full_subgroup),
                             tuple(group.inner_subgroup), len(wrong))


def test_frobenius_modulus_examples():
    # Q(i), Q(zeta_3), the klein model with B = 2^14 3^2 and e = 2, Q(i)
    # again from x^2 + 9 (B = -36), and Q(zeta_9)^+ with e = 3
    assert numberfield.frobenius_modulus(synth.gaussian_field(), 100) == 8
    assert numberfield.frobenius_modulus(synth.eisenstein_field(), 100) == 3
    assert numberfield.frobenius_modulus(synth.biquadratic_field(), 100) == 24
    assert numberfield.frobenius_modulus(quadratic(9), 100) == 24
    assert numberfield.frobenius_modulus(zeta9_plus(), 100) == 9


@pytest.mark.parametrize("name", sorted(ABELIAN))
def test_one_call_per_class_matches_one_per_prime(name):
    field = ABELIAN[name]()
    assert field.is_abelian
    assert_reports_agree(field, primes_up_to(20000))


@pytest.mark.parametrize("make", [s3_sextic, d4_octic])
def test_non_abelian_fields_never_key_by_residue(make, monkeypatch):
    def refuse(*args):
        raise AssertionError("frobenius_modulus over a non-abelian field")
    monkeypatch.setattr(numberfield, "frobenius_modulus", refuse)
    assert_reports_agree(make(), primes_up_to(3000))


@pytest.mark.parametrize("make,classes", [(s3_sextic, 3), (d4_octic, 5)])
def test_one_classify_place_call_per_conjugacy_class(make, classes,
                                                     monkeypatch):
    calls = []
    classify_place = forms.classify_place

    def spy(field, group, p, n):
        calls.append(p)
        return classify_place(field, group, p, n)

    monkeypatch.setattr(forms, "classify_place", spy)
    field = make()
    for group in revealing_groups(field):
        calls.clear()
        report = forms.image_report(*stand_ins(field, group),
                                    primes_up_to(20000)[1:])
        assert len(calls) == classes, calls
        assert len(report.places) > 2200


def test_a_large_prime_discriminant_is_not_factored():
    """B = 4D, D the product of two primes near 10^12: trial division stops
    at 2000, and D enters M0 whole."""
    field = quadratic(-D)
    assert numberfield.frobenius_modulus(field, 2000) % D == 0
    assert_reports_agree(field, primes_up_to(2000)[1:])
