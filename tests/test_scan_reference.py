"""Differential test: the exponent-table twist scan against the ratio scan
it replaced.

The reference below is the earlier implementation: over Q each character
is fitted from the ratios sigma(s)/t, one field inverse per place, and then
checked by rebuilding chi(v) as a field element and multiplying; over other
bases the value table is read off by division and checked by a product.
Over Q the identity keeps the trivial character unfitted, as it did there;
over other bases its table is read off like any other automorphism's.
find_inner and find_outer must return the same twists (automorphism, kind,
character, undetermined places) or raise the same exception with the same
message, on every synthetic system, relabelled to a non-rational base,
with coefficients zeroed at some places and with one coefficient perturbed.
On the same systems, detect must give what it gave when every fit ran up to
the old conductor cap 16 * prod(bad places) (fit_upto), except where that
result holds a character whose conductor does not divide conductor_bound:
such a character is ramified at a good place, so it is no twist.  It must
also give what ref_detect gives, the flow where the verdict scanned the
outer relations on tau = 0 alone and detect then scanned every other tau,
each scan by ref_scan: the same document or the same exception.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import groupby
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fit_reference import fit_upto
from twistctl import characters, synth, twists
from twistctl.characters import (
    char_eval,
    char_fit,
    char_to_json,
    table_character,
    trivial_character,
)
from twistctl.eigensystem import normalize
from twistctl.errors import (
    InsufficientData,
    MissingValue,
    NotCoprime,
    NotRootOfUnity,
    TwistctlError,
)
from twistctl.numberfield import unit_roots
from twistctl.twists import (
    DEFAULT_RAW_ORDER_BOUND,
    MIN_PLACES,
    DetectionResult,
    ExtraTwist,
    _check_detection_input,
    _power_ok,
    assemble_group,
    coefficient_field_check,
    conductor_bound,
    detect,
    detection_to_json,
    find_inner,
    find_outer,
    fixed_fields,
    general_type_verdict,
)

BUILDERS = ("vantop_system", "generic_system", "rational_inner_system",
            "klein_system", "chi4_system", "cubic_twist_system",
            "selfdual_system", "cubic_klein_system",
            "drifting_coefficient_system", "rational_rank2_system",
            "quadratic_rank2_system", "cm_system")


@lru_cache(maxsize=None)
def _system(name):
    sys_ = getattr(synth, name)()
    return normalize(sys_) if sys_.n == 3 else sys_


# ---------------------------------------------------------------------------
# the reference: ratios and products of field elements
# ---------------------------------------------------------------------------

def ref_order_bound(sys):
    if sys.is_normalized:
        return sys.n
    if sys.omega is not None and not sys.omega.is_trivial():
        return sys.n * sys.omega.order()
    return DEFAULT_RAW_ORDER_BOUND


def ref_relations(sys, kind, v):
    pd = sys.coeffs[v]
    if sys.n == 2:
        return ((pd.a, pd.a),)
    if kind == "inner":
        return ((pd.a, pd.a), (pd.b, pd.b))
    return ((pd.a, pd.b), (pd.b, pd.a))


def ref_scan(sys, kind, bound, auts):
    ob = ref_order_bound(sys)
    places = sys.places(bound)
    support = [v for v in places
               if not ref_relations(sys, kind, v)[0][1].is_zero()]
    if len(support) < MIN_PLACES:
        coeff = "a_v" if kind == "inner" else "b_v"
        raise InsufficientData(
            f"{len(support)} places have {coeff} != 0; at least {MIN_PLACES} "
            f"are needed to pin down a character")
    undetermined = tuple(v for v in places
                         if all(s.is_zero() and t.is_zero()
                                for s, t in ref_relations(sys, kind, v)))
    out = []
    for sigma in auts:
        if kind == "inner" and sigma == 0 and sys.base_field_label == "Q":
            chi = trivial_character(sys.field)
        elif sys.base_field_label == "Q":
            chi = ref_fit_dirichlet(sys, kind, sigma, places, support, ob)
        else:
            chi = ref_fit_table(sys, kind, sigma, places, ob)
        if chi is not None and _power_ok(sys, chi):
            out.append(ExtraTwist(kind, sigma, chi, bound, undetermined))
    return out


def ref_fit_dirichlet(sys, kind, sigma, places, support, ob):
    field = sys.field
    ratios = {}
    for v in support:
        s, t = ref_relations(sys, kind, v)[0]
        ratios[v] = field.apply_aut(sigma, s) / t
    mu = unit_roots(field)
    try:
        chi = char_fit({v: mu.exponent(x) for v, x in ratios.items()},
                       conductor_bound(sys), ob, field)
    except NotRootOfUnity:
        return None
    if chi is None or not ref_verify(sys, kind, sigma, chi, places):
        return None
    return chi


def ref_fit_table(sys, kind, sigma, places, ob):
    field = sys.field
    table = {}
    for v in places:
        val = None
        for i, (s, t) in enumerate(ref_relations(sys, kind, v)):
            if s.is_zero() and t.is_zero():
                continue
            if s.is_zero() or t.is_zero():
                return None
            image = field.apply_aut(sigma, s)
            if i == 0:
                val = image / t
            elif val is None:
                val = t / image
            elif val * image != t:
                return None
        if val is not None:
            table[v] = val
    try:
        chi = table_character(field, table)
    except NotRootOfUnity:
        return None
    mu = unit_roots(field)
    return chi if all(mu.order_of(k) <= ob for k in chi.exps.values()) else None


def ref_verify(sys, kind, sigma, chi, places):
    field = sys.field
    for v in places:
        value = None
        for i, (s, t) in enumerate(ref_relations(sys, kind, v)):
            if s.is_zero() and t.is_zero():
                continue
            if value is None:
                try:
                    value = char_eval(chi, v)
                except (NotCoprime, MissingValue):
                    return False
            image = field.apply_aut(sigma, s)
            if not (image == value * t if i == 0 else image * value == t):
                return False
    return True


def ref_find_inner(sys, bound):
    _check_detection_input(sys)
    return ref_scan(sys, "inner", bound, range(sys.field.degree))


def ref_find_outer(sys, bound):
    return ref_scan(sys, "outer", bound, range(sys.field.degree))


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

@st.composite
def scan_problems(draw):
    """A synthetic system, maybe relabelled to base K, with a_v, b_v or both
    zeroed at a few drawn places and maybe one coefficient moved off its
    twist relations, by adding 1 or by a factor of a root of unity."""
    sys_ = _system(draw(st.sampled_from(BUILDERS)))
    if draw(st.booleans()):
        sys_ = replace(sys_, base_field_label="K")
    field = sys_.field
    zero = field.zero()
    places = sys_.places()
    coeffs = dict(sys_.coeffs)
    sides = ["a"] if sys_.n == 2 else ["a", "b", "ab"]
    for v in draw(st.lists(st.sampled_from(places), max_size=6, unique=True)):
        side = draw(st.sampled_from(sides))
        pd = coeffs[v]
        coeffs[v] = pd._replace(**{c: zero for c in side})
    change = draw(st.sampled_from(["none", "plus_one", "root"]))
    if change != "none":
        v = draw(st.sampled_from(places))
        c = draw(st.sampled_from(sides[:-1] if sys_.n == 3 else sides))
        old = getattr(coeffs[v], c)
        if change == "plus_one":
            new = old + 1
        else:
            powers = unit_roots(field).powers
            new = old * powers[draw(st.integers(1, len(powers) - 1))]
        coeffs[v] = coeffs[v]._replace(**{c: new})
    sys_ = replace(sys_, coeffs=coeffs)
    return sys_, draw(st.integers(40, 100))


def _at_place(name, v, a, b):
    """The system with a_v and b_v at the place v multiplied by zeta^a and
    zeta^b, or zeroed where the exponent is None."""
    sys_ = _system(name)
    pd = sys_.coeffs[v]
    powers = unit_roots(sys_.field).powers
    return replace(sys_, coeffs={**sys_.coeffs, v: pd._replace(
        a=sys_.field.zero() if a is None else pd.a * powers[a],
        b=sys_.field.zero() if b is None else pd.b * powers[b])})


def _outcome(scan):
    try:
        return [(t.aut_index, t.kind, char_to_json(t.character),
                 t.undetermined_places) for t in scan()]
    except (TwistctlError, ValueError) as e:
        return type(e).__name__, str(e)


@settings(max_examples=50, deadline=None)
@given(scan_problems())
# characters of order 3 tell the two relations' signs apart
@example((_system("cubic_klein_system"), 60))
@example((replace(_system("cubic_twist_system"), base_field_label="K"), 60))
# 5 places of norm <= 20 (2, 3 and 7 are bad): too few to fit a character
@example((_system("cubic_klein_system"), 20))
# one place breaks a twist that the first relation's places fit: with
# a_5 = 0 the inner twist on 1 through b_5 alone; with b_5 moved the two
# relations at 5 disagree; with b_5 moved by zeta^3 both outer relations at
# 5 read one exponent of order 6, above the order bound 3
@example((_at_place("cubic_klein_system", 5, None, 1), 60))
@example((_at_place("cubic_klein_system", 5, 0, 1), 60))
@example((_at_place("cubic_klein_system", 5, 0, 3), 60))
def test_scans_match_the_ratio_reference(problem):
    sys_, bound = problem
    got = _outcome(lambda: find_inner(sys_, bound))
    want = _outcome(lambda: ref_find_inner(sys_, bound))
    assert got == want
    if sys_.n == 3:
        got = _outcome(lambda: find_outer(sys_, bound))
        want = _outcome(lambda: ref_find_outer(sys_, bound))
        assert got == want


# ---------------------------------------------------------------------------
# detect against the fit up to the old cap
# ---------------------------------------------------------------------------

def _detect_outcome(sys_, bound):
    try:
        return detection_to_json(detect(sys_, bound))
    except (TwistctlError, ValueError) as e:
        return type(e).__name__, str(e)


def _capped_detect_outcome(sys_, bound):
    """_detect_outcome with every fit run by fit_upto up to 16 * prod(bad
    places), the cap the fit modulo conductor_bound replaced: the walk that
    fit_all and char_fit read yields its fits grouped by conductor."""
    cap = 16 * prod(sys_.bad_places)

    def fits_by_conductor(exponents, N, order_bound, field):
        fits = fit_upto(exponents, cap, order_bound, field)
        return iter([list(g) for _, g in groupby(fits, lambda c: c.modulus)])

    with mock.patch.object(characters, "_fits_by_conductor", fits_by_conductor):
        return _detect_outcome(sys_, bound)


def _moduli(outcome):
    """The moduli of the Dirichlet characters a detection document holds."""
    if not isinstance(outcome, dict):
        return []
    chars = [t["character"] for t in outcome["twists"]]
    chars.append(outcome["verdict"]["witness"])
    return [c["modulus"] for c in chars if c and c["kind"] == "dirichlet"]


def _check_against_the_cap(sys_, bound):
    capped = _capped_detect_outcome(sys_, bound)
    N0 = conductor_bound(sys_)
    if all(N0 % m == 0 for m in _moduli(capped)):
        assert _detect_outcome(sys_, bound) == capped


@pytest.mark.parametrize("name", BUILDERS)
def test_detect_on_every_builder_matches_the_capped_fit(name):
    _check_against_the_cap(_system(name), 200)


@settings(max_examples=50, deadline=None)
@given(scan_problems())
def test_detect_matches_the_capped_fit(problem):
    _check_against_the_cap(*problem)


# ---------------------------------------------------------------------------
# detect against the flow where the verdict owned tau = 0
# ---------------------------------------------------------------------------

def ref_detect(sys_, bound):
    """detection_to_json of detect as it ran when find_outer took the
    automorphisms to scan: the inner scan, the verdict with its outer scan
    on tau = 0 alone, then for general-type data the outer scan on every
    tau != 0; each scan by ref_scan."""
    inners = ref_find_inner(sys_, bound)
    with mock.patch.object(twists, "_scan", ref_scan):
        verdict = general_type_verdict(sys_, bound)
    if sys_.n == 3 and verdict.kind == "general-type":
        outers = ref_scan(sys_, "outer", bound, range(1, sys_.field.degree))
    else:
        outers = []
    group = assemble_group(inners, outers, sys_.field)
    F, F_inn = fixed_fields(group, sys_.field)
    cent = coefficient_field_check(sys_, group, bound)
    return detection_to_json(
        DetectionResult(group, F, F_inn, cent, verdict, bound))


def _check_against_the_split_outer_scan(sys_, bound):
    try:
        want = ref_detect(sys_, bound)
    except (TwistctlError, ValueError) as e:
        want = type(e).__name__, str(e)
    assert _detect_outcome(sys_, bound) == want


@pytest.mark.parametrize("bound", [60, 100, 200])
@pytest.mark.parametrize("name", BUILDERS)
def test_detect_on_every_builder_matches_the_split_outer_scan(name, bound):
    _check_against_the_split_outer_scan(_system(name), bound)


@settings(max_examples=50, deadline=None)
@given(scan_problems())
def test_detect_matches_the_split_outer_scan(problem):
    _check_against_the_split_outer_scan(*problem)
