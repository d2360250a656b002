"""Differential tests: the twist scans against the two scans they replaced.

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

The second reference is the exponent-table scan as it ran before the
relation table: each scan made its own lists of places and its own map of
the products zeta^k t, and applied sigma once per relation it read.
find_inner, find_outer and general_type_verdict, reading one
relations(sys, bound), must give what it gives, on every builder and on the
same perturbed systems.

On the same systems, detect must give what it gave when every fit ran up to
the old conductor cap 16 * prod(bad places) (fit_upto), except where that
result holds a character whose conductor does not divide conductor_bound:
such a character is ramified at a good place, so it is no twist.  It must
also give what ref_detect gives, the flow where the verdict scanned the
outer relations on tau = 0 alone and detect then scanned every other tau,
each scan by ref_scan, and its coefficient-field check by
ref_coefficient_field_check, the check as it read the system and its own
list of places, with a rank branch for the sums: the same document or the
same exception.  That comparison also runs on every builder under seeds 2
and 3, and on the three cached newforms, raw rank-2 data with a
nebentypus, at bounds 100 and 500.
"""

from functools import lru_cache
from itertools import groupby
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fit_reference import fit_upto
from twistctl import characters, lmfdb, synth, twists
from twistctl.characters import (
    Character,
    char_eval,
    char_fit,
    char_to_json,
    fit_all,
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
from twistctl.numberfield import stabilizer, unit_roots
from twistctl.twists import (
    DEFAULT_RAW_ORDER_BOUND,
    MIN_PLACES,
    CentReport,
    DetectionResult,
    ExtraTwist,
    GeneralTypeVerdict,
    _check_detection_input,
    _exponent,
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
    relations,
)

CACHE = Path(__file__).parent / "data" / "lmfdb_cache"
NEWFORMS = (("11.2.a.a", None), ("16.3.c.a", None),
            ("47.1.b.a", [[0, 1], [1, -1]]))

BUILDERS = ("vantop_system", "generic_system", "rational_inner_system",
            "klein_system", "chi4_system", "cubic_twist_system",
            "selfdual_system", "cubic_klein_system",
            "drifting_coefficient_system", "rational_rank2_system",
            "quadratic_rank2_system", "cm_system")


@lru_cache(maxsize=None)
def _system(name, seed=None):
    sys_ = getattr(synth, name)(**({} if seed is None else {"seed": seed}))
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


def ref_places(sys, kind, bound):
    """A scan's places, its support (the places where the first relation's
    target is not 0) and its undetermined places, or InsufficientData."""
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
    return places, support, undetermined


def ref_scan(sys, kind, bound, auts):
    ob = ref_order_bound(sys)
    places, support, undetermined = ref_places(sys, kind, bound)
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
# the product reference: one map of products zeta^k t per scan
# ---------------------------------------------------------------------------

def product_scan(sys, kind, bound, auts):
    ob = ref_order_bound(sys)
    places, support, undetermined = ref_places(sys, kind, bound)
    products = product_map(sys, kind, places)
    out = []
    for sigma in auts:
        chi = product_fit(sys, product_exponents(sys, kind, sigma, places,
                                                 products), support, ob)
        if chi is not None and _power_ok(sys, chi):
            out.append(ExtraTwist(kind, sigma, chi, bound, undetermined))
    return out


def product_map(sys, kind, places):
    """For each nonzero target t at the places, the key of zeta^k t -> k."""
    powers = unit_roots(sys.field).powers
    out = {}
    for v in places:
        for _, t in ref_relations(sys, kind, v):
            if not t.is_zero() and t.key not in out:
                out[t.key] = {(z * t if k else t).key: k
                              for k, z in enumerate(powers)}
    return out


def product_exponents(sys, kind, sigma, places, products):
    """Each place's exponents k with sigma(s) = zeta^k t on the first
    relation and sigma(s) = zeta^-k t on the second, None where none fits."""
    field = sys.field
    w = unit_roots(field).order
    table = {}
    for v in places:
        ks = []
        for i, (s, t) in enumerate(ref_relations(sys, kind, v)):
            if s.is_zero() and t.is_zero():
                continue
            k = products.get(t.key, {}).get(field.apply_aut(sigma, s).key)
            ks.append(k if k is None or i == 0 else -k % w)
        table[v] = tuple(ks)
    return table


def product_fit(sys, table, support, ob):
    if any(None in ks or len(set(ks)) > 1 for ks in table.values()):
        return None
    exps = {v: ks[0] for v, ks in table.items() if ks}
    order_of = unit_roots(sys.field).order_of
    if any(order_of(k) > ob for k in exps.values()):
        return None
    if sys.base_field_label != "Q":
        return Character(sys.field, "table", exps=exps)
    chi = char_fit({v: exps[v] for v in support}, conductor_bound(sys), ob,
                   sys.field)
    if chi is None or any(_exponent(chi, v) != k for v, k in exps.items()):
        return None
    return chi


def product_find_inner(sys, bound):
    _check_detection_input(sys)
    return product_scan(sys, "inner", bound, range(sys.field.degree))


def product_verdict(sys, bound):
    _check_detection_input(sys)
    ob = ref_order_bound(sys)
    places = sys.places(bound)
    determined = [v for v in places if not sys.coeffs[v].a.is_zero()]
    if len(determined) < MIN_PLACES:
        raise InsufficientData(
            f"{len(determined)} places have a_v != 0; at least {MIN_PLACES} "
            f"are needed for a verdict")
    if sys.base_field_label == "Q":
        blank = [v for v in places if all(
            s.is_zero() for s, _ in ref_relations(sys, "inner", v))]
        for cand in fit_all(dict.fromkeys(set(places) - set(blank), 0),
                            conductor_bound(sys), ob, sys.field):
            if _power_ok(sys, cand) and any(
                    _exponent(cand, v) not in (0, None) for v in blank):
                return GeneralTypeVerdict("self-twist", cand, bound)
    if sys.n == 2:
        witness = (trivial_character(sys.field) if sys.base_field_label == "Q"
                   else Character(sys.field, "table",
                                  exps=dict.fromkeys(determined, 0)))
        return GeneralTypeVerdict("essentially-self-dual", witness, bound)
    for t in product_scan(sys, "outer", bound, (0,)):
        return GeneralTypeVerdict("essentially-self-dual", t.character, bound)
    return GeneralTypeVerdict("general-type", None, bound)


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
        sys_ = sys_._replace(base_field_label="K")
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
    sys_ = sys_._replace(coeffs=coeffs)
    return sys_, draw(st.integers(40, 100))


def _at_place(name, v, a, b):
    """The system with a_v and b_v at the place v multiplied by zeta^a and
    zeta^b, or zeroed where the exponent is None."""
    sys_ = _system(name)
    pd = sys_.coeffs[v]
    powers = unit_roots(sys_.field).powers
    return sys_._replace(coeffs={**sys_.coeffs, v: pd._replace(
        a=sys_.field.zero() if a is None else pd.a * powers[a],
        b=sys_.field.zero() if b is None else pd.b * powers[b])})


def _outcome(scan):
    try:
        return [(t.aut_index, t.kind, char_to_json(t.character),
                 t.undetermined_places) for t in scan()]
    except (TwistctlError, ValueError) as e:
        return type(e).__name__, str(e)


def _verdict_outcome(run):
    try:
        v = run()
    except (TwistctlError, ValueError) as e:
        return type(e).__name__, str(e)
    return v.kind, v.witness and char_to_json(v.witness), v.bound


@settings(max_examples=50, deadline=None)
@given(scan_problems())
# characters of order 3 tell the two relations' signs apart
@example((_system("cubic_klein_system"), 60))
@example((_system("cubic_twist_system")._replace(base_field_label="K"), 60))
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
    rel = relations(sys_, bound)
    got = _outcome(lambda: find_inner(rel))
    want = _outcome(lambda: ref_find_inner(sys_, bound))
    assert got == want
    if sys_.n == 3:
        got = _outcome(lambda: find_outer(rel))
        want = _outcome(lambda: ref_find_outer(sys_, bound))
        assert got == want


def _check_against_the_product_scan(sys_, bound):
    rel = relations(sys_, bound)
    assert _outcome(lambda: find_inner(rel)) == _outcome(
        lambda: product_find_inner(sys_, bound))
    assert _verdict_outcome(lambda: general_type_verdict(rel)) == \
        _verdict_outcome(lambda: product_verdict(sys_, bound))
    if sys_.n == 3:
        assert _outcome(lambda: find_outer(rel)) == _outcome(
            lambda: product_scan(sys_, "outer", bound,
                                 range(sys_.field.degree)))


@pytest.mark.parametrize("bound", [60, 100, 200])
@pytest.mark.parametrize("name", BUILDERS)
def test_scans_on_every_builder_match_the_product_reference(name, bound):
    _check_against_the_product_scan(_system(name), bound)


@settings(max_examples=50, deadline=None)
@given(scan_problems())
@example((_system("cubic_klein_system"), 20))
@example((_at_place("cubic_klein_system", 5, 0, 3), 60))
def test_scans_match_the_product_reference(problem):
    _check_against_the_product_scan(*problem)


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
    fit_all, char_fit and the verdict read yields its fits grouped by
    conductor."""
    cap = 16 * prod(sys_.bad_places)

    def fits_by_conductor(exponents, N, order_bound, field):
        fits = fit_upto(exponents, cap, order_bound, field)
        return iter([list(g) for _, g in groupby(fits, lambda c: c.modulus)])

    with mock.patch.object(characters, "fits_by_conductor", fits_by_conductor), \
            mock.patch.object(twists, "fits_by_conductor", fits_by_conductor):
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

def ref_coefficient_field_check(sys, group, bound):
    """The coefficient-field check as it read the system: its own list of
    places up to the bound, a_v + b_v for n = 3 and a_v for n = 2."""
    field = sys.field
    kernel = [v for v in sys.places(bound)
              if all(_exponent(t.character, v) == 0 for t in group.twists)]
    a_vals = [sys.coeffs[v].a for v in kernel]
    if sys.n == 3:
        sum_vals = [sys.coeffs[v].a + sys.coeffs[v].b for v in kernel]
    else:
        sum_vals = a_vals
    stab_a = stabilizer(field, a_vals)
    stab_sum = stabilizer(field, sum_vals)
    inner_ok = stab_a == group.inner_subgroup
    full_ok = stab_sum == group.full_subgroup
    inclusion = all(i in stab_a for i in group.inner_subgroup)
    return CentReport(
        inner_stabilizer=stab_a,
        full_stabilizer=stab_sum,
        inner_matches=inner_ok,
        full_matches=full_ok,
        inclusion_holds=inclusion,
        b_insufficiency=inclusion and not inner_ok,
        kernel_places=tuple(kernel),
        bound=bound,
    )


def ref_detect(sys_, bound):
    """detection_to_json of detect as it ran when find_outer took the
    automorphisms to scan: the inner scan, the verdict with its outer scan
    on tau = 0 alone, then for general-type data the outer scan on every
    tau != 0; each scan by ref_scan."""
    inners = ref_find_inner(sys_, bound)
    with mock.patch.object(twists, "_scan", lambda rel, kind, auts: ref_scan(
            rel.sys, kind, rel.bound, auts)):
        verdict = general_type_verdict(relations(sys_, bound))
    if sys_.n == 3 and verdict.kind == "general-type":
        outers = ref_scan(sys_, "outer", bound, range(1, sys_.field.degree))
    else:
        outers = []
    group = assemble_group(inners, outers, sys_.field)
    F, F_inn = fixed_fields(group)
    cent = ref_coefficient_field_check(sys_, group, bound)
    return detection_to_json(
        DetectionResult(group, F, F_inn, cent, verdict, bound))


def _check_against_the_split_outer_scan(sys_, bound):
    try:
        want = ref_detect(sys_, bound)
    except (TwistctlError, ValueError) as e:
        want = type(e).__name__, str(e)
    assert _detect_outcome(sys_, bound) == want


@pytest.mark.parametrize("bound", [60, 100, 200])
@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=name if seed is None else f"{name}-seed{seed}")
    for name in BUILDERS for seed in (None, 2, 3)])
def test_detect_on_every_builder_matches_the_split_outer_scan(name, seed,
                                                              bound):
    _check_against_the_split_outer_scan(_system(name, seed), bound)


@pytest.mark.parametrize("bound", [100, 500])
@pytest.mark.parametrize("label,auts", NEWFORMS, ids=[n for n, _ in NEWFORMS])
def test_detect_on_the_cached_newforms_matches_the_split_outer_scan(
        label, auts, bound):
    record = lmfdb.fetch_newform(label, cache_dir=CACHE, allow_network=False)
    sys_ = lmfdb.to_eigensystem(record, aut_images=auts, bound=bound)
    _check_against_the_split_outer_scan(sys_, bound)


@settings(max_examples=50, deadline=None)
@given(scan_problems())
def test_detect_matches_the_split_outer_scan(problem):
    _check_against_the_split_outer_scan(*problem)


def test_the_check_matches_its_reference_on_every_builder_field_by_field():
    """coefficient_field_check(rel, group) reports what the reference does,
    stabilizers and kernel places included, not only the document fields."""
    for name in BUILDERS:
        sys_ = _system(name)
        result = detect(sys_, 200)
        got = coefficient_field_check(relations(sys_, 200), result.group)
        assert got == result.cent == ref_coefficient_field_check(
            sys_, result.group, 200), name
