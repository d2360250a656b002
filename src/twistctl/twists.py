"""Twist detection and the group structure on the detected twists.

An inner twist is a pair (sigma, chi) with sigma(a_v) = chi(v) a_v (and, for
n = 3, sigma(b_v) = chi(v)^{-1} b_v) at every good place; an outer twist
(tau, eta) relates the data to its dual: tau(a_v) = eta(v) b_v and
tau(b_v) = eta(v)^{-1} a_v.  Detection is certified only up to a norm bound
and each twist records the bound it was verified at; over Q its character
is fitted modulo conductor_bound(sys).  detect builds one relation table,
relations(sys, bound), which computes each image sigma(x) of a nonzero
coefficient and each product zeta^k t, zeta the generator of mu(E), once;
find_inner, general_type_verdict and find_outer read it, so they do no
field arithmetic, and coefficient_field_check reads its places and
coefficients.  A scan reads each relation as the exponent k with sigma(s) =
zeta^k t, by lookup, and keeps an automorphism only when every relation has
an exponent, the relations at each place agree and every order is within
the bound.  The general-type verdict fits a self-twist only when some place
is blank and asks the outer question on tau = 0 alone, at rank 2 too, where
eta = 1 fits a_v = eta(v) a_v; find_outer asks it on every tau.

Composition: applying (tau, eta) first and (sigma, chi) second yields
(sigma tau, chi^s * sigma(eta)) where s = -1 when the second factor of the
pair, the one applied first, is outer, and +1 otherwise.  The sign comes from
dualizing: (rho ox chi)^dual is rho^dual ox chi^{-1}, so passing a dual
through the left twist inverts its character.  Inverses: inner (sigma, chi)
has inverse (sigma^{-1}, sigma^{-1}(chi)^{-1}); outer (tau, eta) has inverse
(tau^{-1}, tau^{-1}(eta)).
"""

from __future__ import annotations

from typing import NamedTuple

from . import arith
from .characters import (
    Character,
    char_exponent,
    char_fit,
    char_mul,
    char_to_json,
    char_transform,
    fits_by_conductor,
)
from .eigensystem import EigenSystem
from .errors import (
    DuplicateAutomorphism,
    InsufficientData,
    MissingValue,
    NotClosed,
    NotCoprime,
)
from .numberfield import (
    NumberField,
    SubfieldDescriptor,
    Subgroup,
    fixed_field,
    stabilizer,
    subgroup_make,
    unit_roots,
)
from .polynomials import poly_to_strings

MIN_PLACES = 10
DEFAULT_RAW_ORDER_BOUND = 24


class ExtraTwist(NamedTuple):
    kind: str                      # "inner" or "outer"
    aut_index: int
    character: Character
    verified_bound: int
    undetermined_places: tuple     # places where every defining relation is 0 = 0


class TwistGroup(NamedTuple):
    field: NumberField
    twists: tuple
    inner_subgroup: Subgroup
    full_subgroup: Subgroup

    @property
    def order(self) -> int:
        return len(self.twists)

    @property
    def inner_order(self) -> int:
        return self.inner_subgroup.order

    def has_outer(self) -> bool:
        return any(t.kind == "outer" for t in self.twists)


def conductor_bound(sys: EigenSystem) -> int:
    """N0 = arith.conductor_bound(bad places, |mu(E)|): over Q every twist
    character's conductor divides it, as both sides of a twist are unramified
    at a good place, so chi is too, and chi takes its values in mu(E)."""
    return arith.conductor_bound(sys.bad_places, unit_roots(sys.field).order)


def _max_order(sys: EigenSystem) -> int:
    if sys.is_normalized:
        return sys.n
    if sys.omega is not None and not sys.omega.is_trivial():
        return sys.n * sys.omega.order()
    return DEFAULT_RAW_ORDER_BOUND


def _check_detection_input(sys: EigenSystem):
    if not sys.is_normalized and sys.n != 2:
        raise ValueError("detection on raw data is supported for n = 2 only; "
                         "normalize the system first")


def _power_ok(sys: EigenSystem, chi: Character) -> bool:
    """Unit-determinant systems force chi^n = 1 on every twist character."""
    return not sys.is_normalized or sys.n % chi.order() == 0


# ---------------------------------------------------------------------------
# composition law
# ---------------------------------------------------------------------------

def compose_twists(field: NumberField, left: ExtraTwist,
                   right: ExtraTwist) -> tuple[str, int, Character]:
    """Kind, automorphism index, and character of left o right (right acts
    first).  A dual on the right inverts the left character in passing."""
    kind = "inner" if left.kind == right.kind else "outer"
    index = field.compose(left.aut_index, right.aut_index)
    lchar = left.character if right.kind == "inner" else left.character.inverse()
    char = char_mul(lchar, char_transform(field, left.aut_index, right.character))
    return kind, index, char


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

class Relations(NamedTuple):
    """The relation table every detection scan reads, built by relations()."""
    sys: EigenSystem
    bound: int
    places: tuple          # the good places of norm <= bound
    pairs: dict            # v -> (a_v,) for n = 2, (a_v, b_v) for n = 3
    support: dict          # kind -> places where the first target is not 0
    undetermined: tuple    # places where every coefficient is 0
    images: tuple          # images[sigma]: key of x -> key of sigma(x), x != 0
    products: dict         # key of t -> {key of zeta^k t: k}, t != 0


def relations(sys: EigenSystem, bound: int) -> Relations:
    """The relation table of sys up to bound: every sigma(x) and every
    zeta^k t is computed here, once per distinct nonzero coefficient, so
    the scans that read the table do no field arithmetic."""
    field = sys.field
    places = tuple(sys.places(bound))
    pairs = {v: (sys.coeffs[v].a, sys.coeffs[v].b)[:sys.n - 1] for v in places}
    nonzero = {x.key: x for c in pairs.values() for x in c if not x.is_zero()}
    images = ({k: k for k in nonzero},) + tuple(
        {k: field.apply_aut(sigma, x).key for k, x in nonzero.items()}
        for sigma in range(1, field.degree))
    powers = unit_roots(field).powers
    products = {k: {(z * t if j else t).key: j for j, z in enumerate(powers)}
                for k, t in nonzero.items()}
    support = {kind: tuple(v for v in places if not pairs[v][i].is_zero())
               for kind, i in (("inner", 0), ("outer", -1))}
    undetermined = tuple(v for v in places
                         if all(x.is_zero() for x in pairs[v]))
    return Relations(sys, bound, places, pairs, support, undetermined,
                     images, products)


def find_inner(rel: Relations) -> list[ExtraTwist]:
    """Inner twists (sigma, chi) verified at all good places of norm <= bound.

    chi is fitted from the exponents k with sigma(a_v) = zeta^k a_v at
    places with a_v != 0 and then re-checked against both coefficient
    relations everywhere.  Places where every relation degenerates to 0 = 0
    are recorded on the twist."""
    _check_detection_input(rel.sys)
    return _scan(rel, "inner", range(rel.sys.field.degree))


def find_outer(rel: Relations) -> list[ExtraTwist]:
    """Outer twists (tau, eta) with tau(a_v) = eta(v) b_v at good v <= bound,
    on every automorphism tau of the coefficient field, the identity too.

    eta is fitted from the exponents k with tau(a_v) = zeta^k b_v at places
    with b_v != 0; the mirrored relation tau(b_v) = eta(v)^{-1} a_v must
    give the same exponents everywhere, which in particular rejects any tau
    when exactly one of a_v, b_v vanishes."""
    if rel.sys.n != 3:
        raise ValueError("outer twists are defined for n = 3 data only")
    if not rel.sys.is_normalized:
        raise ValueError("outer detection expects a normalized system")
    return _scan(rel, "outer", range(rel.sys.field.degree))


def _scan(rel: Relations, kind: str, auts) -> list[ExtraTwist]:
    """Twists of the given kind on the automorphisms auts, the identity
    included, each fitted by _fit."""
    sys, support = rel.sys, rel.support[kind]
    if len(support) < MIN_PLACES:
        coeff = "a_v" if kind == "inner" else "b_v"
        raise InsufficientData(
            f"{len(support)} places have {coeff} != 0; at least {MIN_PLACES} "
            f"are needed to pin down a character")
    ob = _max_order(sys)
    out = []
    for sigma in auts:
        chi = _fit(rel, kind, sigma, ob)
        if chi is not None and _power_ok(sys, chi):
            out.append(ExtraTwist(kind, sigma, chi, rel.bound,
                                  rel.undetermined))
    return out


def _fit(rel: Relations, kind: str, sigma: int, ob: int) -> Character | None:
    """The character with sigma(s) = zeta^k t on the first relation at each
    place and sigma(s) = zeta^-k t on the second, over the relations not
    reading 0 = 0: inner relations pair each coefficient with itself, outer
    ones a_v with b_v.  None at the first relation no root of unity fits
    (as when one side is 0), at a place whose relations disagree, or at an
    order above ob.  Over a base other than Q the place -> exponent map is
    the character; over Q it is the Dirichlet character char_fit gives on
    the support, if that takes every exponent of the map."""
    sys, image = rel.sys, rel.images[sigma]
    mu = unit_roots(sys.field)
    exps = {}
    for v in rel.places:
        c = rel.pairs[v]
        ks = set()
        for i, (s, t) in enumerate(zip(c, c if kind == "inner" else c[::-1])):
            if not (s.is_zero() and t.is_zero()):
                k = rel.products.get(t.key, {}).get(image.get(s.key))
                if k is None:
                    return None
                ks.add(-k % mu.order if i else k)
        if len(ks) > 1 or any(mu.order_of(k) > ob for k in ks):
            return None
        if ks:
            exps[v] = ks.pop()
    if sys.base_field_label != "Q":
        return Character(sys.field, "table", exps=exps)
    chi = char_fit({v: exps[v] for v in rel.support[kind]},
                   conductor_bound(sys), ob, sys.field)
    if chi is None or any(_exponent(chi, v) != k for v, k in exps.items()):
        return None
    return chi


def _exponent(chi: Character, v) -> int | None:
    """char_exponent(chi, v), or None where chi has no value at v."""
    try:
        return char_exponent(chi, v)
    except (NotCoprime, MissingValue):
        return None


# ---------------------------------------------------------------------------
# group assembly
# ---------------------------------------------------------------------------

def assemble_group(inners, outers, field: NumberField) -> TwistGroup:
    """Close the detected twists into a group, verifying the composition law,
    kind parity, and that the inner twists sit at index at most 2."""
    twists = tuple(inners) + tuple(outers)
    seen = {}
    for t in twists:
        if t.aut_index in seen:
            raise DuplicateAutomorphism(
                f"automorphism {t.aut_index} carries both a "
                f"{seen[t.aut_index].kind} and an {t.kind} twist")
        seen[t.aut_index] = t
    if 0 not in seen or seen[0].kind != "inner" or not seen[0].character.is_trivial():
        raise NotClosed("the identity twist is missing")

    for left in twists:
        for right in twists:
            kind, index, char = compose_twists(field, left, right)
            if index not in seen:
                raise NotClosed(
                    f"composing automorphisms {left.aut_index} and "
                    f"{right.aut_index} lands on {index}, which carries no "
                    f"detected twist")
            target = seen[index]
            if target.kind != kind:
                raise NotClosed(
                    f"kind parity violated at ({left.aut_index}, {right.aut_index})")
            if target.character != char:
                raise NotClosed(
                    f"character mismatch composing {left.aut_index} "
                    f"and {right.aut_index}")

    full = subgroup_make(field, seen.keys())
    inner = subgroup_make(field, [t.aut_index for t in twists if t.kind == "inner"])
    if full.order % inner.order != 0 or full.order // inner.order > 2:
        raise NotClosed("inner twists must form a subgroup of index 1 or 2")
    return TwistGroup(field, twists, inner, full)


def fixed_fields(group: TwistGroup) -> tuple[SubfieldDescriptor, SubfieldDescriptor]:
    """(F, F_inn): the subfields of group.field fixed by all twist
    automorphisms and by the inner ones.  F_inn is a quadratic extension of
    F exactly when outer twists are present."""
    F = fixed_field(group.field, group.full_subgroup)
    F_inn = fixed_field(group.field, group.inner_subgroup)
    expected = 2 * F.degree if group.has_outer() else F.degree
    if F_inn.degree != expected:
        raise NotClosed(
            f"inner fixed field has degree {F_inn.degree}, not {expected}; it "
            "must be quadratic over F exactly when outer twists are present")
    return F, F_inn


# ---------------------------------------------------------------------------
# coefficient-field consistency and the general-type verdict
# ---------------------------------------------------------------------------

class CentReport(NamedTuple):
    inner_stabilizer: Subgroup
    full_stabilizer: Subgroup
    inner_matches: bool
    full_matches: bool
    inclusion_holds: bool
    b_insufficiency: bool
    kernel_places: tuple
    bound: int


def coefficient_field_check(rel: Relations, group: TwistGroup) -> CentReport:
    """Coefficient-field check over the kernel places of the relation table.

    At places where every detected character evaluates to 1 the twist relations
    fix a_v under inner automorphisms and the sum of the place's coefficients
    (a_v + b_v, or a_v at rank 2) under all of them, so the a_v should generate
    the field fixed by the inner subgroup and the sums the field fixed by
    everything.  Stabilizers, recomputed from the table's coefficients, are
    compared to the detected subgroups; discrepancies are reported, not raised,
    and a strict inclusion with no contradiction flags a bound perhaps too low."""
    kernel = [v for v in rel.places
              if all(_exponent(t.character, v) == 0 for t in group.twists)]
    stab_a = stabilizer(group.field, [rel.pairs[v][0] for v in kernel])
    stab_sum = stabilizer(group.field, [sum(rel.pairs[v][1:], rel.pairs[v][0])
                                        for v in kernel])
    inner_ok = stab_a == group.inner_subgroup
    inclusion = all(i in stab_a for i in group.inner_subgroup)
    return CentReport(
        inner_stabilizer=stab_a,
        full_stabilizer=stab_sum,
        inner_matches=inner_ok,
        full_matches=stab_sum == group.full_subgroup,
        inclusion_holds=inclusion,
        b_insufficiency=inclusion and not inner_ok,
        kernel_places=tuple(kernel),
        bound=rel.bound,
    )


class GeneralTypeVerdict(NamedTuple):
    kind: str             # "general-type" | "self-twist" | "essentially-self-dual"
    witness: Character | None
    bound: int


def general_type_verdict(rel: Relations) -> GeneralTypeVerdict:
    """Classify the system up to the bound: self-twist when a nontrivial
    character fixes it, essentially self-dual when it matches its own dual up
    to a character, general type otherwise.

    At sigma = 0 every inner relation reads s = t, so a self-twist character
    is 1 at each place where some relation is not 0 = 0, and only a blank
    place, where every relation reads 0 = 0, can witness it: with one, over
    the rational base field, the walk fits candidates to 1 on the rest, by
    conductor, and stops at the first that is not 1 at a blank place.
    Self-twist wins when both degeneracies hold.  Essential self-duality is
    find_outer's scan on tau = 0 alone, which raises InsufficientData or
    Ambiguous as that scan does; at rank 2 it reads a_v = eta(v) a_v, which
    eta = 1 fits, so every rank-2 system is essentially self-dual."""
    sys, bound = rel.sys, rel.bound
    _check_detection_input(sys)
    ob = _max_order(sys)
    determined = rel.support["inner"]
    if len(determined) < MIN_PLACES:
        raise InsufficientData(
            f"{len(determined)} places have a_v != 0; at least {MIN_PLACES} "
            f"are needed for a verdict")

    blank = rel.undetermined
    if blank and sys.base_field_label == "Q":
        walk = fits_by_conductor(dict.fromkeys(set(rel.places) - set(blank), 0),
                                 conductor_bound(sys), ob, sys.field)
        for cand in (chi for fits in walk for chi in fits):
            if _power_ok(sys, cand) and any(
                    _exponent(cand, v) not in (0, None) for v in blank):
                return GeneralTypeVerdict("self-twist", cand, bound)

    for t in _scan(rel, "outer", (0,)):
        return GeneralTypeVerdict("essentially-self-dual", t.character, bound)
    return GeneralTypeVerdict("general-type", None, bound)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

class DetectionResult(NamedTuple):
    group: TwistGroup
    fixed: SubfieldDescriptor
    fixed_inner: SubfieldDescriptor
    cent: CentReport
    verdict: GeneralTypeVerdict
    bound: int


def detect(sys: EigenSystem, bound: int) -> DetectionResult:
    """Full pipeline: find twists, assemble the group, compute fixed fields
    and the coefficient-field report.

    Outer twists enter the group only for general-type data, which has
    n = 3 and, as the verdict's scan of tau = 0 found, no outer twist there;
    a degenerate system keeps its inner-twist group and the verdict carries
    the witness.  All three scans read one relation table."""
    rel = relations(sys, bound)
    inners = find_inner(rel)
    verdict = general_type_verdict(rel)
    outers = find_outer(rel) if verdict.kind == "general-type" else []
    group = assemble_group(inners, outers, sys.field)
    F, F_inn = fixed_fields(group)
    cent = coefficient_field_check(rel, group)
    return DetectionResult(group, F, F_inn, cent, verdict, bound)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def twist_to_json(t: ExtraTwist) -> dict:
    return {
        "kind": t.kind,
        "aut_index": t.aut_index,
        "character": char_to_json(t.character),
        "verified_bound": t.verified_bound,
        "undetermined_places": [str(v) for v in t.undetermined_places],
    }


def detection_to_json(result: DetectionResult) -> dict:
    g = result.group
    return {
        "twists": [twist_to_json(t) for t in g.twists],
        "group_order": g.order,
        "inner_order": g.inner_order,
        "fixed_field": {
            "min_poly": poly_to_strings(result.fixed.min_poly),
            "degree": result.fixed.degree,
        },
        "inner_fixed_field": {
            "min_poly": poly_to_strings(result.fixed_inner.min_poly),
            "degree": result.fixed_inner.degree,
        },
        "coefficient_field_check": {
            "inner_matches": result.cent.inner_matches,
            "full_matches": result.cent.full_matches,
            "inclusion_holds": result.cent.inclusion_holds,
            "b_insufficiency": result.cent.b_insufficiency,
            "kernel_place_count": len(result.cent.kernel_places),
        },
        "verdict": {
            "kind": result.verdict.kind,
            "witness": None if result.verdict.witness is None
            else char_to_json(result.verdict.witness),
        },
        "bound": result.bound,
    }
