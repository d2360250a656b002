"""Twist detection, the group law on twists, and the detection pipeline.

Every expected group below is known by construction: the synthetic builders
plant subfield coefficients, character prefactors, and mirrored duals, so the
detected groups, characters, fixed fields, and verdicts are checked against
values forced by the shape of the data rather than against the detector
itself.  The quartic-field system with cubic characters doubles as an oracle
for the composition law, since its group closes only when composing past a
dual inverts the character.
"""

import json
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from unittest import mock

import pytest

from detection_helpers import twist_at
from twistctl import synth, twists
from twistctl.characters import (
    Character,
    char_eval,
    char_exponent,
    char_mul,
    char_transform,
    dirichlet_character,
    trivial_character,
)
from twistctl.arith import primes_up_to
from twistctl.eigensystem import EigenSystem, PlaceData, normalize
from twistctl.errors import (
    DuplicateAutomorphism,
    InsufficientData,
    NotClosed,
    TwistctlError,
)
from twistctl.numberfield import (
    NumberField,
    field_make,
    subgroup_make,
    unit_roots,
)
from twistctl.twists import (
    ExtraTwist,
    TwistGroup,
    assemble_group,
    compose_twists,
    conductor_bound,
    detect,
    detection_to_json,
    find_inner,
    find_outer,
    fixed_fields,
    general_type_verdict,
    relations,
)
from test_scan_reference import BUILDERS, _system, ref_verify


def _as_twist(kind, aut_index, character, bound=100):
    return ExtraTwist(kind, aut_index, character, bound, ())


def is_identity(t):
    return t.kind == "inner" and t.aut_index == 0 and t.character.is_trivial()


def inverse_twist(field, t):
    """Kind, automorphism index and character of the inverse of t: inner
    (sigma, chi) has inverse (sigma^-1, sigma^-1(chi)^-1), outer (tau, eta)
    has inverse (tau^-1, tau^-1(eta))."""
    inv = field.inverse_table[t.aut_index]
    moved = char_transform(field, inv, t.character)
    char = moved.inverse() if t.kind == "inner" else moved
    return t.kind, inv, char


@lru_cache(maxsize=None)
def klein_result(bound=100):
    return detect(synth.klein_system(bound), bound)


@lru_cache(maxsize=None)
def cubic_klein_system():
    return synth.cubic_klein_system(bound=100)


@lru_cache(maxsize=None)
def cubic_klein_result():
    return detect(cubic_klein_system(), 100)


# ---------------------------------------------------------------------------
# composition law
# ---------------------------------------------------------------------------

class TestCompositionLaw:
    """The quartic-field group with order-3 characters distinguishes the
    correct law from the naive one, so every identity here is grounded in
    coefficient data, not in the implementation under test."""

    def test_every_composition_lands_on_a_detected_twist(self):
        res = cubic_klein_result()
        group = res.group
        field = group.field
        for left in group.twists:
            for right in group.twists:
                kind, index, char = compose_twists(field, left, right)
                target = twist_at(group, index)
                assert target.kind == kind
                assert target.character == char

    def test_composed_twists_hold_on_the_raw_data(self):
        sys_ = cubic_klein_system()
        group = cubic_klein_result().group
        places = sys_.places(100)
        for left in group.twists:
            for right in group.twists:
                kind, index, char = compose_twists(group.field, left, right)
                assert ref_verify(sys_, kind, index, char, places)

    def test_passing_a_dual_inverts_the_left_character(self):
        # composing the two outer twists: without the inversion the character
        # comes out as the square of the cubic one, and the data rejects it
        sys_ = cubic_klein_system()
        group = cubic_klein_result().group
        field = group.field
        left, right = twist_at(group, 2), twist_at(group, 3)
        assert left.kind == right.kind == "outer"
        assert left.character.order() == 3 and right.character.is_trivial()

        kind, index, char = compose_twists(field, left, right)
        assert (kind, index) == ("inner", 1)
        assert char == twist_at(group, 1).character

        naive = char_mul(left.character,
                         char_transform(field, left.aut_index, right.character))
        assert naive != char
        places = sys_.places(100)
        assert ref_verify(sys_, "inner", index, char, places)
        assert not ref_verify(sys_, "inner", index, naive, places)

    def test_associativity_over_the_whole_group(self):
        group = cubic_klein_result().group
        field = group.field
        for a in group.twists:
            for b in group.twists:
                for c in group.twists:
                    ab = _as_twist(*compose_twists(field, a, b))
                    bc = _as_twist(*compose_twists(field, b, c))
                    assert (compose_twists(field, ab, c)
                            == compose_twists(field, a, bc))

    def test_identity_is_neutral(self):
        group = cubic_klein_result().group
        field = group.field
        ident = twist_at(group, 0)
        assert is_identity(ident)
        for t in group.twists:
            assert compose_twists(field, ident, t) == (
                t.kind, t.aut_index, t.character)
            assert compose_twists(field, t, ident) == (
                t.kind, t.aut_index, t.character)

    def test_inverses_cancel_on_both_sides(self):
        group = cubic_klein_result().group
        field = group.field
        for t in group.twists:
            kind, index, char = inverse_twist(field, t)
            assert kind == t.kind
            inv = _as_twist(kind, index, char)
            for pair in [(t, inv), (inv, t)]:
                k, i, c = compose_twists(field, *pair)
                assert (k, i) == ("inner", 0)
                assert c.is_trivial()

    def test_inverse_of_inner_moves_and_inverts_the_character(self):
        group = cubic_klein_result().group
        field = group.field
        t = twist_at(group, 1)
        assert t.kind == "inner" and t.character.order() == 3
        kind, index, char = inverse_twist(field, t)
        # the automorphism is an involution that conjugates the cube roots,
        # so moving the character cancels the inversion
        assert index == 1 and char == t.character

    def test_inverse_of_outer_does_not_invert_the_character(self):
        group = cubic_klein_result().group
        field = group.field
        t = twist_at(group, 2)
        assert t.kind == "outer" and t.character.order() == 3
        kind, index, char = inverse_twist(field, t)
        # this automorphism fixes the cube roots: eta must come back as is,
        # since (tau, eta) o (tau, eta) = (id, eta^{-1} tau(eta)) = identity
        assert index == 2 and char == t.character


# ---------------------------------------------------------------------------
# planted systems: groups, characters, fixed fields, verdicts
# ---------------------------------------------------------------------------

class TestPlantedSystems:
    def test_unitary_transfer_has_one_outer_twist(self):
        sys_ = normalize(synth.vantop_system())
        res = detect(sys_, 100)
        group = res.group
        assert group.order == 2 and group.inner_order == 1
        assert is_identity(twist_at(group, 0))
        conj = twist_at(group, 1)
        assert conj.kind == "outer" and conj.character.is_trivial()
        assert group.has_outer()
        assert res.fixed.degree == 1
        assert res.fixed_inner.degree == 2
        assert tuple(res.fixed_inner.min_poly.coeffs) == (1, 0, 1)
        assert res.verdict.kind == "general-type"
        assert res.cent.inner_matches and res.cent.full_matches

    def test_generic_data_has_trivial_group(self):
        res = detect(synth.generic_system(), 100)
        assert res.group.order == 1
        assert not res.group.has_outer()
        assert res.verdict.kind == "general-type"
        assert res.fixed.degree == 2 and res.fixed_inner.degree == 2
        assert res.cent.inner_matches and res.cent.full_matches

    def test_rational_coefficients_give_all_inner_twists(self):
        res = detect(synth.rational_inner_system(), 100)
        group = res.group
        assert group.order == 2 and group.inner_order == 2
        assert all(t.kind == "inner" and t.character.is_trivial()
                   for t in group.twists)
        assert res.fixed.degree == 1 and res.fixed_inner.degree == 1
        assert res.verdict.kind == "general-type"

    def test_quartic_field_klein_group(self):
        res = klein_result()
        group = res.group
        assert group.order == 4 and group.inner_order == 2
        kinds = {t.aut_index: t.kind for t in group.twists}
        assert kinds == {0: "inner", 1: "outer", 2: "inner", 3: "outer"}
        assert all(t.character.is_trivial() for t in group.twists)
        assert res.fixed.degree == 1
        assert res.fixed_inner.degree == 2
        assert tuple(res.fixed_inner.min_poly.coeffs) == (-8, 0, 1)
        assert res.verdict.kind == "general-type"
        assert res.cent.inner_matches and res.cent.full_matches

    @pytest.mark.parametrize("seed", range(11, 16))
    def test_klein_group_across_seeds(self, seed):
        res = detect(synth.klein_system(bound=60, seed=seed), 60)
        kinds = {t.aut_index: t.kind for t in res.group.twists}
        assert kinds == {0: "inner", 1: "outer", 2: "inner", 3: "outer"}
        assert res.fixed_inner.degree == 2

    def test_planted_quadratic_character_on_rank_two(self):
        res = detect(synth.chi4_system(), 100)
        group = res.group
        assert group.order == 2 and not group.has_outer()
        chi = twist_at(group, 1).character
        assert chi.conductor() == 4 and chi.order() == 2
        assert char_eval(chi, 3) == -1 and char_eval(chi, 5) == 1
        assert res.verdict.kind == "essentially-self-dual"

    def test_planted_cubic_character(self):
        sys_ = synth.cubic_twist_system()
        res = detect(sys_, 100)
        chi = twist_at(res.group, 1).character
        assert chi.conductor() == 7 and chi.order() == 3
        zeta = sys_.field.gen()
        assert char_eval(chi, 3) == zeta
        assert char_eval(chi, 2) == zeta * zeta
        assert char_eval(chi, 13) == 1
        assert res.verdict.kind == "general-type"
        assert res.cent.inner_matches and res.cent.full_matches

    def test_quartic_field_group_with_cubic_characters(self):
        res = cubic_klein_result()
        group = res.group
        assert group.order == 4 and group.inner_order == 2
        shape = {t.aut_index: (t.kind, t.character.order())
                 for t in group.twists}
        assert shape == {0: ("inner", 1), 1: ("inner", 3),
                         2: ("outer", 3), 3: ("outer", 1)}
        # the two order-3 characters are mutually inverse cubic characters
        inner_chi = twist_at(group, 1).character
        outer_eta = twist_at(group, 2).character
        assert inner_chi.conductor() == 7 and outer_eta.conductor() == 7
        assert char_mul(inner_chi, outer_eta).is_trivial()
        assert res.fixed.degree == 1 and res.fixed_inner.degree == 2
        assert res.verdict.kind == "general-type"
        assert res.cent.inner_matches and res.cent.full_matches

    def test_mirrored_data_is_essentially_self_dual(self):
        res = detect(synth.selfdual_system(), 100)
        assert res.verdict.kind == "essentially-self-dual"
        assert res.verdict.witness.is_trivial()
        # the dual coincidence is a degeneracy, not an extra twist: the
        # group keeps only the inner part
        assert res.group.order == 1 and not res.group.has_outer()

    def test_vanishing_pattern_witnesses_a_self_twist(self):
        sys_ = synth.cm_system()
        res = detect(sys_, 200)
        assert res.verdict.kind == "self-twist"
        wit = res.verdict.witness
        assert wit.conductor() == 7 and wit.order() == 3
        # the witness is nontrivial exactly off the support of the data
        for v in sys_.places(200):
            if sys_.coeffs[v].a.is_zero():
                assert char_eval(wit, v) != 1
            else:
                assert char_eval(wit, v) == 1
        assert res.group.order == 2
        assert all(t.character.is_trivial() for t in res.group.twists)
        expected_undetermined = tuple(
            v for v in sys_.places(200) if sys_.coeffs[v].a.is_zero())
        for t in res.group.twists:
            assert t.undetermined_places == expected_undetermined

    def test_unmatched_dual_coefficient_flags_bound_insufficiency(self):
        res = detect(synth.drifting_coefficient_system(), 100)
        assert res.group.order == 1
        assert not res.cent.inner_matches
        assert res.cent.full_matches
        assert res.cent.inclusion_holds
        assert res.cent.b_insufficiency

    @pytest.mark.parametrize("make,bound", [
        (lambda: normalize(synth.vantop_system()), 100),
        (synth.generic_system, 100),
        (synth.rational_inner_system, 100),
        (synth.klein_system, 100),
        (synth.cubic_twist_system, 100),
        (synth.cubic_klein_system, 100),
        (synth.selfdual_system, 100),
        (synth.cm_system, 200),
    ])
    def test_structural_invariants_on_normalized_systems(self, make, bound):
        sys_ = make()
        res = detect(sys_, bound)
        group = res.group
        assert is_identity(twist_at(group, 0))
        one = sys_.field.one()
        for t in group.twists:
            assert t.verified_bound == bound
            # unit determinant forces every character to the n-th roots
            chi = t.character
            assert all(char_eval(chi, r) ** sys_.n == one
                       for r in range(chi.modulus) if gcd(r, chi.modulus) == 1)
            for v in t.undetermined_places:
                assert sys_.coeffs[v].a.is_zero()
        assert group.inner_order in (group.order, group.order // 2)
        expect = 2 if group.has_outer() else 1
        assert res.fixed_inner.degree == expect * res.fixed.degree


# ---------------------------------------------------------------------------
# the relation table
# ---------------------------------------------------------------------------

class TestRelationTable:
    """relations() does every field operation the scans need, sigma(x) once
    per automorphism sigma != 0 and distinct nonzero coefficient x; the
    three scans then only read it."""

    @pytest.mark.parametrize("name", BUILDERS)
    def test_scans_do_no_field_arithmetic(self, name):
        sys_, bound = _system(name), 100
        unit_roots(sys_.field)
        nonzero = {x.key for v in sys_.places(bound)
                   for x in (sys_.coeffs[v].a, sys_.coeffs[v].b)
                   if x is not None and not x.is_zero()}
        with mock.patch.object(NumberField, "_mul", autospec=True,
                               side_effect=NumberField._mul) as mul, \
                mock.patch.object(NumberField, "apply_aut", autospec=True,
                                  side_effect=NumberField.apply_aut) as aut:
            rel = relations(sys_, bound)
            assert aut.call_count == (sys_.field.degree - 1) * len(nonzero)
            mul.reset_mock()
            aut.reset_mock()
            for scan in (find_inner, general_type_verdict, find_outer):
                try:
                    scan(rel)
                except (TwistctlError, ValueError):
                    pass
        assert (mul.call_count, aut.call_count) == (0, 0)

    @pytest.mark.parametrize("make,bound,calls", [
        (cubic_klein_system, 100, 0), (synth.cm_system, 200, 1)])
    def test_the_self_twist_fit_runs_only_with_a_blank_place(self, make,
                                                             bound, calls):
        """Only a place where every relation reads 0 = 0 can witness a
        self-twist, so with none the verdict fits no candidate."""
        rel = relations(make(), bound)
        assert len(rel.undetermined) > 0 if calls else not rel.undetermined
        with mock.patch.object(twists, "fit_all",
                               wraps=twists.fit_all) as fits:
            verdict = general_type_verdict(rel)
        assert fits.call_count == calls
        if calls:
            assert verdict.kind == "self-twist"
            assert verdict.witness.conductor() == 7

    def test_detect_builds_one_table(self):
        with mock.patch.object(twists, "relations",
                               wraps=twists.relations) as built:
            detect(cubic_klein_system(), 100)
        assert built.call_count == 1


# ---------------------------------------------------------------------------
# guards and bounds
# ---------------------------------------------------------------------------

class TestDetectionGuards:
    def test_raw_rank_three_data_is_rejected(self):
        raw = synth.vantop_system()
        with pytest.raises(ValueError, match="normalize"):
            detect(raw, 100)
        with pytest.raises(ValueError, match="normalize"):
            find_inner(relations(raw, 100))
        with pytest.raises(ValueError, match="normalize"):
            general_type_verdict(relations(raw, 100))
        with pytest.raises(ValueError, match="normalized"):
            find_outer(relations(raw, 100))

    def test_outer_scan_rejects_rank_two(self):
        with pytest.raises(ValueError, match="n = 3"):
            find_outer(relations(synth.chi4_system(), 100))

    def test_too_few_determined_places(self):
        small = synth.generic_system(bound=20)
        with pytest.raises(InsufficientData):
            detect(small, 20)

    def test_verdict_raises_when_too_few_b_v_fit_the_dual(self):
        # b_v zeroed at three places in four leaves 6 of 23; the verdict's
        # outer fit on tau = 0 must refuse them as detect does, not call the
        # system general-type
        sys_ = synth.klein_system()
        zero = sys_.field.zero()
        thin = sys_._replace(coeffs={
            v: pd if i % 4 == 0 else pd._replace(b=zero)
            for i, (v, pd) in enumerate(sorted(sys_.coeffs.items()))})
        for run in (lambda s, b: general_type_verdict(relations(s, b)),
                    detect):
            with pytest.raises(InsufficientData,
                               match=r"^6 places have b_v != 0; "):
                run(thin, 100)

    def test_group_is_stable_under_bound_growth(self):
        at50 = detect(synth.klein_system(), 50)
        at100 = klein_result()
        key = lambda g: sorted((t.aut_index, t.kind, t.character)
                               for t in g.twists)
        assert key(at50.group) == key(at100.group)
        assert all(t.verified_bound == 50 for t in at50.group.twists)
        assert at50.verdict.kind == at100.verdict.kind

    def test_twist_lookup_fails_cleanly(self):
        group = klein_result().group
        with pytest.raises(KeyError):
            twist_at(group, 7)


# ---------------------------------------------------------------------------
# group assembly errors
# ---------------------------------------------------------------------------

class TestGroupAssembly:
    def test_duplicate_automorphism(self):
        field = synth.gaussian_field()
        triv = trivial_character(field)
        ident = _as_twist("inner", 0, triv)
        dual = _as_twist("outer", 0, triv)
        with pytest.raises(DuplicateAutomorphism):
            assemble_group([ident], [dual], field)

    def test_missing_identity(self):
        field = synth.sqrt2_field()
        lone = _as_twist("inner", 1, trivial_character(field))
        with pytest.raises(NotClosed, match="identity"):
            assemble_group([lone], [], field)

    def test_missing_composite(self):
        group = klein_result().group
        inners = [t for t in group.twists if t.kind == "inner"]
        outers = [t for t in group.twists if t.aut_index == 1]
        with pytest.raises(NotClosed, match="carries no"):
            assemble_group(inners, outers, group.field)

    def test_character_mismatch(self):
        # an order-4 character on an involution squares to a nontrivial
        # character on the identity, so {id, (sigma, chi)} cannot close
        field = synth.biquadratic_field()
        chi = dirichlet_character(field, 5, [synth.biq_i(field)])
        ident = _as_twist("inner", 0, trivial_character(field))
        bad = _as_twist("inner", 1, chi)
        with pytest.raises(NotClosed, match="character mismatch"):
            assemble_group([ident, bad], [], field)

    def test_kind_parity(self):
        field = synth.biquadratic_field()
        triv = trivial_character(field)
        inners = [_as_twist("inner", i, triv) for i in (0, 2, 3)]
        outers = [_as_twist("outer", 1, triv)]
        with pytest.raises(NotClosed, match="kind parity"):
            assemble_group(inners, outers, field)

    def test_fixed_fields_need_an_index_two_inner_field_beside_outers(self):
        # an outer twist whose inner subgroup is the whole group leaves
        # F_inn = F, which is not a quadratic extension
        field = synth.gaussian_field()
        whole = subgroup_make(field, range(field.degree))
        dual = _as_twist("outer", 1, trivial_character(field))
        group = TwistGroup(field, (dual,), whole, whole)
        with pytest.raises(NotClosed, match="quadratic"):
            fixed_fields(group)


# ---------------------------------------------------------------------------
# value-table characters over a non-rational base
# ---------------------------------------------------------------------------

def _cubic_twist_with_vanishing_a():
    """The cubic-twist system with a_v = 0 at every fifth place: there the
    inner character is read off b_v alone, and no outer twist fits."""
    sys_ = synth.cubic_twist_system()
    zero = sys_.field.zero()
    coeffs = {v: pd._replace(a=zero) if i % 5 == 0 else pd
              for i, (v, pd) in enumerate(sorted(sys_.coeffs.items()))}
    return sys_._replace(coeffs=coeffs)


class TestTableCharacters:
    """Relabelling the base field sends both scans down the value-table path,
    which reads each character off the data place by place.  The planted
    systems are over Q, so the Dirichlet scan is the reference: the same
    automorphisms must carry twists, with the same character values."""

    @pytest.mark.parametrize("make,bound", [
        (lambda: normalize(synth.vantop_system()), 100),
        (synth.klein_system, 100),
        (lambda: synth.cubic_klein_system(bound=60), 60),
        (synth.rational_inner_system, 100),
        (synth.generic_system, 100),
        (synth.selfdual_system, 100),
        (_cubic_twist_with_vanishing_a, 100),
    ])
    def test_table_scan_agrees_with_the_dirichlet_scan(self, make, bound):
        sys_ = make()
        relabelled = sys_._replace(base_field_label="K")
        for scan in (find_inner, find_outer):
            reference = {t.aut_index: t.character
                         for t in scan(relations(sys_, bound))}
            found = scan(relations(relabelled, bound))
            assert [t.aut_index for t in found] == sorted(reference)
            for t in found:
                if t.character.kind != "table":
                    continue
                chi = reference[t.aut_index]
                for v in t.character.exps:
                    assert char_eval(t.character, v) == char_eval(chi, v), (
                        scan, t.aut_index, v)

    @pytest.mark.parametrize("make,bound", [
        (synth.klein_system, 100),
        (lambda: normalize(synth.vantop_system()), 100),
        (lambda: synth.cubic_klein_system(bound=60), 60),
        (synth.rational_inner_system, 100),
    ])
    def test_detect_over_a_non_rational_base(self, make, bound):
        """Every twist, the identity included, carries a value table, so the
        group closes as it does over Q."""
        sys_ = make()
        reference = detect(sys_, bound)
        result = detect(sys_._replace(base_field_label="K"), bound)
        g, ref = result.group, reference.group
        assert [(t.kind, t.aut_index) for t in g.twists] == [
            (t.kind, t.aut_index) for t in ref.twists]
        assert (g.order, g.inner_order) == (ref.order, ref.inner_order)
        assert g.order > 1
        assert all(t.character.kind == "table" for t in g.twists)
        assert twist_at(g, 0).character.is_trivial()
        assert (result.fixed.degree, result.fixed_inner.degree) == (
            reference.fixed.degree, reference.fixed_inner.degree)
        assert result.verdict.kind == reference.verdict.kind


def _order_four_mod_five_system(field, one_minus_i):
    """Raw rank-2 data over Q(i) with a_v = c_v (1 - i)^k(v), c_v rational
    and 2^k(v) = v mod 5: conjugation multiplies (1 - i)^k by i^k, so it
    carries the order-4 character mod 5 sending 2 to i."""
    log2 = {1: 0, 2: 1, 4: 2, 3: 3}
    coeffs = {p: PlaceData(p, one_minus_i ** log2[p % 5] * (p % 7 + 1), None)
              for p in primes_up_to(100) if p not in (2, 5)}
    return EigenSystem(n=2, field=field, base_field_label="Q", m=1,
                       omega=None, bad_places=(2, 5), coeffs=coeffs)


class TestPresentation:
    def test_order_four_twist_survives_a_scaled_generator(self):
        # x^2 + 1 has alpha = i; x^2 + 1/4 has alpha = i/2, so 1 - i = 1 - 2 alpha
        found = []
        for poly, one_minus_i in (([1, 0, 1], [1, -1]),
                                  ([Q(1, 4), 0, 1], [1, -2])):
            K = field_make(poly, [[0, 1], [0, -1]])
            sys_ = _order_four_mod_five_system(K, K.element(one_minus_i))
            found.append([(t.aut_index, t.character.modulus,
                           t.character.order())
                          for t in find_inner(relations(sys_, 100))])
        assert found[0] == [(0, 1, 1), (1, 5, 4)]
        assert found[1] == found[0]


# ---------------------------------------------------------------------------
# the conductor bound
# ---------------------------------------------------------------------------

def _rank2_twisted_by(chi, bad, bound=150):
    """Raw rank-2 data over the field of chi with a_v = c_v u_k(v), c_v
    rational and chi(v) = zeta^k(v), where sigma(u_k) = zeta^k u_k for the
    automorphism sigma = 1, of order 2 with sigma(zeta) = 1/zeta:
    u_k = 1 + sigma(zeta^k), or alpha - sigma(alpha) when zeta^k = -1.
    sigma then carries the inner twist chi."""
    field = chi.field
    alpha = field.gen()
    units = [alpha - field.apply_aut(1, alpha) if z == -field.one()
             else field.one() + field.apply_aut(1, z)
             for z in unit_roots(field).powers]
    coeffs = {p: PlaceData(p, units[char_exponent(chi, p)] * (p % 7 + 1), None)
              for p in primes_up_to(bound) if p not in bad}
    return EigenSystem(n=2, field=field, base_field_label="Q", m=1,
                       omega=None, bad_places=bad, coeffs=coeffs)


class TestConductorBound:
    def test_the_bound_of_each_field_and_bad_set(self):
        rational = synth.rational_rank2_system()
        assert conductor_bound(rational._replace(bad_places=())) == 1
        assert conductor_bound(synth.rational_inner_system()) == 8
        assert conductor_bound(synth.generic_system()) == 16
        assert conductor_bound(synth.cm_system()) == 63
        assert conductor_bound(cubic_klein_system()) == 504
        assert conductor_bound(synth.klein_system()) == 96

    @pytest.mark.parametrize("field,modulus,gen_exps,bad", [
        (synth.sqrt2_field, 8, [0, 1], (2,)),      # q = 2, e = 2 + v_2(2)
        (synth.eisenstein_field, 9, [2], (3,)),   # q = 3, e = 1 + v_3(6)
        (synth.gaussian_field, 16, [0, 1], (2,)),  # order 4: e = 2 + v_2(4)
    ])
    def test_a_twist_at_the_edge_of_the_bound_is_found(self, field, modulus,
                                                        gen_exps, bad):
        chi = Character.dirichlet(field(), modulus, gen_exps)
        sys_ = _rank2_twisted_by(chi, bad)
        assert chi.conductor() == modulus == conductor_bound(sys_)
        group = detect(sys_, 150).group
        assert [t.aut_index for t in group.twists] == [0, 1]
        assert twist_at(group, 1).character == chi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_detection_json_is_deterministic(self):
        a = detection_to_json(detect(synth.klein_system(), 100))
        b = detection_to_json(detect(synth.klein_system(), 100))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_detection_json_shape(self):
        doc = detection_to_json(klein_result())
        assert doc["group_order"] == 4 and doc["inner_order"] == 2
        assert len(doc["twists"]) == 4
        assert {t["kind"] for t in doc["twists"]} == {"inner", "outer"}
        assert doc["fixed_field"] == {"min_poly": ["-1", "1"], "degree": 1}
        assert doc["inner_fixed_field"]["min_poly"] == ["-8", "0", "1"]
        assert doc["verdict"] == {"kind": "general-type", "witness": None}
        check = doc["coefficient_field_check"]
        assert check["inner_matches"] and check["full_matches"]
        assert not check["b_insufficiency"]
        assert doc["bound"] == 100

    def test_witness_serializes(self):
        doc = detection_to_json(detect(synth.cm_system(), 200))
        assert doc["verdict"]["kind"] == "self-twist"
        assert doc["verdict"]["witness"]["modulus"] == 7
