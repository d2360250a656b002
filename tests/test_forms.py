"""Cocycle validation, finite-field descent oracles, and form classification.

Every expected order below comes from a closed formula evaluated separately
from the fixed-point search: |SL_n(F_q)| = q^{n(n-1)/2} prod_{k=2..n}(q^k - 1)
and |SU_n(q)| = q^{n(n-1)/2} prod_{k=2..n}(q^k - (-1)^k), which gives
q(q^2-1), q^3(q^2-1)(q^3+1) and q^6(q^2-1)(q^3+1)(q^4-1).  The classification
dichotomies are quadratic reciprocity applied to the planted fixed fields
(p mod 4 over the Gaussian field, p mod 8 over the biquadratic one), so they
too are fixed in advance of the code under test.
"""

import dataclasses
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import forms_reference as ref
from detection_helpers import place_decomposition
from twistctl import forms, synth
from twistctl.eigensystem import normalize
from twistctl.errors import (
    BudgetExceeded,
    CocycleViolation,
    NotInvertible,
    Ramified,
    SchemaError,
)
from twistctl.finitefield import (
    finite_field,
    prime_power,
    special_linear,
    split_order,
    unitary_order,
)
from twistctl.numberfield import subgroup_make
from twistctl.twists import detect, detection_to_json


@lru_cache(maxsize=None)
def vantop_result():
    sys = normalize(synth.vantop_system())
    return sys, detect(sys, 100)


@lru_cache(maxsize=None)
def klein_result():
    sys = synth.klein_system()
    return sys, detect(sys, 100)


@lru_cache(maxsize=None)
def generic_result():
    sys = synth.generic_system()
    return sys, detect(sys, 100)


@lru_cache(maxsize=None)
def flip_cocycle(q, m, n):
    model = forms.finite_model(q, m, n)
    return model, forms.unitary_cocycle(model)


@lru_cache(maxsize=None)
def plain_cocycle(q, m, n):
    model = forms.finite_model(q, m, n)
    return model, forms.trivial_cocycle(forms.finite_model_context(model), n)


def gaussian_context():
    field = synth.gaussian_field()
    return field, forms.number_field_context(
        field, subgroup_make(field, range(field.degree)))


def rational_matrix(field, rows):
    return tuple(tuple(field.from_rational(Fraction(x)) for x in row)
                 for row in rows)


# ---------------------------------------------------------------------------
# finite-field tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_multiplication_table_is_the_product_mod_the_modulus(q):
    """Code c holds the base-p digits of a polynomial over GF(p); its
    products are sympy's product mod the field's modulus."""
    ff = finite_field(q)
    p, k = ff.p, ff.k
    x = sympy.symbols("x")
    modulus = sympy.Poly(ff.modulus[::-1], x, modulus=p)
    polys = [sympy.Poly([c // p ** i % p for i in range(k)][::-1], x,
                        modulus=p) for c in range(q)]
    for a in range(q):
        for b in range(q):
            rem = (polys[a] * polys[b]).rem(modulus).all_coeffs()[::-1]
            assert ff.mul_table[a][b] == sum(
                c % p * p ** i for i, c in enumerate(rem)), (a, b)


# ---------------------------------------------------------------------------
# matrix helpers over finite-field codes
# ---------------------------------------------------------------------------

F25 = finite_field(25)
RING = forms.finite_field_ring(F25)
matrices = st.lists(st.integers(0, 24), min_size=9, max_size=9).map(
    lambda v: (tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])))


class TestMatrixHelpers:

    @given(matrices, matrices)
    @settings(max_examples=60, deadline=None)
    def test_determinant_is_multiplicative(self, a, b):
        prod = forms.mat_mul(RING, a, b)
        assert forms.mat_det(RING, prod) == F25.mul(
            forms.mat_det(RING, a), forms.mat_det(RING, b))

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_inverse_is_a_two_sided_inverse(self, a):
        if forms.mat_det(RING, a) == 0:
            with pytest.raises(NotInvertible):
                forms.mat_inv(RING, a)
            return
        inv = forms.mat_inv(RING, a)
        ident = forms.mat_identity(RING, 3)
        assert forms.mat_mul(RING, a, inv) == ident
        assert forms.mat_mul(RING, inv, a) == ident

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_transpose_inverse_is_an_involution(self, a):
        if forms.mat_det(RING, a) == 0:
            return
        assert ref.mat_theta(RING, ref.mat_theta(RING, a)) == a

    @given(matrices, st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_scalar_multiples_are_recognized(self, a, lam):
        scaled = forms.mat_apply(lambda x: F25.mul(lam, x), a)
        nonzero = any(x for row in a for x in row)
        assert forms.mat_scalar_multiple(RING, scaled, a) == nonzero

    def test_shifted_matrix_is_not_a_scalar_multiple(self):
        a = ((1, 0), (0, 1))
        b = ((1, 1), (0, 1))
        assert not forms.mat_scalar_multiple(RING, b, a)
        assert forms.mat_scalar_multiple(RING, a, forms.mat_identity(RING, 2))
        assert not forms.mat_scalar_multiple(RING, b, forms.mat_identity(RING, 2))


# ---------------------------------------------------------------------------
# cocycle validation
# ---------------------------------------------------------------------------

class TestCocycleValidation:

    def test_flip_assignments_validate_over_even_towers(self):
        for q, m in ((2, 2), (3, 2), (2, 4)):
            model, cocycle = flip_cocycle(q, m, 2)
            assert cocycle.flip(1) and not cocycle.flip(0)

    def test_flip_assignment_needs_an_even_tower(self):
        model = forms.finite_model(2, 3, 2)
        with pytest.raises(ValueError, match="even"):
            forms.unitary_cocycle(model)

    def test_reflection_alpha_with_flip_validates(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        refl = rational_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        cocycle = forms.cocycle_make(ctx, {0: (ident, False), 1: (refl, True)})
        assert cocycle.flip(1)

    def test_rotation_alpha_validates_up_to_central_scalar(self):
        # alpha times the flipped image is -I, a nonzero scalar, so the
        # identity holds in the adjoint group even though it fails on the nose
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0], [0, 1]])
        rot = rational_matrix(field, [[0, 1], [-1, 0]])
        forms.cocycle_make(ctx, {0: (ident, False), 1: (rot, True)})

    def test_unipotent_alpha_fails_the_pair_identity(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        uni = rational_matrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(CocycleViolation, match=r"pair \(1, 1\)"):
            forms.cocycle_make(ctx, {0: (ident, False), 1: (uni, True)})

    def test_flip_parity_must_be_a_sign_homomorphism(self):
        model = forms.finite_model(2, 4, 2)
        ctx = forms.finite_model_context(model)
        ident = forms.mat_identity(ctx.ring, 2)
        flips = {0: False, 1: True, 2: True, 3: False}
        with pytest.raises(CocycleViolation, match="flip parity"):
            forms.cocycle_make(ctx, {j: (ident, flips[j]) for j in range(4)})

    def test_identity_element_must_be_scalar_and_unflipped(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0], [0, 1]])
        rot = rational_matrix(field, [[0, 1], [-1, 0]])
        with pytest.raises(CocycleViolation, match="identity"):
            forms.cocycle_make(ctx, {0: (ident, True), 1: (rot, False)})
        uni = rational_matrix(field, [[1, 1], [0, 1]])
        with pytest.raises(CocycleViolation, match="identity"):
            forms.cocycle_make(ctx, {0: (uni, False), 1: (rot, True)})

    def test_assignments_must_cover_the_group(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="cover"):
            forms.cocycle_make(ctx, {0: (ident, False)})

    def test_alphas_must_be_invertible(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0], [0, 1]])
        sing = rational_matrix(field, [[1, 1], [1, 1]])
        with pytest.raises(NotInvertible):
            forms.cocycle_make(ctx, {0: (ident, False), 1: (sing, True)})


# ---------------------------------------------------------------------------
# brute-force descent oracles
# ---------------------------------------------------------------------------

class TestFixedPointOracles:

    def test_embedded_base_gives_the_split_orders(self):
        for (q, n), want in [((2, 2), 6), ((3, 2), 24), ((4, 2), 60),
                             ((5, 2), 120), ((2, 3), 168), ((3, 3), 5616),
                             ((4, 3), 60480)]:
            model, cocycle = plain_cocycle(q, 1, n)
            got = forms.twisted_fixed_points(model, cocycle)
            assert got == want == split_order(q, n)

    def test_trivial_cocycle_descends_to_the_base_field(self):
        for q, n in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3)):
            model, cocycle = plain_cocycle(q, 2, n)
            assert forms.twisted_fixed_points(model, cocycle) == split_order(q, n)

    def test_flip_cocycle_gives_the_unitary_orders(self):
        for (q, n), want in [((2, 2), 6), ((3, 2), 24), ((4, 2), 60),
                             ((5, 2), 120), ((2, 3), 216)]:
            model, cocycle = flip_cocycle(q, 2, n)
            got = forms.twisted_fixed_points(model, cocycle)
            assert got == want == unitary_order(q, n)

    def test_enumeration_budget_is_enforced(self):
        with pytest.raises(BudgetExceeded):
            forms.finite_model(2, 4, 3)
        with pytest.raises(BudgetExceeded):
            forms.finite_model(7, 2, 2, budget=1000)

    def test_model_parameters_are_validated(self):
        with pytest.raises(ValueError, match="prime power"):
            forms.finite_model(6, 1, 2)
        with pytest.raises(ValueError):
            forms.finite_model(2, 0, 2)
        with pytest.raises(ValueError):
            forms.finite_model(2, 2, 1)

    def test_cocycle_and_model_must_agree(self):
        model, cocycle = flip_cocycle(2, 2, 2)
        other = forms.finite_model(3, 2, 2)
        with pytest.raises(ValueError, match="different model"):
            forms.twisted_fixed_points(other, cocycle)

    def test_base_change_walks_the_quartic_tower(self):
        # over F_16 / F_2 the alternating flip fixes a copy of SU_2(F_4 / F_2)
        # whose entries lie in F_4; enlarging the base to F_4 trivializes the
        # restricted cocycle and the group grows to the split SL_2(F_4)
        model, cocycle = flip_cocycle(2, 4, 2)
        full = set(forms.twisted_fixed_elements(model, cocycle))
        assert len(full) == 6
        sub_model, sub_cocycle = forms.base_change(model, cocycle, 2)
        assert (sub_model.q, sub_model.m) == (4, 2)
        sub = set(forms.twisted_fixed_elements(sub_model, sub_cocycle))
        assert len(sub) == 60 == split_order(4, 2)
        assert full <= sub

    def test_base_change_by_one_is_the_identity(self):
        model, cocycle = flip_cocycle(3, 2, 2)
        same_model, same = forms.base_change(model, cocycle, 1)
        assert same_model == model
        assert same.assignments == cocycle.assignments

    def test_base_change_needs_a_divisor_of_the_degree(self):
        model, cocycle = flip_cocycle(2, 4, 2)
        with pytest.raises(ValueError, match="divide"):
            forms.base_change(model, cocycle, 3)

    @pytest.mark.parametrize("q,m,n,flip,want", [
        (3, 2, 3, True, 6048), (2, 1, 4, False, 20160),
        (2, 2, 4, False, 20160), (2, 2, 4, True, 25920),
        (4, 2, 3, True, 62400)])
    def test_larger_shapes_meet_their_closed_forms(self, q, m, n, flip,
                                                   want):
        # n = 4 and the larger fields, each under a budget of exactly its
        # (q^m)^(n^2) candidates
        model = forms.finite_model(q, m, n, budget=(q ** m) ** (n * n))
        if flip:
            cocycle = forms.unitary_cocycle(model)
            assert want == unitary_order(q, n)
        else:
            cocycle = forms.trivial_cocycle(
                forms.finite_model_context(model), n)
            assert want == split_order(q, n)
        assert forms.twisted_fixed_points(model, cocycle) == want

    def test_base_change_walks_the_cubic_quartic_tower(self):
        # the 3 x 3 analogue of the quartic tower above: SU_3(F_4 / F_2)
        # inside SL_3(F_4), both with entries in F_4 inside F_16
        model = forms.finite_model(2, 4, 3, budget=16 ** 9)
        cocycle = forms.unitary_cocycle(model)
        full = forms.twisted_fixed_elements(model, cocycle)
        assert len(full) == 216 == unitary_order(2, 3)
        sub_model, sub_cocycle = forms.base_change(model, cocycle, 2)
        sub = forms.twisted_fixed_elements(sub_model, sub_cocycle)
        assert len(sub) == 60480 == split_order(4, 3)
        assert set(full) <= set(sub)

    def test_base_change_walks_the_sextic_tower(self):
        # over F_64 / F_2 the alternating flip fixes SU_2(F_4 / F_2); base
        # change by 2 leaves an odd degree m = 3 over F_4 on which every
        # restricted flip is off, so the group is the split SL_2(F_4), and
        # base change by 3 keeps the flip on the top quadratic step F_64 / F_8
        model = forms.finite_model(2, 6, 2, budget=2 ** 30)
        cocycle = forms.unitary_cocycle(model)
        full = set(forms.twisted_fixed_elements(model, cocycle))
        assert len(full) == 6 == unitary_order(2, 2)
        for d, shape, want in ((2, (4, 3, 2), split_order(4, 2)),
                               (3, (8, 2, 2), unitary_order(8, 2))):
            sub_model, sub_cocycle = forms.base_change(model, cocycle, d)
            assert (sub_model.q, sub_model.m, sub_model.n) == shape
            sub = set(forms.twisted_fixed_elements(sub_model, sub_cocycle))
            assert len(sub) == want
            assert full <= sub
        assert (split_order(4, 2), unitary_order(8, 2)) == (60, 504)

    def test_conjugated_cocycles_give_conjugate_fixed_groups(self):
        rng = random.Random(7)
        for q in (2, 3):
            model, cocycle = flip_cocycle(q, 2, 2)
            ff = model.extension()
            ring = forms.finite_field_ring(ff)
            fixed = set(forms.twisted_fixed_elements(model, cocycle))
            for _ in range(3):
                while True:
                    g = tuple(tuple(rng.randrange(ff.q) for _ in range(2))
                              for _ in range(2))
                    if forms.mat_det(ring, g) != 0:
                        break
                moved = forms.conjugate_cocycle(cocycle, g)
                moved_fixed = set(forms.twisted_fixed_elements(model, moved))
                g_inv = forms.mat_inv(ring, g)
                assert moved_fixed == {
                    forms.mat_mul(ring, forms.mat_mul(ring, g, h), g_inv)
                    for h in fixed}


def reference_fixed_elements(model, cocycle):
    """The generator's condition through the reference twisted image, which
    inverts each candidate under a flip."""
    image = ref.twisted_action(cocycle, 1)
    return tuple(g for g in special_linear(model.q ** model.m, model.n)
                 if image(g) == g)


def moved(cocycle, seed):
    """A cohomologous cocycle whose generator carries a non-scalar alpha."""
    ctx = cocycle.context
    ring = ctx.ring
    n = len(cocycle.alpha(1))
    rng = random.Random(seed)
    while True:
        g = tuple(tuple(rng.randrange(ctx.model.extension().q)
                        for _ in range(n)) for _ in range(n))
        if forms.mat_det(ring, g) == 0:
            continue
        fresh = forms.conjugate_cocycle(cocycle, g)
        if not forms.mat_scalar_multiple(ring, fresh.alpha(1),
                                         forms.mat_identity(ring, n)):
            return fresh


class TestFixedElementsAgainstTheInverseTest:

    @pytest.mark.parametrize("q,m,n", [(2, 2, 2), (3, 2, 2), (4, 2, 2),
                                       (2, 2, 3), (2, 4, 2)])
    def test_product_equations_match_the_twisted_image(self, q, m, n):
        _, trivial = plain_cocycle(q, m, n)
        model, unitary = flip_cocycle(q, m, n)
        for cocycle in (trivial, unitary, moved(trivial, q * n),
                        moved(unitary, q * n)):
            assert forms.twisted_fixed_elements(model, cocycle) == \
                reference_fixed_elements(model, cocycle)

    @pytest.mark.parametrize("q,m,n", [(2, 2, 2), (3, 2, 2), (4, 2, 2),
                                       (2, 2, 3), (2, 4, 2)])
    def test_more_conjugates_match_the_twisted_image(self, q, m, n):
        _, trivial = plain_cocycle(q, m, n)
        model, unitary = flip_cocycle(q, m, n)
        for seed in (q * n + 100, q * n + 200):
            for cocycle in (moved(trivial, seed), moved(unitary, seed)):
                assert forms.twisted_fixed_elements(model, cocycle) == \
                    reference_fixed_elements(model, cocycle)

    def test_base_changed_tower_matches_the_twisted_image(self):
        model, cocycle = forms.base_change(*flip_cocycle(2, 4, 2), 2)
        assert (model.q, model.m, model.n) == (4, 2, 2)
        for case in (cocycle, moved(cocycle, 4), moved(cocycle, 104),
                     moved(cocycle, 204)):
            assert forms.twisted_fixed_elements(model, case) == \
                reference_fixed_elements(model, case)

    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3),
                                     (3, 3)])
    def test_the_base_field_fixes_all_of_sl_n(self, q, n):
        # over m = 1 the generator is the identity and its alpha a scalar,
        # so the whole enumeration is the reference, order included
        model, trivial = plain_cocycle(q, 1, n)
        scalar = tuple(tuple(q - 1 if i == j else 0 for j in range(n))
                       for i in range(n))
        scaled = forms.cocycle_make(trivial.context, {0: (scalar, False)})
        for cocycle in (trivial, scaled):
            assert forms.twisted_fixed_elements(model, cocycle) == \
                special_linear(q, n)


# ---------------------------------------------------------------------------
# projection onto the identity component
# ---------------------------------------------------------------------------

class TestProjection:

    def test_valid_cocycles_pass_with_matching_counts(self):
        cases = [plain_cocycle(2, 1, 3), plain_cocycle(3, 2, 2),
                 flip_cocycle(2, 2, 2), flip_cocycle(2, 2, 3)]
        for model, cocycle in cases:
            report = forms.projection_iso_check(model, cocycle)
            assert report.passed
            assert report.tuple_order == report.source_order

    def test_trivial_cocycle_lands_on_the_diagonal_copy(self):
        model, cocycle = plain_cocycle(3, 2, 2)
        report = forms.projection_iso_check(model, cocycle)
        assert report.tuple_order == split_order(3, 2)

    def test_corrupted_assignment_fails_nonbijectively(self):
        model, cocycle = flip_cocycle(2, 4, 2)
        bad_assignments = dict(cocycle.assignments)
        bad_assignments[2] = (((1, 1), (0, 1)), False)
        with pytest.raises(CocycleViolation):
            forms.cocycle_make(cocycle.context, bad_assignments)
        bad = forms.Cocycle(cocycle.context, bad_assignments)
        report = forms.projection_iso_check(model, bad)
        assert not report.passed
        assert not report.lands_in_fixed_subset
        assert report.tuple_order < report.source_order

    def test_corrupted_identity_breaks_the_inversion(self):
        model, cocycle = flip_cocycle(2, 2, 2)
        bad_assignments = dict(cocycle.assignments)
        bad_assignments[0] = (((1, 1), (0, 1)), False)
        bad = forms.Cocycle(cocycle.context, bad_assignments)
        report = forms.projection_iso_check(model, bad)
        assert not report.passed
        assert not report.projection_inverts


# ---------------------------------------------------------------------------
# classification at good primes
# ---------------------------------------------------------------------------

class TestClassification:

    def test_gaussian_dichotomy_follows_p_mod_4(self):
        sys, result = vantop_result()
        for p in synth.primes_up_to(1000, exclude=(2,)):
            verdicts = forms.classify_place(sys.field, result.group, p, sys.n)
            assert len(verdicts) == 1
            want = "inner-split" if p % 4 == 1 else "outer-unitary"
            assert verdicts[0].form == want

    def test_group_labels_and_caveats(self):
        sys, result = vantop_result()
        split = forms.classify_place(sys.field, result.group, 13, sys.n)[0]
        assert split.group_label == "SL_3 (split)"
        assert split.split_caveat and not split.frobenius_ambiguous
        unitary = forms.classify_place(sys.field, result.group, 7, sys.n)[0]
        assert unitary.group_label == "SU_3 over quadratic extension"
        assert not unitary.split_caveat

    def test_biquadratic_dichotomy_follows_p_mod_8(self):
        sys, result = klein_result()
        for p in synth.primes_up_to(300, exclude=(2, 3)):
            verdicts = forms.classify_place(sys.field, result.group, p, sys.n)
            inner = all(v.form == "inner-split" for v in verdicts)
            assert inner == (p % 8 in (1, 7)), p

    def test_groups_without_outer_twists_are_everywhere_split(self):
        sys = synth.rational_inner_system()
        result = detect(sys, 100)
        assert not result.group.has_outer()
        for p in (3, 5, 7, 11, 13):
            verdicts = forms.classify_place(sys.field, result.group, p, sys.n)
            assert all(v.form == "inner-split" for v in verdicts)

    @pytest.mark.parametrize("make,places_above", [
        (generic_result, lambda p: 2 if p % 4 == 1 else 1),
        (vantop_result, lambda p: 1),
        (klein_result, lambda p: 1),
    ], ids=["generic", "vantop", "klein"])
    def test_place_shapes_match_the_subgroup_decomposition(self, make,
                                                           places_above):
        sys, result = make()
        subgroup = result.group.full_subgroup
        for p in (3, 5, 7, 11, 13, 17):
            if p in sys.bad_places:
                continue
            verdicts = forms.classify_place(sys.field, result.group, p, sys.n)
            places = place_decomposition(sys.field, subgroup, p)
            assert [(v.representative, v.residue_degree) for v in verdicts] \
                == [(w.representative, w.residue_degree) for w in places]
            assert len(verdicts) == places_above(p)

    def test_ramified_primes_raise(self):
        sys, result = vantop_result()
        with pytest.raises(Ramified):
            forms.classify_place(sys.field, result.group, 2, sys.n)


# ---------------------------------------------------------------------------
# the aggregated report
# ---------------------------------------------------------------------------

class TestImageReport:

    def test_conjugate_pair_system_predicts_dimension_nine(self):
        sys, result = vantop_result()
        report = forms.image_report(sys, result, [5, 7, 13])
        assert report.predicted_dimension == 9
        assert report.mt_upper_bound_dimension == 9

    def test_rational_rank2_system_predicts_dimension_four(self):
        sys = synth.rational_rank2_system()
        result = detect(sys, 100)
        report = forms.image_report(sys, result, [3, 5])
        assert report.predicted_dimension == 4

    def test_quadratic_rank2_system_predicts_dimension_seven(self):
        sys = synth.quadratic_rank2_system()
        result = detect(sys, 100)
        assert result.fixed.degree == 2
        report = forms.image_report(sys, result, [3, 11])
        assert report.predicted_dimension == 7

    def test_prediction_shrinks_as_the_twist_group_grows(self):
        vsys, vres = vantop_result()
        gsys, gres = generic_result()
        assert vres.group.order > gres.group.order
        big = forms.image_report(gsys, gres, [5])
        small = forms.image_report(vsys, vres, [5])
        assert small.predicted_dimension < big.predicted_dimension

    def test_every_requested_prime_is_classified_or_excluded(self):
        sys, result = vantop_result()
        report = forms.image_report(sys, result, [13, 2, 5])
        assert [p for p, _ in report.places] == [5, 13]
        assert report.excluded == ((2, "bad place of the input data"),)
        clean = dataclasses.replace(sys, bad_places=())
        report = forms.image_report(clean, result, [13, 2, 5])
        assert [p for p, _ in report.places] == [5, 13]
        assert report.excluded == ((2, "ramified in the coefficient field"),)
        assert forms.report_to_json(report)["excluded"] == {
            "2": "ramified in the coefficient field"}

    def test_report_writes_its_detection_as_the_twists_command_does(self):
        sys, result = klein_result()
        report = forms.image_report(sys, result, [5, 7])
        assert report.detection is result
        doc, det = forms.report_to_json(report), detection_to_json(result)
        assert doc["verdict"] == det["verdict"]["kind"]
        for key in ("group_order", "inner_order", "fixed_field",
                    "inner_fixed_field", "bound"):
            assert doc[key] == det[key], key

    def test_report_serializes_deterministically(self):
        sys, result = vantop_result()
        report = forms.image_report(sys, result, [13, 7, 5])
        doc = forms.report_to_json(report)
        again = forms.report_to_json(
            forms.image_report(sys, result, [5, 7, 13]))
        assert json.dumps(doc) == json.dumps(again)
        assert list(doc["primes"]) == ["5", "7", "13"]
        entry = doc["primes"]["13"][0]
        assert entry == {
            "representative": 0,
            "residue_degree": 1,
            "form": "inner-split",
            "group_label": "SL_3 (split)",
            "split_caveat": True,
            "frobenius_ambiguous": False,
        }
        assert doc["predicted_dimension"] == 9
        assert doc["fixed_field"] == {"min_poly": ["-1", "1"], "degree": 1}


# ---------------------------------------------------------------------------
# cocycle JSON
# ---------------------------------------------------------------------------

class TestCocycleSerialization:

    def test_model_cocycle_roundtrip(self):
        model, cocycle = flip_cocycle(3, 2, 2)
        doc = forms.cocycle_to_json(cocycle)
        back = forms.cocycle_from_json(doc)
        assert back.assignments == cocycle.assignments
        assert doc["model"] == {"q": 3, "m": 2, "n": 2}
        assert doc["assignments"]["1"]["flip"] is True

    def test_number_field_cocycle_roundtrip(self):
        field, ctx = gaussian_context()
        ident = rational_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        refl = rational_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        cocycle = forms.cocycle_make(ctx, {0: (ident, False), 1: (refl, True)})
        doc = forms.cocycle_to_json(cocycle)
        back = forms.cocycle_from_json(doc)
        assert back.assignments == cocycle.assignments
        assert doc["assignments"]["1"]["alpha"][2][2] == ["-1", "0"]

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(SchemaError):
            forms.cocycle_from_json({"assignments": {}})
        with pytest.raises(SchemaError):
            forms.cocycle_from_json({
                "model": {"q": 2, "m": 2, "n": 2},
                "assignments": {"0": {"alpha": [["x", "0"], ["0", "1"]],
                                      "flip": False}},
            })

    def test_deserialization_still_validates(self):
        doc = {
            "model": {"q": 2, "m": 2, "n": 2},
            "assignments": {
                "0": {"alpha": [[1, 0], [0, 1]], "flip": False},
                "1": {"alpha": [[1, 1], [0, 1]], "flip": True},
            },
        }
        with pytest.raises(CocycleViolation):
            forms.cocycle_from_json(doc)
