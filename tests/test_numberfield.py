"""Number-field layer: arithmetic, automorphism tables, Galois machinery.

Composition tables are cross-checked against an independent sympy oracle
(polynomial substitution reduced mod the defining polynomial), and place
decompositions against distinct-degree factorization of the modulus.
"""

import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from detection_helpers import place_decomposition
from twistctl.errors import (
    NotAnAutomorphism,
    NotClosed,
    NotInvertible,
    NotIrreducible,
    NotRootOfUnity,
    Ramified,
)
from twistctl import numberfield
from twistctl.polynomials import QPoly, ddf_mod_p
from twistctl.numberfield import (
    FieldElement,
    Subgroup,
    field_from_json,
    field_make,
    field_to_json,
    fixed_field,
    frobenius_at,
    generated_subgroup,
    roots_of_unity,
    stabilizer,
    subgroup_make,
    unit_roots,
)


# the product of two copies of Q(zeta_9)^+ and its six images, over 17
SEXTIC_PHI = [3, -9, -3, 13, -3, -3, 1]
SEXTIC_IMAGES = [[Q(c, 17) for c in img] for img in (
    [0, 17, 0, 0, 0, 0], [-6, -82, 5, 46, 2, -6],
    [-60, 200, 220, -220, -65, 42], [61, -73, -150, 116, 42, -24],
    [55, -172, -145, 162, 44, -30], [1, 110, 70, -104, -23, 18])]


def gaussian_field():
    """Q(i) with the identity and complex conjugation."""
    return field_make([1, 0, 1], [[0, 1], [0, -1]])


def eisenstein_field():
    """Q(w), w a primitive cube root of unity; w -> w^2 = -1 - w."""
    return field_make([1, 1, 1], [[0, 1], [-1, -1]])


def sqrt2_field():
    return field_make([-2, 0, 1], [[0, 1], [0, -1]])


def biquadratic_field():
    """Q(sqrt2, i), generator a = sqrt2 + i with a^4 - 2a^2 + 9 = 0.

    In the power basis: sqrt2 = (5a - a^3)/6 and i = (a + a^3)/6, so the
    four automorphisms send a to a, (-2a + a^3)/3, (2a - a^3)/3, -a
    (identity, negate sqrt2, negate i, negate both).
    """
    return field_make(
        [9, 0, -2, 0, 1],
        [[0, 1, 0, 0],
         [0, Q(-2, 3), 0, Q(1, 3)],
         [0, Q(2, 3), 0, Q(-1, 3)],
         [0, -1, 0, 0]])


def rational_field():
    """Q itself as a degree-1 field (modulus x, generator 0)."""
    return field_make([0, 1], [[0]])


ALL_FIELDS = [gaussian_field, eisenstein_field, sqrt2_field,
              biquadratic_field, rational_field]


def all_subgroups(field):
    """Every subgroup, by filtering subsets through the validator."""
    from itertools import combinations
    d = field.degree
    out = []
    rest = [i for i in range(d) if i != 0]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            try:
                out.append(subgroup_make(field, (0,) + extra))
            except NotClosed:
                pass
    return out


def sympy_compose_oracle(field):
    """Composition table computed independently: the image of the generator
    under sigma_i then sigma_j is e_j(e_i(x)) reduced mod the modulus."""
    x = sympy.symbols("x")
    def to_expr(coords):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                   for k, c in enumerate(coords))
    phi = sympy.Poly(to_expr(field.min_poly.coeffs), x, domain="QQ")
    images = [to_expr(img.coords) for img in field.aut_images]
    canon = [sympy.Poly(e, x, domain="QQ").rem(phi) for e in images]
    table = []
    for i in range(field.degree):
        row = []
        for j in range(field.degree):
            comp = sympy.Poly(images[j].subs(x, images[i]), x, domain="QQ").rem(phi)
            row.append(canon.index(comp))
        table.append(tuple(row))
    return tuple(table)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_gaussian_basics(self):
        K = gaussian_field()
        z = K.element([3, 2])
        assert K.apply_aut(1, z) == K.element([3, -2])
        assert z * K.apply_aut(1, z) == 13
        assert z.inverse() == K.element([Q(3, 13), Q(-2, 13)])
        assert (z * z.inverse()) == 1

    def test_biquadratic_structure(self):
        K = biquadratic_field()
        s2 = K.element([0, Q(5, 6), 0, Q(-1, 6)])
        i = K.element([0, Q(1, 6), 0, Q(1, 6)])
        assert s2 * s2 == 2
        assert i * i == -1
        assert (s2 * i) ** 2 == -2
        assert K.is_abelian
        assert sorted(generated_subgroup(K, [k]).order
                      for k in range(4)) == [1, 2, 2, 2]

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_composition_table_matches_sympy(self, make):
        K = make()
        assert K.composition_table == sympy_compose_oracle(K)

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_group_axioms(self, make):
        K = make()
        d = K.degree
        t = K.composition_table
        for i in range(d):
            assert t[0][i] == i and t[i][0] == i
            assert t[i][K.inverse_table[i]] == 0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert t[t[i][j]][k] == t[i][t[j][k]]

    def test_rejects_non_monic(self):
        with pytest.raises(NotIrreducible):
            field_make([1, 0, 2], [[0, 1], [0, -1]])

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            field_make([-1, 0, 1], [[0, 1], [0, -1]])

    def test_rejects_a_reducible_quadratic_with_a_closed_table(self):
        # x^2 - 3x + 2 = (x - 1)(x - 2), and alpha -> 3 - alpha permutes
        # its roots, so the table is closed
        with pytest.raises(NotIrreducible):
            field_make([2, -3, 1], [[0, 1], [3, -1]])

    def test_rejects_a_reducible_sextic_with_a_closed_abelian_table(self):
        # Phi = f(x) f(x - 1) with f = x^3 - 3x + 1: Q[x]/(Phi) is
        # Q(zeta_9)^+ twice over, and the six images, from (s^k, s^k) and
        # swap o (s^k, s^k) with s(theta) = theta^2 - 2, form a closed
        # abelian table of order 6
        with pytest.raises(NotIrreducible, match="factor"):
            field_make(SEXTIC_PHI, SEXTIC_IMAGES)

    def test_rejects_non_root_image(self):
        with pytest.raises(NotAnAutomorphism):
            field_make([1, 0, 1], [[0, 1], [1, 1]])

    def test_rejects_missing_identity(self):
        with pytest.raises(NotClosed):
            field_make([1, 0, 1], [[0, -1], [0, 1]])

    def test_rejects_duplicate_images(self):
        with pytest.raises(NotClosed):
            field_make([1, 0, 1], [[0, 1], [0, 1]])

    def test_zero_has_no_inverse(self):
        K = gaussian_field()
        with pytest.raises(NotInvertible):
            K.zero().inverse()

    def test_degree_one_field(self):
        K = rational_field()
        assert K.degree == 1
        a = K.from_rational(Q(7, 3))
        assert (a * a).as_fraction() == Q(49, 9)
        assert a.inverse().as_fraction() == Q(3, 7)
        assert frobenius_at(K, 5).index == 0

    def test_a_rational_element_hashes_as_its_fraction(self):
        K = gaussian_field()
        assert K.one() == 1 and hash(K.one()) == hash(1)
        assert len({K.one(), 1}) == 1
        assert {1: "x"}.get(K.one()) == "x"
        half = K.from_rational(Q(-1, 2))
        assert {Q(-1, 2): "h"}[half] == "h"
        assert hash(K.element([Q(1, 2), 3])) == hash(K.element(["1/2", 3]))

    def test_a_float_coordinate_is_refused(self):
        K = gaussian_field()
        with pytest.raises(TypeError):
            K.element([0.1, 0])
        with pytest.raises(TypeError):
            K.from_rational(0.5)

    def test_json_round_trip(self):
        K = biquadratic_field()
        K2 = field_from_json(field_to_json(K))
        assert K2.min_poly == K.min_poly
        assert K2.composition_table == K.composition_table
        assert [img.coords for img in K2.aut_images] == \
               [img.coords for img in K.aut_images]


# ---------------------------------------------------------------------------
# automorphisms as homomorphisms
# ---------------------------------------------------------------------------

small_coords = st.fractions(min_value=-5, max_value=5, max_denominator=4)


class TestAutomorphismAction:
    @given(st.lists(small_coords, min_size=4, max_size=4),
           st.lists(small_coords, min_size=4, max_size=4),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, xc, yc, k):
        K = biquadratic_field()
        x, y = K.element(xc), K.element(yc)
        s = lambda v: K.apply_aut(k, v)
        assert s(x + y) == s(x) + s(y)
        assert s(x * y) == s(x) * s(y)

    @given(st.lists(small_coords, min_size=4, max_size=4),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_composition_consistent_with_table(self, xc, i, j):
        K = biquadratic_field()
        x = K.element(xc)
        assert K.apply_aut(i, K.apply_aut(j, x)) == \
               K.apply_aut(K.compose(i, j), x)

    def test_generated_subgroup(self):
        K = biquadratic_field()
        assert generated_subgroup(K, [1]) == (0, 1)
        assert generated_subgroup(K, [1, 2]) == (0, 1, 2, 3)
        assert generated_subgroup(K, []) == (0,)

    def test_subgroup_validation(self):
        K = biquadratic_field()
        assert subgroup_make(K, [0, 3]).order == 2
        with pytest.raises(NotClosed):
            subgroup_make(K, [1, 2])       # no identity
        with pytest.raises(NotClosed):
            subgroup_make(K, [0, 1, 2])    # not closed, bad order


# ---------------------------------------------------------------------------
# stabilizers and fixed fields
# ---------------------------------------------------------------------------

class TestGaloisCorrespondence:
    def test_stabilizers(self):
        K = biquadratic_field()
        s2 = K.element([0, Q(5, 6), 0, Q(-1, 6)])
        i = K.element([0, Q(1, 6), 0, Q(1, 6)])
        assert stabilizer(K, [s2]) == (0, 2)
        assert stabilizer(K, [i]) == (0, 1)
        assert stabilizer(K, [K.gen()]) == (0,)
        assert stabilizer(K, [K.one()]) == (0, 1, 2, 3)
        assert stabilizer(K, [s2, i]) == (0,)

    def test_fixed_field_sqrt2(self):
        K = biquadratic_field()
        d = fixed_field(K, subgroup_make(K, [0, 2]))
        assert d.degree == 2
        assert d.min_poly == QPoly([-8, 0, 1])    # primitive element 2*sqrt2

    def test_fixed_field_gaussian_part(self):
        K = biquadratic_field()
        d = fixed_field(K, subgroup_make(K, [0, 1]))
        assert d.degree == 2
        assert d.min_poly == QPoly([4, 0, 1])     # primitive element 2i

    def test_fixed_field_sqrt_minus2(self):
        K = biquadratic_field()
        d = fixed_field(K, subgroup_make(K, [0, 3]))
        assert d.degree == 2
        assert d.min_poly == QPoly([36, -4, 1])   # primitive element 2 + 4*sqrt(-2)

    def test_fixed_field_extremes(self):
        K = biquadratic_field()
        full = fixed_field(K, subgroup_make(K, range(4)))
        assert full.degree == 1 and full.min_poly == QPoly([-1, 1])
        triv = fixed_field(K, subgroup_make(K, [0]))
        assert triv.degree == 4 and triv.min_poly == K.min_poly

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_correspondence_round_trip(self, make):
        K = make()
        for S in all_subgroups(K):
            d = fixed_field(K, S)
            assert d.degree * S.order == K.degree
            assert stabilizer(K, [d.primitive_element]) == S
            assert d.min_poly.evaluate(d.primitive_element).is_zero()


# ---------------------------------------------------------------------------
# Frobenius elements and places
# ---------------------------------------------------------------------------

def odd_primes(bound):
    sieve = [True] * bound
    out = []
    for n in range(3, bound, 2):
        if sieve[n]:
            out.append(n)
            for m in range(n * n, bound, n):
                sieve[m] = False
    return out


class TestFrobenius:
    def test_gaussian_pointwise(self):
        K = gaussian_field()
        assert frobenius_at(K, 5) == (0, False)
        assert frobenius_at(K, 13) == (0, False)
        assert frobenius_at(K, 3) == (1, False)
        assert frobenius_at(K, 7) == (1, False)
        with pytest.raises(Ramified):
            frobenius_at(K, 2)

    def test_gaussian_law_mod_four(self):
        K = gaussian_field()
        for p in odd_primes(1000):
            expected = 0 if p % 4 == 1 else 1
            assert frobenius_at(K, p).index == expected, p

    def test_eisenstein_law_mod_three(self):
        K = eisenstein_field()
        for p in odd_primes(500):
            if p == 3:
                continue
            assert frobenius_at(K, p).index == (0 if p % 3 == 1 else 1), p

    def test_biquadratic_pointwise(self):
        K = biquadratic_field()
        assert frobenius_at(K, 17).index == 0    # 17 = 1 mod 8, splits
        assert frobenius_at(K, 7).index == 2     # fixes sqrt2, negates i
        assert frobenius_at(K, 5).index == 1     # fixes i, negates sqrt2
        assert frobenius_at(K, 23).index == 2    # 23 = 7 mod 8
        assert frobenius_at(K, 41).index == 0
        with pytest.raises(Ramified):
            frobenius_at(K, 2)
        with pytest.raises(Ramified):
            frobenius_at(K, 3)   # 3 divides the model discriminant

    def test_a_model_that_does_not_reduce_is_ramified(self):
        """disc(x^2 + 1/4) = -1, yet the model has no reduction mod 2."""
        K = field_make([Q(1, 4), 0, 1], [[0, 1], [0, -1]])
        with pytest.raises(Ramified):
            frobenius_at(K, 2)
        assert frobenius_at(K, 5) == (0, False)
        assert frobenius_at(K, 3) == (1, False)

    @pytest.mark.parametrize("make", [gaussian_field, eisenstein_field,
                                      sqrt2_field, biquadratic_field])
    def test_places_match_factorization(self, make):
        """Residue degrees of places over the trivial subgroup must agree
        with distinct-degree factorization of the modulus mod p."""
        K = make()
        triv = subgroup_make(K, [0])
        for p in odd_primes(200):
            try:
                places = place_decomposition(K, triv, p)
            except Ramified:
                continue
            mine = sorted(pl.residue_degree for pl in places)
            degs = ddf_mod_p(K.min_poly, p)
            expected = sorted(d for d, c in degs for _ in range(c))
            assert mine == expected, (p, mine, expected)

    def test_gaussian_places(self):
        K = gaussian_field()
        triv = subgroup_make(K, [0])
        assert [pl.residue_degree for pl in place_decomposition(K, triv, 13)] == [1, 1]
        assert [pl.residue_degree for pl in place_decomposition(K, triv, 7)] == [2]

    def test_subfield_places(self):
        K = biquadratic_field()
        sqrt2_group = subgroup_make(K, [0, 2])   # fixed field Q(sqrt2)
        assert [pl.residue_degree
                for pl in place_decomposition(K, sqrt2_group, 7)] == [1, 1]
        assert [pl.residue_degree
                for pl in place_decomposition(K, sqrt2_group, 5)] == [2]
        full = subgroup_make(K, range(4))        # fixed field Q
        assert [pl.residue_degree
                for pl in place_decomposition(K, full, 7)] == [1]

    def test_place_degrees_of_a_non_subgroup_do_not_close(self):
        K = biquadratic_field()
        with pytest.raises(NotClosed, match="sum"):
            place_decomposition(K, Subgroup((0, 1, 2)), 7)


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

class TestRootsOfUnity:
    def test_counts(self):
        assert len(roots_of_unity(gaussian_field())) == 4
        assert len(roots_of_unity(eisenstein_field())) == 6
        assert len(roots_of_unity(sqrt2_field())) == 2
        assert len(roots_of_unity(biquadratic_field())) == 8
        assert len(roots_of_unity(rational_field())) == 2

    def test_gaussian_contents(self):
        K = gaussian_field()
        got = {mu.coords for mu in roots_of_unity(K)}
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_split_primes_skip_bad_reductions(self):
        # x^2 + 1/4 has a denominator at 2, and Q(i) splits exactly at the
        # primes 1 mod 4
        K = field_make([Q(1, 4), 0, 1], [[0, 1], [0, -1]])
        split = K.split_primes
        assert split and 2 not in split
        assert all(p % 4 == 1 for p in split)

    def test_all_verified(self):
        K = biquadratic_field()
        for mu in roots_of_unity(K):
            assert mu ** 8 == K.one()

    def test_denominators_in_the_minimal_polynomial(self):
        # alpha = i/2 is a root of x^2 + 1/4, so i has coordinates (0, 2)
        K = field_make([Q(1, 4), 0, 1], [[0, 1], [0, -1]])
        got = {mu.coords for mu in roots_of_unity(K)}
        assert got == {(1, 0), (-1, 0), (0, 2), (0, -2)}

    def test_sympy_stays_unloaded_when_no_order_can_occur(self):
        # Q(sqrt 5) splits at primes +-1 mod 5 only, so no k >= 3 divides
        # p - 1 at every split prime and there is nothing to search for
        script = ("import sys\n"
                  "from twistctl.numberfield import field_make, unit_roots\n"
                  "K = field_make([-1, -1, 1], [[0, 1], [1, -1]])\n"
                  "assert unit_roots(K).order == 2\n"
                  "assert 'sympy' not in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_a_candidate_inside_the_trace_bounds_is_still_verified(
            self, monkeypatch):
        # Q(sqrt 11) at its first split prime 5 = 1 mod 4: the one
        # homomorphism onto (Z/4)^x gives the traces (0, 9), inside the
        # bounds (2, 24); they rebuild 9 sqrt11 / 22, which zeta^4 = 1
        # rejects, so the exact check must have run
        K = field_make([-11, 0, 1], [[0, 1], [0, -1]])
        assert K.split_primes[0] == 5
        power, checked = FieldElement.__pow__, []

        def spy(x, e):
            checked.append((x.coords, e))
            return power(x, e)

        monkeypatch.setattr(FieldElement, "__pow__", spy)
        assert numberfield._root_of_largest_order(K, [4]) is None
        assert checked == [((0, Q(9, 22)), 4)]

    def test_odd_degree_needs_no_split_prime(self, monkeypatch):
        # phi(k) is even for k >= 3, so an odd degree leaves no order to
        # search and the answer +-1 stands without one
        K = field_make([-1, -2, 1, 1], [[0, 1, 0], [-2, 0, 1], [1, -1, -1]])
        monkeypatch.setattr(K, "split_primes", [])
        assert [mu.coords for mu in roots_of_unity(K)] == [(-1, 0, 0), (1, 0, 0)]

    @pytest.mark.parametrize("make", [gaussian_field, eisenstein_field,
                                      sqrt2_field, biquadratic_field,
                                      rational_field])
    def test_unit_roots_are_the_powers_of_one_generator(self, make):
        K = make()
        mu = unit_roots(K)
        assert unit_roots(K) is mu
        assert mu.order == len(roots_of_unity(K))
        zeta = mu.powers[1 % mu.order]
        assert sorted(z.coords for z in mu.powers) == sorted(
            z.coords for z in roots_of_unity(K))
        for k, z in enumerate(mu.powers):
            assert z == zeta ** k
            assert mu.exponent(z) == k
            assert mu.order_of(k) == min(j for j in range(1, mu.order + 1)
                                         if z ** j == K.one())
        for i in range(K.degree):
            assert K.apply_aut(i, zeta) == zeta ** mu.aut_mult[i]
        with pytest.raises(NotRootOfUnity):
            mu.exponent(K.from_rational(2))

    @pytest.mark.parametrize("make", [gaussian_field, eisenstein_field,
                                      biquadratic_field, rational_field])
    def test_unit_roots_reads_what_the_search_left(self, make, monkeypatch):
        K = make()
        roots_of_unity(K)

        def refuse(self, x, y):
            raise AssertionError("a field product was computed")

        monkeypatch.setattr(numberfield.NumberField, "_mul", refuse)
        mu = unit_roots(K)
        assert mu.order == len(mu.powers) == len(mu.log)
