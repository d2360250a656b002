"""Character layer: unit groups, evaluation, transforms, products, fitting.

The unit-group decomposition is checked against a brute-force enumeration,
and the fitting search against hand-computed tables (including one where no
character of small modulus exists and one that is genuinely ambiguous).
"""

import hashlib
from fractions import Fraction as Q
from itertools import product
from math import gcd, lcm

import pytest

from twistctl.errors import (
    Ambiguous,
    IncompatibleSupports,
    MissingValue,
    NotCoprime,
    NotRootOfUnity,
    SchemaError,
)
from twistctl.numberfield import field_make, unit_roots
from twistctl import characters, synth
from twistctl.characters import (
    Character,
    char_eval,
    char_fit,
    char_from_json,
    char_to_json,
    char_transform,
    dirichlet_character,
    fit_all,
    table_character,
    trivial_character,
    unit_group_structure,
)
from test_fit_reference import primitive


def char_mul(a, b):
    """characters.char_mul, with the primitive() of every Dirichlet product
    checked against Character.dirichlet at the conductor."""
    product = characters.char_mul(a, b)
    if product.kind == "dirichlet":
        primitive(product)
    return product


def gaussian_field():
    return field_make([1, 0, 1], [[0, 1], [0, -1]])


def biquadratic_field():
    return field_make(
        [9, 0, -2, 0, 1],
        [[0, 1, 0, 0],
         [0, Q(-2, 3), 0, Q(1, 3)],
         [0, Q(2, 3), 0, Q(-1, 3)],
         [0, -1, 0, 0]])


def primes_upto(bound):
    return [p for p in range(2, bound) if all(p % k for k in range(2, p))]


def euler_phi(n):
    return sum(1 for v in range(1, n + 1) if gcd(v, n) == 1)


# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

class TestUnitGroup:
    def test_frozen_examples(self):
        assert unit_group_structure(1) == []
        assert unit_group_structure(2) == []
        assert unit_group_structure(4) == [(3, 2)]
        assert unit_group_structure(8) == [(7, 2), (5, 2)]
        assert unit_group_structure(15) == [(11, 2), (7, 4)]

    def test_generators_are_frozen(self):
        """The generators key every values_on_generators map in the JSON,
        so they must not move: those for N <= 2000 hash to the recorded
        digest."""
        listing = repr([unit_group_structure(N) for N in range(1, 2001)])
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "b19d89f86ea6953f04314cdc14574f8d0821b7a9019c0e933cadd80f90111e8e")

    @pytest.mark.parametrize("N", range(1, 101))
    def test_generates_all_units_exactly_once(self, N):
        gens = unit_group_structure(N)
        sizes = 1
        for g, d in gens:
            assert gcd(g, N) == 1
            assert pow(g, d, N) == 1
            for q in {f for f in range(2, d + 1) if d % f == 0 and
                      all(f % k for k in range(2, f))}:
                assert pow(g, d // q, N) != 1, (N, g, d)
            sizes *= d
        assert sizes == euler_phi(N)
        from itertools import product
        seen = set()
        for exps in product(*(range(d) for _, d in gens)):
            r = 1 % N
            for (g, _), e in zip(gens, exps):
                r = r * pow(g, e, N) % N
            seen.add(r)
        assert seen == {v % N for v in range(1, N + 1) if gcd(v, N) == 1}


# ---------------------------------------------------------------------------
# evaluation, transforms, products
# ---------------------------------------------------------------------------

class TestEvalAndAlgebra:
    def test_trivial(self):
        K = gaussian_field()
        chi = trivial_character(K)
        for v in [2, 3, 97]:
            assert char_eval(chi, v) == 1
        assert chi.is_trivial() and chi.order() == 1 and chi.conductor() == 1

    def test_mod4_quadratic(self):
        K = gaussian_field()
        chi = dirichlet_character(K, 4, [K.from_rational(-1)])
        assert char_eval(chi, 7) == -1
        assert char_eval(chi, 13) == 1
        assert chi.order() == 2 and chi.conductor() == 4
        with pytest.raises(NotCoprime):
            char_eval(chi, 6)

    def test_order_four_table(self):
        K = gaussian_field()
        i = K.element([0, 1])
        chi = dirichlet_character(K, 5, [i])
        got = {r: char_eval(chi, r).coords for r in range(1, 5)}
        assert got == {1: (1, 0), 2: (0, 1), 3: (0, -1), 4: (-1, 0)}
        assert chi.order() == 4

    def test_value_table_kind(self):
        K = gaussian_field()
        chi = table_character(K, {3: K.element([0, 1]), 7: K.from_rational(-1)})
        assert char_eval(chi, 3) == K.element([0, 1])
        with pytest.raises(MissingValue):
            char_eval(chi, 11)

    def test_value_table_rejects_values_off_the_roots_of_unity(self):
        K = gaussian_field()
        with pytest.raises(NotRootOfUnity):
            table_character(K, {3: K.element([0, Q(1, 2)])})

    def test_rejects_bad_generator_image(self):
        K = gaussian_field()
        with pytest.raises(NotRootOfUnity):
            dirichlet_character(K, 4, [K.from_rational(2)])
        with pytest.raises(NotRootOfUnity):
            dirichlet_character(K, 4, [K.element([0, 1])])   # i has order 4, not 2

    @pytest.mark.parametrize("make", [gaussian_field, synth.eisenstein_field])
    @pytest.mark.parametrize("modulus", [1, 5, 8, 12, 15, 16, 21, 24, 40, 63])
    def test_refuses_what_the_generator_check_refuses(self, make, modulus):
        """The walk of residue_table refuses exactly the exponents the check
        d_i k_i = 0 mod w, generator by generator, refused, and a character
        it builds sends each generator to its exponent."""
        K = make()
        w = unit_roots(K).order
        gens = unit_group_structure(modulus)
        for exps in product(range(w), repeat=len(gens)):
            if any(d * k % w for (_, d), k in zip(gens, exps)):
                with pytest.raises(NotRootOfUnity):
                    Character.dirichlet(K, modulus, exps)
            else:
                chi = Character.dirichlet(K, modulus, exps)
                assert [chi.exps[g] for g, _ in gens] == list(exps)

    @pytest.mark.parametrize("modulus,exponents", [
        (8, [2]), (8, [0, 2, 0]), (1, [0]), (5, [])])
    def test_rejects_exponents_of_the_wrong_length(self, modulus, exponents):
        """zip would read a short list as a table on part of (Z/N)^x."""
        K = gaussian_field()
        with pytest.raises(ValueError, match="generator exponents"):
            Character.dirichlet(K, modulus, exponents)

    def test_transform_fixes_quadratic(self):
        K = gaussian_field()
        chi = dirichlet_character(K, 4, [K.from_rational(-1)])
        assert char_transform(K, 1, chi) == chi
        assert char_transform(K, 0, chi) == chi

    def test_transform_inverts_order_four(self):
        K = gaussian_field()
        chi = dirichlet_character(K, 5, [K.element([0, 1])])
        conj = char_transform(K, 1, chi)
        assert conj == char_mul(chi, char_mul(chi, chi))   # chi^{-1} = chi^3
        assert conj == chi.inverse()
        assert conj != chi

    def test_transform_composes_along_table(self):
        K = biquadratic_field()
        i = K.element([0, Q(1, 6), 0, Q(1, 6)])
        chi = dirichlet_character(K, 5, [i])
        for a in range(4):
            for b in range(4):
                lhs = char_transform(K, a, char_transform(K, b, chi))
                rhs = char_transform(K, K.compose(a, b), chi)
                assert lhs == rhs

    def test_mul_identity_and_involution(self):
        K = gaussian_field()
        chi = dirichlet_character(K, 4, [K.from_rational(-1)])
        assert char_mul(chi, trivial_character(K)) == chi
        assert char_mul(chi, chi) == trivial_character(K)

    def test_mul_crt(self):
        K = gaussian_field()
        chi4 = dirichlet_character(K, 4, [K.from_rational(-1)])
        chi3 = dirichlet_character(K, 3, [K.from_rational(-1)])
        prod = char_mul(chi4, chi3)
        assert prod.modulus == 12 and prod.conductor() == 12
        for p in primes_upto(50):
            if p in (2, 3):
                continue
            assert char_eval(prod, p) == char_eval(chi4, p) * char_eval(chi3, p)

    def test_mul_is_commutative_and_associative(self):
        K = gaussian_field()
        i = K.element([0, 1])
        a = dirichlet_character(K, 5, [i])
        b = dirichlet_character(K, 4, [K.from_rational(-1)])
        c = dirichlet_character(K, 3, [K.from_rational(-1)])
        assert char_mul(a, b) == char_mul(b, a)
        assert char_mul(char_mul(a, b), c) == char_mul(a, char_mul(b, c))

    def test_mul_incompatible(self):
        K = gaussian_field()
        tab = table_character(K, {3: K.one()})
        other = table_character(K, {5: K.one()})
        with pytest.raises(IncompatibleSupports):
            char_mul(tab, other)
        with pytest.raises(IncompatibleSupports):
            char_mul(tab, trivial_character(K))

    def test_induced_character_equals_primitive(self):
        K = gaussian_field()
        chi4 = dirichlet_character(K, 4, [K.from_rational(-1)])
        induced = char_mul(chi4, trivial_character(K))
        lifted = dirichlet_character(
            K, 12, [char_eval(chi4, g) for g, _ in unit_group_structure(12)])
        assert lifted.modulus == 12
        assert lifted.conductor() == 4
        assert lifted == chi4
        assert lifted.primitive().modulus == 4
        assert induced == chi4

    def test_values_satisfy_order(self):
        K = gaussian_field()
        for chi in [dirichlet_character(K, 5, [K.element([0, 1])]),
                    dirichlet_character(K, 8, [K.from_rational(-1), K.one()]),
                    trivial_character(K)]:
            n = chi.order()
            for r in range(chi.modulus):
                if gcd(r, chi.modulus) == 1:
                    assert char_eval(chi, r) ** n == 1


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def exponents(K, values):
    """The fit's input: each root of unity as its exponent of zeta."""
    mu = unit_roots(K)
    return {v: mu.exponent(x) for v, x in values.items()}


class TestFitting:
    def test_legendre_mod_four(self):
        # the second case is the conductor bound of data over Q(i) with the
        # bad primes 2 to 13, 16 * 3 * 5 * 7 * 11 * 13, at two places: 64
        # characters fit there, but only the one of conductor 4 is built
        K = gaussian_field()
        for places, N, order_bound in (
                ([p for p in primes_upto(50) if p != 2], 12, 2),
                ([101, 103], 240240, 4)):
            vals = {p: K.from_rational(1 if p % 4 == 1 else -1)
                    for p in places}
            chi = char_fit(exponents(K, vals), N, order_bound, K)
            assert chi is not None
            assert chi.conductor() == 4 and chi.order() == 2
            assert char_eval(chi, 3) == -1

    def test_all_ones_gives_trivial(self):
        # the second case is the conductor bound of data over Q(i) with the
        # bad primes 2 to 17, 16 * 3 * 5 * 7 * 11 * 13 * 17, at the 13
        # places from 41 to 97
        K = gaussian_field()
        for places, N, order_bound in (
                ([p for p in primes_upto(50) if p != 2], 12, 2),
                ([p for p in primes_upto(100) if p > 40], 4084080, 4)):
            exps = exponents(K, dict.fromkeys(places, K.one()))
            assert fit_all(exps, N, order_bound, K) == [trivial_character(K)]
            chi = char_fit(exps, N, order_bound, K)
            assert chi == trivial_character(K) and chi.conductor() == 1

    def test_no_character_fits(self):
        K = gaussian_field()
        one, mone = K.one(), K.from_rational(-1)
        assert char_fit(exponents(K, {3: one, 7: mone, 11: one, 17: mone}),
                        8, 2, K) is None

    def test_ambiguous_pair_of_quartic_characters(self):
        # 19 and 29 are 4 mod 5, where both order-4 characters mod 5 take the
        # value -1; nothing of smaller conductor dividing 40 matches.
        K = gaussian_field()
        mone = K.from_rational(-1)
        with pytest.raises(Ambiguous):
            char_fit(exponents(K, {19: mone, 29: mone}), 40, 4, K)

    def test_order_bound_disambiguates(self):
        K = gaussian_field()
        mone = K.from_rational(-1)
        chi = char_fit(exponents(K, {19: mone, 29: mone}), 8, 2, K)
        assert chi.conductor() == 8 and chi.order() == 2
        assert char_eval(chi, 3) == -1
        assert char_eval(chi, 5) == -1
        assert char_eval(chi, 7) == 1

    def test_determined_place_excludes_modulus(self):
        # a nonzero ratio at v = 3 rules out every modulus divisible by 3
        K = gaussian_field()
        fits = fit_all(exponents(K, {3: K.from_rational(-1)}), 12, 2, K)
        assert all(f.modulus % 3 != 0 for f in fits)

    def test_not_root_of_unity(self):
        K = gaussian_field()
        with pytest.raises(NotRootOfUnity):
            char_fit(exponents(K, {3: K.from_rational(2)}), 8, 4, K)
        with pytest.raises(NotRootOfUnity):
            # order 4 above the bound
            char_fit(exponents(K, {3: K.element([0, 1])}), 8, 2, K)

    @pytest.mark.parametrize("modulus,images_spec", [
        (4, [-1]), (3, [-1]), (8, [-1, 1]), (8, [1, -1]), (8, [-1, -1]),
        (5, ["i"]), (12, [-1, -1]), (16, [-1, "i"]),
    ])
    def test_round_trip_recovery(self, modulus, images_spec):
        K = gaussian_field()
        i = K.element([0, 1])
        images = [i if s == "i" else K.from_rational(s) for s in images_spec]
        chi = dirichlet_character(K, modulus, images)
        vals = {p: char_eval(chi, p) for p in primes_upto(200)
                if gcd(p, modulus) == 1}
        got = char_fit(exponents(K, vals), lcm(modulus, 4), 4, K)
        assert got == chi.primitive()
        for p, v in vals.items():
            assert char_eval(got, p) == v


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestJson:
    def test_dirichlet_round_trip(self):
        K = gaussian_field()
        chi = dirichlet_character(K, 5, [K.element([0, 1])])
        doc = char_to_json(chi)
        assert doc == {"kind": "dirichlet", "modulus": 5,
                       "values_on_generators": {"2": ["0", "1"]}}
        back = char_from_json(K, doc)
        assert back == chi and char_to_json(back) == doc

    def test_table_round_trip(self):
        # i = (theta + theta^3)/6 has fractional coordinates
        K = biquadratic_field()
        chi = table_character(K, {3: K.element([0, Q(1, 6), 0, Q(1, 6)]),
                                  7: K.one()})
        doc = char_to_json(chi)
        assert doc["values"]["3"] == ["0", "1/6", "0", "1/6"]
        back = char_from_json(K, doc)
        assert char_to_json(back) == doc
        assert all(char_eval(back, v) == char_eval(chi, v) for v in (3, 7))

    def test_table_place_written_two_ways_is_refused(self):
        # "03" would read as place 3 too, one value silently replacing the
        # other
        K = biquadratic_field()
        doc = {"kind": "table", "values": {"3": ["1", "0", "0", "0"],
                                           "03": ["-1", "0", "0", "0"]}}
        with pytest.raises(SchemaError, match="03"):
            char_from_json(K, doc)
