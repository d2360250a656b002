"""The product equations of the twisted action against the inverse-based
reference in forms_reference.py.

Gaussian elimination is compared with the cofactor expansions over F_4,
F_25 and Q(i).  Cocycle validation is compared on seeded random
assignments: cocycles conjugated from the split and unitary ones, each
alpha scaled, then at most one corruption (a random alpha, which may be
singular; a toggled flip; a missing element; or every entry random), so
both sides must agree on acceptance and on the exception type and message.
The projection check is compared field by field on valid cocycles, and on
cocycles with one assignment replaced, where only homomorphism_ok may
differ: the reference tests f_t(gh) = f_t(g) f_t(h), which holds for every
automorphism f_t, while the product form asks that gh stay fixed.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import forms_reference as ref
from twistctl import forms, synth
from twistctl.errors import NotInvertible, TwistctlError
from twistctl.finitefield import finite_field
from twistctl.numberfield import subgroup_make


def _square(entries, n):
    return tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))


def _inverse_or_refusal(inv, ring, a):
    try:
        return inv(ring, a)
    except NotInvertible as exc:
        return str(exc)


def _assert_same_det_and_inverse(ring, a):
    assert forms.mat_det(ring, a) == ref.cofactor_det(ring, a)
    assert _inverse_or_refusal(forms.mat_inv, ring, a) == \
        _inverse_or_refusal(ref.cofactor_inv, ring, a)


# ---------------------------------------------------------------------------
# elimination against cofactors
# ---------------------------------------------------------------------------

F4, F25 = finite_field(4), finite_field(25)
GAUSS = synth.gaussian_field()
GAUSS_RING = forms.number_field_ring(GAUSS)
small = st.integers(-2, 2)
gaussian = st.tuples(small, small, st.sampled_from([1, 2])).map(
    lambda t: GAUSS.element([t[0], f"{t[1]}/{t[2]}"]))


@given(st.lists(st.integers(0, 24), min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_elimination_matches_cofactors_over_f25(entries):
    _assert_same_det_and_inverse(forms.finite_field_ring(F25),
                                 _square(entries, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_elimination_matches_cofactors_over_f4(n, data):
    entries = data.draw(st.lists(st.integers(0, 3), min_size=n * n,
                                 max_size=n * n))
    _assert_same_det_and_inverse(forms.finite_field_ring(F4),
                                 _square(entries, n))


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_elimination_matches_cofactors_over_gaussian_rationals(n, data):
    entries = data.draw(st.lists(gaussian, min_size=n * n, max_size=n * n))
    _assert_same_det_and_inverse(GAUSS_RING, _square(entries, n))


# ---------------------------------------------------------------------------
# seeded cocycles
# ---------------------------------------------------------------------------

SHAPES = [(2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 4, 2), (4, 2, 2)]


class Setting:
    """A Galois context, its matrix size, its scalars, and the cocycles the
    random ones are conjugated from."""

    def __init__(self, ctx, n, scalars, flips):
        self.ctx, self.n, self.scalars = ctx, n, scalars
        ident = forms.mat_identity(ctx.ring, n)
        self.bases = [forms.Cocycle(ctx, {e: (ident, flip(e))
                                          for e in ctx.elements})
                      for flip in flips]

    def matrix(self, rng):
        return tuple(tuple(rng.choice(self.scalars) for _ in range(self.n))
                     for _ in range(self.n))

    def invertible(self, rng):
        ring = self.ctx.ring
        while True:
            g = self.matrix(rng)
            if not ring.is_zero(ref.cofactor_det(ring, g)):
                return g

    def scaled(self, alpha, rng):
        ring = self.ctx.ring
        lam = rng.choice([x for x in self.scalars if not ring.is_zero(x)])
        return forms.mat_apply(lambda x: ring.mul(lam, x), alpha)

    def valid(self, rng):
        base = rng.choice(self.bases)
        fresh = ref.conjugate_assignments(base, self.invertible(rng))
        return {e: (self.scaled(alpha, rng), flip)
                for e, (alpha, flip) in fresh.items()}


def model_setting(q, m, n):
    model = forms.finite_model(q, m, n)
    flips = [lambda e: False] + ([lambda e: bool(e % 2)] if m % 2 == 0 else [])
    return model, Setting(forms.finite_model_context(model), n,
                          list(range(q ** m)), flips)


def gaussian_setting(n):
    ctx = forms.number_field_context(GAUSS, subgroup_make(GAUSS, range(2)))
    scalars = [GAUSS.element([a, b]) for a in (-1, 0, 1, 2) for b in (-1, 0, 1)]
    return Setting(ctx, n, scalars, [lambda e: False, lambda e: e == 1])


SETTINGS = {f"q{q}m{m}n{n}": (lambda q=q, m=m, n=n: model_setting(q, m, n)[1])
            for q, m, n in SHAPES}
SETTINGS.update({f"gaussian.n{n}": (lambda n=n: gaussian_setting(n))
                 for n in (2, 3)})


def assignments_for(setting, rng):
    """A valid cocycle's assignments with at most one corruption."""
    elems = setting.ctx.elements
    out = setting.valid(rng)
    e = rng.choice(elems)
    kind = rng.randrange(6)
    if kind == 1:
        out[e] = (setting.matrix(rng), out[e][1])
    elif kind == 2:
        out[e] = (out[e][0], not out[e][1])
    elif kind == 3:
        out[e] = (setting.matrix(rng), out[e][1])
        del out[rng.choice(elems)]
    elif kind == 4:
        out = {x: (setting.matrix(rng), rng.random() < 0.5) for x in elems}
    return out


def outcome(make, ctx, assignments):
    try:
        return "valid", make(ctx, assignments).assignments
    except (TwistctlError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_validation_matches_the_inverse_form(name):
    setting = SETTINGS[name]()
    rng = random.Random(name)
    tally = Counter()
    for _ in range(150):
        assignments = assignments_for(setting, rng)
        got = outcome(forms.cocycle_make, setting.ctx, assignments)
        assert got == outcome(ref.cocycle_make, setting.ctx, assignments)
        tally[got[0]] += 1
    # both verdicts, and a violation of the pair identity itself, occur
    assert tally["valid"] and tally["CocycleViolation"], tally


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_conjugation_matches_the_inverse_form(name):
    setting = SETTINGS[name]()
    rng = random.Random(name)
    for base in setting.bases:
        for _ in range(5):
            g = setting.invertible(rng)
            assert forms.conjugate_cocycle(base, g).assignments == \
                ref.conjugate_assignments(base, g)


# ---------------------------------------------------------------------------
# the projection check
# ---------------------------------------------------------------------------

PROJECTION_SHAPES = [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2),
                     (2, 4, 2), (2, 2, 3)]


@pytest.mark.parametrize("q,m,n", PROJECTION_SHAPES)
def test_projection_report_matches_on_valid_cocycles(q, m, n):
    model, setting = model_setting(q, m, n)
    rng = random.Random(q * 100 + m * 10 + n)
    cases = list(setting.bases) + [
        forms.Cocycle(setting.ctx, setting.valid(rng)) for _ in range(3)]
    for seed, cocycle in enumerate(cases):
        report = forms.projection_iso_check(model, cocycle, seed)
        assert report == ref.projection_iso_check(model, cocycle, seed)
        assert report.passed


# corruptions per shape, 108 in all: fewer where a dense generator makes the
# row search slow
CORRUPTIONS = dict(zip(PROJECTION_SHAPES, (24, 24, 24, 24, 4, 4, 4)))


def test_projection_report_matches_on_corrupted_cocycles():
    rng = random.Random(2025)
    failed = 0
    for (q, m, n), count in CORRUPTIONS.items():
        model, setting = model_setting(q, m, n)
        for seed in range(count):
            assignments = setting.valid(rng)
            e = rng.choice(setting.ctx.elements)
            assignments[e] = (setting.invertible(rng),
                              assignments[e][1] ^ (rng.random() < 0.3))
            cocycle = forms.Cocycle(setting.ctx, assignments)
            got = forms.projection_iso_check(model, cocycle, seed)
            want = ref.projection_iso_check(model, cocycle, seed)
            assert got._replace(homomorphism_ok=None) == \
                want._replace(homomorphism_ok=None)
            failed += not got.passed
    # a new alpha at the generator of a quadratic tower is no corruption the
    # check can see, so only some of the reports fail
    assert failed >= 30
