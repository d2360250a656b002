"""Acceptance gate: one test per headline guarantee, each printing a
PASS line with its measured runtime when its assertions hold.

The eight guarantees, in order: finite-field descent orders match closed
forms; the descent projection is a group isomorphism and catches sabotage;
the outer-twist walkthrough fixture runs end to end with exact outputs;
coefficient-field stabilizers match the assembled twist groups; the twist
groups satisfy the composition algebra; splitting arithmetic reproduces
residue laws and naive factorization; detection recovers planted twist
groups from seeded data; and detected twists agree with the recorded rows
of the public newform tables, offline from the committed cache.
"""

import json
import os
import time
from pathlib import Path

from detection_helpers import place_decomposition, twist_at
from twistctl import forms, lmfdb, synth
from twistctl.eigensystem import load_system, normalize
from twistctl.errors import InsufficientData, NotSeparableModP
from twistctl.finitefield import split_order, unitary_order
from twistctl.numberfield import (
    frobenius_at,
    subgroup_make,
)
from twistctl.polynomials import QPoly, ddf_mod_p
from twistctl.twists import compose_twists, detect

DATA = Path(__file__).parent / "data"
CACHE = DATA / "lmfdb_cache"


def announce(capsys, label, started, limit):
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"\n{label}: PASS ({elapsed:.1f}s < {limit:.0f}s)")
    assert elapsed < limit


def fixture_system(name):
    sys_ = load_system(json.loads((DATA / name).read_text()))
    if not sys_.is_normalized and sys_.n == 3:
        sys_ = normalize(sys_)
    return sys_


def descent_models():
    """The six enumerable shapes: three split controls, three twisted."""
    out = []
    for q, n, flipped, expected in ((2, 2, False, 6), (3, 2, False, 24),
                                    (2, 3, False, 168), (2, 2, True, 6),
                                    (3, 2, True, 24), (2, 3, True, 216)):
        model = forms.finite_model(q, 2, n)
        if flipped:
            cocycle = forms.unitary_cocycle(model)
        else:
            cocycle = forms.trivial_cocycle(forms.finite_model_context(model),
                                            n)
        out.append((model, cocycle, flipped, expected))
    return out


def test_finite_field_descent_orders_match_closed_forms(capsys):
    started = time.monotonic()
    for model, cocycle, flipped, expected in descent_models():
        count = forms.twisted_fixed_points(model, cocycle)
        assert count == expected, (model, flipped)
        formula = unitary_order(model.q, model.n) if flipped \
            else split_order(model.q, model.n)
        assert count == formula
    announce(capsys, "acceptance 1 (descent orders)", started, 30)


def test_descent_projection_is_bijective_and_detects_sabotage(capsys):
    started = time.monotonic()
    for model, cocycle, _, expected in descent_models():
        report = forms.projection_iso_check(model, cocycle, seed=0)
        assert report.passed, model
        assert report.source_order == report.tuple_order == expected
    tower = forms.finite_model(2, 4, 2)
    good = forms.unitary_cocycle(tower)
    assert forms.projection_iso_check(tower, good).passed
    broken = dict(good.assignments)
    broken[2] = (((1, 1), (0, 1)), False)
    sabotaged = forms.Cocycle(good.context, broken)
    report = forms.projection_iso_check(tower, sabotaged)
    assert not report.passed
    assert report.tuple_order < report.source_order
    announce(capsys, "acceptance 2 (projection isomorphism)", started, 30)


def test_outer_twist_walkthrough_end_to_end(capsys):
    started = time.monotonic()
    sys_ = fixture_system("vantop.json")
    result = detect(sys_, 500)
    group = result.group
    assert group.order == 2
    outer = twist_at(group, 1)
    assert outer.kind == "outer"
    assert outer.character.is_trivial()
    assert result.fixed.degree == 1
    assert result.fixed_inner.degree == 2
    assert result.fixed_inner.min_poly.coeffs == (1, 0, 1)
    assert result.verdict.kind == "general-type"
    primes = [p for p in synth.primes_up_to(100) if p != 2]
    report = forms.image_report(sys_, result, primes)
    assert report.predicted_dimension == 9
    for p, verdicts in report.places:
        assert len(verdicts) == 1
        expected = "SL_3 (split)" if p % 4 == 1 \
            else "SU_3 over quadratic extension"
        assert verdicts[0].group_label == expected, p
        assert verdicts[0].split_caveat == (p % 4 == 1)
    announce(capsys, "acceptance 3 (walkthrough pipeline)", started, 10)


def test_coefficient_field_stabilizers_match_twist_groups(capsys):
    started = time.monotonic()
    shapes = {"generic.json": (1, 1), "rational_inner.json": (2, 2),
              "klein.json": (4, 2)}
    for name, (order, inner) in shapes.items():
        sys_ = fixture_system(name)
        result = detect(sys_, 200)
        assert (result.group.order, result.group.inner_order) == \
            (order, inner), name
        cent = result.cent
        assert cent.inner_matches, name
        assert cent.full_matches, name
        assert cent.inner_stabilizer == result.group.inner_subgroup
        assert cent.full_stabilizer == result.group.full_subgroup
    announce(capsys, "acceptance 4 (stabilizer consistency)", started, 10)


def test_twist_group_composition_algebra(capsys):
    started = time.monotonic()
    fixtures = ("vantop.json", "generic.json", "rational_inner.json",
                "klein.json", "rational_rank2.json")
    for name in fixtures:
        sys_ = fixture_system(name)
        group = detect(sys_, 200).group
        by_index = {t.aut_index: t for t in group.twists}
        assert len(by_index) == len(group.twists), "one character per aut"
        assert group.order % group.inner_order == 0
        assert group.order // group.inner_order in (1, 2)
        for left in group.twists:
            for right in group.twists:
                kind, index, chi = compose_twists(sys_.field, left, right)
                assert index in by_index, (name, left.aut_index,
                                           right.aut_index)
                target = by_index[index]
                assert target.kind == kind
                assert target.character.canonical_key() == \
                    chi.canonical_key()
                outer_parity = (left.kind == "outer") ^ \
                    (right.kind == "outer")
                assert (kind == "outer") == outer_parity
    announce(capsys, "acceptance 5 (twist-group algebra)", started, 10)


def _naive_roots(coeffs, p):
    return sum(1 for x in range(p)
               if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0)


def _naive_irreducible(coeffs, p):
    """Brute-force irreducibility for degree <= 4: linear factors by root
    scan, quadratic factors of quartics by trial division."""
    degree = len(coeffs) - 1
    if _naive_roots(coeffs, p) > 0:
        return False
    if degree < 4:
        return True
    inv = pow(coeffs[-1], -1, p)
    monic = [c * inv % p for c in coeffs]
    for b in range(p):
        for c in range(p):
            # divide x^4 + m3 x^3 + m2 x^2 + m1 x + m0 by x^2 + b x + c
            q1 = (monic[3] - b) % p
            q0 = (monic[2] - c - b * q1) % p
            r1 = (monic[1] - b * q0 - c * q1) % p
            r0 = (monic[0] - c * q0) % p
            if r1 == 0 and r0 == 0:
                return False
    return True


def test_splitting_arithmetic_matches_naive_computation(capsys):
    started = time.monotonic()
    field = synth.gaussian_field()
    whole = subgroup_make(field, [0])
    for p in synth.primes_up_to(1000, exclude=(2,)):
        frob = frobenius_at(field, p)
        assert frob.index == (0 if p % 4 == 1 else 1), p
        places = place_decomposition(field, whole, p)
        degrees = sorted(pl.residue_degree for pl in places)
        assert degrees == ([1, 1] if p % 4 == 1 else [2]), p

    polys = [[1, 0, 1], [-2, 0, 1], [2, -3, 1], [-1, -1, 0, 1],
             [-2, 0, 0, 1], [9, 0, -2, 0, 1], [-1, -1, 0, 0, 1],
             [1, 0, 0, 0, 1]]
    checked = 0
    for coeffs in polys:
        degree = len(coeffs) - 1
        for p in synth.primes_up_to(200):
            try:
                blocks = ddf_mod_p(QPoly(coeffs), p)
            except NotSeparableModP:
                continue
            assert dict(blocks).get(1, 0) == _naive_roots(coeffs, p), \
                (coeffs, p)
            assert (blocks == [(degree, 1)]) == \
                _naive_irreducible(coeffs, p), (coeffs, p)
            checked += 1
    assert checked > 300
    announce(capsys, "acceptance 6 (splitting arithmetic)", started, 30)


def test_detection_recovers_planted_groups_across_seeds(capsys):
    started = time.monotonic()
    # builder, planted (order, inner order, has outer)
    shapes = ((synth.rational_rank2_system, 1, 1, False),
              (synth.vantop_system, 2, 1, True),
              (synth.rational_inner_system, 2, 2, False),
              (synth.klein_system, 4, 2, True))
    runs = 0
    for round_ in range(5):
        for builder, order, inner, outer in shapes:
            seed = 100 + 10 * round_ + runs % 10
            sys_ = builder(200, seed)
            if not sys_.is_normalized:
                sys_ = normalize(sys_)
            group = detect(sys_, 200).group
            assert group.order == order, (builder.__name__, seed)
            assert group.inner_order == inner, (builder.__name__, seed)
            assert group.has_outer() == outer, (builder.__name__, seed)
            runs += 1
    assert runs == 20
    announce(capsys, "acceptance 7 (construct then detect)", started, 60)


def test_newform_table_agreement(capsys):
    started = time.monotonic()
    labels = (("11.2.a.a", None), ("16.3.c.a", None),
              ("47.1.b.a", [[0, 1], [1, -1]]))
    for label, auts in labels:
        record = lmfdb.fetch_newform(label, cache_dir=CACHE,
                                     allow_network=False)
        sys_ = lmfdb.to_eigensystem(record, aut_images=auts, bound=500)
        try:
            result = detect(sys_, 500)
        except InsufficientData:
            result = None
        cmp = lmfdb.compare_inner_twists(result, record, 500)
        assert cmp.verdict == "agree", label
        assert cmp.counts_agree and cmp.orders_agree, label
    if os.environ.get("TWISTCTL_NETWORK") == "1":
        live = lmfdb.fetch_newform("11.2.a.a",
                                   cache_dir=Path("/tmp/twistctl-live-check"),
                                   allow_network=True)
        committed = lmfdb.fetch_newform("11.2.a.a", cache_dir=CACHE,
                                        allow_network=False)
        overlap = min(len(live.an_exact), len(committed.an_exact))
        assert all(live.an_exact[n] == committed.an_exact[n]
                   for n in range(1, overlap + 1))
    announce(capsys, "acceptance 8 (newform table cross-check)", started, 120)
