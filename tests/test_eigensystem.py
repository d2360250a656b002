"""Coefficient-system layer: loading, validation, normalization, serialization."""

import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from twistctl import lmfdb, synth
from twistctl.characters import dirichlet_character
from twistctl.errors import (
    CoefficientDimensionMismatch,
    DuplicatePlace,
    MissingValue,
    NontrivialNebentypus,
    NotDivisible,
    SchemaError,
)
from twistctl.eigensystem import (
    EigenSystem,
    load_system,
    normalize,
    serialize,
)
from twistctl.numberfield import NumberField, field_make, field_to_json
from twistctl.twists import detect


def gaussian_field():
    return field_make([1, 0, 1], [[0, 1], [0, -1]])


GAUSS_JSON = {"min_poly": ["1", "0", "1"],
              "aut_images": [["0", "1"], ["0", "-1"]]}


def vantop_doc():
    """Raw degree-3 data in the shape X^3 - b_p X^2 + p conj(b_p) X - p^3:
    stored a = b_p, stored b = p * conj(b_p), central character |.|^3."""
    return {
        "n": 3,
        "base_field": "Q",
        "field": dict(GAUSS_JSON),
        "central_character": {"m": 3, "omega": "trivial"},
        "bad_places": [2],
        "coefficients": {
            "3": {"norm": 3, "a": ["1", "1"], "b": ["3", "-3"]},
            "7": {"norm": 7, "a": ["2", "-1"], "b": ["14", "7"]},
            "13": {"norm": 13, "a": ["3", "2"], "b": ["39", "-26"]},
        },
    }


class TestLoad:
    def test_vantop_shape(self):
        sys = load_system(vantop_doc())
        assert sys.n == 3 and sys.m == 3 and sys.omega is None
        assert not sys.is_normalized
        assert sys.bad_places == (2,)
        assert sys.places() == [3, 7, 13]
        assert sys.places(bound=10) == [3, 7]
        K = sys.field
        assert sys.coeffs[13].a == K.element([3, 2])
        assert sys.coeffs[13].b == K.element([39, -26])

    def test_empty_coefficients(self):
        doc = vantop_doc()
        doc["coefficients"] = {}
        sys = load_system(doc)
        assert sys.places() == []

    def test_place_in_bad_places(self):
        doc = vantop_doc()
        doc["coefficients"]["2"] = {"norm": 2, "a": ["1", "0"], "b": ["1", "0"]}
        with pytest.raises(DuplicatePlace):
            load_system(doc)

    def test_dimension_mismatch(self):
        doc = vantop_doc()
        doc["coefficients"]["3"]["a"] = ["1", "1", "0"]
        with pytest.raises(CoefficientDimensionMismatch):
            load_system(doc)

    def test_schema_errors(self):
        doc = vantop_doc()
        doc["n"] = 4
        with pytest.raises(SchemaError):
            load_system(doc)

        doc = vantop_doc()
        del doc["coefficients"]["3"]["b"]
        with pytest.raises(SchemaError):
            load_system(doc)

        doc = vantop_doc()
        doc["coefficients"]["3"]["norm"] = 5   # label and norm disagree over Q
        with pytest.raises(SchemaError):
            load_system(doc)

        doc = vantop_doc()
        del doc["central_character"]
        with pytest.raises(SchemaError):
            load_system(doc)

        doc = vantop_doc()
        doc["central_character"] = {"m": "3", "omega": "trivial"}
        with pytest.raises(SchemaError):
            load_system(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(bad_places=[2.9]),
        lambda doc: doc.update(bad_places=[False]),
        lambda doc: doc.update(n=3.0),
        lambda doc: doc["central_character"].update(m=3.0),
        lambda doc: doc["central_character"].update(m=True),
        lambda doc: doc["coefficients"]["7"].update(norm=7.0),
        lambda doc: doc["coefficients"]["7"].update(norm=True),
    ], ids=["float-place", "bool-place", "float-n", "float-m", "bool-m",
            "float-norm", "bool-norm"])
    def test_integers_must_be_json_ints(self, edit):
        doc = vantop_doc()
        edit(doc)
        with pytest.raises(SchemaError):
            load_system(doc)

    def test_n2_forbids_b(self):
        doc = {
            "n": 2, "base_field": "Q", "field": dict(GAUSS_JSON),
            "central_character": {"m": 1, "omega": "trivial"},
            "bad_places": [],
            "coefficients": {"5": {"norm": 5, "a": ["1", "1"], "b": ["1", "0"]}},
        }
        with pytest.raises(SchemaError):
            load_system(doc)

    def test_non_rational_base_prime_power_norms(self):
        doc = {
            "n": 3, "base_field": "Q(zeta3)", "field": dict(GAUSS_JSON),
            "central_character": {"m": 3, "omega": "trivial"},
            "bad_places": ["v3"],
            "coefficients": {
                "v7a": {"norm": 7, "a": ["1", "0"], "b": ["1", "0"]},
                "v2": {"norm": 4, "a": ["1", "1"], "b": ["2", "-2"]},
            },
        }
        sys = load_system(doc)
        assert sys.coeffs["v2"].norm == 4
        # labels of both types sort as the places do: ints first
        doc["bad_places"] = ["v3", 5]
        assert load_system(doc).bad_places == (5, "v3")
        doc["coefficients"]["v6"] = {"norm": 6, "a": ["1", "0"], "b": ["1", "0"]}
        with pytest.raises(SchemaError):
            load_system(doc)


LAZY_MU_SCRIPT = """
import json, sys
from twistctl import numberfield
from twistctl.eigensystem import load_system, normalize

def fail(field):
    raise AssertionError("roots_of_unity was called")

search = numberfield.roots_of_unity
doc = json.loads(sys.stdin.read())
for omega in ("trivial", {"kind": "dirichlet", "modulus": 4,
                          "values_on_generators": {"3": ["1", "0"]}}):
    # "trivial" gives no character; a Dirichlet one reads mu(E)
    numberfield.roots_of_unity = fail if omega == "trivial" else search
    doc["central_character"]["omega"] = omega
    raw = load_system(doc)
    normalize(raw)
    normalize(raw, {3: 3, 7: 7, 13: 13})
assert "sympy" not in sys.modules, "sympy was imported"
"""


class TestNormalize:
    def test_trivial_omega_builds_no_roots_of_unity(self):
        # omega "trivial" is no character, so mu(E) is never built; a fresh
        # interpreter is needed, since other tests import sympy
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", LAZY_MU_SCRIPT],
                              input=json.dumps(vantop_doc()), env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_vantop_scaling(self):
        nsys = normalize(load_system(vantop_doc()))
        assert nsys.is_normalized
        K = nsys.field
        # (a, b) = (b_p, p conj(b_p)) becomes (b_p / p, conj(b_p) / p)
        assert nsys.coeffs[13].a == K.element([Q(3, 13), Q(2, 13)])
        assert nsys.coeffs[13].b == K.element([Q(3, 13), Q(-2, 13)])
        assert nsys.coeffs[3].a == K.element([Q(1, 3), Q(1, 3)])
        assert nsys.coeffs[3].b == K.element([Q(1, 3), Q(-1, 3)])

    def test_rational_scalings_never_reach_the_product(self, monkeypatch):
        """Every default c_v is rational, so a_v / c_v, c_v * c_v and c_v^n
        are scalar products: 658 calls of NumberField._mul on
        vantop_system(500, 1) became none."""
        raw, calls = synth.vantop_system(500, 1), []
        mul = NumberField._mul
        monkeypatch.setattr(NumberField, "_mul", lambda self, x, y: (
            calls.append(1), mul(self, x, y))[1])
        normalize(raw)
        assert calls == []

    def test_already_normalized_unchanged(self):
        nsys = normalize(load_system(vantop_doc()))
        assert normalize(nsys) is nsys

    @pytest.mark.parametrize("name,m", [("vantop", 3), ("rank2", 0),
                                        ("rank2", 2)])
    def test_default_is_the_norm_power_scalings(self, name, m):
        """Without scalings, normalize writes the bytes that the explicit
        scalings c_v = N(v)^(m/n) give."""
        if name == "vantop":
            doc = serialize(synth.vantop_system(200, seed=3))
        else:
            doc = serialize(synth.quadratic_rank2_system())
        doc["central_character"] = {"m": m, "omega": "trivial"}
        raw = load_system(doc)
        k = m // raw.n
        explicit = {v: pd.norm ** k for v, pd in raw.coeffs.items()}
        assert json.dumps(serialize(normalize(raw))) == \
            json.dumps(serialize(normalize(raw, explicit)))

    def test_not_divisible(self):
        doc = {
            "n": 2, "base_field": "Q", "field": dict(GAUSS_JSON),
            "central_character": {"m": 1, "omega": "trivial"},
            "bad_places": [],
            "coefficients": {"5": {"norm": 5, "a": ["1", "1"]}},
        }
        with pytest.raises(NotDivisible):
            normalize(load_system(doc))

    def _weight_one_doc(self):
        K = gaussian_field()
        from twistctl.characters import char_to_json
        omega = dirichlet_character(K, 4, [K.from_rational(-1)])
        return {
            "n": 2, "base_field": "Q", "field": dict(GAUSS_JSON),
            "central_character": {"m": 0, "omega": char_to_json(omega)},
            "bad_places": [2],
            "coefficients": {"5": {"norm": 5, "a": ["2", "0"]},
                             "7": {"norm": 7, "a": ["0", "3"]}},
        }

    def test_nontrivial_nebentypus_needs_scalings(self):
        with pytest.raises(NontrivialNebentypus):
            normalize(load_system(self._weight_one_doc()))

    def test_explicit_scalings(self):
        sys = load_system(self._weight_one_doc())
        K = sys.field
        i = K.element([0, 1])
        nsys = normalize(sys, scalings={5: K.one(), 7: i})
        assert nsys.coeffs[5].a == K.from_rational(2)
        assert nsys.coeffs[7].a == K.element([0, 3]) / i
        assert nsys.coeffs[7].a == K.element([3, 0])

    def test_wrong_scaling_rejected(self):
        sys = load_system(self._weight_one_doc())
        K = sys.field
        with pytest.raises(SchemaError):
            normalize(sys, scalings={5: K.one(), 7: K.one()})
        with pytest.raises(MissingValue):
            normalize(sys, scalings={5: K.one()})


class TestSerialization:
    def test_bit_exact_round_trip(self):
        doc = vantop_doc()
        sys = load_system(doc)
        assert serialize(sys) == doc
        assert load_system(serialize(sys)) == sys

    def test_normalized_round_trip(self):
        nsys = normalize(load_system(vantop_doc()))
        doc = serialize(nsys)
        assert doc["central_character"] == "normalized"
        back = load_system(doc)
        assert back == nsys and serialize(back) == doc


class TestFieldsDecide:
    """A system behaves by its fields alone: it is normalized exactly when m
    is None, however it was built."""

    @pytest.mark.parametrize("name,order", [("klein_system", 4),
                                            ("vantop_system", 2)])
    def test_rebuilt_system_behaves_as_the_original(self, name, order):
        sys = getattr(synth, name)(60)
        copy = EigenSystem(*sys)
        assert copy.is_normalized == sys.is_normalized
        assert load_system(serialize(copy)) == sys
        for s in (sys, copy):
            data = s if name == "klein_system" else normalize(s)
            assert detect(data, 60).group.order == order

    def test_a_set_m_is_written(self):
        doc = serialize(synth.klein_system(60)._replace(m=3))
        assert doc["central_character"] == {"m": 3, "omega": "trivial"}

    @pytest.mark.parametrize("run", [serialize, normalize,
                                     lambda s: detect(s, 50)],
                             ids=["serialize", "normalize", "detect"])
    def test_a_normalized_system_with_an_omega_is_refused(self, run):
        """m = None beside a nebentypus would serialize as "normalized" and
        drop omega, and normalize would return it unchanged."""
        record = lmfdb.fetch_newform(
            "16.3.c.a", cache_dir=Path(__file__).parent / "data" / "lmfdb_cache",
            allow_network=False)
        sys = lmfdb.to_eigensystem(record, bound=50)._replace(m=None)
        assert sys.omega is not None
        with pytest.raises(SchemaError, match="carries no omega"):
            run(sys)
