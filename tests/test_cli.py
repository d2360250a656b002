"""Tests for the command-line front end.

Each subcommand is driven through run() with captured output, checking the
facts it reports, the text/JSON parity, the documented exit codes (0 ok,
1 domain error, 2 usage error), and byte-level determinism of JSON output.
"""

import argparse
import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_lmfdb import tampered_cache
from test_numberfield import SEXTIC_IMAGES, SEXTIC_PHI
from twistctl import forms, numberfield, synth
from twistctl.characters import dirichlet_character
from twistctl.cli import build_parser, run, _parse_primes
from twistctl.eigensystem import load_system, serialize
from twistctl.errors import SchemaError
from twistctl.forms import (cocycle_make, cocycle_to_json, finite_model,
                            mat_identity, number_field_context,
                            unitary_cocycle)
from twistctl.numberfield import subgroup_make

DATA = Path(__file__).parent / "data"
VANTOP = str(DATA / "vantop.json")
KLEIN = str(DATA / "klein.json")
RATIONAL2 = str(DATA / "rational_rank2.json")
CACHE = str(DATA / "lmfdb_cache")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def deeply_nested(capsys, tmp_path, command):
    """Run command on a document of 200 000 nested arrays, too deep for the
    JSON reader."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    return invoke(capsys, command, "--input", str(path))


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, err = invoke(capsys, "twists")
        assert code == 2
        assert "--input" in err

    def test_empty_prime_range_exits_2(self, capsys):
        code, _, err = invoke(capsys, "classify", "--input", VANTOP,
                              "--primes", "4..4")
        assert code == 2
        assert "--primes" in err

    def test_composite_in_prime_list_exits_2(self, capsys):
        code, _, err = invoke(capsys, "classify", "--input", VANTOP,
                              "--primes", "5,6,7")
        assert code == 2
        assert "6" in err

    def test_repeated_prime_in_prime_list_exits_2(self, capsys):
        code, _, err = invoke(capsys, "classify", "--input", VANTOP,
                              "--primes", "5,5,3")
        assert code == 2
        assert "5 is repeated" in err
        with pytest.raises(argparse.ArgumentTypeError, match="repeated"):
            _parse_primes("13,5,13")

    def test_seed_belongs_to_the_oracle_alone(self, capsys):
        code, _, err = invoke(capsys, "twists", "--input", VANTOP,
                              "--seed", "1")
        assert code == 2
        assert "--seed" in err
        ns = build_parser().parse_args(["oracle", "--n", "2", "--q", "2",
                                        "--m", "2", "--seed", "3"])
        assert ns.seed == 3

    def test_normalize_takes_no_format(self, capsys):
        # normalize always writes the JSON document
        code, _, err = invoke(capsys, "normalize", "--input", VANTOP,
                              "--format", "json")
        assert code == 2
        assert "--format" in err

    def test_the_conductor_cap_is_no_option(self, capsys):
        # the fit modulus is worked out from the bad places
        for argv in (["twists"], ["classify", "--primes", "3..20"],
                     ["report", "--primes", "3..20"]):
            code, _, err = invoke(capsys, *argv, "--input", VANTOP,
                                  "--n-max", "100")
            assert code == 2
            assert "--n-max" in err

    def test_prime_range_parsing(self):
        assert _parse_primes("3..12") == (3, 5, 7, 11)
        assert _parse_primes("13,5,7") == (13, 5, 7)

    @pytest.mark.parametrize("spec, message", [
        ("5,7,7,5", "5 is repeated"), ("4,5,5", "4 is not prime"),
        ("5,5,4", "5 is repeated"), ("7,9,7", "7 is repeated")])
    def test_a_prime_list_is_checked_in_order(self, spec, message):
        with pytest.raises(argparse.ArgumentTypeError, match=f"^{message}$"):
            _parse_primes(spec)


class TestTwistsCommand:
    def test_outer_twist_walkthrough(self, capsys):
        code, out, _ = invoke(capsys, "twists", "--input", VANTOP,
                              "--bound", "500", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["group_order"] == 2
        assert doc["inner_order"] == 1
        kinds = {t["kind"] for t in doc["twists"]}
        assert kinds == {"inner", "outer"}
        assert doc["fixed_field"]["degree"] == 1
        assert doc["inner_fixed_field"]["degree"] == 2
        assert doc["inner_fixed_field"]["min_poly"] == ["1", "0", "1"]
        assert doc["verdict"]["kind"] == "general-type"
        assert doc["coefficient_field_check"]["inner_matches"]
        assert doc["coefficient_field_check"]["full_matches"]
        assert doc["normalized_on_load"] is True

    def test_text_mode_carries_the_same_facts(self, capsys):
        code, out, _ = invoke(capsys, "twists", "--input", VANTOP,
                              "--bound", "500")
        assert code == 0
        assert "twist group order 2" in out
        assert "outer twist at automorphism 1" in out
        assert "fixed field degree 1" in out
        assert "general-type" in out

    def test_rank2_control_reports_trivial_group(self, capsys):
        code, out, _ = invoke(capsys, "twists", "--input", RATIONAL2,
                              "--bound", "200", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["group_order"] == 1
        assert doc["verdict"]["kind"] == "essentially-self-dual"
        assert doc["normalized_on_load"] is False

    def test_rank2_witness_over_a_non_rational_base(self, capsys, tmp_path):
        """rational_rank2 relabelled to base K: the essentially-self-dual
        witness is the identity twist's value table, not a Dirichlet
        character beside table twists."""
        doc = json.loads(Path(RATIONAL2).read_text())
        doc["base_field"] = "K"
        relabelled = tmp_path / "rank2_K.json"
        relabelled.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "twists", "--input", str(relabelled),
                                "--bound", "200", "--format", "json")
        assert code == 0, err
        out = json.loads(out)
        identity, = out["twists"]
        assert identity["character"]["kind"] == "table"
        assert out["verdict"]["kind"] == "essentially-self-dual"
        assert out["verdict"]["witness"] == identity["character"]

    def test_non_rational_base_gives_the_same_group(self, capsys, tmp_path):
        """klein relabelled to base K: every twist carries a value table,
        and the group, the fixed fields and the per-prime verdicts are
        those over Q."""
        doc = json.loads(Path(KLEIN).read_text())
        doc["base_field"] = "K"
        relabelled = tmp_path / "klein_K.json"
        relabelled.write_text(json.dumps(doc))
        docs = {}
        for path in (KLEIN, str(relabelled)):
            for command in (("twists",), ("classify", "--primes", "3..50"),
                            ("report", "--primes", "3..50")):
                code, out, err = invoke(capsys, *command, "--input", path,
                                        "--bound", "200", "--format", "json")
                assert code == 0, err
                docs[path, command[0]] = json.loads(out)
        over_q, over_k = docs[KLEIN, "twists"], docs[str(relabelled), "twists"]
        assert {t["character"]["kind"] for t in over_k["twists"]} == {"table"}
        for key in ("group_order", "inner_order", "fixed_field",
                    "inner_fixed_field", "verdict"):
            assert over_k[key] == over_q[key], key
        assert over_k["group_order"] == 4
        for command in ("classify", "report"):
            assert dict(docs[str(relabelled), command], input=None) == dict(
                docs[KLEIN, command], input=None), command
        code, out, err = invoke(capsys, "twists", "--input", str(relabelled),
                                "--bound", "200")
        assert code == 0, err
        assert "inner twist at automorphism 0: character on 44 places" in out

    def test_missing_file_is_a_domain_error(self, capsys):
        code, _, err = invoke(capsys, "twists", "--input", "/no/such.json")
        assert code == 1
        assert "error[" in err

    def test_a_deeply_nested_document_is_an_error(self, capsys, tmp_path):
        code, out, err = deeply_nested(capsys, tmp_path, "twists")
        assert (code, out) == (1, "")
        assert err.startswith("error[RecursionError]: ")

    def test_a_reducible_coefficient_field_is_refused(self, capsys, tmp_path):
        """klein's data over Q[x]/(f(x) f(x - 1)), f = x^3 - 3x + 1, whose
        closed abelian table of order 6 makes it look like a field: each
        coefficient padded with zero coordinates."""
        doc = json.loads(Path(KLEIN).read_text())
        doc["field"] = {
            "min_poly": [str(c) for c in SEXTIC_PHI],
            "aut_images": [[str(c) for c in img] for img in SEXTIC_IMAGES]}
        for entry in doc["coefficients"].values():
            for key in ("a", "b"):
                entry[key] = entry[key] + ["0", "0"]
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "twists", "--input", str(path),
                              "--bound", "100")
        assert code == 1
        assert err.startswith("error[NotIrreducible]")


class TestClassifyCommand:
    def test_residue_dichotomy_with_exclusions(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--input", VANTOP,
                              "--primes", "2..100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["excluded"] == {"2": "bad place of the input data"}
        assert doc["predicted_dimension"] == 9
        for p_text, verdicts in doc["primes"].items():
            p = int(p_text)
            label = verdicts[0]["group_label"]
            if p % 4 == 1:
                assert label == "SL_3 (split)", p
            else:
                assert label == "SU_3 over quadratic extension", p

    def test_ramified_primes_are_excluded_with_a_reason(self, capsys,
                                                        tmp_path):
        doc = json.loads(Path(VANTOP).read_text())
        doc["bad_places"] = []
        target = tmp_path / "no_bad.json"
        target.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "classify", "--input", str(target),
                              "--primes", "2,5", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["excluded"] == {
            "2": "ramified in the coefficient field"}
        assert set(parsed["primes"]) == {"5"}

    def test_exclusions_do_not_depend_on_the_presentation(self, capsys,
                                                         tmp_path):
        """The same data over x^2 + 1/4 (alpha = i/2, so the coordinate of
        alpha doubles): 2 is ramified there too, not a reduction error."""
        doc = json.loads(Path(VANTOP).read_text())
        doc["bad_places"] = []
        quarter = copy.deepcopy(doc)
        quarter["field"]["min_poly"] = ["1/4", "0", "1"]
        for entry in quarter["coefficients"].values():
            for key in ("a", "b"):
                entry[key][1] = str(2 * Fraction(entry[key][1]))
        verdicts = []
        for name, data in (("plain", doc), ("quarter", quarter)):
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(data))
            code, out, err = invoke(capsys, "classify", "--input",
                                    str(target), "--primes", "2,5",
                                    "--format", "json")
            assert code == 0, err
            parsed = json.loads(out)
            assert parsed["excluded"] == {
                "2": "ramified in the coefficient field"}, name
            verdicts.append(parsed["primes"]["5"])
        assert verdicts[0] == verdicts[1]

    def test_no_frobenius_is_an_error_not_a_ramified_prime(self, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(numberfield, "pmod_pow_mod", lambda *args: [])
        code, out, err = invoke(capsys, "classify", "--input", VANTOP,
                                "--primes", "3..20", "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error[FrobeniusNotFound]: no Frobenius found")

    def test_text_table_lists_exclusions(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--input", KLEIN,
                              "--primes", "2..13")
        assert code == 0
        assert "excluded primes:" in out
        assert "2: bad place" in out
        assert "p=7: SL_3 (split)" in out
        assert "p=5: SU_3 over quadratic extension" in out


class TestReportCommand:
    def test_full_report_shape(self, capsys):
        code, out, _ = invoke(capsys, "report", "--input", VANTOP,
                              "--bound", "200", "--primes", "3..20",
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for key in ("verdict", "group_order", "inner_order", "fixed_field",
                    "inner_fixed_field", "predicted_dimension",
                    "mt_upper_bound_dimension", "primes", "excluded"):
            assert key in doc, key
        assert doc["verdict"] == "general-type"
        assert doc["mt_upper_bound_dimension"] == 9

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        argv = ("report", "--input", VANTOP, "--bound", "200",
                "--primes", "3..50", "--format", "json")
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerifyCocycleCommand:
    def test_valid_cocycle_accepted(self, capsys, tmp_path):
        model = finite_model(2, 2, 3)
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(cocycle_to_json(unitary_cocycle(model))))
        code, out, _ = invoke(capsys, "verify-cocycle", "--input", str(path))
        assert code == 0
        assert "is valid" in out
        assert "1 flip assignments" in out

    def test_broken_cocycle_rejected_with_error_name(self, capsys, tmp_path):
        doc = cocycle_to_json(unitary_cocycle(finite_model(2, 2, 3)))
        doc["assignments"]["1"]["alpha"] = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "verify-cocycle", "--input", str(path))
        assert code == 1
        assert "error[CocycleViolation]" in err

    def test_a_deeply_nested_document_is_an_error(self, capsys, tmp_path):
        code, out, err = deeply_nested(capsys, tmp_path, "verify-cocycle")
        assert (code, out) == (1, "")
        assert err.startswith("error[RecursionError]: ")

    def test_malformed_document_rejected(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"assignments": {}}')
        code, _, err = invoke(capsys, "verify-cocycle", "--input", str(path))
        assert code == 1
        assert "error[SchemaError]" in err

    def test_assignments_that_are_no_object_are_rejected(self, capsys,
                                                         tmp_path):
        """A list of assignments ended in an AttributeError traceback."""
        self._rejected(capsys, tmp_path, {"model": {"q": 2, "m": 2, "n": 2},
                                          "assignments": []})

    def _rejected(self, capsys, tmp_path, doc):
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "verify-cocycle", "--input", str(path))
        assert code == 1
        assert err.startswith("error[SchemaError]")

    # 1.9 and true are no codes at all; 7 lies past F_4 and -1 before it
    @pytest.mark.parametrize("bad", [1.9, 7, -1, True])
    def test_finite_model_alpha_entry_is_an_element_code(self, capsys,
                                                         tmp_path, bad):
        doc = cocycle_to_json(unitary_cocycle(finite_model(2, 2, 2)))
        doc["assignments"]["1"]["alpha"][0][0] = bad
        self._rejected(capsys, tmp_path, doc)

    @pytest.mark.parametrize("key,bad", [("q", 2.5), ("m", True),
                                         ("n", "2"), ("budget", 1e9)])
    def test_finite_model_shape_is_integers(self, capsys, tmp_path, key, bad):
        doc = cocycle_to_json(unitary_cocycle(finite_model(2, 2, 2)))
        doc["model"][key] = bad
        self._rejected(capsys, tmp_path, doc)

    @staticmethod
    def _shaped(model, alpha):
        """A trivial cocycle document, over a finite model (q, m, n) or over
        Q(i) when model is None, with every alpha replaced."""
        if model is None:
            field = synth.gaussian_field()
            ctx = number_field_context(field, subgroup_make(field, [0, 1]))
            size = 2
        else:
            ctx = forms.finite_model_context(finite_model(*model))
            size = model[2]
        doc = cocycle_to_json(forms.trivial_cocycle(ctx, size))
        for entry in doc["assignments"].values():
            entry["alpha"] = alpha
        return doc

    # each passed as valid, or ended in an IndexError traceback
    @pytest.mark.parametrize("model,alpha", [
        ((2, 2, 3), [[1, 0]]),
        ((2, 2, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        (None, [[["1", "0"], ["0", "0"]]]),
        ((2, 2, 2), [[1, 0], [0]]),
    ], ids=["short_for_n3", "3x3_for_n2", "1x2_over_Qi", "ragged"])
    def test_alphas_are_square_of_the_model_size(self, capsys, tmp_path,
                                                 model, alpha):
        self._rejected(capsys, tmp_path, self._shaped(model, alpha))

    def test_an_element_written_two_ways_is_rejected(self, capsys, tmp_path):
        """"00" would read as element 0 too and replace the non-scalar
        entry at "0", so the document passed as valid."""
        shear, identity = [[1, 1], [0, 1]], [[1, 0], [0, 1]]
        doc = {"model": {"q": 2, "m": 2, "n": 2},
               "assignments": {"0": {"alpha": shear, "flip": False},
                               "00": {"alpha": identity, "flip": False},
                               "1": {"alpha": identity, "flip": True}}}
        self._rejected(capsys, tmp_path, doc)


# Malformed shapes of a list a document gives, each made from the valid
# list: an int, a digit string (iterated, "10" read as the coordinates 1
# and 0), an object, and a list one entry too long.
SHAPES = {"int": lambda good: 5, "digits": lambda good: "10",
          "object": lambda good: {"0": "1"},
          "long": lambda good: good + good[:1]}


def refused_shape(capsys, *argv):
    """Run the command and expect exit 1, nothing on stdout, and one error
    line that names a schema error."""
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error\[(SchemaError|CoefficientDimensionMismatch|"
                        r"SchemaDrift)\]: .*\n", err), err


class TestExactRationals:
    """Every rational in an input document is an int or an exact string; a
    float, a zero denominator or junk is a SchemaError at every entry
    point."""

    def run_on(self, capsys, tmp_path, edit, *argv, doc=None):
        doc = json.loads(Path(VANTOP).read_text()) if doc is None else doc
        edit(doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, *argv, "--input", str(path))
        assert code == 1
        assert "error[SchemaError]" in err

    def test_coefficient_coordinates(self, capsys, tmp_path):
        def edit(doc):
            doc["coefficients"]["101"]["a"][1] = 0.1
        self.run_on(capsys, tmp_path, edit, "twists")

    @pytest.mark.parametrize("bad", [1.0, "1/0"])
    def test_minimal_polynomial(self, capsys, tmp_path, bad):
        def edit(doc):
            doc["field"]["min_poly"][0] = bad
        self.run_on(capsys, tmp_path, edit, "twists")

    @pytest.mark.parametrize("bad", [-1.0, "1/0"])
    def test_automorphism_images(self, capsys, tmp_path, bad):
        def edit(doc):
            doc["field"]["aut_images"][1][1] = bad
        self.run_on(capsys, tmp_path, edit, "twists")

    @pytest.mark.parametrize("bad", [1.0, "1/0"])
    def test_central_character_values(self, capsys, tmp_path, bad):
        def edit(doc):
            doc["central_character"]["omega"] = {
                "kind": "table", "values": {"101": [bad, "0"]}}
        self.run_on(capsys, tmp_path, edit, "twists")

    @pytest.mark.parametrize("bad", [0.5, "1/0"])
    def test_cocycle_alpha(self, capsys, tmp_path, bad):
        def edit(doc):
            doc["assignments"]["1"]["alpha"][0][1] = [bad, "0"]
        self.run_on(capsys, tmp_path, edit, "verify-cocycle",
                    doc=gaussian_cocycle_doc(True))

    @pytest.mark.parametrize("bad", [-1.5, "1/0"])
    def test_newform_automorphism_images(self, capsys, bad):
        code, _, err = invoke(capsys, "lmfdb", "compare", "--label",
                              "47.1.b.a", "--cache-dir", CACHE,
                              "--aut-images", json.dumps([[0, 1], [bad, -1]]))
        assert code == 1
        assert "error[SchemaError]" in err

    @pytest.mark.parametrize("bad", [1.0, "1/0"])
    def test_normalize_scalings(self, capsys, tmp_path, bad):
        scalings = tmp_path / "scalings.json"
        scalings.write_text(json.dumps({"101": [bad, "0"]}))
        self.run_on(capsys, tmp_path, lambda doc: None, "normalize",
                    "--scalings", str(scalings))

    # each ended in a TypeError traceback
    @pytest.mark.parametrize("images", ["5", "[5, 6]"])
    def test_newform_automorphism_images_are_lists(self, capsys, images):
        code, _, err = invoke(capsys, "lmfdb", "compare", "--label",
                              "47.1.b.a", "--cache-dir", CACHE,
                              "--aut-images", images)
        assert code == 1
        assert err.startswith("error[SchemaError]")

    def test_normalize_scalings_are_an_object(self, capsys, tmp_path):
        """[1, 2] ended in an AttributeError traceback."""
        scalings = tmp_path / "scalings.json"
        scalings.write_text(json.dumps([1, 2]))
        self.run_on(capsys, tmp_path, lambda doc: None, "normalize",
                    "--scalings", str(scalings))

    # (holder, key) of each list: in the vantop document, over Q(i), or in
    # the 3 x 3 cocycle over Q(i)
    LISTS = {
        "a": lambda doc: (doc["coefficients"]["101"], "a"),
        "b": lambda doc: (doc["coefficients"]["101"], "b"),
        "aut_image": lambda doc: (doc["field"]["aut_images"], 1),
        "min_poly": lambda doc: (doc["field"], "min_poly"),
    }
    COCYCLE_LISTS = {
        "alpha_cell": lambda doc: (doc["assignments"]["1"]["alpha"][2], 2),
        "alpha_row": lambda doc: (doc["assignments"]["1"]["alpha"], 2),
        "alpha": lambda doc: (doc["assignments"]["1"], "alpha"),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("where", [*LISTS, *COCYCLE_LISTS])
    def test_a_document_list_has_its_shape(self, capsys, tmp_path, where,
                                           shape):
        if where in self.LISTS:
            doc = json.loads(Path(VANTOP).read_text())
            argv, at = ["twists"], self.LISTS[where]
        else:
            doc = gaussian_cocycle_doc(True)
            argv, at = ["verify-cocycle"], self.COCYCLE_LISTS[where]
        holder, key = at(doc)
        holder[key] = SHAPES[shape](holder[key])
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        refused_shape(capsys, *argv, "--input", str(path))

    # each passed as valid: the strings were iterated as rows of cells
    @pytest.mark.parametrize("alpha", [["10", "01"], "1"])
    def test_an_alpha_over_q_is_a_list_of_lists(self, capsys, tmp_path,
                                                alpha):
        doc = {"field": {"min_poly": ["0", "1"], "aut_images": [["0"]]},
               "subgroup": [0],
               "assignments": {"0": {"alpha": alpha, "flip": False}}}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        refused_shape(capsys, "verify-cocycle", "--input", str(path))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_scaling_has_its_shape(self, capsys, tmp_path, shape):
        scalings = tmp_path / "scalings.json"
        scalings.write_text(json.dumps({"101": SHAPES[shape](["1", "0"])}))
        refused_shape(capsys, "normalize", "--input", VANTOP,
                      "--scalings", str(scalings))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_newform_automorphism_image_has_its_shape(self, capsys, shape):
        images = [[0, 1], SHAPES[shape]([1, -1])]
        refused_shape(capsys, "lmfdb", "compare", "--label", "47.1.b.a",
                      "--cache-dir", CACHE, "--aut-images", json.dumps(images))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_cached_coefficient_has_its_shape(self, capsys, tmp_path, shape):
        def mutate(doc):
            an = doc["eigenvalues"]["data"][0]["an"]
            an[4] = SHAPES[shape](an[4])
        tampered_cache(tmp_path, "47.1.b.a", mutate)
        refused_shape(capsys, "lmfdb", "fetch", "--label", "47.1.b.a",
                      "--cache-dir", str(tmp_path))


def rejected(capsys, tmp_path, doc, *argv):
    """Run the command on doc and expect exit 1 with error[SchemaError]."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, *argv, "--input", str(path))
    assert code == 1
    assert err.startswith("error[SchemaError]")


class TestExactIntegers:
    """An integer in an input document is a JSON int and a flag a JSON bool:
    int(2.9) would read bad place 2, n = 3.0 would print a dimension of 9.0,
    and bool("false") would read a flip."""

    @pytest.mark.parametrize("where,bad", [
        ("bad_places", [2.9]), ("bad_places", [True]), ("n", 3.0),
        ("m", 3.0), ("m", True), ("norm", 101.0)])
    def test_coefficient_document(self, capsys, tmp_path, where, bad):
        doc = json.loads(Path(VANTOP).read_text())
        if where == "m":
            doc["central_character"]["m"] = bad
        elif where == "norm":
            doc["coefficients"]["101"]["norm"] = bad
        else:
            doc[where] = bad
        rejected(capsys, tmp_path, doc, "classify", "--primes", "3..20")

    @pytest.mark.parametrize("where,bad", [
        ("subgroup", 1.7), ("subgroup", True), ("flip", "false"),
        ("flip", 0), ("flip", None)])
    def test_number_field_cocycle(self, capsys, tmp_path, where, bad):
        doc = gaussian_cocycle_doc(False)
        if where == "subgroup":
            doc["subgroup"][1] = bad
        else:
            doc["assignments"]["1"]["flip"] = bad
        rejected(capsys, tmp_path, doc, "verify-cocycle")


def chi4_omega_doc(**omega):
    """The raw rank-2 data over Q(i) with m = 1 and omega the quadratic
    character mod 4, its document entries replaced by the given ones."""
    field = synth.gaussian_field()
    doc = serialize(synth.chi4_system()._replace(
        omega=dirichlet_character(field, 4, [-field.one()])))
    doc["central_character"]["omega"].update(omega)
    return doc


class TestStrictCharactersAndPlaces:
    """bad_places is a list, of primes over Q: the string "23" was read as
    places 2 and 3, and {"2": 1} as place 2.  A Dirichlet omega has kind
    dirichlet, an int modulus >= 1 and exactly the canonical generators as
    keys: modulus 4.0 and 0 ended in tracebacks, true was read as 1, and an
    extra generator key was ignored.  The field is an object of lists, and
    base_field a string."""

    def refused(self, capsys, tmp_path, doc, *argv):
        with pytest.raises(SchemaError):
            load_system(doc)
        rejected(capsys, tmp_path, doc, *argv)

    @pytest.mark.parametrize("bad", ["2", {"2": 1}, "23", [9], [2, 4],
                                     ["02"]])
    def test_bad_places(self, capsys, tmp_path, bad):
        doc = json.loads(Path(VANTOP).read_text())
        doc["bad_places"] = bad
        self.refused(capsys, tmp_path, doc, "classify", "--primes", "3..20")

    @pytest.mark.parametrize("entries", [
        {"modulus": 4.0}, {"modulus": 0}, {"modulus": True},
        {"modulus": -4}, {"modulus": "4"}, {"values_on_generators": {}},
        {"values_on_generators": {"3": ["-1", "0"], "7": ["1", "0"]}},
        {"values_on_generators": {"3.0": ["-1", "0"]}},
        {"values_on_generators": [["-1", "0"]]}, {"kind": "weird"}])
    def test_central_character(self, capsys, tmp_path, entries):
        self.refused(capsys, tmp_path, chi4_omega_doc(**entries), "twists")

    # each ended in a TypeError traceback, except base_field ["Q"], read as
    # the label "['Q']" of a base other than Q
    @pytest.mark.parametrize("where,bad", [
        ("field", 5), ("min_poly", 5), ("aut_images", 5),
        ("base_field", ["Q"]), ("base_field", 5)])
    def test_document_shapes(self, capsys, tmp_path, where, bad):
        doc = json.loads(Path(VANTOP).read_text())
        if where == "min_poly":
            doc["field"]["min_poly"] = bad
        elif where == "aut_images":
            doc["field"]["aut_images"][1] = bad
        else:
            doc[where] = bad
        self.refused(capsys, tmp_path, doc, "twists")

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", ["dirichlet", "table"])
    def test_a_character_value_has_its_shape(self, capsys, tmp_path, kind,
                                             shape):
        """A table over Q(i) read "10" as the value 1."""
        if kind == "dirichlet":
            doc = chi4_omega_doc(values_on_generators={
                "3": SHAPES[shape](["-1", "0"])})
        else:
            doc = json.loads(Path(VANTOP).read_text())
            doc["central_character"]["omega"] = {
                "kind": "table", "values": {"101": SHAPES[shape](["1", "0"])}}
        with pytest.raises(SchemaError):
            load_system(doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        refused_shape(capsys, "twists", "--input", str(path))

    def test_the_canonical_omega_is_read(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(chi4_omega_doc()))
        code, out, _ = invoke(capsys, "twists", "--input", str(path))
        assert code == 0 and "modulus 4" in out


def gaussian_cocycle_doc(flip):
    """A 3 x 3 cocycle over Q(i): the identity, and at i -> -i a reflection
    with the transpose-inverse flip or the identity without it."""
    field = synth.gaussian_field()
    ctx = number_field_context(field, subgroup_make(field, range(2)))
    ident = mat_identity(ctx.ring, 3)
    refl = ident[:2] + ((field.zero(), field.zero(), field.from_rational(-1)),)
    return cocycle_to_json(cocycle_make(
        ctx, {0: (ident, False), 1: (refl if flip else ident, flip)}))


def _refuse_inverse(ring, a):
    raise AssertionError("mat_inv was called")


class TestNoMatrixInverse:
    """The oracle and cocycle validation run on product equations alone."""

    @pytest.mark.parametrize("extra", [(), ("--flip",),
                                       ("--flip", "--check-projection"),
                                       ("--check-projection",)])
    def test_oracle(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(forms, "mat_inv", _refuse_inverse)
        code, out, _ = invoke(capsys, "oracle", "--n", "3", "--q", "2",
                              "--m", "2", *extra)
        assert code == 0
        assert "matches" in out

    @pytest.mark.parametrize("make", [
        lambda: cocycle_to_json(unitary_cocycle(finite_model(2, 2, 3))),
        lambda: gaussian_cocycle_doc(True),
        lambda: gaussian_cocycle_doc(False),
    ], ids=["finite", "gaussian.flip", "gaussian"])
    def test_verify_cocycle(self, capsys, tmp_path, monkeypatch, make):
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(make()))
        monkeypatch.setattr(forms, "mat_inv", _refuse_inverse)
        code, out, _ = invoke(capsys, "verify-cocycle", "--input", str(path))
        assert code == 0
        assert "is valid" in out


class TestOracleCommand:
    def test_unitary_walkthrough(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "3", "--q", "2",
                              "--m", "2", "--flip")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "216"
        assert lines[1] == "matches SU_3(2)"

    def test_split_control(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "2", "--q", "3",
                              "--m", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_points"] == 24
        assert doc["closed_form"] == "SL_2(F_3)"
        assert doc["matches"] is True

    def test_projection_option(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "2", "--q", "2",
                              "--m", "2", "--flip", "--check-projection",
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["projection"]["passed"] is True
        assert doc["projection"]["source_order"] == doc["fixed_points"] == 6

    def test_projection_check_searches_once(self, capsys, monkeypatch):
        calls = []
        search = forms.twisted_fixed_elements
        monkeypatch.setattr(forms, "twisted_fixed_elements",
                            lambda *a: calls.append(a) or search(*a))
        code, out, _ = invoke(capsys, "oracle", "--n", "2", "--q", "4",
                              "--m", "2", "--flip", "--check-projection",
                              "--seed", "1")
        assert code == 0
        assert out.splitlines() == [
            "60", "matches SU_2(4)",
            "projection check passed on 60 group elements"]
        assert len(calls) == 1

    def test_flip_over_a_quartic_tower_meets_the_unitary_order(self, capsys):
        # a fixed g satisfies g = F^2(g), so every even m gives SU_n(q)
        code, out, _ = invoke(capsys, "oracle", "--n", "2", "--q", "2",
                              "--m", "4", "--flip", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_points"] == 6
        assert doc["closed_form"] == "SU_2(2)"
        assert doc["matches"] is True

    def test_four_by_four_shape_runs_under_an_explicit_budget(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "4", "--q", "2",
                              "--m", "2", "--budget", "4294967296",
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_points"] == 20160
        assert doc["closed_form"] == "SL_4(F_2)"
        assert doc["matches"] is True

    def test_budget_overrun_is_a_domain_error(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--n", "2", "--q", "7",
                              "--m", "2", "--budget", "1000")
        assert code == 1
        assert "error[BudgetExceeded]" in err

    def test_four_by_four_shape_exceeds_the_default_budget(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--n", "4", "--q", "2",
                              "--m", "2")
        assert code == 1
        assert "error[BudgetExceeded]" in err

    def test_non_prime_power_is_a_domain_error(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--n", "2", "--q", "6",
                              "--m", "1")
        assert code == 1
        assert "prime power" in err


class TestNormalizeCommand:
    def test_normalize_writes_a_loadable_document(self, capsys, tmp_path):
        target = tmp_path / "norm.json"
        code, out, _ = invoke(capsys, "normalize", "--input", VANTOP,
                              "--output", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["central_character"] == "normalized"
        code, out, _ = invoke(capsys, "twists", "--input", str(target),
                              "--bound", "500", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["group_order"] == 2
        assert parsed["normalized_on_load"] is False

    def test_normalize_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "normalize", "--input", VANTOP)
        assert code == 0
        assert json.loads(out)["central_character"] == "normalized"

    def test_scalings_keyed_by_place_label(self, capsys, tmp_path):
        """c_v = norm at every place is the default rescaling of vantop
        (m = 3, omega trivial); the JSON keys name places as the
        coefficient keys do."""
        coeffs = json.loads(Path(VANTOP).read_text())["coefficients"]
        scalings = tmp_path / "scalings.json"
        scalings.write_text(json.dumps(
            {key: [str(entry["norm"]), "0"] for key, entry in coeffs.items()}))
        code, default, _ = invoke(capsys, "normalize", "--input", VANTOP)
        assert code == 0
        code, out, err = invoke(capsys, "normalize", "--input", VANTOP,
                                "--scalings", str(scalings))
        assert code == 0, err
        assert out == default

    def test_scalings_place_written_two_ways_is_rejected(self, capsys,
                                                         tmp_path):
        """A wrong c_3 at "3" and the right one at "03": "03" would read as
        place 3 too and replace the wrong scaling, so normalize passed."""
        source = tmp_path / "raw.json"
        source.write_text(json.dumps(serialize(synth.vantop_system(30, 5))))
        raw = json.loads(source.read_text())
        scalings = {key: [str(entry["norm"]), "0"]
                    for key, entry in raw["coefficients"].items()}
        scalings["3"] = ["5", "0"]
        scalings["03"] = ["3", "0"]
        path = tmp_path / "scalings.json"
        path.write_text(json.dumps(scalings))
        code, out, err = invoke(capsys, "normalize", "--input", str(source),
                                "--scalings", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error[SchemaError]")

    def test_scalings_key_naming_no_place_is_rejected(self, capsys, tmp_path):
        """The valid c_v = norm of vantop plus a key "9" that names no place
        of the system: the extra key is an error, not dropped."""
        coeffs = json.loads(Path(VANTOP).read_text())["coefficients"]
        raw = {key: [str(entry["norm"]), "0"] for key, entry in coeffs.items()}
        raw["9"] = ["9", "0"]
        scalings = tmp_path / "scalings.json"
        scalings.write_text(json.dumps(raw))
        code, out, err = invoke(capsys, "normalize", "--input", VANTOP,
                                "--scalings", str(scalings))
        assert code == 1 and out == ""
        assert err.startswith("error[SchemaError]")

    def test_empty_scalings_are_not_the_default(self, capsys, tmp_path):
        """An empty scalings object reaches normalize as given: every place
        lacks its scaling, and the default norm powers are not used."""
        scalings = tmp_path / "scalings.json"
        scalings.write_text("{}")
        code, out, err = invoke(capsys, "normalize", "--input", VANTOP,
                                "--scalings", str(scalings))
        assert code == 1 and out == ""
        assert err.startswith("error[MissingValue]")


class TestLmfdbCommands:
    def test_fetch_from_committed_cache(self, capsys):
        code, out, _ = invoke(capsys, "lmfdb", "fetch", "--label",
                              "11.2.a.a", "--cache-dir", CACHE,
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 11
        assert doc["stored_coefficients"] == 500
        assert doc["recorded_inner_twists"] == []

    def test_compare_agrees_offline(self, capsys):
        code, out, _ = invoke(capsys, "lmfdb", "compare", "--label",
                              "47.1.b.a", "--cache-dir", CACHE,
                              "--bound", "500",
                              "--aut-images", "[[0,1],[1,-1]]",
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "agree"
        assert doc["detected"] == [
            {"aut_index": 0, "order": 2, "conductor": 47}]

    def test_compare_reports_insufficient_bound(self, capsys):
        code, out, _ = invoke(capsys, "lmfdb", "compare", "--label",
                              "47.1.b.a", "--cache-dir", CACHE,
                              "--bound", "20",
                              "--aut-images", "[[0,1],[1,-1]]",
                              "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "bound-insufficient"

    def test_cache_miss_without_network_is_a_domain_error(self, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        monkeypatch.delenv("TWISTCTL_NETWORK", raising=False)
        code, _, err = invoke(capsys, "lmfdb", "fetch", "--label",
                              "99.2.a.a", "--cache-dir", str(tmp_path))
        assert code == 1
        assert "error[NetworkError]" in err


NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from twistctl import synth
from twistctl.cli import run
from twistctl.eigensystem import serialize

data, cache, work = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
inputs = [p for p in sorted(data.glob("*.json")) if p.name != "golden_cli.json"]
commands = []
for path in inputs:
    src = str(path)
    commands += [
        ["twists", "--input", src, "--bound", "200", "--format", "json"],
        ["classify", "--input", src, "--primes", "2..100", "--format", "json"],
        ["report", "--input", src, "--bound", "200", "--primes", "3..50",
         "--format", "json"]]
for name, bound, system in (("cubic_klein", 100, synth.cubic_klein_system),
                            ("cm", 200, synth.cm_system)):
    path = work / f"{name}.json"
    path.write_text(json.dumps(serialize(system(bound, 1))))
    commands.append(["twists", "--input", str(path), "--bound", str(bound),
                     "--format", "json"])
for label, auts in (("11.2.a.a", None), ("16.3.c.a", None),
                    ("47.1.b.a", "[[0,1],[1,-1]]")):
    argv = ["lmfdb", "compare", "--label", label, "--cache-dir", cache,
            "--format", "json"]
    commands.append(argv + ["--aut-images", auts] if auts else argv)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0, argv
assert len(inputs) >= 5, inputs
assert "sympy" not in sys.modules, "sympy was imported"
"""


class TestNoSympy:
    def test_readme_commands_never_import_sympy(self, tmp_path):
        # a fresh interpreter, since other tests import sympy; the
        # cubic-Klein and CM data need mu(E) of order 6
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", NO_SYMPY_SCRIPT, str(DATA), CACHE,
             str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
