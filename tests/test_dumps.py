"""cli._dumps, the one indented JSON writer, against its reference
json.dumps(doc, indent=2, sort_keys=True).

The writer keeps each container's text by (id, depth) for one call, so the
cases below draw documents over every JSON value the package writes, build
documents whose sub-objects are shared at one depth and at several, and take
the documents the command line really writes: every command of
tests/test_golden_cli.py, and classify over the D4 octic of
tests/test_classify_reference.py, whose verdicts are computed once per
Frobenius class and shared by value.  Each text must equal the stdlib's; a
float or a type JSON has no value for raises TypeError, and a dict whose
keys do not sort raises what the stdlib raises.  The classify documents
over the S3 sextic and the D4 octic also keep the sha256 digests recorded
when their verdicts were still computed once per prime.
"""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import test_golden_cli as golden_cli
from test_classify_reference import (d4_octic, revealing_groups, s3_sextic,
                                     stand_ins)
from twistctl import cli, forms, synth
from twistctl.arith import primes_up_to
from twistctl.eigensystem import normalize
from twistctl.twists import detect


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def outcome(write, doc):
    """The text, or the type and message of what the writer raised."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# drawn documents
# ---------------------------------------------------------------------------

TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "é", "\ud800",
     "\U0001f600"]), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 300, 10 ** 300) | TEXT)
KEYS = TEXT | st.integers(-10 ** 30, 10 ** 30) | st.booleans() | st.none()


def containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(KEYS, inner, max_size=4)
            | st.dictionaries(TEXT, inner, max_size=4))


DOCS = st.recursive(SCALARS, containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_drawn_documents_match_the_stdlib(doc):
    assert outcome(cli._dumps, doc) == outcome(reference, doc)


@settings(max_examples=200, deadline=None)
@given(DOCS, DOCS)
def test_shared_sub_documents_match_the_stdlib(sub, other):
    # sub at depths 1, 2, 3 and 4, twice at depth 2, beside an unshared doc
    doc = {"a": sub, "b": [sub, {"c": sub}, other], "d": (sub, [[sub]])}
    assert outcome(cli._dumps, doc) == outcome(reference, doc)


def test_a_container_shared_at_one_depth_and_at_several():
    leaf = {"form": "inner-split", "degree": 1}
    verdicts = [leaf, leaf]
    same_depth = {str(p): verdicts for p in range(50)}
    assert cli._dumps(same_depth) == reference(same_depth)
    mixed = {"x": verdicts, "y": [verdicts, {"z": (verdicts, leaf)}],
             "empty": [[], {}, ()], "leaf": leaf}
    assert cli._dumps(mixed) == reference(mixed)


@pytest.mark.parametrize("doc", [
    1.5, [0.5], {"a": {"b": float("nan")}}, {1.5: 1},
    {"a": object()}, {"a": {1, 2}}, {(1, 2): 1}, {frozenset(): 1},
    b"bytes", {"a": [complex(1, 2)]}])
def test_a_float_or_an_unsupported_type_raises_type_error(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)


@pytest.mark.parametrize("doc", [
    {"a": 1, 2: 3}, {None: 1, "b": 2}, {True: 1, "x": 2},
    [{"k": [{1: 0, "1": 0}]}]])
def test_keys_that_do_not_sort_raise_what_the_stdlib_raises(doc):
    got = outcome(cli._dumps, doc)
    assert got == outcome(reference, doc)
    assert got[0] is TypeError


def test_a_cycle_raises_recursion_error():
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        cli._dumps({"loop": loop})


# ---------------------------------------------------------------------------
# the documents the command line writes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("dumps_golden")
    golden_cli._prepare(path)
    return path


@pytest.mark.parametrize("name", sorted(golden_cli.COMMANDS))
def test_every_golden_command_document(name, golden_inputs, monkeypatch):
    """Each document a golden command renders or writes, taken where it
    reaches the output, is written as the stdlib writes it."""
    docs = []
    print_doc, dumps = cli._print_doc, cli._dumps

    def record_print(doc, *args):
        docs.append(doc)
        return print_doc(doc, *args)

    def record_dumps(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(cli, "_print_doc", record_print)
    monkeypatch.setattr(cli, "_dumps", record_dumps)
    monkeypatch.chdir(golden_inputs)
    argv, _ = golden_cli.COMMANDS[name]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    assert docs or code != 0
    for doc in docs:
        assert dumps(doc) == reference(doc)


@pytest.fixture(scope="module")
def vantop_detection():
    return detect(normalize(synth.vantop_system(60, seed=1)), 60)


def classify_doc(field, group, primes, detection):
    """The classify document over the field for the twist group, on
    stand-ins for the system and the detection result; the detection part
    is vantop's, which report_to_json needs as a DetectionResult."""
    report = forms.image_report(*stand_ins(field, group, ()), primes)
    doc = forms.report_to_json(report._replace(detection=detection))
    return report, {"command": "classify", **doc}


def test_classify_over_the_d4_octic(vantop_detection):
    """Over the non-abelian octic the verdicts are computed once per
    Frobenius class; the document shares one list per distinct verdict
    tuple and is written as the stdlib writes it."""
    field, primes = d4_octic(), primes_up_to(2000)[2:]
    for group in revealing_groups(field):
        report, doc = classify_doc(field, group, primes, vantop_detection)
        distinct = {verdicts for _, verdicts in report.places}
        assert len({id(v) for v in doc["primes"].values()}) == len(distinct)
        assert len(distinct) < len(report.places)
        assert cli._dumps(doc) == reference(doc)


# sha256 of the classify text over primes 3..2000 for each revealing group,
# keyed by (full subgroup, inner subgroup), recorded from the per-prime
# image_report
CLASSIFY_DIGESTS = {
    "s3_sextic": {
        ((0,), (0,)):
        "81330d92f2a5b432041865e4f3ef3b89d12ee2e316cce6b1f5dc5226f1373769",
        ((0, 1, 2, 3, 4, 5), (0, 1, 2)):
        "a2a466646495f21d6c10f69ceca2bed4a0a54e8b1fafb2fb330863ae058882a4",
    },
    "d4_octic": {
        ((0,), (0,)):
        "93dbd93f428d373afff7ebe774bf3f485f3da4681b2907b247cf9e9a5a21f634",
        ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3)):
        "eaaeb5da4be5beb9fcabd459077ed61c7b45bc020d94965911a2644c4fb947d8",
        ((0, 1, 2, 3, 4, 5, 6, 7), (0, 2, 4, 6)):
        "63496d499a9b8663ad7267105f587beaaaf81f4a3132d65153868f3f22422128",
        ((0, 1, 2, 3, 4, 5, 6, 7), (0, 2, 5, 7)):
        "f6f37b771f63e2581949f17593425ffbba83b72fd852e618b9318efd525e6f06",
    },
}


@pytest.mark.parametrize("make", [s3_sextic, d4_octic],
                         ids=lambda make: make.__name__)
def test_classify_digests_over_the_non_abelian_fields(make, vantop_detection):
    field, digests = make(), {}
    for group in revealing_groups(field):
        _, doc = classify_doc(field, group, primes_up_to(2000)[1:],
                              vantop_detection)
        digests[tuple(group.full_subgroup), tuple(group.inner_subgroup)] = \
            hashlib.sha256(cli._dumps(doc).encode()).hexdigest()
    assert digests == CLASSIFY_DIGESTS[make.__name__]
