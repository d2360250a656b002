"""cli._dumps, the one indented JSON writer, against its reference
json.dumps(doc, indent=2, sort_keys=True).

The writer keeps each container's text by (id, depth) for one call, so the
cases below draw documents over every JSON value the package writes, build
documents whose sub-objects are shared at one depth and at several, and take
the documents the command line really writes: every command of
tests/test_golden_cli.py, and classify over the D4 octic of
tests/test_classify_reference.py, whose verdicts are computed per prime and
shared by value.  Each text must equal the stdlib's; a float or a type JSON
has no value for raises TypeError, and a dict whose keys do not sort raises
what the stdlib raises.
"""

import contextlib
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import test_golden_cli as golden_cli
from test_classify_reference import d4_octic, revealing_groups
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


def test_classify_over_the_d4_octic():
    """Over the non-abelian octic the verdicts are computed per prime; the
    document shares one list per distinct verdict tuple and is written as
    the stdlib writes it.  The detection part is vantop's, which
    report_to_json needs as a DetectionResult."""
    vantop = normalize(synth.vantop_system(60, seed=1))
    detection = detect(vantop, 60)
    field, primes = d4_octic(), primes_up_to(2000)[2:]
    for group in revealing_groups(field):
        sys_ = SimpleNamespace(n=3, field=field, bad_places=())
        result = SimpleNamespace(group=group, fixed=SimpleNamespace(
            degree=field.degree // group.full_subgroup.order))
        report = forms.image_report(sys_, result, primes)
        doc = forms.report_to_json(report._replace(detection=detection))
        distinct = {verdicts for _, verdicts in report.places}
        assert len({id(v) for v in doc["primes"].values()}) == len(distinct)
        assert len(distinct) < len(report.places)
        text = cli._dumps({"command": "classify", **doc})
        assert text == reference({"command": "classify", **doc})
