"""Byte-level golden digests of the command-line output.

Each command below runs in-process through run() inside a scratch working
directory that holds copies of the fixtures, so the input paths echoed in
the JSON documents are the same on every machine.  The sha256 of stdout and
stderr, the exit code, and the sha256 of every file the command writes are
compared with tests/data/golden_cli.json.  A refactor that changes no result
leaves every digest untouched.

After a deliberate output change, re-record the digests with

    PYTHONPATH=src python3 tests/test_golden_cli.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from twistctl import synth
from twistctl.characters import dirichlet_character
from twistctl.cli import run
from twistctl.eigensystem import serialize
from twistctl.forms import (
    cocycle_to_json,
    finite_model,
    number_field_context,
    trivial_cocycle,
    unitary_cocycle,
)
from twistctl.numberfield import subgroup_make

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"
CACHE = str(DATA / "lmfdb_cache")
FIXTURES = ("generic", "klein", "rational_inner", "rational_rank2", "vantop")


def _commands() -> dict:
    """name -> (argv, files the command writes)."""
    cmds = {}
    for name in FIXTURES:
        src = f"{name}.json"
        cmds[f"twists.{name}"] = (
            ["twists", "--input", src, "--bound", "200", "--format", "json"], ())
        cmds[f"classify.{name}"] = (
            ["classify", "--input", src, "--primes", "2..100",
             "--format", "json"], ())
        cmds[f"report.{name}"] = (
            ["report", "--input", src, "--bound", "200", "--primes", "3..50",
             "--format", "json"], ())
    cmds.update({
        "twists.vantop.500": (
            ["twists", "--input", "vantop.json", "--bound", "500",
             "--format", "json"], ()),
        "twists.vantop.text": (
            ["twists", "--input", "vantop.json", "--bound", "500"], ()),
        "classify.klein.text": (
            ["classify", "--input", "klein.json", "--primes", "2..40"], ()),
        "classify.klein.list": (
            ["classify", "--input", "klein.json", "--primes", "5,13,17",
             "--format", "json"], ()),
        "oracle.su2_4.projection": (
            ["oracle", "--n", "2", "--q", "4", "--m", "2", "--flip",
             "--check-projection", "--seed", "1", "--format", "json"], ()),
        "oracle.su2_4.projection.text": (
            ["oracle", "--n", "2", "--q", "4", "--m", "2", "--flip",
             "--check-projection", "--seed", "1"], ()),
        "oracle.sl3_2": (
            ["oracle", "--n", "3", "--q", "2", "--m", "2",
             "--format", "json"], ()),
        "oracle.su3_2": (
            ["oracle", "--n", "3", "--q", "2", "--m", "2", "--flip",
             "--format", "json"], ()),
        "oracle.not-a-prime-power": (
            ["oracle", "--n", "2", "--q", "6", "--m", "1"], ()),
        "verify-cocycle.finite": (
            ["verify-cocycle", "--input", "cocycle_finite.json",
             "--format", "json"], ()),
        "verify-cocycle.gaussian": (
            ["verify-cocycle", "--input", "cocycle_gaussian.json",
             "--format", "json"], ()),
        "normalize.output": (
            ["normalize", "--input", "raw.json", "--output",
             "normalized.json"], ("normalized.json",)),
        "twists.chi4_raw": (
            ["twists", "--input", "chi4_raw.json", "--format", "json"], ()),
        "twists.chi4_raw.text": (
            ["twists", "--input", "chi4_raw.json"], ()),
        "twists.klein_K": (
            ["twists", "--input", "klein_K.json", "--bound", "200",
             "--format", "json"], ()),
        "twists.klein_K.text": (
            ["twists", "--input", "klein_K.json", "--bound", "200"], ()),
        "report.vantop.text": (
            ["report", "--input", "vantop.json", "--bound", "200",
             "--primes", "3..50"], ()),
        "report.klein.1000": (
            ["report", "--input", "klein.json", "--primes", "2..1000",
             "--format", "json"], ()),
        "twists.cm": (
            ["twists", "--input", "cm.json", "--bound", "200",
             "--format", "json"], ()),
        "twists.cm.text": (
            ["twists", "--input", "cm.json", "--bound", "200"], ()),
        "twists.cubic_klein": (
            ["twists", "--input", "cubic_klein.json", "--bound", "200",
             "--format", "json"], ()),
        "report.klein_K": (
            ["report", "--input", "klein_K.json", "--bound", "200",
             "--primes", "3..50", "--format", "json"], ()),
        "lmfdb.fetch.11.2.a.a": (
            ["lmfdb", "fetch", "--label", "11.2.a.a", "--cache-dir", CACHE,
             "--format", "json"], ()),
    })
    for label, auts in (("11.2.a.a", None), ("16.3.c.a", None),
                        ("47.1.b.a", "[[0,1],[1,-1]]")):
        argv = ["lmfdb", "compare", "--label", label, "--cache-dir", CACHE,
                "--format", "json"]
        if auts:
            argv += ["--aut-images", auts]
        cmds[f"lmfdb.compare.{label}"] = (argv, ())
    return cmds


COMMANDS = _commands()


def _prepare(workdir: Path) -> None:
    """Copy the fixtures and write the generated inputs into workdir."""
    for name in FIXTURES:
        shutil.copy(DATA / f"{name}.json", workdir / f"{name}.json")
    finite = unitary_cocycle(finite_model(2, 2, 3))
    field = synth.gaussian_field()
    gaussian = trivial_cocycle(
        number_field_context(field, subgroup_make(field, range(field.degree))),
        3)
    klein_k = json.loads((DATA / "klein.json").read_text())
    klein_k["base_field"] = "K"
    docs = {
        "klein_K.json": klein_k,
        "cocycle_finite.json": cocycle_to_json(finite),
        "cocycle_gaussian.json": cocycle_to_json(gaussian),
        "raw.json": serialize(synth.vantop_system(100, seed=5)),
        # raw rank-2 data over Q(i) whose omega is the quadratic
        # character mod 4, a Dirichlet character read from the document
        "chi4_raw.json": serialize(synth.chi4_system()._replace(
            omega=dirichlet_character(field, 4, [-field.one()]))),
        # a self-twist verdict, and order-3 characters over a quartic field
        "cm.json": serialize(synth.cm_system()),
        "cubic_klein.json": serialize(synth.cubic_klein_system()),
    }
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc, indent=2, sort_keys=True))


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _digest(argv, written, workdir: Path, read_streams) -> dict:
    code = run(list(argv))
    out, err = read_streams()
    return {
        "exit": code,
        "stdout_sha256": _sha(out),
        "stderr_sha256": _sha(err),
        "files_sha256": {name: _sha((workdir / name).read_text())
                         for name in written},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden_cli")
    _prepare(path)
    return path


@pytest.fixture
def workdir(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    return inputs


def test_golden_file_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_the_recorded_digest(name, golden, workdir, capsys):
    argv, written = COMMANDS[name]

    def read_streams():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _digest(argv, written, workdir, read_streams) == golden[name]


def _record() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _prepare(workdir)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for name, (argv, written) in sorted(COMMANDS.items()):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    digests[name] = _digest(
                        argv, written, workdir,
                        lambda: (out.getvalue(), err.getvalue()))
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digests)} commands)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
