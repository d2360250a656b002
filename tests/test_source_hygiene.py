"""Every import of the package is read in the scope that makes it.

An import that nothing reads is left behind when the code that used it
goes.  For each module of src/twistctl, every name bound by an `import` or
`from ... import` (other than `from __future__`) must be loaded somewhere in
the scope the import binds it in, annotations included: as a bare name, as
the base of an attribute, or inside a string annotation.  A module-level
import is read anywhere in the module; a function's import is read in that
function, nested code included.

No module imports another module's private name: a relative import
names no `_`-prefixed attribute, so what a module shares it names publicly.

No module passes indent= to json.dumps: cli._dumps is the one indented
writer, and the stdlib's stays in tests/test_dumps.py as its reference.
No module but numberfield reads a field's _bad_reduction: which primes
are ramified, and which share a Frobenius class, is decided there.
Only polynomials.rationals_from_json names rational_from_json: every list
of rationals a document gives, coordinates included, is read with its type
and length checked in that one place.
Only eigensystem calls EigenSystem(...) or PlaceData(...): a system is
built by load_system, normalize or system_over_q, so every record over Q
comes from one constructor.

The package has no runtime dependency: every import names the package or
the standard library, and pyproject.toml declares none.

Start-up stays light: importing the CLI loads neither dataclasses nor
inspect, which the NamedTuple records do not need, each command loads
only the package modules it runs, the finite-field oracle loads no
rational arithmetic (only numberfield, lmfdb and twists import
polynomials), and an lmfdb command served from the cache loads no network
module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "twistctl").glob("*.py"))
DATA = Path(__file__).parent / "data"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imported_names(scope):
    """The names the imports of a module or function bind in its own scope
    (not in the functions nested in it), with their line numbers."""
    names = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        stack.extend(ast.iter_child_nodes(node))
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name the module loads, string annotations parsed too."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def unread_imports(tree):
    """{(scope, name): line} for each name an import binds that its scope,
    the module or one function, never reads."""
    unread = {}
    scopes = [("<module>", tree)] + [
        (node.name, node) for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS)]
    for scope, node in scopes:
        read = read_names(node)
        unread.update({(scope, name): line
                       for name, line in imported_names(node).items()
                       if name not in read})
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = unread_imports(tree)
    assert not unread, f"{path.name}: imported but never read: {unread}"


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "from typing import Sequence\n"
                     "def f(x: 'Sequence[int]') -> int:\n    return gcd(x, 2)\n"
                     "def g(x):\n    from math import ceil, floor\n"
                     "    if x:\n        from math import trunc\n"
                     "    return lambda: floor(x)\n"
                     "def h(x):\n    return ceil(x)\n")
    assert set(unread_imports(tree)) == {
        ("<module>", "os"), ("<module>", "lcm"),
        ("g", "ceil"), ("g", "trunc")}


def private_imports(tree):
    """(line, name) for each `_`-prefixed name a relative import takes from
    another module of the package."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = private_imports(tree)
    assert not private, f"{path.name}: imports private names: {private}"


def test_the_check_sees_a_private_import():
    tree = ast.parse("from . import arith, _cache\n"
                     "from .polynomials import QPoly, _root_bound as rb\n"
                     "from .errors import NotFound as _NotFound\n"
                     "from os.path import _joinrealpath\n"
                     "def f():\n    from .characters import _fits\n")
    assert private_imports(tree) == [(1, "_cache"), (2, "_root_bound"),
                                     (6, "_fits")]


def foreign_imports(tree):
    """(line, module) for each absolute import whose top-level package is
    neither twistctl nor in the standard library."""
    allowed = sys.stdlib_module_names | {"twistctl"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] not in allowed]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = foreign_imports(tree)
    assert not foreign, f"{path.name}: imports outside the stdlib: {foreign}"


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from . import arith\nfrom .errors import NotFound\n"
                     "import twistctl.cli\nfrom urllib.request import urlopen\n"
                     "def f():\n    import requests\n"
                     "    from certifi.core import where\n")
    assert foreign_imports(tree) == [(8, "requests"), (9, "certifi.core")]


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def indented_dumps(tree):
    """Lines of the calls to json.dumps, or a bare dumps, that pass indent=."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "dumps"
            and any(kw.arg == "indent" for kw in node.keywords)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_cli_dumps_is_the_one_indented_writer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not indented_dumps(tree), f"{path.name}: use cli._dumps"


def test_the_check_sees_an_indented_dumps():
    tree = ast.parse("import json\nfrom json import dumps\n"
                     "json.dumps(x, indent=2, sort_keys=True)\n"
                     "dumps(x, indent=1)\njson.dumps(x, sort_keys=True)\n"
                     "f(indent=2)\n")
    assert indented_dumps(tree) == [3, 4]


def attribute_uses(tree, attr):
    """The sorted lines that name the attribute attr of anything."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_numberfield_reads_the_bad_reduction_integer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.stem != "numberfield":
        assert not attribute_uses(tree, "_bad_reduction"), path.name


def test_the_check_sees_a_bad_reduction_read():
    tree = ast.parse("b = field._bad_reduction % p\n"
                     "c = f(x)._bad_reduction\nd = bad_reduction\n")
    assert attribute_uses(tree, "_bad_reduction") == [1, 2]


def name_uses(tree, name):
    """(line, scope) for each load of name, bare or as an attribute, and each
    import of it, scope being the innermost function around it or
    "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.ImportFrom)
                    and name in (alias.name for alias in child.names)):
                found.append((child.lineno, scope))
            visit(child, child.name if isinstance(child, _FUNCTIONS) else scope)

    visit(tree, "<module>")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rationals_from_json_reads_a_document_rational(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {"rationals_from_json"} if path.stem == "polynomials" else set()
    stray = [(line, scope) for line, scope in
             name_uses(tree, "rational_from_json") if scope not in allowed]
    assert not stray, f"{path.name}: use rationals_from_json: {stray}"


def test_the_check_sees_a_stray_rational_read():
    tree = ast.parse("from .polynomials import rational_from_json as r\n"
                     "from . import polynomials as P\n"
                     "def rationals_from_json(x):\n"
                     "    return [rational_from_json(c) for c in x]\n"
                     "def f(x):\n    return list(map(rational_from_json, x))\n"
                     "def g(x):\n    def h(y):\n"
                     "        return P.rational_from_json(y)\n"
                     "    return h\n"
                     "rational_from_json = None\ny = rational_from_json\n")
    assert name_uses(tree, "rational_from_json") == [
        (1, "<module>"), (4, "rationals_from_json"), (6, "f"), (9, "h"),
        (12, "<module>")]


def record_constructions(tree):
    """Lines of the calls to EigenSystem or PlaceData, bare or as an
    attribute of anything."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("EigenSystem", "PlaceData"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_eigensystem_constructs_a_system(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.stem != "eigensystem":
        assert not record_constructions(tree), \
            f"{path.name}: use eigensystem.system_over_q"


def test_the_check_sees_a_record_construction():
    tree = ast.parse("from .eigensystem import EigenSystem, PlaceData\n"
                     "from . import eigensystem as es\n"
                     "def f(p, a) -> EigenSystem:\n"
                     "    d = {p: PlaceData(p, a, None)}\n"
                     "    return es.EigenSystem(2, None, 'Q', None, None,\n"
                     "                          (), d)\n"
                     "g = sys._replace(m=None)\nh = EigenSystem\n")
    assert record_constructions(tree) == [4, 5]


def test_cli_start_up_loads_no_dataclasses():
    probe = ("import sys, twistctl.cli, twistctl.synth\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# One command per handler, on committed inputs, with the package modules a
# fresh interpreter must end up holding: the oracle and a finite-model
# cocycle never load the number-field stack, detection never loads forms.
_NUMBER_FIELD_STACK = {"arith", "characters", "cli", "eigensystem", "errors",
                       "numberfield", "polynomials"}
_FINITE_STACK = {"arith", "cli", "errors", "finitefield", "forms"}
_IMAGE_STACK = _NUMBER_FIELD_STACK | {"twists", "forms"}
_COMMAND_MODULES = {
    "oracle": (["oracle", "--n", "3", "--q", "2", "--m", "2", "--flip"],
               _FINITE_STACK),
    "verify-cocycle": (["verify-cocycle", "--input", "{tmp}/cocycle.json"],
                       _FINITE_STACK),
    "twists": (["twists", "--input", "{data}/vantop.json"],
               _NUMBER_FIELD_STACK | {"twists"}),
    "classify": (["classify", "--input", "{data}/vantop.json",
                  "--primes", "3..50"], _IMAGE_STACK),
    "report": (["report", "--input", "{data}/vantop.json",
                "--primes", "3..50"], _IMAGE_STACK),
    "normalize": (["normalize", "--input", "{data}/vantop.json",
                   "--output", "{tmp}/normalized.json"], _NUMBER_FIELD_STACK),
    "lmfdb": (["lmfdb", "compare", "--label", "11.2.a.a",
               "--cache-dir", "{data}/lmfdb_cache"],
              _NUMBER_FIELD_STACK | {"twists", "lmfdb"}),
}
_FINITE_COCYCLE = {"model": {"q": 2, "m": 2, "n": 2}, "assignments": {
    "0": {"alpha": [[1, 0], [0, 1]], "flip": False},
    "1": {"alpha": [[1, 0], [0, 1]], "flip": True}}}
_RUN_PROBE = (
    "import contextlib, io, sys\n"
    "from twistctl.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run(sys.argv[1:])\n"
    "print(code, *sorted(sys.modules))\n")


def modules_after(command, tmp_path):
    """Every module a fresh interpreter holds after running the command."""
    argv, _ = _COMMAND_MODULES[command]
    (tmp_path / "cocycle.json").write_text(json.dumps(_FINITE_COCYCLE))
    argv = [arg.format(tmp=tmp_path, data=DATA) for arg in argv]
    out = subprocess.run([sys.executable, "-S", "-c", _RUN_PROBE, *argv],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    code, *modules = out.stdout.split()
    assert code == "0", out.stderr
    return set(modules)


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    package = {m.removeprefix("twistctl.")
               for m in modules_after(command, tmp_path)
               if m.startswith("twistctl.")}
    assert package == _COMMAND_MODULES[command][1]


@pytest.mark.parametrize("command", ["oracle", "verify-cocycle"])
def test_the_finite_stack_loads_no_rational_arithmetic(command, tmp_path):
    assert not {"fractions", "decimal", "numbers"} & modules_after(
        command, tmp_path)


def test_only_the_rational_layers_import_polynomials():
    importers = {path.stem for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and "polynomials" in
                 [node.module, *(alias.name for alias in node.names)]}
    assert importers == {"numberfield", "lmfdb", "twists"}


def test_cache_hit_loads_no_network_module(tmp_path):
    """The GET imports urllib.request inside the function, so a command
    served from the cache pays for none of the network stack."""
    network = {"urllib.request", "http.client", "ssl", "socket"}
    assert not network & modules_after("lmfdb", tmp_path)
