"""Every module-level import of the package is read in its module.

An import that nothing reads is left behind when the code that used it
goes.  For each module of src/twistctl, every name bound by a module-level
`import` or `from ... import` (other than `from __future__`) must be loaded
somewhere in that module, annotations included: as a bare name, as the
base of an attribute, or inside a string annotation.

Start-up stays light: importing the CLI loads neither dataclasses nor
inspect, which the NamedTuple records do not need.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "twistctl").glob("*.py"))


def imported_names(tree):
    """The names the module-level imports bind, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unread = {name: line for name, line in imported_names(tree).items()
              if name not in read}
    assert not unread, f"{path.name}: imported but never read: {unread}"


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "from typing import Sequence\n"
                     "def f(x: 'Sequence[int]') -> int:\n    return gcd(x, 2)\n")
    unread = set(imported_names(tree)) - read_names(tree)
    assert unread == {"os", "lcm"}


def test_cli_start_up_loads_no_dataclasses():
    probe = ("import sys, twistctl.cli, twistctl.synth\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
