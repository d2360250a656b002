"""The benchmark's traced run wraps package functions by name, and its
inputs, micro-kernels and set-up probe import package names; every name it
uses must still resolve, or the benchmark's operations fail at run time."""

import ast
import importlib.util
from pathlib import Path

import pytest

import twistctl.cli  # noqa: F401  (the traced run imports the CLI first)
from twistctl import numberfield

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name,modname,attr", _spans())
def test_span_target_resolves(name, modname, attr):
    module = importlib.import_module(f"twistctl.{modname}")
    assert callable(getattr(module, attr)), name


@pytest.mark.parametrize("attr", ["_mul", "discriminant"])
def test_counted_method_resolves(attr):
    assert callable(getattr(numberfield.NumberField, attr))


def _package_imports():
    """(file, module, name) for every import of a package name in the
    bench files that are not span tables, at any depth; name is None for a
    plain `import twistctl.x`."""
    out = []
    for filename in ("micro.py", "workloads.py", "setup_probe.py"):
        tree = ast.parse((BENCH / filename).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "twistctl"):
                out += [(filename, node.module, alias.name)
                        for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(filename, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "twistctl"]
    return out


def test_bench_files_import_package_names():
    assert len(_package_imports()) > 10


@pytest.mark.parametrize("filename,modname,name", _package_imports())
def test_bench_import_resolves(filename, modname, name):
    module = importlib.import_module(modname)
    if name is not None and not hasattr(module, name):
        importlib.import_module(f"{modname}.{name}")
