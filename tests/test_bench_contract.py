"""The benchmark's traced run wraps package functions by name; every name it
uses must still resolve, or the traced operations fail at run time."""

import importlib.util
from pathlib import Path

import pytest

import twistctl.cli  # noqa: F401  (loads every layer, as the traced run does)
from twistctl import numberfield

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
