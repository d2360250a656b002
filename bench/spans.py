"""Span recorder for the traced run, installed from outside the program.

Each layer function listed in SPANS is wrapped in a span, and every module
of the package that holds the function under a global name gets the wrapper
instead, so calls from any caller are seen.  Nothing under src/ is edited.

A span adds its duration to its own totals and to the child time of the
span that caused it; self time is the duration minus that child time.
Totals are kept in memory and written as one JSON document at exit.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute): the function `module.attribute`, wrapped
# wherever the package binds it.
SPANS = (
    ("numberfield.frobenius_at", "numberfield", "frobenius_at"),
    ("numberfield.roots_of_unity", "numberfield", "roots_of_unity"),
    ("numberfield.fixed_field", "numberfield", "fixed_field"),
    ("characters.fit_all", "characters", "fit_all"),
    ("characters.char_fit", "characters", "char_fit"),
    ("characters.char_eval", "characters", "char_eval"),
    ("twists.find_inner", "twists", "find_inner"),
    ("twists.general_type_verdict", "twists", "general_type_verdict"),
    ("twists.find_outer", "twists", "find_outer"),
    ("twists.assemble_group", "twists", "assemble_group"),
    ("twists.fixed_fields", "twists", "fixed_fields"),
    ("twists.coefficient_field_check", "twists", "coefficient_field_check"),
    ("forms.twisted_fixed_elements", "forms", "twisted_fixed_elements"),
    ("forms.projection_iso_check", "forms", "projection_iso_check"),
    ("forms.classify_place", "forms", "classify_place"),
    ("finitefield.special_linear", "finitefield", "special_linear"),
    ("eigensystem.load_system", "eigensystem", "load_system"),
    ("eigensystem.normalize", "eigensystem", "normalize"),
    ("eigensystem.serialize", "eigensystem", "serialize"),
    ("lmfdb.fetch_newform", "lmfdb", "fetch_newform"),
    ("lmfdb.to_eigensystem", "lmfdb", "to_eigensystem"),
    ("lmfdb.compare_inner_twists", "lmfdb", "compare_inner_twists"),
)

PACKAGE = "twistctl"


class Recorder:
    """Per-name span totals: calls, inclusive and self seconds, and the
    names of the spans that caused them; plus plain event counters."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn):
        totals = self.spans.setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "parents": {}})
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals["calls"] += 1
                totals["incl_s"] += elapsed
                totals["self_s"] += elapsed - frame[0]
                parents = totals["parents"]
                parents[parent] = parents.get(parent, 0) + 1
        return span

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def to_json(self) -> dict:
        spans = {name: dict(t, parents={str(p): n for p, n in t["parents"].items()})
                 for name, t in self.spans.items()}
        return {"spans": spans, "counters": dict(self.counters)}


def _rebind(original, wrapper):
    """Point every package module's global that holds `original` at
    `wrapper`, so callers that imported the name see the span too."""
    for modname, module in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every span and counter; importing the CLI loads every layer."""
    import importlib
    from twistctl import cli  # noqa: F401
    from twistctl import characters, finitefield, forms, numberfield

    special_linear = finitefield.special_linear   # unwrapped, for counting

    for name, modname, attr in SPANS:
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        original = getattr(module, attr)
        _rebind(original, rec.wrap(name, original))

    # Number-field products and discriminants are counted, not timed: a
    # span per product would cost more than the product on small fields.
    mul = numberfield.NumberField._mul
    disc = numberfield.NumberField.discriminant

    def counted_mul(self, x, y):
        rec.count("numberfield.mul")
        return mul(self, x, y)

    def counted_disc(self):
        rec.count("polynomials.discriminant")
        return disc(self)

    numberfield.NumberField._mul = counted_mul
    numberfield.NumberField.discriminant = counted_disc

    # Fit outcomes and matrix candidates, counted around the spans.
    fit_all = characters.fit_all

    def counted_fit_all(*args, **kwargs):
        found = fit_all(*args, **kwargs)
        rec.count("characters.fit_attempts")
        if found:
            rec.count("characters.fit_hits")
        return found

    _rebind(fit_all, counted_fit_all)

    fixed_elements = forms.twisted_fixed_elements

    def counted_fixed_elements(model, cocycle):
        fixed = fixed_elements(model, cocycle)
        rec.count("forms.candidates",
                  len(special_linear(model.q ** model.m, model.n)))
        rec.count("forms.fixed_points", len(fixed))
        return fixed

    _rebind(fixed_elements, counted_fixed_elements)
