"""Coefficient systems: per-place characteristic-polynomial data.

An EigenSystem carries, for each good place, the coefficients (a_v, and b_v
when n = 3) of the degree-n characteristic polynomial, together with the
central-character data (m, omega) needed to trivialize the determinant.
A system is normalized, of determinant 1, exactly when m is None: the
polynomial at every place is X^n - a X^(n-1) + ... + (-1)^(n-1) b X + (-1)^n.
normalize brings data there by one scaling c_v per place, c_v^n = norm^m
omega(v): given (scalings_from_json reads them from a document), or
norm^(m/n) when omega is trivial.  system_over_q builds the system over Q
that a rule p -> (a_p, b_p) gives; no other module constructs a record.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import factorize, is_prime, primes_up_to
from .characters import Character, char_eval, char_from_json, char_to_json
from .errors import (
    DuplicatePlace,
    MissingValue,
    NontrivialNebentypus,
    NotDivisible,
    SchemaError,
    int_from_json,
    label_from_json,
    typed_from_json,
)
from .numberfield import (FieldElement, NumberField, element_from_json,
                          element_to_json, field_from_json, field_to_json)


class PlaceData(NamedTuple):
    norm: int
    a: FieldElement
    b: FieldElement | None


class EigenSystem(NamedTuple):
    """Raw coefficient data with central character |.|^m omega."""

    n: int
    field: NumberField
    base_field_label: str
    m: int | None
    omega: Character | None
    bad_places: tuple
    coeffs: dict

    @property
    def is_normalized(self) -> bool:
        """Determinant-1 data (m = None, so no omega), as normalize makes."""
        if self.m is None and self.omega is not None:
            raise SchemaError("a normalized system (m = None) carries no omega")
        return self.m is None

    def places(self, bound: int | None = None) -> list:
        """Good places present in the data, sorted, optionally norm-capped."""
        out = [v for v, pd in self.coeffs.items()
               if bound is None or pd.norm <= bound]
        return sorted(out, key=_place_order)


def system_over_q(field: NumberField, n: int, bad_places: tuple, bound: int,
                  coeff, m: int | None = None,
                  omega: Character | None = None) -> EigenSystem:
    """The system over Q whose place p carries PlaceData(p, *coeff(p)), for
    each prime p <= bound not among bad_places, taken in increasing order;
    coeff(p) gives (a_p, b_p), b_p None at n = 2."""
    coeffs = {p: PlaceData(p, *coeff(p))
              for p in primes_up_to(bound, exclude=bad_places)}
    return EigenSystem(n=n, field=field, base_field_label="Q", m=m,
                       omega=omega, bad_places=bad_places, coeffs=coeffs)


def _place_order(v) -> tuple:
    """Sort key of place labels: ints first, then strings."""
    return str(type(v)), v


def _parse_place_label(key, base_field: str):
    label = label_from_json(key, "place label")
    if base_field == "Q" and type(label) is not int:
        raise SchemaError(f"place label {key!r} must be a prime over Q")
    return label


def load_system(doc: dict) -> EigenSystem:
    """Validate and construct a system from its JSON document."""
    doc = typed_from_json(doc, dict, "document")
    for key in ("n", "base_field", "field", "central_character",
                "bad_places", "coefficients"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    n = int_from_json(doc["n"], "n")
    if n not in (2, 3):
        raise SchemaError(f"n must be 2 or 3, got {n!r}")
    field = field_from_json(doc["field"])
    base = typed_from_json(doc["base_field"], str, "base_field")

    cc = doc["central_character"]
    if cc == "normalized":
        m, omega = None, None
    elif isinstance(cc, dict) and "m" in cc and "omega" in cc:
        m = int_from_json(cc["m"], "central character exponent m")
        omega = None if cc["omega"] == "trivial" else char_from_json(field, cc["omega"])
    else:
        raise SchemaError("central_character must be 'normalized' or {m, omega}")

    bad = tuple(sorted((_parse_place_label(v, base) for v in
                        typed_from_json(doc["bad_places"], list, "bad_places")),
                       key=_place_order))
    if base == "Q" and not all(map(is_prime, bad)):
        raise SchemaError(f"over Q every bad place must be a prime, got {list(bad)}")

    coeffs = {}
    for key, entry in typed_from_json(doc["coefficients"], dict,
                                      "coefficients").items():
        place = _parse_place_label(key, base)
        if place in bad:
            raise DuplicatePlace(f"place {place} is listed among the bad places")
        if place in coeffs:
            raise DuplicatePlace(f"place {place} appears twice")
        entry = typed_from_json(entry, dict, f"entry at {place}")
        if "norm" not in entry or "a" not in entry:
            raise SchemaError(f"entry at {place} must carry norm and a")
        norm = int_from_json(entry["norm"], f"norm at {place}")
        if len(factorize(norm)) != 1:
            raise SchemaError(f"norm at {place} must be a prime power")
        if base == "Q":
            if norm != place or not is_prime(norm):
                raise SchemaError(
                    f"over Q the place label must be the prime itself; got "
                    f"label {place}, norm {norm}")
        a = element_from_json(field, entry["a"], f"a at place {place}")
        if n == 3:
            if "b" not in entry:
                raise SchemaError(f"n = 3 requires b at place {place}")
            b = element_from_json(field, entry["b"], f"b at place {place}")
        else:
            if "b" in entry:
                raise SchemaError(f"n = 2 forbids b at place {place}")
            b = None
        coeffs[place] = PlaceData(norm, a, b)

    return EigenSystem(n=n, field=field, base_field_label=base, m=m,
                       omega=omega, bad_places=bad, coeffs=coeffs)


def scalings_from_json(sys: EigenSystem, doc) -> dict:
    """normalize's scalings map from a document: place labels of the system's
    base field to coordinate lists of its coefficient field."""
    return {_parse_place_label(key, sys.base_field_label):
            element_from_json(sys.field, coords, f"scaling at {key}")
            for key, coords in typed_from_json(doc, dict, "scalings").items()}


def serialize(sys: EigenSystem) -> dict:
    """JSON document; load_system(serialize(s)) reproduces s bit-exactly."""
    if sys.is_normalized:
        cc = "normalized"
    else:
        cc = {"m": sys.m,
              "omega": "trivial" if sys.omega is None else char_to_json(sys.omega)}
    coeffs = {}
    for place in sys.places():
        pd = sys.coeffs[place]
        entry = {"norm": pd.norm, "a": element_to_json(pd.a)}
        if pd.b is not None:
            entry["b"] = element_to_json(pd.b)
        coeffs[str(place)] = entry
    return {
        "n": sys.n,
        "base_field": sys.base_field_label,
        "field": field_to_json(sys.field),
        "central_character": cc,
        "bad_places": [v for v in sys.bad_places],
        "coefficients": coeffs,
    }


def normalize(sys: EigenSystem, scalings: dict | None = None) -> EigenSystem:
    """Rescale roots so the characteristic polynomials have determinant 1.

    Takes a scalings map place -> c_v, where each c_v must satisfy c_v^n =
    norm^m * omega(v) exactly and a key naming no place is a SchemaError;
    a_v / c_v and b_v / c_v^2 are stored.  Without one, omega must be
    trivial and n | m, and the scalings are c_v = norm^(m/n).
    """
    if sys.is_normalized:
        return sys
    if scalings is None:
        if sys.omega is not None and not sys.omega.is_trivial():
            raise NontrivialNebentypus(
                "omega is nontrivial; supply per-place scalings")
        if sys.m % sys.n != 0:
            raise NotDivisible(f"n = {sys.n} does not divide m = {sys.m}")
        scalings = {v: pd.norm ** (sys.m // sys.n)
                    for v, pd in sys.coeffs.items()}
    if unknown := [str(v) for v in scalings if v not in sys.coeffs]:
        raise SchemaError(f"scalings name no place of the system: {unknown}")
    new = {}
    for v, pd in sys.coeffs.items():
        if v not in scalings:
            raise MissingValue(f"no scaling supplied for place {v}")
        c = scalings[v]
        if not isinstance(c, FieldElement):
            c = sys.field.from_rational(c)
        det = sys.field.from_rational(Fraction(pd.norm) ** sys.m)
        if sys.omega is not None:
            det = det * char_eval(sys.omega, v)
        if c ** sys.n != det:
            raise SchemaError(
                f"scaling at place {v} does not satisfy c^n = norm^m * omega(v)")
        a = pd.a / c
        b = None if pd.b is None else pd.b / (c * c)
        new[v] = PlaceData(pd.norm, a, b)
    return sys._replace(m=None, omega=None, coeffs=new)
