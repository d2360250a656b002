"""Finite-order characters with values in the roots of unity of a number field.

Two kinds.  Dirichlet characters mod N (base field Q) are stored by their
values on canonical generators of (Z/N)^x and expanded to a full value table;
value-table characters are bare place -> value maps for data over other base
fields.  On top: Galois transforms, pointwise products, conductor reduction,
and a fitting search that recovers the unique smallest-conductor Dirichlet
character matching an observed table of twist ratios.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd, lcm

from .arith import divisors, factorize
from .errors import (
    Ambiguous,
    IncompatibleSupports,
    MissingValue,
    NotCoprime,
    NotRootOfUnity,
)
from .numberfield import (
    FieldElement,
    NumberField,
    element_order,
    roots_of_unity,
)


# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

def _primitive_root(p: int, e: int) -> int:
    """A generator of (Z/p^e)^x for odd prime p."""
    order = p - 1
    factors = [q for q, _ in factorize(order)]
    g = 2
    while True:
        if all(pow(g, order // q, p) != 1 for q in factors):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_structure(N: int) -> list[tuple[int, int]]:
    """Canonical generators (g, order) of (Z/N)^x via CRT of prime powers."""
    if N <= 2:
        return []
    gens = []
    for p, e in factorize(N):
        pe = p ** e
        rest = N // pe
        def lift(r):
            if rest == 1:
                return r % N
            # x = r mod pe, x = 1 mod rest
            inv = pow(rest, -1, pe)
            return (1 + rest * ((r - 1) * inv % pe)) % N
        if p == 2:
            if e >= 2:
                gens.append((lift(pe - 1), 2))
            if e >= 3:
                gens.append((lift(5), 2 ** (e - 2)))
        else:
            gens.append((lift(_primitive_root(p, e)), p ** (e - 1) * (p - 1)))
    return gens


# ---------------------------------------------------------------------------
# the Character type
# ---------------------------------------------------------------------------

class Character:
    """Immutable finite-order character with values in a number field."""

    __slots__ = ("field", "kind", "modulus", "generator_images", "table",
                 "_canonical", "_conductor")

    def __init__(self, field: NumberField, kind: str, modulus: int = 1,
                 generator_images: tuple = (), table: dict | None = None):
        self.field = field
        self.kind = kind
        self.modulus = modulus
        self.generator_images = generator_images
        self._canonical = None
        self._conductor = None
        if kind == "dirichlet":
            self.table = self._expand_table()
        elif kind == "table":
            self.table = dict(table or {})
        else:
            raise ValueError(f"unknown character kind {kind!r}")

    def _expand_table(self) -> dict[int, FieldElement]:
        gens = unit_group_structure(self.modulus)
        one = self.field.one()
        pow_tables = []
        for (g, d), img in zip(gens, self.generator_images):
            if img ** d != one:
                raise NotRootOfUnity(
                    f"image of generator {g} is not a root of unity of order dividing {d}")
            row = [one]
            for _ in range(d - 1):
                row.append(row[-1] * img)
            pow_tables.append(row)
        table = {}
        ranges = [range(d) for _, d in gens]
        for exps in iter_product(*ranges):
            r = 1 % self.modulus
            val = one
            for (g, _), e, row in zip(gens, exps, pow_tables):
                r = r * pow(g, e, self.modulus) % self.modulus
                val = val * row[e]
            table[r] = val
        return table

    # -- basics -------------------------------------------------------------

    def is_trivial(self) -> bool:
        one = self.field.one()
        return all(v == one for v in self.table.values())

    def order(self) -> int:
        bound = len(roots_of_unity(self.field))
        result = 1
        for v in self.table.values():
            k = element_order(v, bound)
            if k is None:
                raise NotRootOfUnity("character value is not a root of unity")
            result = lcm(result, k)
        return result

    def conductor(self) -> int:
        """Smallest modulus M such that values depend only on v mod M."""
        if self.kind != "dirichlet":
            raise ValueError("conductor is defined for Dirichlet characters only")
        if self._conductor is None:
            one = self.field.one()
            for M in divisors(self.modulus):
                if all(v == one for r, v in self.table.items() if r % M == 1 % M):
                    self._conductor = M
                    break
        return self._conductor

    def primitive(self) -> "Character":
        """The primitive character of modulus = conductor inducing this one."""
        M = self.conductor()
        if M == self.modulus:
            return self
        N = self.modulus
        images = []
        for g, _ in unit_group_structure(M):
            lifted = next(g + k * M for k in range(N // M + 1)
                          if gcd(g + k * M, N) == 1)
            images.append(self.table[lifted % N])
        return Character(self.field, "dirichlet", M, tuple(images))

    def inverse(self) -> "Character":
        if self.kind == "dirichlet":
            return Character(self.field, "dirichlet", self.modulus,
                             tuple(img.inverse() for img in self.generator_images))
        return Character(self.field, "table",
                         table={k: v.inverse() for k, v in self.table.items()})

    # -- identity -----------------------------------------------------------

    def canonical_key(self):
        if self._canonical is None:
            if self.kind == "dirichlet":
                prim = self.primitive()
                self._canonical = ("dirichlet", prim.modulus,
                                   tuple(sorted((r, v.coords)
                                                for r, v in prim.table.items())))
            else:
                self._canonical = ("table",
                                   tuple(sorted((str(k), v.coords)
                                                for k, v in self.table.items())))
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return (self.field.min_poly == other.field.min_poly
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        if self.kind == "dirichlet":
            return f"Character(dirichlet mod {self.modulus}, order {self.order()})"
        return f"Character(table on {len(self.table)} places)"


def trivial_character(field: NumberField) -> Character:
    return Character(field, "dirichlet", 1, ())


def dirichlet_character(field: NumberField, modulus: int,
                        generator_images) -> Character:
    """Character mod N from images of the canonical generators.

    generator_images: sequence aligned with unit_group_structure(N), or a
    mapping generator -> FieldElement.
    """
    gens = unit_group_structure(modulus)
    if isinstance(generator_images, dict):
        generator_images = [generator_images[g] for g, _ in gens]
    images = tuple(generator_images)
    if len(images) != len(gens):
        raise ValueError(f"expected {len(gens)} generator images for modulus {modulus}")
    return Character(field, "dirichlet", modulus, images)


def table_character(field: NumberField, values: dict) -> Character:
    return Character(field, "table", table=dict(values))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def char_eval(chi: Character, v) -> FieldElement:
    if chi.kind == "dirichlet":
        if gcd(int(v), chi.modulus) != 1:
            raise NotCoprime(f"{v} shares a factor with the modulus {chi.modulus}")
        return chi.table[int(v) % chi.modulus]
    if v not in chi.table:
        raise MissingValue(f"no stored value at place {v!r}")
    return chi.table[v]


def char_transform(field: NumberField, aut_index: int, chi: Character) -> Character:
    """The character sigma(chi): values pushed through the automorphism."""
    if field.min_poly != chi.field.min_poly:
        raise IncompatibleSupports("character values live in a different field")
    if chi.kind == "dirichlet":
        images = tuple(field.apply_aut(aut_index, img)
                       for img in chi.generator_images)
        return Character(chi.field, "dirichlet", chi.modulus, images)
    return Character(chi.field, "table",
                     table={k: field.apply_aut(aut_index, v)
                            for k, v in chi.table.items()})


def char_mul(a: Character, b: Character) -> Character:
    if a.field.min_poly != b.field.min_poly:
        raise IncompatibleSupports("characters over different fields")
    if a.kind == "dirichlet" and b.kind == "dirichlet":
        L = lcm(a.modulus, b.modulus)
        images = tuple(char_eval(a, g) * char_eval(b, g)
                       for g, _ in unit_group_structure(L))
        return Character(a.field, "dirichlet", L, images)
    if a.kind == "table" and b.kind == "table":
        if set(a.table) != set(b.table):
            raise IncompatibleSupports("value tables cover different place sets")
        return Character(a.field, "table",
                         table={k: a.table[k] * b.table[k] for k in a.table})
    raise IncompatibleSupports(f"cannot multiply kinds {a.kind} and {b.kind}")


def characters_mod(field: NumberField, modulus: int,
                   order_bound: int | None = None):
    """All Dirichlet characters mod N with values in the field's roots of
    unity, optionally restricted to order <= order_bound."""
    gens = unit_group_structure(modulus)
    one = field.one()
    mu = roots_of_unity(field)
    candidates = [[z for z in mu if z ** d == one] for _, d in gens]
    for combo in iter_product(*candidates):
        chi = Character(field, "dirichlet", modulus, tuple(combo))
        if order_bound is not None and chi.order() > order_bound:
            continue
        yield chi


def fit_all(value_map: dict, N_max: int, order_bound: int,
            field: NumberField | None = None) -> list[Character]:
    """All primitive Dirichlet characters of modulus <= N_max consistent with
    every entry of value_map (place -> root of unity), deduplicated, sorted
    by conductor then value table.

    Moduli sharing a factor with a determined place are skipped: the observed
    ratio at such a place is a unit, which no character of that modulus can
    produce.
    """
    if field is None:
        for v in value_map.values():
            if isinstance(v, FieldElement):
                field = v.field
                break
        else:
            raise ValueError("cannot infer the coefficient field; pass field=")
    one = field.one()
    entries = []
    for place, val in sorted(value_map.items(), key=lambda kv: int(kv[0])):
        if not isinstance(val, FieldElement):
            val = field.from_rational(val)
        k = element_order(val, order_bound)
        if k is None:
            raise NotRootOfUnity(
                f"value at place {place} is not a root of unity of order <= {order_bound}")
        entries.append((int(place), val))

    mu = roots_of_unity(field)
    mu_order = {z: element_order(z, len(mu)) for z in mu}
    found = {}
    # The trivial character fits iff every observed value is 1; handling it
    # here lets the scan below skip the all-ones image combination, which
    # would otherwise rebuild the trivial fit at every single modulus.
    if all(val == one for _, val in entries):
        triv = Character(field, "dirichlet", 1, ())
        found[triv.canonical_key()] = triv
    for N in range(1, N_max + 1):
        if any(gcd(v, N) != 1 for v, _ in entries):
            continue
        gens = unit_group_structure(N)
        candidates = [[z for z in mu if z ** (d % mu_order[z]) == one]
                      for _, d in gens]
        # generator exponents of each constrained residue, for early rejection
        exps_of = {}
        ranges = [range(d) for _, d in gens]
        wanted = {v % N for v, _ in entries}
        for exps in iter_product(*ranges):
            r = 1 % N
            for (g, _), e in zip(gens, exps):
                r = r * pow(g, e, N) % N
            if r in wanted and r not in exps_of:
                exps_of[r] = exps
        for combo in iter_product(*candidates):
            if all(img == one for img in combo):
                continue
            ok = True
            for v, val in entries:
                exps = exps_of[v % N]
                acc = one
                for img, e in zip(combo, exps):
                    acc = acc * img ** (e % mu_order[img])
                if acc != val:
                    ok = False
                    break
            if not ok:
                continue
            chi = Character(field, "dirichlet", N, tuple(combo))
            if chi.order() > order_bound:
                continue
            prim = chi.primitive()
            found.setdefault(prim.canonical_key(), prim)
    return sorted(found.values(), key=lambda c: (c.modulus, c.canonical_key()))


def char_fit(value_map: dict, N_max: int, order_bound: int,
             field: NumberField | None = None) -> Character | None:
    """The unique smallest-conductor Dirichlet character of modulus <= N_max
    matching the value map, None if nothing fits, Ambiguous on a tie."""
    fits = fit_all(value_map, N_max, order_bound, field)
    if not fits:
        return None
    best = fits[0].modulus
    tied = [c for c in fits if c.modulus == best]
    if len(tied) > 1:
        raise Ambiguous(
            f"{len(tied)} characters of conductor {best} fit; more places needed")
    return tied[0]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def char_to_json(chi: Character) -> dict:
    if chi.kind == "dirichlet":
        gens = unit_group_structure(chi.modulus)
        return {
            "kind": "dirichlet",
            "modulus": chi.modulus,
            "values_on_generators": {
                str(g): [str(c) for c in img.coords]
                for (g, _), img in zip(gens, chi.generator_images)
            },
        }
    return {
        "kind": "table",
        "values": {str(k): [str(c) for c in v.coords]
                   for k, v in sorted(chi.table.items(), key=lambda kv: str(kv[0]))},
    }


def char_from_json(field: NumberField, doc: dict) -> Character:
    from fractions import Fraction
    if doc["kind"] == "dirichlet":
        raw = doc["values_on_generators"]
        images = {int(g): field.element([Fraction(c) for c in coords])
                  for g, coords in raw.items()}
        return dirichlet_character(field, doc["modulus"], images)
    values = {}
    for k, coords in doc["values"].items():
        try:
            key = int(k)
        except ValueError:
            key = k
        values[key] = field.element([Fraction(c) for c in coords])
    return table_character(field, values)
