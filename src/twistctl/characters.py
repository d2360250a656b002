"""Finite-order characters with values in the roots of unity of a number field.

Every value is held as its exponent k mod w of the generator zeta of mu(E)
that numberfield.unit_roots fixes once per field: products add exponents,
inversion negates them, an automorphism sigma multiplies them by c_sigma, and
zeta^k has order w/gcd(w, k); the trivial character reads mu(E) too.  Field
elements appear only at the edges: the builders take them, char_eval and
the JSON give zeta^k; char_exponent gives k itself.  A Dirichlet character
mod N (base field Q) is its residue -> exponent table, built by one walk
(residue_table) from its values on any generators of (Z/N)^x.  Value-table
characters are bare place -> exponent maps for other base fields.  On top:
Galois transforms, products, conductors, and a fitting search that recovers
the smallest-conductor Dirichlet character with given exponents at given
places among those of conductor dividing a modulus N, scanning the divisors
of N in ascending order and stopping at the first that fits: each primitive
character is a product of primitive characters at the prime powers dividing
N, built once.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd, lcm
from operator import mul

from .arith import divisors, factorize, primitive_root
from .errors import (
    Ambiguous,
    IncompatibleSupports,
    MissingValue,
    NotCoprime,
    NotRootOfUnity,
    SchemaError,
    int_from_json,
    label_from_json,
)
from .numberfield import (FieldElement, NumberField, element_from_json,
                          element_to_json, unit_roots)
# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

def _local_orders(p: int, e: int) -> list[int]:
    """The orders of the canonical generators of (Z/p^e)^x."""
    if p == 2:
        return [2, 2 ** e // 4][:e - 1]
    return [p ** (e - 1) * (p - 1)]


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Canonical generators (g, order) of (Z/p^e)^x: those of -1 and 5 of
    order > 1 for p = 2, else a primitive root."""
    gens = [2 ** e - 1, 5] if p == 2 else [primitive_root(p, e)]
    return list(zip(gens, _local_orders(p, e)))


def unit_group_structure(N: int) -> list[tuple[int, int]]:
    """Canonical generators (g, order) of (Z/N)^x: those of each (Z/p^e)^x,
    p^e || N, lifted by CRT to g = 1 mod N/p^e."""
    gens = []
    for p, e in factorize(N):
        pe = p ** e
        rest = N // pe
        gens += [((1 + rest * ((g - 1) * pow(rest, -1, pe) % pe)) % N, d)
                 for g, d in _local_generators(p, e)]
    return gens


def residue_table(N: int, steps, w: int) -> dict | None:
    """The residue -> exponent table, on the subgroup of (Z/N)^x the g
    generate, of the character sending each g of [(g, k), ...] to zeta^k,
    zeta of order w: generator by generator, the coset r<g> of every residue
    r reached so far is walked, adding k mod w per step; None when two walks
    reach one residue with different sums.  Canonical generators give the
    residues in the itertools.product order of their exponents."""
    table = {1 % N: 0}
    for g, k in steps:
        step = {}
        for r, e in table.items():
            while r not in step:
                step[r] = e
                r, e = r * g % N, (e + k) % w
            if step[r] != e:
                return None
        table = step
    return table


# ---------------------------------------------------------------------------
# the Character type
# ---------------------------------------------------------------------------

class Character:
    """Immutable finite-order character: exps maps each residue mod the
    modulus (Dirichlet) or each place (value table) to an exponent of zeta."""

    __slots__ = ("field", "kind", "modulus", "exps")

    def __init__(self, field: NumberField, kind: str, modulus: int = 1,
                 exps: dict | None = None):
        if kind not in ("dirichlet", "table"):
            raise ValueError(f"unknown character kind {kind!r}")
        self.field = field
        self.kind = kind
        self.modulus = modulus
        self.exps = dict(exps or {})

    @classmethod
    def dirichlet(cls, field: NumberField, modulus: int,
                  exponents) -> "Character":
        """The character mod N sending the i-th canonical generator, of
        order d_i, to zeta^exponents[i]; there must be one exponent per
        generator, and d_i exponents[i] must be 0 mod w: residue_table's
        walk fails exactly when one is not."""
        gens = unit_group_structure(modulus)
        w = unit_roots(field).order
        if len(exponents) != len(gens):
            raise ValueError(f"expected {len(gens)} generator exponents for "
                             f"modulus {modulus}, got {len(exponents)}")
        table = residue_table(
            modulus, [(g, k % w) for (g, _), k in zip(gens, exponents)], w)
        if table is None:
            raise NotRootOfUnity(f"a generator's image mod {modulus} is not "
                                 "a root of unity of order dividing its own")
        return cls(field, "dirichlet", modulus, table)

    def _mapped(self, f) -> "Character":
        """The character with every exponent k replaced by f(k)."""
        return Character(self.field, self.kind, self.modulus,
                         {p: f(k) for p, k in self.exps.items()})

    # -- basics -------------------------------------------------------------

    def is_trivial(self) -> bool:
        return not any(self.exps.values())

    def order(self) -> int:
        w = unit_roots(self.field).order
        return w // gcd(w, *self.exps.values())

    def conductor(self) -> int:
        """Smallest modulus M such that values depend only on v mod M."""
        if self.kind != "dirichlet":
            raise ValueError("conductor is defined for Dirichlet characters only")
        return next(M for M in divisors(self.modulus)
                    if not any(k for r, k in self.exps.items() if r % M == 1 % M))

    def primitive(self) -> "Character":
        """The primitive character of modulus = conductor inducing this one:
        the table restricted mod M, complete since every unit mod M lifts
        to one mod N, and one-valued since the value depends on r mod M."""
        M = self.conductor()
        if M == self.modulus:
            return self
        return Character(self.field, "dirichlet", M,
                         {r % M: k for r, k in self.exps.items()})

    def inverse(self) -> "Character":
        w = unit_roots(self.field).order
        return self._mapped(lambda k: -k % w)

    # -- identity -----------------------------------------------------------

    def canonical_key(self):
        """The value table as (label, coordinates of the value) pairs,
        Dirichlet characters taken primitive; the fits of one conductor
        are sorted by it."""
        chi = self.primitive() if self.kind == "dirichlet" else self
        label = int if self.kind == "dirichlet" else str
        return (self.kind, chi.modulus, tuple(sorted(
            (label(p), unit_roots(self.field).powers[k].coords)
            for p, k in chi.exps.items())))

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
        return f"Character(table on {len(self.exps)} places)"


def trivial_character(field: NumberField) -> Character:
    return Character.dirichlet(field, 1, ())


def dirichlet_character(field: NumberField, modulus: int,
                        generator_images) -> Character:
    """Character mod N from the images of the canonical generators, in the
    order of unit_group_structure(N)."""
    return Character.dirichlet(field, modulus, [
        unit_roots(field).exponent(x) for x in generator_images])


def table_character(field: NumberField, values: dict) -> Character:
    """Value-table character; every value must be a root of unity."""
    return Character(field, "table",
                     exps={p: unit_roots(field).exponent(v) for p, v in values.items()})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def char_exponent(chi: Character, v) -> int:
    """The exponent k with chi(v) = zeta^k."""
    if chi.kind == "dirichlet":
        if gcd(int(v), chi.modulus) != 1:
            raise NotCoprime(f"{v} shares a factor with the modulus {chi.modulus}")
        return chi.exps[int(v) % chi.modulus]
    if v not in chi.exps:
        raise MissingValue(f"no stored value at place {v!r}")
    return chi.exps[v]


def char_eval(chi: Character, v) -> FieldElement:
    return unit_roots(chi.field).powers[char_exponent(chi, v)]


def char_transform(field: NumberField, aut_index: int, chi: Character) -> Character:
    """The character sigma(chi): values pushed through the automorphism."""
    if field.min_poly != chi.field.min_poly:
        raise IncompatibleSupports("character values live in a different field")
    mu = unit_roots(field)
    c = mu.aut_mult[aut_index]
    return chi._mapped(lambda k: c * k % mu.order)


def char_mul(a: Character, b: Character) -> Character:
    if a.field.min_poly != b.field.min_poly:
        raise IncompatibleSupports("characters over different fields")
    if a.kind != b.kind:
        raise IncompatibleSupports(f"cannot multiply kinds {a.kind} and {b.kind}")
    w = unit_roots(a.field).order
    if a.kind == "dirichlet":
        L = lcm(a.modulus, b.modulus)
        return Character.dirichlet(
            a.field, L, [char_exponent(a, g) + char_exponent(b, g)
                         for g, _ in unit_group_structure(L)])
    if set(a.exps) != set(b.exps):
        raise IncompatibleSupports("value tables cover different place sets")
    return Character(a.field, "table",
                     exps={p: (k + b.exps[p]) % w for p, k in a.exps.items()})


def _local_characters(q: int, e: int, w: int, order_bound: int,
                      places) -> list[tuple[tuple, tuple]]:
    """The primitive characters mod q^e of order dividing w and at most
    order_bound, as (exponents on the canonical generators (g_i, d_i),
    exponents at the places).  Primitive means nontrivial on the units = 1
    mod q^(e-1), generated by g^(d/c) for the last (g, d), c = d if e = 1
    else q: none mod 2, and chi(5) of exact order 2^(e-2) mod 2^e, e >= 3.
    Only e_i(v) mod h_i = gcd(w, d_i) counts at a place v: the index of
    v^(d_i/h_i) among the powers of g_i^(d_i/h_i), after the exponent of -1
    is read off v mod 4 when there are two generators (mod 2^e, e >= 3)."""
    orders = _local_orders(q, e)
    if not orders:
        return []
    hs = [gcd(w, d) for d in orders]
    d, h = orders[-1], hs[-1]
    kernel_step = d // (d if e == 1 else q)
    chars = [xs for xs in iter_product(*(range(0, w, w // h) for h in hs))
             if xs[-1] * kernel_step % w and w // gcd(w, *xs) <= order_bound]
    if not chars:
        return []
    # a generator is searched for only once some character survives
    m = q ** e
    root = pow(_local_generators(q, e)[-1][0], d // h, m)
    table = {pow(root, j, m): j for j in range(h)}
    logs = []
    for v in places:
        log = []
        if len(orders) == 2:
            log.append(v % 4 // 2)
            v = -v if log[0] else v
        log.append(table[pow(v, d // h, m)])
        logs.append(log)
    return [(xs, tuple(sum(map(mul, xs, log)) % w for log in logs))
            for xs in chars]


def fits_by_conductor(exponents: dict, N: int, order_bound: int,
                      field: NumberField):
    """The primitive Dirichlet characters of conductor dividing N and order
    <= order_bound with chi(v) = zeta^k_v for every entry v -> k_v of
    exponents, one list per conductor, conductors ascending, each sorted by
    canonical_key (the trivial character first when every k_v is 0), built
    only when the caller asks for it.

    Each is a product of primitive characters at the q^e || f for f | N,
    listed once per call with their exponents at the places: a combination
    fits when those sum to the k_v mod w.  Conductors sharing a factor with
    a place are skipped: they vanish at it, where the ratio is a unit.
    """
    mu = unit_roots(field)
    w = mu.order
    places, target = [], []
    for place, k in sorted(exponents.items(), key=lambda kv: int(kv[0])):
        if mu.order_of(k) > order_bound:
            raise NotRootOfUnity(
                f"value at place {place} is not a root of unity of order <= {order_bound}")
        places.append(int(place))
        target.append(k % w)

    # no product of primitive local characters is trivial
    if not any(target):
        yield [trivial_character(field)]
    local = {q ** e: _local_characters(q, e, w, order_bound, places)
             for q, top in factorize(N) if all(v % q for v in places)
             for e in range(1, top + 1)}
    for f in divisors(N)[1:]:
        parts = [local.get(q ** e, ()) for q, e in factorize(f)]
        found = []
        for combo in iter_product(*parts):
            if all((sum(col) - k) % w == 0 for col, k in
                   zip(zip(*(vec for _, vec in combo)), target)):
                exps = [x for xs, _ in combo for x in xs]
                if w // gcd(w, *exps) <= order_bound:
                    found.append(Character.dirichlet(field, f, exps))
        if found:
            yield sorted(found, key=Character.canonical_key)


def fit_all(exponents: dict, N: int, order_bound: int,
            field: NumberField) -> list[Character]:
    """Every fit of fits_by_conductor, sorted by conductor then value
    table: the whole walk, where char_fit and the verdict stop early."""
    return [chi for fits in fits_by_conductor(exponents, N, order_bound, field)
            for chi in fits]


def char_fit(exponents: dict, N: int, order_bound: int,
             field: NumberField) -> Character | None:
    """The unique smallest-conductor Dirichlet character of conductor
    dividing N with chi(v) = zeta^k_v on the exponent map, None if nothing
    fits, Ambiguous on a tie: the first list of fits_by_conductor, so no
    larger conductor is scanned (an all-zero map stops at conductor 1)."""
    fits = next(fits_by_conductor(exponents, N, order_bound, field), None)
    if fits is None:
        return None
    if len(fits) > 1:
        raise Ambiguous(f"{len(fits)} characters of conductor {fits[0].modulus} "
                        "fit; more places needed")
    return fits[0]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def char_to_json(chi: Character) -> dict:
    powers = unit_roots(chi.field).powers
    if chi.kind == "dirichlet":
        gens = unit_group_structure(chi.modulus)
        return {
            "kind": "dirichlet",
            "modulus": chi.modulus,
            "values_on_generators": {
                str(g): element_to_json(powers[chi.exps[g]]) for g, _ in gens
            },
        }
    return {
        "kind": "table",
        "values": {str(p): element_to_json(powers[k])
                   for p, k in sorted(chi.exps.items(), key=lambda kv: str(kv[0]))},
    }


def char_from_json(field: NumberField, doc: dict) -> Character:
    """The character of a document, read strictly: its kind is dirichlet or
    table, a modulus is an int >= 1 whose canonical generators are exactly
    the keys of values_on_generators, and SchemaError refuses the rest."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "dirichlet":
        modulus = int_from_json(doc.get("modulus"), "character modulus")
        if modulus < 1:
            raise SchemaError(f"character modulus must be at least 1, got {modulus}")
        gens = unit_group_structure(modulus)
        raw = doc.get("values_on_generators")
        if not isinstance(raw, dict) or set(raw) != {str(g) for g, _ in gens}:
            raise SchemaError(
                f"values_on_generators must be keyed by the generators "
                f"{[g for g, _ in gens]} of (Z/{modulus})^x, got {raw!r}")
        return dirichlet_character(field, modulus, [element_from_json(
            field, raw[str(g)], f"value on generator {g}") for g, _ in gens])
    if kind != "table" or not isinstance(doc.get("values"), dict):
        raise SchemaError("a character must be a dirichlet one with modulus "
                          "and values_on_generators, or a table of values")
    return table_character(field, {
        label_from_json(k, "character place label"):
            element_from_json(field, c, f"character value at {k}")
        for k, c in doc["values"].items()})
