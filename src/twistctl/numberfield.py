"""Explicit Galois number fields with a validated automorphism table.

A field is Q[x]/(Phi) for a monic Phi of degree d, certified irreducible
over Q at construction (certify_irreducible: degree patterns mod p, then
recombination at one prime; a reducible Phi is refused), which also yields
the primes where Phi splits completely.  Elements are integer vectors over
one denominator in the power basis 1, alpha, ..., alpha^(d-1), and the
automorphism group is supplied as the d images of alpha and then validated
(identity first, annihilation, distinctness; closure follows, as d distinct
roots of Phi are all of them), its composition table read at the first
split prime, where the images are d distinct roots of Phi mod p, kept as
split_roots.  All element arithmetic is on integers: a product is a
convolution reduced by integer rows, each automorphism is one integer
matrix, and an inverse is the product of the other conjugates over the
norm.  On top of that sit the Galois-theory workhorses: stabilizers, fixed
subfields with primitive elements, Frobenius elements at unramified primes
(x^p from the one power kernel pmod_pow_mod), place decompositions via
double cosets, and the roots of unity mu(E) as powers of one generator,
built once per field by a p-adic search at the first of those split primes,
from split_roots lifted by hensel_lift (Cohen GTM 138 section 3.5) and a
Teichmueller power per order, verified by exact exponentiation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .arith import (conductor_bound, euler_phi, pmod_gcd, pmod_pow_mod,
                    pmod_sub, primitive_root)
from .errors import (
    FrobeniusNotFound,
    NotAnAutomorphism,
    NotClosed,
    NotInvertible,
    NotIrreducible,
    NotRootOfUnity,
    Ramified,
    typed_from_json,
)
from .polynomials import (
    QPoly,
    as_fraction,
    certify_irreducible,
    hensel_lift,
    monic_integer_model,
    pmod_reduce,
    poly_from_strings,
    poly_to_strings,
    rational_from_json,
    root_bound,
)

Q = Fraction


class FieldElement:
    """Integer numerators num over a denominator den > 0, in lowest terms
    (Cohen GTM 138, 4.2); coords gives the Fraction coordinates, key the
    integer vector.  A rational element equals and hashes as its Fraction."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "NumberField", num: tuple[int, ...], den: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Q(n, self.den) for n in self.num)

    @property
    def key(self) -> tuple:
        return self.num, self.den

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Q(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return _reduced(self.field, [x * b + y * a for x, y in zip(self.num, o.num)],
                        a * b)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # by a rational element too, x / c, c * c and c ** n skip _mul
        if isinstance(other, (int, Fraction)):
            c, r = other.numerator, other.denominator
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            if not o.is_rational():
                return self.field._mul(self, o)
            c, r = o.num[0], o.den
        return _reduced(self.field, [x * c for x in self.num], self.den * r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _other_conjugates(self) -> "FieldElement":
        """The product of the d - 1 conjugates sigma_i(x), i > 0."""
        field = self.field
        others = field.one()
        for i in range(1, field.degree):
            others = others * field.apply_aut(i, self)
        return others

    def residues(self, p: int) -> list[int]:
        """The coordinates mod p, for p prime to den: one inverse of den."""
        inv = pow(self.den, -1, p)
        return [n * inv % p for n in self.num]

    def inverse(self) -> "FieldElement":
        """1/x as the product of the other conjugates over the norm."""
        if self.is_zero():
            raise NotInvertible("division by zero in number field")
        if self.is_rational():
            return self.field.from_rational(Q(self.den, self.num[0]))
        others = self._other_conjugates()
        norm = self * others
        if not norm.is_rational() or norm.is_zero():
            raise NotInvertible("element shares a factor with the modulus")
        return others * Q(norm.den, norm.num[0])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.num == other.num and self.den == other.den
                    and self.field.min_poly == other.field.min_poly)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Q(self.num[0], self.den))
        return hash(self.key)

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


def _reduced(field: "NumberField", num, den: int) -> FieldElement:
    """The element num/den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return FieldElement(field, tuple(num), den)


class NumberField:
    """Q[x]/(min_poly) with an explicit, validated automorphism table."""

    def __init__(self, min_poly: QPoly, aut_images: Sequence[Sequence[Fraction]]):
        if not min_poly.is_monic():
            raise NotIrreducible("minimal polynomial must be monic")
        d = min_poly.degree
        self.min_poly = min_poly
        self.degree = d
        self.split_primes = certify_irreducible(min_poly)

        # power-basis reduction rows for alpha^d .. alpha^(2d-2), as
        # integer numerators over the common denominator _row_den
        rows = []
        current = [-c for c in min_poly.coeffs[:-1]]  # alpha^d
        rows.append(tuple(current))
        for _ in range(d - 2):
            shifted = [Q(0)] + list(current[:-1])
            top = current[-1]
            current = [s + top * r for s, r in zip(shifted, rows[0])]
            rows.append(tuple(current))
        self._row_den = lcm(*(c.denominator for row in rows for c in row))
        self._reduction_rows = tuple(
            tuple(int(c * self._row_den) for c in row) for row in rows)

        if len(aut_images) != d:
            raise NotClosed(f"expected {d} automorphism images, got {len(aut_images)}")
        self.aut_images = tuple(self.element(c) for c in aut_images)
        self._unit_roots = None   # left by roots_of_unity for unit_roots

        self._aut_matrices = self._validate_automorphisms()
        # p | _bad_reduction: Phi mod p does not reduce or is not squarefree
        disc = self.discriminant()
        self._bad_reduction = disc.numerator * disc.denominator * self._row_den
        self.split_roots, self.composition_table = self._read_composition_table()
        self.inverse_table = tuple(row.index(0)
                                   for row in self.composition_table)
        self.is_abelian = all(
            self.composition_table[i][j] == self.composition_table[j][i]
            for i in range(d) for j in range(d))

    # -- construction helpers ---------------------------------------------

    def element(self, coords: Sequence[Fraction]) -> FieldElement:
        """The element with these power-basis coordinates (ints, Fractions
        or their strings; a float raises TypeError)."""
        coords = [as_fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates, got {len(coords)}")
        den = lcm(*(c.denominator for c in coords))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator)
                                        for c in coords), den)

    def from_rational(self, c) -> FieldElement:
        c = as_fraction(c)
        return _reduced(self, (c.numerator,) + (0,) * (self.degree - 1),
                        c.denominator)

    def zero(self) -> FieldElement:
        return self.from_rational(0)

    def one(self) -> FieldElement:
        return self.from_rational(1)

    def gen(self) -> FieldElement:
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return self.element([0, 1] + [0] * (self.degree - 2))

    # -- core arithmetic ----------------------------------------------------

    def _mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """Integer convolution of the numerators, reduced by the integer
        rows over _row_den, then one gcd."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(x.num):
            if a:
                for j, b in enumerate(y.num):
                    prod[i + j] += a * b
        r = self._row_den
        out = prod[:d] if r == 1 else [c * r for c in prod[:d]]
        for c, row in zip(prod[d:], self._reduction_rows):
            if c:
                for i in range(d):
                    out[i] += c * row[i]
        return _reduced(self, out, x.den * y.den * r)

    # -- automorphisms -------------------------------------------------------

    def apply_aut(self, index: int, x: FieldElement) -> FieldElement:
        """Image of x under the automorphism with the given index."""
        if not 0 <= index < self.degree:
            raise IndexError(f"automorphism index {index} out of range")
        if index == 0:
            return x
        rows, den = self._aut_matrices[index]
        return _reduced(self, [sum(map(mul, row, x.num)) for row in rows],
                        x.den * den)

    def compose(self, i: int, j: int) -> int:
        """Index of sigma_i o sigma_j (apply j first)."""
        return self.composition_table[i][j]

    def _validate_automorphisms(self) -> tuple:
        """The (rows, den) of each image, sigma(alpha^j) = sum_i rows[i][j]
        alpha^i / den, from the powers sigma(alpha)^0 .. ^d: Phi(sigma(alpha))
        = 0 when the last is the first reduction row dotted with the others.
        Refused in this order: image 0 not alpha, a non-root, a repeat."""
        d = self.degree
        if self.aut_images[0] != self.gen():
            raise NotClosed("automorphism index 0 must be the identity")
        top, r = self._reduction_rows[0], self._row_den
        matrices, seen = [], set()
        for i, img in enumerate(self.aut_images):
            powers = [self.one()]
            for _ in range(d):
                powers.append(powers[-1] * img)
            last = powers.pop()
            den = lcm(*(p.den for p in powers))
            rows = tuple(zip(*([n * (den // p.den) for n in p.num]
                               for p in powers)))
            if any(n * r * den != last.den * sum(map(mul, top, row))
                   for n, row in zip(last.num, rows)):
                raise NotAnAutomorphism(
                    f"image {i} does not annihilate the minimal polynomial")
            if img.key in seen:
                raise NotClosed(f"automorphism image {i} repeats an earlier one")
            seen.add(img.key)
            matrices.append((rows, den))
        return tuple(matrices)

    def _read_composition_table(self) -> tuple[tuple[int, ...], tuple]:
        """(roots, table) at p = split_primes[0]: roots[k] = r_k and
        table[i][j] = k with sigma_k = sigma_i o sigma_j.  p divides no
        denominator of Phi nor disc(Phi), so Z_(p)[alpha] is p-maximal,
        every image is p-integral, and alpha -> r, one root of Phi mod p
        found by a Horner scan, maps sigma_k(alpha) to r_k = image_k(r), d
        distinct roots as Phi mod p is squarefree.  sigma_i o sigma_j (alpha)
        = image_j(sigma_i(alpha)) maps to image_j(r_i), which names k."""
        p = self.split_primes[0]

        def at(coeffs, x):
            value = 0
            for c in reversed(coeffs):
                value = (value * x + c) % p
            return value

        phi = pmod_reduce(self.min_poly, p)
        r = next(x for x in range(p) if at(phi, x) == 0)
        images = [img.residues(p) for img in self.aut_images]
        roots = tuple(at(img, r) for img in images)
        index = {s: k for k, s in enumerate(roots)}
        return roots, tuple(tuple(index[at(img, s)] for img in images)
                            for s in roots)

    # -- misc ---------------------------------------------------------------

    def discriminant(self) -> Fraction:
        """disc(Phi) = (-1)^(d(d-1)/2) N(Phi'(alpha)) for the monic Phi with
        root alpha (Cohen, GTM 138, 3.3), N the product of the d conjugates."""
        d = self.degree
        # zero() + keeps Phi'(alpha) a field element when d = 1 and it is 1
        fprime = self.zero() + self.min_poly.derivative().evaluate(self.gen())
        norm = (fprime * fprime._other_conjugates()).as_fraction()
        return -norm if d * (d - 1) // 2 % 2 else norm

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return (self.min_poly == other.min_poly
                and all(a.key == b.key
                        for a, b in zip(self.aut_images, other.aut_images)))

    def __hash__(self):
        return hash((self.min_poly, tuple(img.key for img in self.aut_images)))

    def __repr__(self):
        return f"NumberField({self.min_poly!r}, degree={self.degree})"


def field_make(min_poly: QPoly | Sequence, aut_images: Sequence[Sequence]) -> NumberField:
    """Build and validate a Galois number field from generator images."""
    if not isinstance(min_poly, QPoly):
        min_poly = QPoly(min_poly)
    return NumberField(min_poly, aut_images)


# --------------------------------------------------------------------------
# subgroups and fixed fields
# --------------------------------------------------------------------------

class Subgroup(tuple):
    """Subgroup of the automorphism group, as a sorted index tuple."""

    __slots__ = ()

    def __new__(cls, indices: Iterable[int]):
        return super().__new__(cls, sorted(set(indices)))

    @property
    def order(self) -> int:
        return len(self)


def subgroup_make(field: NumberField, indices: Iterable[int]) -> Subgroup:
    s = Subgroup(indices)
    if 0 not in s:
        raise NotClosed("subgroup must contain the identity")
    members = set(s)
    for i in members:
        for j in members:
            if field.compose(i, j) not in members:
                raise NotClosed(f"subgroup not closed: {i} o {j} escapes")
    if field.degree % s.order != 0:
        raise NotClosed("subgroup order does not divide the group order")
    return s


def generated_subgroup(field: NumberField, generators: Iterable[int]) -> Subgroup:
    """The orbit of the identity under right composition with the
    generators; in a finite group it is closed under inverses too."""
    generators = list(generators)
    members, frontier = {0}, [0]
    while frontier:
        g = frontier.pop()
        for s in generators:
            if (h := field.compose(g, s)) not in members:
                members.add(h)
                frontier.append(h)
    return Subgroup(members)


def stabilizer(field: NumberField, elems: Iterable[FieldElement]) -> Subgroup:
    """Subgroup of automorphisms fixing every element of elems."""
    elems = list(elems)
    members = []
    for i in range(field.degree):
        if all(field.apply_aut(i, x) == x for x in elems):
            members.append(i)
    return Subgroup(members)


class SubfieldDescriptor(NamedTuple):
    subgroup: Subgroup
    primitive_element: FieldElement
    min_poly: QPoly
    degree: int


def _candidate_elements(field: NumberField):
    """Deterministic candidates: alpha plus small nonnegative combinations of
    the higher power-basis monomials, enumerated by total size."""
    d = field.degree
    alpha = field.gen()
    powers = [alpha ** m for m in range(2, d)]
    yield alpha
    if not powers:
        return
    s = 1
    while True:
        for tup in _compositions(s, len(powers)):
            x = alpha
            for t, pw in zip(tup, powers):
                if t:
                    x = x + t * pw
            yield x
        s += 1


def _compositions(total: int, parts: int):
    """Tuples of nonnegative ints summing to total, lexicographically
    descending, so (total, 0, ..., 0) comes first."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def fixed_field(field: NumberField, subgroup: Subgroup) -> SubfieldDescriptor:
    """The subfield fixed by the subgroup S, of degree [G:S], with a
    primitive element beta = sum over s in S of s(cand), for the first
    candidate whose orbit {g(beta)} has [G:S] elements.  beta is fixed by S,
    so its stabilizer contains S and has index the orbit size: it is S
    exactly, and the orbit is the set of conjugates of beta, whose linear
    factors multiply to its minimal polynomial, rational as a product over a
    whole orbit of G.  Index 1 gives Q as x - 1."""
    index = field.degree // subgroup.order
    if index == 1:
        return SubfieldDescriptor(subgroup, field.one(), QPoly([-1, 1]), 1)
    for cand in _candidate_elements(field):
        beta = sum((field.apply_aut(s, cand) for s in subgroup), field.zero())
        orbit = {x.key: x for x in (field.apply_aut(g, beta)
                                    for g in range(field.degree))}
        if len(orbit) == index:
            poly = _product_of_linear(field, list(orbit.values()))
            return SubfieldDescriptor(
                subgroup, beta, QPoly(c.as_fraction() for c in poly), index)
    raise AssertionError("unreachable: primitive element search must terminate")


def _product_of_linear(field: NumberField, roots: list[FieldElement]):
    """Coefficients (ascending) of prod (x - r) with FieldElement entries."""
    coeffs = [field.one()]
    for r in roots:
        new = [field.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * r
        coeffs = new
    return coeffs


# --------------------------------------------------------------------------
# Frobenius elements and place decomposition
# --------------------------------------------------------------------------

class FrobeniusResult(NamedTuple):
    """sigma_p's class: its least element, and whether it has two or more."""
    index: int
    ambiguous: bool


def frobenius_at(field: NumberField, p: int) -> FrobeniusResult:
    """The class of the automorphisms acting as x -> x^p mod a prime above p.

    Ramified when Phi mod p does not reduce or is not squarefree, read off
    the one integer the field keeps.  Otherwise Z_(p)[alpha] is the maximal
    order at p (Neukirch, ANT I section 8), so every image sigma_i(alpha),
    an algebraic integer over Z_(p), has p-integral coordinates, and
    sigma_i is a Frobenius for the primes of the irreducible factors of
    gcd(Phi, sigma_i(x) - x^p) mod p, x^p from pmod_pow_mod: exactly one
    conjugacy class (ANT I section 9), whose least element is the first
    match.  An image equal to x^p is the Frobenius at every prime above p,
    a class of one, and over an abelian E it is found with no gcd."""
    if field._bad_reduction % p == 0:
        raise Ramified(f"prime {p} is ramified for this field")
    phi_p = pmod_reduce(field.min_poly, p)
    xp = pmod_pow_mod([0, 1], p, phi_p, p)
    diffs = [pmod_sub(img.residues(p), xp, p) for img in field.aut_images]
    if [] in diffs:
        return FrobeniusResult(diffs.index([]), False)
    table = field.composition_table
    for i, diff in enumerate(diffs):
        if len(pmod_gcd(phi_p, diff, p)) > 1:
            return FrobeniusResult(i, table[i] != tuple(r[i] for r in table))
    raise FrobeniusNotFound(f"no Frobenius found at {p}; data inconsistent")


def frobenius_modulus(field: NumberField, top: int) -> int:
    """M0 = conductor_bound(primes of B = |_bad_reduction|, exponent e of
    Gal(E/Q)), a multiple of the conductor of the abelian field E.  B is
    trial-divided to max(top, [E:Q]), and a composite rest, whose primes
    exceed both, enters M0 as it is: so p <= top divides M0 iff p | B."""
    e, powers = 1, list(range(field.degree))
    while any(powers):
        e, powers = e + 1, [field.compose(g, i) for i, g in enumerate(powers)]
    rest, qs, q = abs(field._bad_reduction), set(), 2
    while q <= max(top, field.degree) and q * q <= rest:
        while rest % q == 0:
            rest, qs = rest // q, qs | {q}
        q += 1
    if q * q > rest > 1:
        qs, rest = qs | {rest}, 1
    return conductor_bound(qs, e) * rest


def double_cosets(field: NumberField, subgroup: Subgroup,
                  sigma: int) -> list[tuple[int, int, frozenset]]:
    """(representative, residue degree, members) for each double coset
    subgroup\\G/<sigma>, sorted by representative.  The residue degree is
    the orbit size of a right coset under sigma, and the representative is
    the smallest member."""
    seen = set()
    out = []
    for g in range(field.degree):
        if g in seen:
            continue
        right = frozenset(field.compose(s, g) for s in subgroup)
        orbit = [right]
        current = right
        while True:
            current = frozenset(field.compose(c, sigma) for c in current)
            if current == right:
                break
            orbit.append(current)
        members = frozenset().union(*orbit)
        seen.update(members)
        out.append((min(members), len(orbit), members))
    out.sort()
    if sum(degree for _, degree, _ in out) != field.degree // subgroup.order:
        raise NotClosed("place degrees must sum to the subfield degree; "
                        f"{sorted(subgroup)} is not a subgroup")
    return out


# --------------------------------------------------------------------------
# roots of unity (p-adic search at a split prime, exact verification) and
# mu(E) as the powers of one generator
# --------------------------------------------------------------------------

def roots_of_unity(field: NumberField) -> list[FieldElement]:
    """All roots of unity in the field, sorted by coordinates: the powers of
    a root of the largest order the field holds, verified by exact
    exponentiation.  Not cached: each call searches, and leaves mu(E) on the
    field as the UnitRoots that unit_roots reads.

    An order k >= 3 needs phi(k) | d, and p = 1 (mod k) at every prime p
    where the field splits completely, since such a p splits in Q(zeta_k);
    the orders left are searched from the largest down, at the first split
    prime, which certify_irreducible always returns.  The first order found
    is |mu(E)|, since every order the field holds divides it."""
    d = field.degree
    one = field.one()
    zeta, mult = -one, (1,) * d
    split = field.split_primes
    orders = [k for k in range(2 * (d + 1) ** 2, 2, -1)
              if d % euler_phi(k) == 0 and all(p % k == 1 for p in split)]
    if orders:
        found = _root_of_largest_order(field, orders)
        if found is not None:
            zeta, mult = found
    powers = [one]
    while (x := powers[-1] * zeta) != one:
        powers.append(x)
    # the generator is zeta^j, the first primitive power; its powers are
    # those of zeta reindexed, and sigma_i(zeta^j) = (zeta^j)^c_i as for zeta
    w = len(powers)
    j = first_primitive(powers, w)
    gen_powers = tuple(powers[j * k % w] for k in range(w))
    field._unit_roots = UnitRoots(
        w, gen_powers, {z.key: k for k, z in enumerate(gen_powers)}, mult)
    return sorted(powers, key=lambda z: z.coords)


def first_primitive(powers, k: int) -> int:
    """The e with powers[e] the first primitive k-th root of unity by
    coordinates, powers[j] = zeta^j for a zeta of order divisible by k."""
    return min((j * (len(powers) // k) for j in range(k) if gcd(j, k) == 1),
               key=lambda e: powers[e].coords)


def _root_of_largest_order(field: NumberField, orders):
    """(zeta, c) with zeta a root of unity of the first order k in orders
    that the field holds and sigma_i(zeta) = zeta^c[i]; None if none.

    At the split prime p = split_primes[0] the embedding iota_0: E -> Q_p
    sends alpha to the root of Phi above r = split_roots[0], and iota_k =
    iota_0 o sigma_k sends it to the root above image_k(r) = split_roots[k],
    so y = lam*alpha goes to Y_k, the root of the monic integral model F
    that hensel_lift finds above lam split_roots[k].  Omega = w^(p^(N-1))
    is the Teichmueller lift of w = g^((p-1)/k), g =
    arith.primitive_root(p): w^k = 1 + pt, so Omega^k = 1 mod p^N, and
    Omega = w mod p, a root of x^k - 1 that lifts uniquely as p does not
    divide k (Washington, ch. 5).  A zeta of order k with iota_0(zeta) =
    Omega (the other choices of Omega give its primitive powers) has the
    images iota_k(zeta) = iota_0(zeta^c[k]) = Omega^c[k] for a
    homomorphism c of G onto (Z/k)^x.  The traces t_m = Tr(zeta y^m) =
    sum_k iota_k(zeta) Y_k^m are integers with |t_m| <= d M^m, M =
    root_bound(F), lam and F from monic_integer_model, so their residues
    mod p^N > 2 d M^(d-1) give them exactly, and a c whose residues break
    those bounds has no zeta.  zeta is rebuilt from its traces with the
    dual basis beta_m / F'(y) of the powers of y, where F(X) / (X - y) =
    sum_m beta_m X^m, and kept only if zeta^k = 1 exactly."""
    d, p = field.degree, field.split_primes[0]
    lam, model = monic_integer_model(field.min_poly)
    limits = [d * root_bound(model) ** m for m in range(d)]
    n = 1
    while p ** n <= 2 * limits[-1]:
        n += 1
    big = p ** n
    lifted = [-hensel_lift(model, [-lam * r % p, 1], p, n)[0] % big
              for r in field.split_roots]
    y_powers = [[pow(y, m, big) for y in lifted] for m in range(d)]

    y = field.gen() * lam
    beta = [field.one()]
    for f in reversed(model[1:-1]):
        beta.insert(0, beta[0] * y + f)
    fprime = QPoly(model).derivative().evaluate(y)

    g = primitive_root(p)
    for k in orders:
        omega = pow(pow(g, (p - 1) // k, p), big // p, big)
        for c in _surjections_onto_units(field, k):
            images = [pow(omega, ck, big) for ck in c]
            traces = [(sum(z * w for z, w in zip(images, row)) + big // 2) % big
                      - big // 2 for row in y_powers]
            if all(abs(t) <= limit for t, limit in zip(traces, limits)):
                zeta = sum((t * b for t, b in zip(traces, beta)),
                           field.zero()) / fprime
                if zeta ** k == field.one():
                    return zeta, c
    return None


def _surjections_onto_units(field: NumberField, k: int):
    """Every homomorphism c of the automorphism group onto (Z/k)^x, as the
    tuple (c(sigma_0), .., c(sigma_(d-1))): each choice of values on a
    generating set, extended along the composition table, that no product
    contradicts and that reaches every unit."""
    gens, span = [], {0}
    for i in range(field.degree):
        if i not in span:
            gens.append(i)
            span = set(generated_subgroup(field, gens))
    units = [u for u in range(1, k) if gcd(u, k) == 1]
    choices = [[u for u in units
                if pow(u, generated_subgroup(field, [s]).order, k) == 1]
               for s in gens]
    for values in product(*choices):
        c, frontier, consistent = {0: 1}, [0], True
        while frontier and consistent:
            g = frontier.pop()
            for s, u in zip(gens, values):
                h, v = field.compose(g, s), c[g] * u % k
                if h not in c:
                    c[h] = v
                    frontier.append(h)
                consistent = consistent and c[h] == v
        # c(g o s) = c(g) c(s) for every g and generator s makes c a
        # homomorphism
        if consistent and len(set(c.values())) == len(units):
            yield tuple(c[i] for i in range(field.degree))


class UnitRoots(NamedTuple):
    """mu(E) as the powers of a generator zeta, the first element of
    roots_of_unity of maximal order.  A root of unity is held as its
    exponent k mod order; zeta^k has order order/gcd(order, k)."""

    order: int
    powers: tuple          # zeta^0 .. zeta^(order-1)
    log: dict              # FieldElement.key -> exponent
    aut_mult: tuple        # sigma_i(zeta) = zeta^aut_mult[i]

    def exponent(self, x: FieldElement) -> int:
        k = self.log.get(x.key)
        if k is None:
            raise NotRootOfUnity(f"{x!r} is not a root of unity of the field")
        return k

    def order_of(self, k: int) -> int:
        return self.order // gcd(self.order, k)


def unit_roots(field: NumberField) -> UnitRoots:
    """The field's UnitRoots, left on the field by its first roots_of_unity.
    aut_mult is the search's c, the same for every generator of mu(E)."""
    if field._unit_roots is None:
        roots_of_unity(field)
    return field._unit_roots


# --------------------------------------------------------------------------
# JSON (bit-exact round trip)
# --------------------------------------------------------------------------

def field_to_json(field: NumberField) -> dict:
    return {
        "min_poly": poly_to_strings(field.min_poly),
        "aut_images": [element_to_json(img) for img in field.aut_images],
    }


def field_from_json(doc: dict) -> NumberField:
    doc = typed_from_json(doc, dict, "field")
    return field_make(poly_from_strings(doc.get("min_poly")),
                      aut_images_from_json(doc.get("aut_images")))


def aut_images_from_json(images) -> list[list[Fraction]]:
    """A document's list of automorphism images, each a coordinate list."""
    return [[rational_from_json(c)
             for c in typed_from_json(img, list, "automorphism image")]
            for img in typed_from_json(images, list, "aut_images")]


def element_from_json(field: NumberField, coords) -> FieldElement:
    """The element with these document coordinates (see rational_from_json)."""
    return field.element([rational_from_json(c) for c in coords])


def element_to_json(x: FieldElement) -> list[str]:
    """The element's document coordinates, read back by element_from_json."""
    return [str(c) for c in x.coords]
