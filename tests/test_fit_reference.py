"""Differential tests: fit_all against the two fits it replaced.

The first reference is the field-element fit: every character value is a
FieldElement, orders are found by repeated multiplication, and each
candidate is tested by products of generator images.  The second is the
enumerating exponent fit: for every modulus N it walks all of (Z/N)^x with
one pow per generator per residue to read the generator exponents of the
wanted residues, where fit_all reads them from one discrete-log table per
prime power.  Each fit must return the same characters in the same order,
and must refuse the same inputs with NotRootOfUnity.
"""

from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from twistctl import synth
from twistctl.arith import divisors, primes_up_to
import pytest

from twistctl.characters import (
    Character,
    char_exponent,
    char_to_json,
    fit_all,
    trivial_character,
    unit_group_structure,
)
from twistctl.errors import NotRootOfUnity
from twistctl.numberfield import FieldElement, roots_of_unity, unit_roots

FIELDS = {"gaussian": synth.gaussian_field(),
          "eisenstein": synth.eisenstein_field(),
          "cubic_klein": synth.cubic_klein_field(),
          "biquadratic": synth.biquadratic_field()}


@lru_cache(maxsize=None)
def _mu(name):
    return tuple(roots_of_unity(FIELDS[name]))


# ---------------------------------------------------------------------------
# the reference: characters with FieldElement values
# ---------------------------------------------------------------------------

def ref_element_order(x, bound):
    acc = x
    for k in range(1, bound + 1):
        if acc == x.field.one():
            return k
        acc = acc * x
    return None


class RefCharacter:
    def __init__(self, field, mu, modulus, generator_images):
        self.field, self.mu = field, mu
        self.modulus = modulus
        self.generator_images = generator_images
        gens = unit_group_structure(modulus)
        one = field.one()
        self.table = {}
        for exps in iter_product(*(range(d) for _, d in gens)):
            r = 1 % modulus
            val = one
            for (g, _), e, img in zip(gens, exps, generator_images):
                r = r * pow(g, e, modulus) % modulus
                val = val * img ** e
            self.table[r] = val

    def order(self):
        result = 1
        for v in self.table.values():
            result = lcm(result, ref_element_order(v, len(self.mu)))
        return result

    def conductor(self):
        one = self.field.one()
        for M in divisors(self.modulus):
            if all(v == one for r, v in self.table.items() if r % M == 1 % M):
                return M

    def primitive(self):
        M, N = self.conductor(), self.modulus
        if M == N:
            return self
        images = []
        for g, _ in unit_group_structure(M):
            lifted = next(g + k * M for k in range(N // M + 1)
                          if gcd(g + k * M, N) == 1)
            images.append(self.table[lifted % N])
        return RefCharacter(self.field, self.mu, M, tuple(images))

    def canonical_key(self):
        prim = self.primitive()
        return ("dirichlet", prim.modulus,
                tuple(sorted((r, v.coords) for r, v in prim.table.items())))

    def to_json(self):
        gens = unit_group_structure(self.modulus)
        return {"kind": "dirichlet", "modulus": self.modulus,
                "values_on_generators": {
                    str(g): [str(c) for c in img.coords]
                    for (g, _), img in zip(gens, self.generator_images)}}


def ref_fit_all(value_map, N_max, order_bound, field, mu):
    one = field.one()
    entries = []
    for place, val in sorted(value_map.items(), key=lambda kv: int(kv[0])):
        if not isinstance(val, FieldElement):
            val = field.from_rational(val)
        if ref_element_order(val, order_bound) is None:
            raise NotRootOfUnity(f"value at place {place}")
        entries.append((int(place), val))
    mu_order = {z: ref_element_order(z, len(mu)) for z in mu}
    found = {}
    if all(val == one for _, val in entries):
        triv = RefCharacter(field, mu, 1, ())
        found[triv.canonical_key()] = triv
    for N in range(1, N_max + 1):
        if any(gcd(v, N) != 1 for v, _ in entries):
            continue
        gens = unit_group_structure(N)
        candidates = [[z for z in mu if z ** (d % mu_order[z]) == one]
                      for _, d in gens]
        exps_of = {}
        wanted = {v % N for v, _ in entries}
        for exps in iter_product(*(range(d) for _, d in gens)):
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
                acc = one
                for img, e in zip(combo, exps_of[v % N]):
                    acc = acc * img ** (e % mu_order[img])
                if acc != val:
                    ok = False
                    break
            if not ok:
                continue
            chi = RefCharacter(field, mu, N, tuple(combo))
            if chi.order() > order_bound:
                continue
            prim = chi.primitive()
            found.setdefault(prim.canonical_key(), prim)
    return sorted(found.values(), key=lambda c: (c.modulus, c.canonical_key()))


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

@st.composite
def fitting_problems(draw):
    """A value map of a random Dirichlet character at random primes, now
    and then with one value replaced by another root of unity, by a field
    element of infinite order, or by a rational +-1."""
    name = draw(st.sampled_from(["cubic_klein", "eisenstein", "gaussian"]))
    field, mu = FIELDS[name], _mu(name)
    one = field.one()
    modulus = draw(st.integers(1, 21))
    images = []
    for _, d in unit_group_structure(modulus):
        choices = [z for z in mu if z ** d == one]
        images.append(choices[draw(st.integers(0, len(choices) - 1))])
    chi = RefCharacter(field, mu, modulus, tuple(images))
    primes = [p for p in primes_up_to(80) if gcd(p, modulus) == 1]
    places = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=12,
                           unique=True))
    values = {p: chi.table[p % modulus] for p in places}
    change = draw(st.sampled_from(["none", "none", "root", "wild", "rational"]))
    victim = draw(st.sampled_from(places))
    if change == "root":
        values[victim] = mu[draw(st.integers(0, len(mu) - 1))]
    elif change == "wild":
        values[victim] = one + field.gen()
    elif change == "rational" and values[victim].is_rational():
        values[victim] = int(values[victim].as_fraction())
    n_max = draw(st.integers(1, 24))
    order_bound = draw(st.integers(1, 12))
    return name, values, n_max, order_bound


def exponents(field, values):
    """fit_all's input: each value, rationals included, as its exponent of
    zeta; NotRootOfUnity where it has none."""
    mu = unit_roots(field)
    return {v: mu.exponent(x if isinstance(x, FieldElement)
                           else field.from_rational(x))
            for v, x in values.items()}


def _outcome(fit):
    try:
        return fit()
    except NotRootOfUnity:
        return "NotRootOfUnity"


@settings(max_examples=150, deadline=None)
@given(fitting_problems())
def test_fit_all_matches_the_field_element_reference(problem):
    name, values, n_max, order_bound = problem
    field, mu = FIELDS[name], _mu(name)
    got = _outcome(lambda: [char_to_json(c) for c in fit_all(
        exponents(field, values), n_max, order_bound, field)])
    want = _outcome(lambda: [c.to_json() for c in
                             ref_fit_all(values, n_max, order_bound, field, mu)])
    assert got == want


# ---------------------------------------------------------------------------
# the second reference: exponents read by enumerating (Z/N)^x
# ---------------------------------------------------------------------------

def enum_unit_exponents(N):
    """Each unit mod N with its generator exponents, in product order, by
    one pow per generator per residue."""
    gens = unit_group_structure(N)
    out = []
    for es in iter_product(*(range(d) for _, d in gens)):
        r = 1 % N
        for (g, _), e in zip(gens, es):
            r = r * pow(g, e, N) % N
        out.append((r, es))
    return out


def enum_fit_all(value_map, N_max, order_bound, field):
    mu = unit_roots(field)
    w = mu.order
    entries = []
    for place, val in sorted(value_map.items(), key=lambda kv: int(kv[0])):
        if not isinstance(val, FieldElement):
            val = field.from_rational(val)
        k = mu.log.get(val.key)
        if k is None or mu.order_of(k) > order_bound:
            raise NotRootOfUnity(f"value at place {place}")
        entries.append((int(place), k))
    found = {}
    if not any(k for _, k in entries):
        triv = trivial_character(field)
        found[triv.canonical_key()] = triv
    for N in range(1, N_max + 1):
        if any(gcd(v, N) != 1 for v, _ in entries):
            continue
        wanted = {}
        if any(wanted.setdefault(v % N, k) != k for v, k in entries):
            continue
        gens = unit_group_structure(N)
        exps_of = {}
        for r, es in enum_unit_exponents(N):
            if r in wanted and r not in exps_of:
                exps_of[r] = es
        system = [(exps_of[r], k) for r, k in wanted.items()]
        allowed = [range(0, w, w // gcd(w, d)) for _, d in gens]
        for xs in iter_product(*allowed):
            if not any(xs) or w // gcd(w, *xs) > order_bound:
                continue
            if any((sum(e * x for e, x in zip(es, xs)) - k) % w
                   for es, k in system):
                continue
            prim = Character.dirichlet(field, N, xs).primitive()
            found.setdefault(prim.canonical_key(), prim)
    return sorted(found.values(), key=lambda c: (c.modulus, c.canonical_key()))


EXPLICIT_MODULI = (4, 8, 16, 32, 64, 9, 25, 49, 24, 72, 200)


@pytest.mark.parametrize("modulus", EXPLICIT_MODULI)
@pytest.mark.parametrize("name", ["biquadratic", "cubic_klein"])
def test_fit_all_matches_the_enumerating_reference(name, modulus):
    """Characters mod N sending the i-th generator to the (i+1)-th power
    (or the first power) of a root of unity of the largest order it allows,
    read at the first primes prime to N (which leaves the moduli built from
    N's primes to scan) or at primes above 200 (which leaves every modulus
    up to 200); fitted up to N and up to 200, under the full order bound
    and under one too small, and once with a value that is no root of
    unity."""
    field = FIELDS[name]
    w = unit_roots(field).order
    powers = unit_roots(field).powers
    gens = unit_group_structure(modulus)
    near = [p for p in primes_up_to(90) if gcd(p, modulus) == 1][:10]
    far = [p for p in primes_up_to(260) if p > 200][:6]
    for step, places in iter_product((0, 1), (near, far)):
        chi = Character.dirichlet(field, modulus, [
            w // gcd(w, d) * (i * step + 1) for i, (_, d) in enumerate(gens)])
        assert list(chi.exps.items()) == [
            (r, sum(e * x for e, x in zip(es, chi.gen_exps)) % w)
            for r, es in enum_unit_exponents(modulus)]
        values = {p: powers[char_exponent(chi, p)] for p in places}
        wild = {**values, places[0]: field.one() + field.gen()}
        for vmap, n_max, order_bound in ((values, modulus, w),
                                         (values, 200, w),
                                         (values, 200, 2),
                                         (wild, modulus, w)):
            got = _outcome(lambda: [char_to_json(c) for c in fit_all(
                exponents(field, vmap), n_max, order_bound, field)])
            want = _outcome(lambda: [char_to_json(c) for c in enum_fit_all(
                vmap, n_max, order_bound, field)])
            assert got == want
