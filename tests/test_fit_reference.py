"""Differential test: fit_all on integer exponents against the field-element
fit it replaced.

The reference below is the earlier implementation: every character value is
a FieldElement, orders are found by repeated multiplication, and each
candidate is tested by products of generator images.  Both fits must return
the same characters in the same order, and must refuse the same inputs with
NotRootOfUnity.
"""

from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from twistctl import synth
from twistctl.arith import divisors, primes_up_to
from twistctl.characters import char_to_json, fit_all, unit_group_structure
from twistctl.errors import NotRootOfUnity
from twistctl.numberfield import FieldElement, roots_of_unity

FIELDS = {"gaussian": synth.gaussian_field(),
          "eisenstein": synth.eisenstein_field(),
          "cubic_klein": synth.cubic_klein_field()}


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
    name = draw(st.sampled_from(sorted(FIELDS)))
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
    got = _outcome(lambda: [char_to_json(c) for c in
                            fit_all(values, n_max, order_bound, field=field)])
    want = _outcome(lambda: [c.to_json() for c in
                             ref_fit_all(values, n_max, order_bound, field, mu)])
    assert got == want
