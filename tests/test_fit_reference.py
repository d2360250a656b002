"""Differential tests: fit_all against the three fits it replaced.

The first reference is the field-element fit: every character value is a
FieldElement, orders are found by repeated multiplication, and each
candidate is tested by products of generator images.  The second is the
enumerating exponent fit: for every divisor M of the modulus N it walks all
of (Z/M)^x with one pow per generator per residue to read the generator
exponents of the wanted residues.  The third is the table fit: for every
divisor M of N it reads those exponents from one discrete-log table per
prime power and call, then cuts each fit back to its conductor and
deduplicates.  fit_all scans the conductors dividing N instead, each
primitive character built once from primitive characters at prime powers;
it must also equal fit_upto, the fit by a conductor cap that it replaced,
kept to the conductors dividing N.  Each fit must return the same
characters in the same order, and must refuse the same inputs with
NotRootOfUnity.  On the same inputs char_fit, which stops at the first
conductor that fits, must give what ref_char_fit, the least conductor of
the full fit_all list, gives: the same character, None or Ambiguous.  The residue table of Character.dirichlet is checked
against the exponent walk it replaced, and primitive() against
Character.dirichlet at the conductor.
"""

from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from fit_reference import fit_within, ref_char_fit
from twistctl import synth
from twistctl.arith import divisors, factorize, primes_up_to
from twistctl.characters import (
    Character,
    char_exponent,
    char_fit,
    char_to_json,
    fit_all,
    trivial_character,
    unit_group_structure,
)
from twistctl.errors import Ambiguous, NotRootOfUnity
from twistctl.numberfield import (
    FieldElement,
    field_make,
    roots_of_unity,
    unit_roots,
)

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


def ref_fit_all(value_map, N, order_bound, field, mu):
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
    for M in divisors(N):
        if any(gcd(v, M) != 1 for v, _ in entries):
            continue
        gens = unit_group_structure(M)
        candidates = [[z for z in mu if z ** (d % mu_order[z]) == one]
                      for _, d in gens]
        exps_of = {}
        wanted = {v % M for v, _ in entries}
        for exps in iter_product(*(range(d) for _, d in gens)):
            r = 1 % M
            for (g, _), e in zip(gens, exps):
                r = r * pow(g, e, M) % M
            if r in wanted and r not in exps_of:
                exps_of[r] = exps
        for combo in iter_product(*candidates):
            if all(img == one for img in combo):
                continue
            ok = True
            for v, val in entries:
                acc = one
                for img, e in zip(combo, exps_of[v % M]):
                    acc = acc * img ** (e % mu_order[img])
                if acc != val:
                    ok = False
                    break
            if not ok:
                continue
            chi = RefCharacter(field, mu, M, tuple(combo))
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
    element of infinite order, or by a rational +-1; fitted modulo a
    multiple of the modulus."""
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
    N = modulus * draw(st.integers(1, 4))
    order_bound = draw(st.integers(1, 12))
    return name, values, N, order_bound


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


def assert_char_fit_matches_the_reference(exps, N, order_bound, field):
    """char_fit and ref_char_fit give the same character or None, or raise
    the same exception with the same message."""
    def outcome(fit):
        try:
            chi = fit(exps, N, order_bound, field)
        except (Ambiguous, NotRootOfUnity) as exc:
            return type(exc).__name__, str(exc)
        return None if chi is None else char_to_json(chi)

    assert outcome(char_fit) == outcome(ref_char_fit)


@settings(max_examples=150, deadline=None)
@given(fitting_problems())
def test_fit_all_matches_the_field_element_reference(problem):
    name, values, N, order_bound = problem
    field, mu = FIELDS[name], _mu(name)
    got = _outcome(lambda: [char_to_json(c) for c in fit_all(
        exponents(field, values), N, order_bound, field)])
    want = _outcome(lambda: [c.to_json() for c in
                             ref_fit_all(values, N, order_bound, field, mu)])
    within = _outcome(lambda: [char_to_json(c) for c in fit_within(
        exponents(field, values), N, order_bound, field)])
    assert got == want == within
    if got != "NotRootOfUnity":
        assert_char_fit_matches_the_reference(
            exponents(field, values), N, order_bound, field)


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


def unit_exponents(N):
    """Each unit r mod N mapped to its exponents on the canonical generators
    of (Z/N)^x, in the order of itertools.product over them: one walk along
    the powers of each generator in turn."""
    table = {1 % N: ()}
    for g, d in unit_group_structure(N):
        step = {}
        for r, es in table.items():
            for j in range(d):
                step[r] = es + (j,)
                r = r * g % N
        table = step
    return table


def dirichlet_at_conductor(chi):
    """The primitive character built as Character.dirichlet at the
    conductor M, from the values at the canonical generators mod M, each
    read at a unit mod N above it."""
    M = chi.conductor()
    on_M = {r % M: k for r, k in chi.exps.items()}
    return Character.dirichlet(chi.field, M,
                               [on_M[g] for g, _ in unit_group_structure(M)])


def primitive(chi):
    """chi.primitive(), which restricts the table mod the conductor, checked
    against dirichlet_at_conductor."""
    prim = chi.primitive()
    assert prim.modulus == chi.conductor()
    assert prim.exps == dirichlet_at_conductor(chi).exps
    return prim


def enum_fit_all(value_map, N, order_bound, field):
    mu = unit_roots(field)
    w = mu.order
    entries = []
    for place, val in sorted(value_map.items(), key=lambda kv: int(kv[0])):
        if not isinstance(val, FieldElement):
            val = field.from_rational(val)
        k = mu.log.get(val.key)
        if k is None or mu.order_of(k) > order_bound:
            raise NotRootOfUnity(
                f"value at place {place} is not a root of unity of order <= {order_bound}")
        entries.append((int(place), k))
    found = {}
    if not any(k for _, k in entries):
        triv = trivial_character(field)
        found[triv.canonical_key()] = triv
    for M in divisors(N):
        if any(gcd(v, M) != 1 for v, _ in entries):
            continue
        wanted = {}
        if any(wanted.setdefault(v % M, k) != k for v, k in entries):
            continue
        gens = unit_group_structure(M)
        exps_of = {}
        for r, es in enum_unit_exponents(M):
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
            prim = primitive(Character.dirichlet(field, M, xs))
            found.setdefault(prim.canonical_key(), prim)
    return sorted(found.values(), key=lambda c: (c.modulus, c.canonical_key()))


EXPLICIT_MODULI = (4, 8, 16, 32, 64, 9, 25, 49, 24, 72, 200)


@pytest.mark.parametrize("modulus", EXPLICIT_MODULI)
@pytest.mark.parametrize("name", ["biquadratic", "cubic_klein"])
def test_fit_all_matches_the_enumerating_reference(name, modulus):
    """Characters mod N sending the i-th generator to the (i+1)-th power
    (or the first power) of a root of unity of the largest order it allows,
    read at the first primes prime to N (which leaves the divisors of N to
    scan) or at primes above 200 (which leaves every divisor of
    lcm(N, 120)); fitted modulo N and modulo lcm(N, 120), under the full
    order bound and under one too small, and once with a value that is no
    root of unity."""
    field = FIELDS[name]
    w = unit_roots(field).order
    powers = unit_roots(field).powers
    gens = unit_group_structure(modulus)
    near = [p for p in primes_up_to(90) if gcd(p, modulus) == 1][:10]
    far = [p for p in primes_up_to(260) if p > 200][:6]
    wide = lcm(modulus, 120)
    for step, places in iter_product((0, 1), (near, far)):
        chi = Character.dirichlet(field, modulus, [
            w // gcd(w, d) * (i * step + 1) for i, (_, d) in enumerate(gens)])
        xs = [chi.exps[g] for g, _ in gens]
        assert list(chi.exps.items()) == [
            (r, sum(e * x for e, x in zip(es, xs)) % w)
            for r, es in enum_unit_exponents(modulus)]
        values = {p: powers[char_exponent(chi, p)] for p in places}
        wild = {**values, places[0]: field.one() + field.gen()}
        for vmap, N, order_bound in ((values, modulus, w),
                                     (values, wide, w),
                                     (values, wide, 2),
                                     (wild, modulus, w)):
            got = _outcome(lambda: [char_to_json(c) for c in fit_all(
                exponents(field, vmap), N, order_bound, field)])
            want = _outcome(lambda: [char_to_json(c) for c in enum_fit_all(
                vmap, N, order_bound, field)])
            assert got == want


# ---------------------------------------------------------------------------
# the third reference: one discrete-log table per prime power and call
# ---------------------------------------------------------------------------

def table_fit_all(exponents, N, order_bound, field):
    """The fit by moduli: every divisor M of N prime to the places,
    generator exponents of the wanted residues read from unit_exponents(q^e)
    for the q^e || M, every combination of generator exponents tried, and
    each fit cut back to its conductor and deduplicated."""
    mu = unit_roots(field)
    w = mu.order
    entries = []
    for place, k in sorted(exponents.items(), key=lambda kv: int(kv[0])):
        if mu.order_of(k) > order_bound:
            raise NotRootOfUnity(
                f"value at place {place} is not a root of unity of order <= {order_bound}")
        entries.append((int(place), k % w))
    found = {}
    if not any(k for _, k in entries):
        triv = trivial_character(field)
        found[triv.canonical_key()] = triv
    places = prod(v for v, _ in entries)
    logs = {}
    for M in divisors(N):
        if gcd(places, M) != 1:
            continue
        wanted = {}
        if any(wanted.setdefault(v % M, k) != k for v, k in entries):
            continue
        parts = [q ** e for q, e in factorize(M)]
        for m in parts:
            if m not in logs:
                logs[m] = ([d for _, d in unit_group_structure(m)],
                           unit_exponents(m))
        system = [(sum((logs[m][1][r % m] for m in parts), ()), k)
                  for r, k in wanted.items()]
        allowed = [range(0, w, w // gcd(w, d))
                   for m in parts for d in logs[m][0]]
        for xs in iter_product(*allowed):
            if not any(xs) or w // gcd(w, *xs) > order_bound:
                continue
            if any((sum(e * x for e, x in zip(es, xs)) - k) % w
                   for es, k in system):
                continue
            prim = primitive(Character.dirichlet(field, M, xs))
            found.setdefault(prim.canonical_key(), prim)
    return sorted(found.values(), key=lambda c: (c.modulus, c.canonical_key()))


def zeta12_field():
    """Q(zeta_12), zeta^4 = zeta^2 - 1, with zeta -> zeta^k for k = 1, 5,
    7, 11: zeta^5 = zeta^3 - zeta and zeta^7 = -zeta."""
    return field_make([1, 0, -1, 0, 1], [[0, 1, 0, 0], [0, -1, 0, 1],
                                         [0, -1, 0, 0], [0, 1, 0, -1]])


# one field for each order w of mu(E) in 2, 4, 6, 8, 12
BY_W = {2: synth.sqrt2_field(), 4: FIELDS["gaussian"],
        6: FIELDS["eisenstein"], 8: FIELDS["biquadratic"], 12: zeta12_field()}


def _all_outcomes(exps, N, order_bound, field):
    """char_to_json lists of fit_all and both exponent references, or the
    exception type and message each raised; fit_all is first checked
    against fit_within, and char_fit against ref_char_fit."""
    powers = unit_roots(field).powers

    def outcome(fit):
        try:
            return [char_to_json(c) for c in fit()]
        except NotRootOfUnity as exc:
            return ("NotRootOfUnity", str(exc))

    got = outcome(lambda: fit_all(exps, N, order_bound, field))
    assert got == outcome(lambda: fit_within(exps, N, order_bound, field))
    assert_char_fit_matches_the_reference(exps, N, order_bound, field)
    return (got,
            outcome(lambda: table_fit_all(exps, N, order_bound, field)),
            outcome(lambda: enum_fit_all({v: powers[k] for v, k in exps.items()},
                                         N, order_bound, field)))


def test_the_fields_hold_the_roots_of_unity_they_stand_for():
    assert {w: unit_roots(K).order for w, K in BY_W.items()} == {
        w: w for w in BY_W}


# (w, modulus, generator exponents, conductor of the planted character)
PLANTED = [
    (4, 4, [2], 4),              # the character mod 4
    (4, 8, [0, 2], 8),           # chi(-1) = 1, chi(5) = -1
    (4, 8, [2, 2], 8),           # chi(-1) = -1, chi(5) = -1
    (4, 16, [0, 1], 16),         # chi(5) = i, of exact order 4
    (4, 16, [2, 2], 8),          # chi(5) = -1: induced from conductor 8
    (8, 32, [0, 1], 32),         # chi(5) of exact order 8
    (8, 32, [4, 2], 16),         # chi(5) of order 4: induced from 16
    (6, 9, [1], 9),              # 2 generates (Z/9)^x; order 6
    (6, 9, [3], 3),              # order 2: induced from conductor 3
    (4, 25, [5], 5),             # no primitive character mod 25 has order | 4
    (4, 49, [2], 7),             # nor mod 49
    (6, 27, [1], 9),             # nor mod 27 of order | 6
    (6, 14, [1], 7),             # 2 || 14 contributes nothing
    (12, 36, [6, 2], 36),        # conductor 4 * 9
    (12, 63, [2, 4], 63),        # orders 6 mod 9 and 3 mod 7
]


@pytest.mark.parametrize("w,modulus,gen_exps,conductor", PLANTED)
def test_planted_conductors_against_both_references(w, modulus, gen_exps,
                                                     conductor):
    """The planted character read at the primes up to 150 prime to its
    modulus, fitted modulo the conductor divided by each of its primes,
    modulo the conductor and modulo twice the modulus: the planted
    character appears exactly when its conductor divides N."""
    field = BY_W[w]
    chi = Character.dirichlet(field, modulus, gen_exps)
    assert chi.conductor() == conductor
    places = [p for p in primes_up_to(150) if gcd(p, modulus) == 1]
    exps = {p: char_exponent(chi, p) for p in places}
    for N in [conductor // q for q, _ in factorize(conductor)] + [
            conductor, 2 * modulus]:
        got, table, enum = _all_outcomes(exps, N, w, field)
        assert got == table == enum
        assert (char_to_json(chi.primitive()) in got) == (N % conductor == 0)


def test_a_place_dividing_the_conductor_excludes_it():
    """Fitted modulo 210, a value at 7 rules out every conductor divisible
    by 7, the planted 7 included, whatever the value, and leaves the
    characters of conductor dividing 30 that agree elsewhere."""
    field = BY_W[6]
    chi = Character.dirichlet(field, 7, [1])
    places = [p for p in primes_up_to(60) if p != 7]
    exps = {p: char_exponent(chi, p) for p in places}
    for at_seven in range(6):
        got, table, enum = _all_outcomes({**exps, 7: at_seven}, 210, 6, field)
        assert got == table == enum
        assert all(c["modulus"] % 7 for c in got)


def test_the_order_bound_applies_to_the_product():
    """chi4 times a cubic character mod 7 has order 6 though each factor
    has order at most 3: read where its values have order <= 3, it fits
    under the bound 6 and not under 3."""
    field = BY_W[6]
    chi = Character.dirichlet(field, 28, [3, 2])
    assert chi.conductor() == 28 and chi.order() == 6
    mu = unit_roots(field)
    places = [p for p in primes_up_to(400) if gcd(p, 28) == 1
              and mu.order_of(char_exponent(chi, p)) <= 3]
    exps = {p: char_exponent(chi, p) for p in places}
    for order_bound in (3, 6):
        got, table, enum = _all_outcomes(exps, 28, order_bound, field)
        assert got == table == enum
        assert (char_to_json(chi) in got) == (order_bound == 6)


def test_an_all_zero_map_gives_every_character_trivial_there():
    """The verdict's call: the trivial character and every character of
    conductor dividing N trivial at the places."""
    for w, field in BY_W.items():
        exps = dict.fromkeys([11, 13, 17], 0)
        got, table, enum = _all_outcomes(exps, 120, w, field)
        assert got == table == enum
        assert got[0] == char_to_json(trivial_character(field))
        assert len(got) > 1


def test_the_ambiguous_tie_message():
    """19 and 29 are 4 mod 5, where both characters of order 4 mod 5 read
    -1: two fits of conductor 5 modulo 40, in both references too."""
    field = BY_W[4]
    exps = {19: 2, 29: 2}
    got, table, enum = _all_outcomes(exps, 40, 4, field)
    assert got == table == enum
    assert [c["modulus"] for c in got] == [5, 5, 8, 40]
    with pytest.raises(Ambiguous,
                       match="^2 characters of conductor 5 fit; more places needed$"):
        char_fit(exps, 40, 4, field)


# ---------------------------------------------------------------------------
# the property across w
# ---------------------------------------------------------------------------

@st.composite
def conductor_problems(draw):
    """A random character of order dividing w on a modulus built from a
    2-part 1, 4, 8 or 16, sometimes q^2 for an odd q | w, and up to two odd
    primes; read at random primes, now and then with one exponent changed
    or a place dividing the modulus; fitted modulo the modulus or a multiple
    of it, under an order bound that may cut below the planted order."""
    w = draw(st.sampled_from(sorted(BY_W)))
    field = BY_W[w]
    modulus = draw(st.sampled_from([1, 4, 8, 16]))
    odd_w = [q for q, _ in factorize(w) if q > 2]
    if odd_w and draw(st.booleans()):
        modulus *= odd_w[0] ** 2
    for q in draw(st.lists(st.sampled_from([3, 5, 7, 11, 13]), max_size=2,
                           unique=True)):
        if modulus % q and modulus * q <= 160:
            modulus *= q
    gen_exps = [w // gcd(w, d) * draw(st.integers(0, gcd(w, d) - 1))
                for _, d in unit_group_structure(modulus)]
    chi = Character.dirichlet(field, modulus, gen_exps)
    primes = [p for p in primes_up_to(200) if gcd(p, modulus) == 1]
    places = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=10,
                           unique=True))
    exps = {p: char_exponent(chi, p) for p in places}
    change = draw(st.sampled_from(["none", "none", "value", "divisor"]))
    if change == "value":
        exps[draw(st.sampled_from(places))] = draw(st.integers(0, w - 1))
    elif change == "divisor" and modulus > 1:
        q = draw(st.sampled_from([q for q, _ in factorize(modulus)]))
        exps[q] = draw(st.integers(0, w - 1))
    N = modulus * draw(st.integers(1, 3))
    order_bound = draw(st.sampled_from(sorted({1, 2, w // 2, w})))
    return exps, N, order_bound, field


@settings(max_examples=120, deadline=None)
@given(conductor_problems())
def test_fit_all_matches_both_references_across_w(problem):
    got, table, enum = _all_outcomes(*problem)
    assert got == table == enum


# ---------------------------------------------------------------------------
# the residue table against the exponent walk it replaced
# ---------------------------------------------------------------------------

ALL_FIELDS = {**FIELDS, "sqrt2": BY_W[2], "zeta12": BY_W[12]}


@pytest.mark.parametrize("name", sorted(ALL_FIELDS))
def test_residue_tables_match_the_exponent_walk(name):
    """For every modulus up to 200, the table of Character.dirichlet holds
    the items of unit_exponents dotted with the generator exponents, in the
    same order: characters sending the i-th generator to the (i+1)-th power,
    or the first power, of a root of unity of the largest order it allows."""
    field = ALL_FIELDS[name]
    w = unit_roots(field).order
    for modulus in range(1, 201):
        gens = unit_group_structure(modulus)
        for step in (0, 1):
            xs = [w // gcd(w, d) * (i * step + 1)
                  for i, (_, d) in enumerate(gens)]
            chi = Character.dirichlet(field, modulus, xs)
            assert list(chi.exps.items()) == [
                (r, sum(e * x for e, x in zip(es, xs)) % w)
                for r, es in unit_exponents(modulus).items()]
