"""The fit by a conductor cap, which fit_all replaced by the fit modulo N,
and the char_fit that read the whole of fit_all.

fit_upto scans every conductor f <= N_max, with the primitive characters at
every prime power <= N_max, where fit_all walks the divisors of N only: for
any N, fit_all(e, N, ob, field) is fit_upto(e, N, ob, field) cut down to the
characters whose conductor divides N, in the same order.  ref_char_fit
returns the trivial character for an all-zero map unfitted, and otherwise
builds every fit of every conductor to keep those of the least one, where
char_fit stops at the first conductor that fits.
"""

from itertools import product as iter_product
from math import gcd

from twistctl.arith import factorize, primes_up_to
from twistctl.characters import (
    Character,
    _local_characters,
    fit_all,
    trivial_character,
)
from twistctl.errors import Ambiguous, NotRootOfUnity
from twistctl.numberfield import unit_roots


def fit_upto(exponents, N_max, order_bound, field):
    """All primitive Dirichlet characters of conductor <= N_max and order
    <= order_bound with chi(v) = zeta^k_v at every place v, sorted by
    conductor then value table."""
    mu = unit_roots(field)
    w = mu.order
    places, target = [], []
    for place, k in sorted(exponents.items(), key=lambda kv: int(kv[0])):
        if mu.order_of(k) > order_bound:
            raise NotRootOfUnity(
                f"value at place {place} is not a root of unity of order <= {order_bound}")
        places.append(int(place))
        target.append(k % w)

    found = [] if any(target) else [trivial_character(field)]
    local = {q ** e: _local_characters(q, e, w, order_bound, places)
             for q in primes_up_to(N_max) if all(v % q for v in places)
             for e in range(1, N_max.bit_length()) if q ** e <= N_max}
    for f in range(3, N_max + 1):
        parts = [local.get(q ** e, ()) for q, e in factorize(f)]
        for combo in iter_product(*parts):
            if all((sum(col) - k) % w == 0 for col, k in
                   zip(zip(*(vec for _, vec in combo)), target)):
                exps = [x for xs, _ in combo for x in xs]
                if w // gcd(w, *exps) <= order_bound:
                    found.append(Character.dirichlet(field, f, exps))
    return sorted(found, key=lambda c: (c.modulus, c.canonical_key()))


def fit_within(exponents, N, order_bound, field):
    """fit_upto at N, kept to the conductors dividing N: what fit_all
    must return."""
    return [c for c in fit_upto(exponents, N, order_bound, field)
            if N % c.modulus == 0]


def ref_char_fit(exponents, N, order_bound, field):
    """The unique smallest-conductor character of the full fit_all list,
    None if it is empty, Ambiguous on a tie; the trivial character, with
    nothing fitted, when every exponent is 0."""
    if not any(exponents.values()):
        return trivial_character(field)
    fits = fit_all(exponents, N, order_bound, field)
    if not fits:
        return None
    best = fits[0].modulus
    tied = [c for c in fits if c.modulus == best]
    if len(tied) > 1:
        raise Ambiguous(
            f"{len(tied)} characters of conductor {best} fit; more places needed")
    return tied[0]
