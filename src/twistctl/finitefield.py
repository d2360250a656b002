"""Finite fields with table-based arithmetic.

The descent oracles search matrices over these fields row by row, under a
budget on the (q^m)^(n^2) matrices of the full space: a few dozen elements
under the default budget, up to F_256 under a larger --budget.  Code c of
F_q is the c-th digit tuple, lowest first, in base-p counting order: the
coordinates in F_p[x]/(f) for a monic irreducible f found by search.  Sums
are read off the digits; products, inverses and powers off one walk of a
generator of the cyclic group F_q^x.  Code 0 is zero and code 1 is one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .arith import (distinct_degree_parts, pmod_divmod, pmod_mul, prime_power,
                    squarefree_mod_p)
from .errors import NotSeparableModP


def _find_irreducible(p: int, k: int) -> list[int]:
    """The first monic f of degree k over F_p, by its lower coefficients in
    lexicographic order, whose distinct-degree split starts at degree k: no
    factor of lower degree, and a repeated factor makes f reducible."""
    for tail in product(range(p), repeat=k):
        f = list(tail) + [1]
        try:
            if distinct_degree_parts(squarefree_mod_p(f, p), p)[0][0] == k:
                return f
        except NotSeparableModP:
            continue
    raise AssertionError("unreachable: irreducible polynomials exist")


class FiniteField:
    """The field with q = p^k elements; obtain instances via finite_field.
    exp[j] = g^j for the first code g of order q - 1 and log[g^j] = j, so a
    product, inverse or power adds or scales exponents mod q - 1."""

    __slots__ = ("q", "p", "k", "modulus", "add_table", "mul_table",
                 "neg_table", "inv_table", "exp", "log")

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q, self.p, self.k = q, p, k
        self.modulus = [0, 1] if k == 1 else _find_irreducible(p, k)
        digits = [t[::-1] for t in product(range(p), repeat=k)]
        code = {t: c for c, t in enumerate(digits)}
        self.add_table = [[code[tuple((a + b) % p for a, b in zip(u, v))]
                           for v in digits] for u in digits]
        self.neg_table = [code[tuple(-a % p for a in u)] for u in digits]
        for g in range(1, q):
            exp = [1, g]
            while exp[-1] != 1:
                r = pmod_divmod(pmod_mul(digits[exp[-1]], digits[g], p),
                                self.modulus, p)[1]
                exp.append(code[tuple(r) + (0,) * (k - len(r))])
            if len(exp) == q:  # g^(q-1) = 1 closes a walk of q - 1 codes
                break
        log, n = {a: j for j, a in enumerate(exp[:-1])}, q - 1
        self.exp, self.log = exp, log
        self.mul_table = [[exp[(log[a] + log[b]) % n] if a and b else 0
                           for b in range(q)] for a in range(q)]
        self.inv_table = [0] + [exp[-log[a] % n] for a in range(1, q)]

    # -- arithmetic on codes --------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul_table[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return self.inv(a) if e < 0 else int(e == 0)
        return self.exp[self.log[a] * e % (self.q - 1)]


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    return FiniteField(q)


@lru_cache(maxsize=None)
def special_linear(q: int, n: int) -> tuple:
    """All of SL_n(F_q) as tuples of rows of codes, in lexicographic order,
    by full enumeration for n = 2, 3: the reference that the tests compare
    the descent oracles' row search with, and the benchmark's candidate
    count."""
    ff = finite_field(q)
    add, mul, neg = ff.add_table, ff.mul_table, ff.neg_table
    codes = range(q)
    out = []
    if n == 2:
        for a, b, c, d in product(codes, repeat=4):
            if add[mul[a][d]][neg[mul[b][c]]] == 1:
                out.append(((a, b), (c, d)))
    elif n == 3:
        cells = list(product(codes, repeat=3))
        for d, e, f in cells:
            for g, h, i in cells:
                m1 = add[mul[e][i]][neg[mul[f][h]]]
                m2 = add[mul[d][i]][neg[mul[f][g]]]
                m3 = add[mul[d][h]][neg[mul[e][g]]]
                row23 = ((d, e, f), (g, h, i))
                for a, b, c in cells:
                    det = add[add[mul[a][m1]][neg[mul[b][m2]]]][mul[c][m3]]
                    if det == 1:
                        out.append(((a, b, c),) + row23)
    else:
        raise ValueError("matrix enumeration is implemented for n = 2, 3")
    out.sort()
    return tuple(out)


def split_order(q: int, n: int) -> int:
    """|SL_n(F_q)| in closed form."""
    order = q ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= q ** k - 1
    return order


def unitary_order(q: int, n: int) -> int:
    """|SU_n(F_q)|, the special unitary group of the quadratic extension:
    |SL_n| at -q up to sign (Ennola duality)."""
    return abs(split_order(-q, n))
