"""Twisted forms of SL_n: cocycle validation, finite-field descent oracles,
and the per-prime classification that feeds the image report.

A cocycle assigns to each element of a Galois group an invertible matrix
alpha and a flip flag; the associated automorphism of SL_n is conjugation by
alpha, preceded by transpose-inverse when the flag is set; it is tested only
through product equations, so no matrix is inverted: g is fixed by t when
alpha t(g) = g alpha, or g alpha t(g)^T = alpha under a flip.  Validation
checks the cocycle identity, in the same form, on every ordered pair up to
scalars, since conjugation kills the center.  Over a finite-field model
(E, F) = (F_{q^m}, F_q) the fixed points of the twisted Galois action are
found by a depth-first search over the rows of the matrix, which gives an
independent oracle: trivial cocycles descend to the split SL_n(F_q) and
flip cocycles to special unitary groups, with orders matched against closed
forms.  Over number fields the same validation runs on exact coordinates.

Classification at a prime p is purely combinatorial: the place of the fixed
field F of the twist group H that belongs to the double coset H r <sigma_p>,
of residue degree f, splits in the quadratic extension fixed by the inner
twists exactly when r sigma_p^f r^-1 lies in the inner subgroup; there the
form is inner (split), elsewhere the unitary group of that extension.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .arith import prime_power
from .errors import (BudgetExceeded, CocycleViolation, NotInvertible,
                     Ramified, SchemaError, bool_from_json, int_from_json,
                     label_from_json, typed_from_json)

if TYPE_CHECKING:
    # Imported where used, so that each command loads only what it runs.
    from .finitefield import FiniteField
    from .numberfield import NumberField, Subgroup
    from .twists import DetectionResult, TwistGroup

DEFAULT_BUDGET = 2 ** 22


# ---------------------------------------------------------------------------
# ring-generic matrix helpers
# ---------------------------------------------------------------------------

class Ring(NamedTuple):
    """Scalar operations shared by the matrix routines, so the same code
    runs on exact number-field elements and on finite-field codes."""
    zero: object
    one: object
    add: callable
    sub: callable
    mul: callable
    div: callable
    is_zero: callable


def number_field_ring(field: NumberField) -> Ring:
    return Ring(field.zero(), field.one(),
                lambda a, b: a + b, lambda a, b: a - b,
                lambda a, b: a * b, lambda a, b: a / b,
                lambda a: a.is_zero())


def finite_field_ring(ff: FiniteField) -> Ring:
    return Ring(0, 1, ff.add, ff.sub, ff.mul, ff.div, lambda a: a == 0)


def mat_identity(ring: Ring, n: int) -> tuple:
    return tuple(tuple(ring.one if i == j else ring.zero for j in range(n))
                 for i in range(n))


def mat_mul(ring: Ring, a: tuple, b: tuple) -> tuple:
    add, mul = ring.add, ring.mul
    cols = list(zip(*b))
    out = []
    for row in a:
        new = []
        for col in cols:
            acc = ring.zero
            for x, y in zip(row, col):
                acc = add(acc, mul(x, y))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def _eliminate(ring: Ring, a: tuple, right: tuple = ()) -> tuple:
    """Gaussian elimination of [a | right] over the ring: det a, and
    a^-1 right once a is cleared to the identity (None when det a is zero).
    With no right block only the rows below each pivot are cleared, which is
    all the determinant needs."""
    sub, mul, div, is_zero = ring.sub, ring.mul, ring.div, ring.is_zero
    n = len(a)
    rows = [list(x) + list(y) for x, y in zip(a, right or [()] * n)]
    det = ring.one
    for c in range(n):
        p = next((r for r in range(c, n) if not is_zero(rows[r][c])), None)
        if p is None:
            return ring.zero, None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = sub(ring.zero, det)
        pivot = rows[c][c]
        det = mul(det, pivot)
        # row c over its pivot, past column c: columns up to c are not read again
        lead = [div(x, pivot) for x in rows[c][c + 1:]]
        if right:
            rows[c][c + 1:] = lead
        for r in range(0 if right else c + 1, n):
            f = rows[r][c]
            if r != c and not is_zero(f):
                rows[r][c + 1:] = [sub(x, mul(f, y))
                                   for x, y in zip(rows[r][c + 1:], lead)]
    return det, tuple(tuple(row[n:]) for row in rows) if right else None


def mat_det(ring: Ring, a: tuple):
    return _eliminate(ring, a)[0]


def mat_inv(ring: Ring, a: tuple) -> tuple:
    _, inv = _eliminate(ring, a, mat_identity(ring, len(a)))
    if inv is None:
        raise NotInvertible("matrix determinant is zero")
    return inv


def mat_apply(fn, a: tuple) -> tuple:
    return tuple(tuple(fn(x) for x in row) for row in a)


def mat_scalar_multiple(ring: Ring, a: tuple, b: tuple) -> bool:
    """Whether a = lambda * b for some nonzero scalar lambda."""
    lam = None
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if not ring.is_zero(y):
                lam = ring.div(x, y)
                break
        if lam is not None:
            break
    if lam is None or ring.is_zero(lam):
        return False
    return all(x == ring.mul(lam, y)
               for row_a, row_b in zip(a, b)
               for x, y in zip(row_a, row_b))


# ---------------------------------------------------------------------------
# Galois contexts: a group acting semilinearly on matrix entries
# ---------------------------------------------------------------------------

class GaloisContext(NamedTuple):
    """A group acting on matrix entries.  Element 0 is the identity: index
    0 of a number field's automorphism table, 0 of Z/m for a finite model."""
    elements: tuple
    ring: Ring
    compose: callable
    apply: callable               # apply(element, scalar)
    field: NumberField | None = None
    model: "FiniteModel | None" = None


def number_field_context(field: NumberField, subgroup: Subgroup) -> GaloisContext:
    return GaloisContext(
        elements=tuple(subgroup),
        ring=number_field_ring(field),
        compose=field.compose,
        apply=field.apply_aut,
        field=field,
    )


class FiniteModel(NamedTuple):
    """E = F_{q^m} over F = F_q with cyclic Galois group generated by the
    q-power map; n is the matrix size.  Build via finite_model, which
    enforces the search budget."""
    q: int
    m: int
    n: int
    budget: int = DEFAULT_BUDGET

    def extension(self) -> FiniteField:
        from .finitefield import finite_field

        return finite_field(self.q ** self.m)


def finite_model(q: int, m: int, n: int, budget: int = DEFAULT_BUDGET) -> FiniteModel:
    """The model (F_{q^m}, F_q) for n x n matrices.  The budget bounds the
    (q^m)^(n^2) matrices of the full space, far more than the fixed-point
    search visits; shapes past the default need an explicit budget."""
    prime_power(q)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    if n < 2:
        raise ValueError("matrix size n must be at least 2")
    candidates = (q ** m) ** (n * n)
    if candidates > budget:
        raise BudgetExceeded(
            f"enumerating {n}x{n} matrices over a field with {q ** m} "
            f"elements needs {candidates} candidates, over the budget {budget}")
    return FiniteModel(q, m, n, budget)


def finite_model_context(model: FiniteModel) -> GaloisContext:
    ff = model.extension()
    frob = [[ff.pow(a, model.q ** j) for a in range(ff.q)]
            for j in range(model.m)]
    m = model.m
    return GaloisContext(
        elements=tuple(range(m)),
        ring=finite_field_ring(ff),
        compose=lambda i, j: (i + j) % m,
        apply=lambda j, a: frob[j % m][a],
        model=model,
    )


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

class Cocycle(NamedTuple):
    """Validated assignment element -> (alpha, flip); build via cocycle_make."""
    context: GaloisContext
    assignments: dict

    def alpha(self, element) -> tuple:
        return self.assignments[element][0]

    def flip(self, element) -> bool:
        return self.assignments[element][1]


def _fixed_by(cocycle: Cocycle, element, g: tuple) -> bool:
    """Whether g is fixed by the twisted action of the element, as a product
    equation: alpha t(g) = g alpha, or g alpha t(g)^T = alpha under a flip
    (t the entrywise Galois action), so nothing is inverted."""
    ctx = cocycle.context
    ring = ctx.ring
    alpha, flip = cocycle.assignments[element]
    moved = mat_apply(lambda x: ctx.apply(element, x), g)
    if flip:
        return mat_mul(ring, mat_mul(ring, g, alpha),
                       mat_transpose(moved)) == alpha
    return mat_mul(ring, alpha, moved) == mat_mul(ring, g, alpha)


def cocycle_make(context: GaloisContext, assignments: dict) -> Cocycle:
    """Validate the cocycle identity on every ordered pair and return the
    cocycle.  Matrix equalities hold up to nonzero scalars, the identity
    must carry (scalar, no flip), and every group element needs an entry.
    Every alpha is n x n for one n >= 1, model.n over a finite model.

    The identity a_st ~ a_s theta(s(a_t)) is checked without an inverse:
    as a_st s(a_t)^T ~ a_s under a flip of s, and a_st ~ a_s s(a_t)
    otherwise."""
    ring = context.ring
    elems = context.elements
    n = context.model.n if context.model else None
    cleaned = {}
    for element, (alpha, flip) in assignments.items():
        a = tuple(tuple(row) for row in alpha)
        n = n or len(a)
        if not a or len(a) != n or any(len(row) != n for row in a):
            raise SchemaError(
                "every alpha must be n x n for one n >= 1 (model.n over a "
                f"finite model); alpha of element {element} has rows of "
                f"lengths {[len(row) for row in a]}")
        if ring.is_zero(mat_det(ring, a)):
            raise NotInvertible("matrix determinant is zero")
        cleaned[element] = (a, bool(flip))
    if set(cleaned) != set(elems):
        raise ValueError("assignments must cover the group exactly: "
                         f"got {sorted(cleaned)}, need {sorted(elems)}")

    alpha0, flip0 = cleaned[0]
    if flip0 or not mat_scalar_multiple(ring, alpha0,
                                        mat_identity(ring, len(alpha0))):
        raise CocycleViolation(
            "the identity element must map to (scalar matrix, no flip)")

    for s in elems:
        for t in elems:
            st = context.compose(s, t)
            a_s, f_s = cleaned[s]
            a_t, f_t = cleaned[t]
            a_st, f_st = cleaned[st]
            if f_st != (f_s ^ f_t):
                raise CocycleViolation(f"flip parity fails at pair ({s}, {t})")
            moved = mat_apply(lambda x: context.apply(s, x), a_t)
            if f_s:
                lhs, rhs = mat_mul(ring, a_st, mat_transpose(moved)), a_s
            else:
                lhs, rhs = a_st, mat_mul(ring, a_s, moved)
            if not mat_scalar_multiple(ring, lhs, rhs):
                raise CocycleViolation(
                    f"cocycle identity fails at pair ({s}, {t})")
    return Cocycle(context, cleaned)


def trivial_cocycle(context: GaloisContext, n: int) -> Cocycle:
    ident = mat_identity(context.ring, n)
    return cocycle_make(context, {e: (ident, False) for e in context.elements})


def unitary_cocycle(model: FiniteModel) -> Cocycle:
    """Generator -> (identity, flip) over a model of even degree: descends
    to the special unitary group of the top quadratic step."""
    if model.m % 2:
        raise ValueError("a flip cocycle needs an even extension degree")
    context = finite_model_context(model)
    ident = mat_identity(context.ring, model.n)
    return cocycle_make(context,
                        {j: (ident, bool(j % 2)) for j in range(model.m)})


def conjugate_cocycle(cocycle: Cocycle, g) -> Cocycle:
    """The cohomologous cocycle obtained by composing with conjugation by g
    on the left and by the Galois image of its inverse on the right, which
    under a flip is theta(s(g^-1)) = s(g)^T.  The fixed-point group changes
    by conjugation only, so orders are preserved."""
    ctx = cocycle.context
    ring = ctx.ring
    gm = tuple(tuple(row) for row in g)
    g_inv = mat_inv(ring, gm)
    fresh = {}
    for element, (alpha, flip) in cocycle.assignments.items():
        moved = mat_apply(lambda x: ctx.apply(element, x),
                          mat_transpose(gm) if flip else g_inv)
        fresh[element] = (mat_mul(ring, mat_mul(ring, gm, alpha), moved), flip)
    return cocycle_make(ctx, fresh)


# ---------------------------------------------------------------------------
# descent oracles over finite models
# ---------------------------------------------------------------------------

def _check_model_cocycle(model: FiniteModel, cocycle: Cocycle):
    if cocycle.context.model != model:
        raise ValueError("cocycle was built over a different model")
    candidates = (model.q ** model.m) ** (model.n * model.n)
    if candidates > model.budget:
        raise BudgetExceeded(
            f"{candidates} matrix candidates exceed the budget {model.budget}")


def twisted_fixed_elements(model: FiniteModel, cocycle: Cocycle) -> tuple:
    """Elements of SL_n(F_{q^m}) fixed by the twisted action of the Frobenius
    generator, in lexicographic order; for a validated cocycle over a cyclic
    group this is the whole twisted-fixed group.

    g is fixed by the generator when g alpha F(g)^T = alpha under a flip,
    an equation whose entry (i, j) reads rows i and j of g, and when
    alpha F(g) = g alpha without one, whose row i reads row i and
    the rows k with alpha_ik != 0 (F the entrywise Frobenius).  A depth-first
    search places the rows of g in order, each one drawn from F_{q^m}^n in
    lexicographic order.  An equation narrows the candidates of the last row
    it reads as soon as every other row it reads is placed, or up front when
    it reads one row only.  At the last row det g is linear in the row and
    is tested against the cofactor vector of the rows above, so nothing is
    inverted."""
    _check_model_cocycle(model, cocycle)
    ff = model.extension()
    add, mul, neg = ff.add_table, ff.mul_table, ff.neg_table
    n, gen = model.n, 1 % model.m
    alpha, flip = cocycle.assignments[gen]
    frob = [cocycle.context.apply(gen, a) for a in range(ff.q)]

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = add[acc][mul[x][y]]
        return acc

    def wedge(minors, d, r):
        """The (d+1) x (d+1) minors of the d rows placed, with r appended
        below them, from their d x d minors by Laplace expansion along r;
        both keyed by column tuple."""
        out = {}
        for cs in combinations(range(n), d + 1):
            acc = 0
            for pos, j in enumerate(cs):
                term = mul[r[j]][minors[cs[:pos] + cs[pos + 1:]]]
                acc = add[acc][neg[term] if (d + pos) % 2 else term]
            out[cs] = acc
        return out

    # candidates are indices k into rows; times[k] = rows[k] alpha and
    # conj[k] = F(rows[k])
    rows = list(product(range(ff.q), repeat=n))
    cols = list(zip(*alpha))
    times = [tuple(dot(r, c) for c in cols) for r in rows]
    conj = [tuple(frob[x] for x in r) for r in rows]

    # each equation: (rows it reads, narrow(g, candidates) -> those kept
    # for the last row it reads, the other rows being placed in g)
    if flip:
        def entries(i, j):
            """Entries (i, j) and (j, i) of g alpha F(g)^T = alpha, j <= i."""
            a, b = alpha[i][j], alpha[j][i]
            if i == j:
                return {i}, lambda g, ks: [k for k in ks
                                           if dot(times[k], conj[k]) == a]

            def narrow(g, ks):
                tj, cj = times[g[j]], conj[g[j]]
                return [k for k in ks
                        if dot(times[k], cj) == a and dot(tj, conj[k]) == b]
            return {i, j}, narrow
        equations = [entries(i, j) for i in range(n) for j in range(i + 1)]
    else:
        def row(i):
            """Row i of alpha F(g) = g alpha."""
            terms = [(a, k) for k, a in enumerate(alpha[i]) if a]
            reads = {i} | {k for _, k in terms}
            last = max(reads)

            def narrow(g, ks):
                kept = []
                for g[last] in ks:
                    acc = (0,) * n
                    for a, k in terms:
                        acc = tuple(add[x][mul[a][y]]
                                    for x, y in zip(acc, conj[g[k]]))
                    if acc == times[g[i]]:
                        kept.append(g[last])
                return kept
            return reads, narrow
        equations = [row(i) for i in range(n)]

    up_front = [[] for _ in range(n)]
    ahead = [[[] for _ in range(n)] for _ in range(n)]
    for reads, narrow in equations:
        last, *before = sorted(reads, reverse=True)
        (ahead[before[0]][last] if before else up_front[last]).append(narrow)

    g = [0] * n
    fixed = []

    def narrowed(narrows, ks):
        for narrow in narrows:
            ks = narrow(g, ks)
        return ks

    def place(d, candidates, minors):
        """candidates[i - d]: the rows still possible at position i >= d;
        minors: the d x d minors of the rows placed above."""
        if d == n - 1:
            # det g = sum_j cof_j g_dj, cof_j the signed minor without column j
            cof = [minors[cs] for cs in combinations(range(n), d)][::-1]
            cof = [neg[c] if (d + j) % 2 else c for j, c in enumerate(cof)]
            above = tuple(rows[k] for k in g[:d])
            fixed.extend(above + (rows[k],) for k in candidates[0]
                         if dot(cof, rows[k]) == 1)
            return
        for g[d] in candidates[0]:
            rest = [narrowed(ahead[d][i], ks)
                    for i, ks in enumerate(candidates[1:], d + 1)]
            if all(rest):
                place(d + 1, rest, wedge(minors, d, rows[g[d]]))

    place(0, [narrowed(up_front[i], range(len(rows))) for i in range(n)],
          {(): 1})
    return tuple(fixed)


def twisted_fixed_points(model: FiniteModel, cocycle: Cocycle) -> int:
    return len(twisted_fixed_elements(model, cocycle))


class ProjectionReport(NamedTuple):
    source_order: int             # twisted-fixed elements, generator condition
    tuple_order: int              # of those, fixed by every group element
    lands_in_fixed_subset: bool   # every image tuple is twisted-fixed
    projection_inverts: bool      # identity component recovers the element
    homomorphism_ok: bool         # the found set is closed under products
    passed: bool


def projection_iso_check(model: FiniteModel, cocycle: Cocycle,
                         seed: int = 0) -> ProjectionReport:
    """Check that g -> (f_t(^t g))_t maps the twisted-fixed group bijectively
    onto twisted-fixed tuples in the product of one SL_n copy per group
    element, inverted by projection to the identity component.

    For a valid cocycle the image of g is the diagonal tuple (g, ..., g),
    twisted-fixed exactly when g satisfies _fixed_by for every element: a
    corrupted assignment at a non-generator element leaves elements fixed by
    the generator but not by it, and the counts disagree.  Closure: g h is
    found for 100 pairs drawn with the seed, and for every found g with h
    the first found non-identity h0, so a missed x = (x h0^-1) h0 shows."""
    _check_model_cocycle(model, cocycle)
    ctx = cocycle.context
    ring = ctx.ring
    elems = ctx.elements

    fixed = twisted_fixed_elements(model, cocycle)
    fixed_by_all = lambda g: all(_fixed_by(cocycle, t, g) for t in elems)
    tuple_order = sum(1 for g in fixed if fixed_by_all(g))
    inverts = all(_fixed_by(cocycle, 0, g) for g in fixed)

    rng = random.Random(seed)
    pairs = [(rng.choice(fixed), rng.choice(fixed))
             for _ in range(100)] if fixed else []
    h0 = next((h for h in fixed if h != mat_identity(ring, model.n)), None)
    pairs += [(g, h0) for g in fixed if h0 is not None]
    found = set(fixed)
    hom_ok = all(mat_mul(ring, g, h) in found for g, h in pairs)

    lands = tuple_order == len(fixed)
    return ProjectionReport(
        source_order=len(fixed),
        tuple_order=tuple_order,
        lands_in_fixed_subset=lands,
        projection_inverts=inverts,
        homomorphism_ok=hom_ok,
        passed=lands and inverts and hom_ok,
    )


# ---------------------------------------------------------------------------
# per-prime classification
# ---------------------------------------------------------------------------

class PlaceVerdict(NamedTuple):
    """One place of the fixed field above p; its fields are the JSON keys."""
    representative: int           # smallest automorphism index in the double coset
    residue_degree: int
    form: str                     # "inner-split" or "outer-unitary"
    group_label: str
    split_caveat: bool            # split is certified over the coefficient algebra only
    frobenius_ambiguous: bool     # |Frobenius class| > 1, so never over abelian E


def classify_place(field: NumberField, group: TwistGroup, p: int,
                   n: int) -> list[PlaceVerdict]:
    """Verdicts for the places of the twist group's fixed field above p.

    They depend on the class of sigma_p alone, read as its least element
    sigma: the place of the double coset H r <sigma>, of residue degree f,
    is inner-split exactly when r sigma^f r^-1, a generator of its
    decomposition group, lies in the inner subgroup, else outer-unitary."""
    from .numberfield import double_cosets, frobenius_at

    frob = frobenius_at(field, p)
    verdicts = []
    for rep, degree, _ in double_cosets(field, group.full_subgroup, frob.index):
        g = rep
        for _ in range(degree):
            g = field.compose(g, frob.index)
        split = field.compose(g, field.inverse_table[rep]) in group.inner_subgroup
        if split:
            form, label = "inner-split", f"SL_{n} (split)"
        else:
            form, label = "outer-unitary", f"SU_{n} over quadratic extension"
        verdicts.append(PlaceVerdict(
            representative=rep,
            residue_degree=degree,
            form=form,
            group_label=label,
            split_caveat=split,
            frobenius_ambiguous=frob.ambiguous,
        ))
    return verdicts


# ---------------------------------------------------------------------------
# image report
# ---------------------------------------------------------------------------

class ImageReport(NamedTuple):
    detection: DetectionResult
    places: tuple                 # ((p, (PlaceVerdict, ...)), ...) sorted by p
    excluded: tuple               # ((p, reason), ...) sorted by p
    predicted_dimension: int
    mt_upper_bound_dimension: int # the same formula as predicted_dimension


def image_report(sys, result: DetectionResult, primes) -> ImageReport:
    """Aggregate the detection output and the per-prime form verdicts; a
    requested prime that is a bad place of the data, or where the
    coefficient field ramifies, is excluded with that reason instead.

    The verdicts depend on the conjugacy class of sigma_p alone, so they
    are computed once per class: over an abelian E, one class per residue
    of p mod frobenius_modulus prime to it (Kronecker-Weber), and
    otherwise the class frobenius_at returns.

    The dimension prediction is [F:Q] (n^2 - 1) + 1: the derived group
    contributes one copy of SL_n per embedding of the fixed field, and the
    center one line of scalars.  mt_upper_bound_dimension is this same
    formula, kept as a JSON key; it is not a second bound."""
    from .numberfield import frobenius_at, frobenius_modulus

    n, field, primes = sys.n, sys.field, sorted(primes)
    dim = result.fixed.degree * (n * n - 1) + 1
    m0 = field.is_abelian and frobenius_modulus(field, max(primes, default=0))
    places, excluded, seen = [], [], {}
    for p in primes:
        if p in sys.bad_places:
            excluded.append((p, "bad place of the input data"))
            continue
        try:
            key = p % m0 if m0 and gcd(p, m0) == 1 else frobenius_at(field, p)
            if key not in seen:
                seen[key] = tuple(classify_place(field, result.group, p, n))
        except Ramified:
            excluded.append((p, "ramified in the coefficient field"))
            continue
        places.append((p, seen[key]))
    return ImageReport(
        detection=result,
        places=tuple(places),
        excluded=tuple(excluded),
        predicted_dimension=dim,
        mt_upper_bound_dimension=dim,
    )


def report_to_json(report: ImageReport) -> dict:
    from .twists import detection_to_json

    det = detection_to_json(report.detection)
    # one list per distinct verdict tuple, shared by every prime that has
    # it, so the command line's writer encodes it once
    lists = {verdicts: [v._asdict() for v in verdicts]
             for verdicts in {verdicts for _, verdicts in report.places}}
    return {
        "verdict": det["verdict"]["kind"],
        **{key: det[key] for key in ("group_order", "inner_order",
                                     "fixed_field", "inner_fixed_field")},
        "predicted_dimension": report.predicted_dimension,
        "mt_upper_bound_dimension": report.mt_upper_bound_dimension,
        "primes": {str(p): lists[verdicts] for p, verdicts in report.places},
        "excluded": {str(p): reason for p, reason in report.excluded},
        "bound": det["bound"],
    }


# ---------------------------------------------------------------------------
# cocycle serialization
# ---------------------------------------------------------------------------

def cocycle_to_json(cocycle: Cocycle) -> dict:
    ctx = cocycle.context
    doc = {}
    if ctx.model is not None:
        doc["model"] = {"q": ctx.model.q, "m": ctx.model.m, "n": ctx.model.n}
        cell = lambda x: x
    else:
        from .numberfield import element_to_json, field_to_json
        doc["field"] = field_to_json(ctx.field)
        doc["subgroup"] = sorted(ctx.elements)
        cell = element_to_json
    doc["assignments"] = {
        str(e): {"alpha": [[cell(x) for x in row] for row in alpha],
                 "flip": flip}
        for e, (alpha, flip) in sorted(cocycle.assignments.items())
    }
    return doc


def cocycle_from_json(doc: dict) -> Cocycle:
    try:
        raw = doc["assignments"]
        if "model" in doc:
            spec = doc["model"]
            model = finite_model(
                *(int_from_json(spec[key], f"model {key}") for key in "qmn"),
                int_from_json(spec.get("budget", DEFAULT_BUDGET), "model budget"))
            context = finite_model_context(model)
            size = model.q ** model.m
            cell = lambda x: int_from_json(x, "a finite-model alpha entry", size)
        else:
            from .numberfield import (element_from_json, field_from_json,
                                      subgroup_make)
            field = field_from_json(doc["field"])
            subgroup = subgroup_make(field, [
                int_from_json(i, "subgroup entry") for i in doc["subgroup"]])
            context = number_field_context(field, subgroup)
            cell = lambda x: element_from_json(field, x)
        assignments = {
            int_from_json(label_from_json(key, "assignment key"),
                          "assignment key"):
                (tuple(tuple(cell(x) for x in row) for row in entry["alpha"]),
                 bool_from_json(entry["flip"], "flip"))
            for key, entry in typed_from_json(raw, dict, "assignments").items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed cocycle document: {exc}") from exc
    return cocycle_make(context, assignments)
