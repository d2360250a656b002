"""The inverse-based formulation of the twisted action, kept as the reference
that the product equations in twistctl.forms are compared with.

Here the action of t on g is alpha theta(t(g)) alpha^-1, theta being
transpose-inverse when t's flip is set; the cocycle identity is checked as
a_st ~ a_s theta(s(a_t)); the projection check builds the image tuples and
tests their invariance on every pair of group elements.  The determinant
and inverse are recursive cofactor expansions, the reference for the
Gaussian elimination in forms.

The image report classifies every prime on its own, the reference for the
one classify_place call per Frobenius class in forms.image_report (per
residue class mod numberfield.frobenius_modulus over an abelian field).
The place classification decomposes the places above p twice: a double
coset of the full twist group is inner-split when it falls apart into two
double cosets of the inner subgroup, the reference for the one coset test
in forms.classify_place.  A second, independent reference reads the same
verdicts off the factor degrees of the minimal polynomials of the fixed
fields F and F_inn mod p (Dedekind-Kummer), with no Frobenius, composition
table or double coset.
"""

import random

from twistctl import forms
from twistctl.errors import (BadReduction, CocycleViolation, NotInvertible,
                             NotSeparableModP, Ramified)
from twistctl.numberfield import double_cosets, frobenius_at
from twistctl.polynomials import ddf_mod_p


def _minor(a, i, j):
    return tuple(tuple(x for jj, x in enumerate(row) if jj != j)
                 for ii, row in enumerate(a) if ii != i)


def cofactor_det(ring, a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return ring.sub(ring.mul(a[0][0], a[1][1]), ring.mul(a[0][1], a[1][0]))
    acc = ring.zero
    for j in range(n):
        term = ring.mul(a[0][j], cofactor_det(ring, _minor(a, 0, j)))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc


def cofactor_inv(ring, a):
    n = len(a)
    det = cofactor_det(ring, a)
    if ring.is_zero(det):
        raise NotInvertible("matrix determinant is zero")
    if n == 1:
        return ((ring.div(ring.one, det),),)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = cofactor_det(ring, _minor(a, i, j))
            if (i + j) % 2:
                cof = ring.sub(ring.zero, cof)
            out[j][i] = ring.div(cof, det)
    return tuple(tuple(row) for row in out)


def mat_theta(ring, a):
    """Transpose-inverse, the outer automorphism of SL_n."""
    return forms.mat_transpose(forms.mat_inv(ring, a))


def _is_scalar(ring, a):
    """Whether a is a nonzero scalar multiple of the identity."""
    return forms.mat_scalar_multiple(ring, a, forms.mat_identity(ring, len(a)))


# field size -> {g: theta(g)} over a finite model
_THETA = {}


def twisted_action(cocycle, element):
    """The twisted image g -> alpha theta(t(g)) alpha^-1 of the element t,
    with alpha inverted once here rather than once per g.  theta commutes
    with the entrywise action of t, so the image is taken as t(theta(g)):
    over a finite model theta(g) does not depend on the cocycle and is
    computed once per candidate g and field size, whatever the cocycle, and
    products are read off the field's tables."""
    ctx = cocycle.context
    ring = ctx.ring
    alpha, flip = cocycle.assignments[element]
    inv = None if _is_scalar(ring, alpha) else forms.mat_inv(ring, alpha)
    if ctx.model is None:
        theta = lambda g: mat_theta(ring, g)
        act = lambda a: forms.mat_apply(lambda x: ctx.apply(element, x), a)
        product = lambda a, b: forms.mat_mul(ring, a, b)
    else:
        ff = ctx.model.extension()
        known = _THETA.setdefault(ff.q, {})

        def theta(g):
            if g not in known:
                # theta is an involution: one inverse gives both values
                h = mat_theta(ring, g)
                known[g], known[h] = h, g
            return known[g]
        table = [ctx.apply(element, x) for x in range(ff.q)]
        act = lambda a: tuple(tuple(table[x] for x in row) for row in a)
        product = _table_product(ff)

    def image(g):
        moved = act(theta(g) if flip else g)
        if inv is None:
            return moved
        return product(product(alpha, moved), inv)
    return image


def _table_product(ff):
    """The matrix product over a finite field, read off its tables."""
    add, mul = ff.add_table, ff.mul_table

    def product(a, b):
        cols = tuple(zip(*b))
        out = []
        for row in a:
            new = []
            for col in cols:
                acc = 0
                for x, y in zip(row, col):
                    acc = add[acc][mul[x][y]]
                new.append(acc)
            out.append(tuple(new))
        return tuple(out)
    return product


def cocycle_make(context, assignments):
    """The identity a_st ~ a_s theta(s(a_t)) on every ordered pair, each
    alpha inverted up front."""
    ring = context.ring
    elems = context.elements
    cleaned = {}
    for element, (alpha, flip) in assignments.items():
        a = tuple(tuple(row) for row in alpha)
        forms.mat_inv(ring, a)
        cleaned[element] = (a, bool(flip))
    if set(cleaned) != set(elems):
        raise ValueError("assignments must cover the group exactly: "
                         f"got {sorted(cleaned)}, need {sorted(elems)}")

    alpha0, flip0 = cleaned[0]
    if flip0 or not _is_scalar(ring, alpha0):
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
            moved = forms.mat_apply(lambda x: context.apply(s, x), a_t)
            if f_s:
                moved = mat_theta(ring, moved)
            expected = forms.mat_mul(ring, a_s, moved)
            if not forms.mat_scalar_multiple(ring, a_st, expected):
                raise CocycleViolation(
                    f"cocycle identity fails at pair ({s}, {t})")
    return forms.Cocycle(context, cleaned)


def conjugate_assignments(cocycle, g):
    """The assignments of the cocycle conjugated by g: g alpha theta(s(g^-1))."""
    ctx = cocycle.context
    ring = ctx.ring
    g_inv = forms.mat_inv(ring, g)
    fresh = {}
    for element, (alpha, flip) in cocycle.assignments.items():
        moved = forms.mat_apply(lambda x: ctx.apply(element, x), g_inv)
        if flip:
            moved = mat_theta(ring, moved)
        fresh[element] = (forms.mat_mul(ring, forms.mat_mul(ring, g, alpha),
                                        moved), flip)
    return fresh


def projection_iso_check(model, cocycle, seed=0):
    """The image tuples (f_t(^t g))_t of the fixed elements, their
    invariance x_s = f_g(^g x_{g^-1 s}) on every pair, projection to the
    identity component, and f_t(gh) = f_t(g) f_t(h) on 100 seeded pairs."""
    ctx = cocycle.context
    ring = ctx.ring
    elems = ctx.elements
    position = {e: i for i, e in enumerate(elems)}
    inverse = {e: next(f for f in elems if ctx.compose(e, f) == 0)
               for e in elems}
    act = {t: twisted_action(cocycle, t) for t in elems}

    fixed = forms.twisted_fixed_elements(model, cocycle)
    inverts = True
    image = set()
    invariant_image = set()
    for g in fixed:
        tup = tuple(act[t](g) for t in elems)
        image.add(tup)
        if tup[position[0]] != g:
            inverts = False
        invariant = all(
            tup[i] == act[gamma](
                tup[position[ctx.compose(inverse[gamma], tau)]])
            for gamma in elems for i, tau in enumerate(elems))
        if invariant:
            invariant_image.add(tup)

    hom_ok = True
    if fixed:
        rng = random.Random(seed)
        for _ in range(100):
            g, h = rng.choice(fixed), rng.choice(fixed)
            gh = forms.mat_mul(ring, g, h)
            for t in elems:
                if act[t](gh) != forms.mat_mul(ring, act[t](g), act[t](h)):
                    hom_ok = False

    lands = len(invariant_image) == len(image)
    bijective = len(invariant_image) == len(fixed) and len(image) == len(fixed)
    return forms.ProjectionReport(
        source_order=len(fixed),
        tuple_order=len(invariant_image),
        lands_in_fixed_subset=lands,
        projection_inverts=inverts,
        homomorphism_ok=hom_ok,
        passed=lands and inverts and hom_ok and bijective,
    )


def classify_place(field, group, p, n):
    """Verdicts for the places of the twist group's fixed field above p, by
    a second double-coset decomposition under the inner subgroup."""
    frob = frobenius_at(field, p)
    full_places = double_cosets(field, group.full_subgroup, frob.index)
    if group.has_outer():
        inner_places = double_cosets(field, group.inner_subgroup, frob.index)
        inner_rep = {}
        for rep, _, members in inner_places:
            for g in members:
                inner_rep[g] = rep
    verdicts = []
    for rep, degree, members in full_places:
        if not group.has_outer():
            split = True
        else:
            split = len({inner_rep[g] for g in members}) == 2
        if split:
            form, label = "inner-split", f"SL_{n} (split)"
        else:
            form, label = "outer-unitary", f"SU_{n} over quadratic extension"
        verdicts.append(forms.PlaceVerdict(
            representative=rep,
            residue_degree=degree,
            form=form,
            group_label=label,
            split_caveat=split,
            frobenius_ambiguous=frob.ambiguous,
        ))
    return verdicts


def ref_image_report(sys, result, primes):
    """forms.image_report with one forms.classify_place call per prime."""
    n = sys.n
    dim = result.fixed.degree * (n * n - 1) + 1
    places, excluded = [], []
    for p in sorted(primes):
        if p in sys.bad_places:
            excluded.append((p, "bad place of the input data"))
            continue
        try:
            places.append((p, tuple(
                forms.classify_place(sys.field, result.group, p, n))))
        except Ramified:
            excluded.append((p, "ramified in the coefficient field"))
    return forms.ImageReport(
        detection=result,
        places=tuple(places),
        excluded=tuple(excluded),
        predicted_dimension=dim,
        mt_upper_bound_dimension=dim,
    )


def factor_pattern_places(f_poly, f_inn_poly, p):
    """The sorted (residue degree, form) pairs of the places above p of the
    field F of minimal polynomial f_poly, inside F_inn of f_inn_poly, or
    None when either polynomial is not p-integral or not squarefree mod p.

    By Dedekind-Kummer (Neukirch, ANT I 8.3) F has a_f places of residue
    degree f above p, a_f the number of degree-f factors of f_poly mod p,
    and likewise b_f for F_inn.  If F_inn = F every place is inner-split.
    Otherwise F_inn is quadratic over F, unramified at p, so a place of
    degree f splits into two of degree f or stays inert as one of degree
    2f: going up in f, s_f = b_f / 2 places split and i_f = a_f - s_f stay
    inert, whose places then leave b_2f.  Split is inner-split and inert
    is outer-unitary."""
    try:
        a = dict(ddf_mod_p(f_poly, p))
        b = dict(ddf_mod_p(f_inn_poly, p))
    except (BadReduction, NotSeparableModP):
        return None
    if f_inn_poly.degree == f_poly.degree:
        return sorted((f, "inner-split") for f, k in a.items() for _ in range(k))
    out = []
    for f in sorted(a):
        split, rest = divmod(b.pop(f, 0), 2)
        inert = a[f] - split
        assert rest == 0 and inert >= 0, (p, f)
        if inert:
            b[2 * f] = b.get(2 * f, 0) - inert
        out += [(f, "inner-split")] * split + [(f, "outer-unitary")] * inert
    assert not any(b.values()), (p, b)
    return sorted(out)
