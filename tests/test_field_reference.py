"""Differential test: number-field arithmetic on integer vectors against the
Fraction-coordinate arithmetic it replaced.

The reference below is the earlier implementation: an element is a tuple of
Fraction coordinates, a product reduces its convolution by Fraction rows,
and an automorphism is applied by Horner's rule in the image of alpha; an
inverse is sympy's inverse over QQ modulo the minimal polynomial.  Every
operation must give the same coordinates, equality must agree, and every
result must be in lowest terms over a positive denominator.  The fields
include presentations whose reduction rows carry denominators (x^2 + 1/4,
x^2 + 1/9, Phi_8 at alpha = zeta_8/2, Q at alpha = 1/2), where a product
that drops the rows' common denominator goes wrong.
"""

from fractions import Fraction as Q
from math import gcd

import sympy
from hypothesis import given, settings, strategies as st

from twistctl import synth
from twistctl.numberfield import field_make

FIELDS = {
    "Q": synth.rational_field(),
    "Q at 1/2": field_make([Q(-1, 2), 1], [[Q(1, 2)]]),
    "gaussian": synth.gaussian_field(),
    "sqrt2": synth.sqrt2_field(),
    "sqrt5": synth.sqrt5_field(),
    "eisenstein": synth.eisenstein_field(),
    "biquadratic": synth.biquadratic_field(),
    "cubic_klein": synth.cubic_klein_field(),
    "x^2+1/4": field_make([Q(1, 4), 0, 1], [[0, 1], [0, -1]]),
    "x^2+1/9": field_make([Q(1, 9), 0, 1], [[0, 1], [0, -1]]),
    # alpha = zeta_8 / 2, a root of x^4 + 1/16; zeta^k / 2 = 2^(k-1) alpha^k
    "Phi_8 at zeta/2": field_make([Q(1, 16), 0, 0, 0, 1],
                                  [[0, 1, 0, 0], [0, 0, 0, 4],
                                   [0, -1, 0, 0], [0, 0, 0, -4]]),
}


# ---------------------------------------------------------------------------
# the reference: Fraction coordinates
# ---------------------------------------------------------------------------

X = sympy.symbols("x")


def _sympy_poly(coeffs):
    """The ascending Fraction coefficients as a sympy polynomial over QQ."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], X, domain=sympy.QQ)


def ref_inverse(coords, min_poly):
    """The inverse of the element with these coordinates: sympy's inverse
    over QQ modulo the minimal polynomial, as ascending Fractions."""
    inv = sympy.invert(_sympy_poly(coords), _sympy_poly(min_poly.coeffs))
    return [Q(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]


class RefField:
    def __init__(self, field):
        self.min_poly = field.min_poly
        d = self.degree = field.degree
        rows = []
        current = [-c for c in self.min_poly.coeffs[:-1]]  # alpha^d
        rows.append(tuple(current))
        for _ in range(d - 2):
            shifted = [Q(0)] + list(current[:-1])
            top = current[-1]
            current = [s + top * r for s, r in zip(shifted, rows[0])]
            rows.append(tuple(current))
        self.rows = tuple(rows)
        self.images = [RefElement(self, img.coords) for img in field.aut_images]

    def rational(self, c):
        return RefElement(self, [Q(c)] + [Q(0)] * (self.degree - 1))

    def mul(self, x, y):
        d = self.degree
        prod = [Q(0)] * (2 * d - 1)
        for i, a in enumerate(x.coords):
            if a == 0:
                continue
            for j, b in enumerate(y.coords):
                prod[i + j] += a * b
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c == 0:
                continue
            row = self.rows[k - d]
            for i in range(d):
                out[i] += c * row[i]
        return RefElement(self, out)

    def apply_aut(self, index, x):
        if index == 0:
            return x
        image = self.images[index]
        acc = self.rational(x.coords[-1])
        for c in reversed(x.coords[:-1]):
            acc = acc * image + c
        return acc


class RefElement:
    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Q(c) for c in coords)

    def _coerce(self, other):
        return other if isinstance(other, RefElement) else self.field.rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return RefElement(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    def __neg__(self):
        return RefElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return RefElement(self.field, [a * other for a in self.coords])
        return self.field.mul(self, other)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result, base = self.field.rational(1), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        inv = ref_inverse(self.coords, self.field.min_poly)
        return RefElement(self.field,
                          inv + [Q(0)] * (self.field.degree - len(inv)))

    def __eq__(self, other):
        if isinstance(other, RefElement):
            return self.coords == other.coords
        return all(c == 0 for c in self.coords[1:]) and self.coords[0] == other


REFS = {name: RefField(field) for name, field in FIELDS.items()}


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def operands(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    d = FIELDS[name].degree
    vector = st.lists(st.one_of(small, st.integers(-9, 9)), min_size=d, max_size=d)
    # now and then a rational element, or one equal to the other operand
    x = draw(vector)
    shape = draw(st.sampled_from(["free", "free", "rational", "same"]))
    y = draw(vector)
    if shape == "rational":
        y = y[:1] + [0] * (d - 1)
    elif shape == "same":
        y = list(x)
    return (name, x, y, draw(st.integers(-30, 30)), draw(small),
            draw(st.integers(-3, 5)))


def _check(new, ref):
    assert new.coords == ref.coords
    assert new.den > 0
    assert gcd(new.den, *new.num) == 1
    return new


@settings(max_examples=300, deadline=None)
@given(operands())
def test_integer_arithmetic_matches_the_fraction_reference(case):
    name, xc, yc, n, c, e = case
    K, R = FIELDS[name], REFS[name]
    rx, ry = RefElement(R, xc), RefElement(R, yc)
    x, y = _check(K.element(xc), rx), _check(K.element(yc), ry)
    _check(x + y, rx + ry)
    _check(x - y, rx - ry)
    _check(-x, -rx)
    _check(x * n, rx * n)
    _check(c * x, rx * c)
    _check(x * y, rx * ry)
    _check(x + c, rx + c)
    if e >= 0 or not x.is_zero():
        _check(x ** e, rx ** e)
    if not x.is_zero():
        _check(x.inverse(), rx.inverse())
        _check(y / x, ry * rx.inverse())
    # y is rational a quarter of the time, and then a scalar
    if not y.is_zero():
        _check(x / y, rx * ry.inverse())
    if e >= 0 or not y.is_zero():
        _check(y ** e, ry ** e)
    for i in range(K.degree):
        _check(K.apply_aut(i, x), R.apply_aut(i, rx))
    assert (x == y) == (rx == ry)
    assert (x == c) == (rx == c) and (x == n) == (rx == n)
    if x == y:
        assert hash(x) == hash(y)
    if x.is_rational():
        assert hash(x) == hash(x.as_fraction()) == hash(rx.coords[0])
        assert len({x, x.as_fraction()}) == 1
