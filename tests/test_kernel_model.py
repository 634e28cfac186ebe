"""The exact kernel against a two-Fraction reference model.

`Model` is the plain textbook representation of ``a + b*w`` by two
`Fraction`s, written for these tests only.  Every operation of
`FieldElement` must agree with it over Q, Q(i) and Q(sqrt D) for
D in {2, 3, 5, 13, 94}, and every element must be in the normal form
``d > 0``, ``gcd(p, q, d) = 1``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoleaf.period_algebra import FieldElement, FieldMismatch, GroundField, IsoleafError
from paper_model import galois_conjugate

FIELDS = [GroundField.rational(), GroundField.gaussian()] + [
    GroundField.quadratic(D) for D in (2, 3, 5, 13, 94)
]


class Model:
    """``a + b*w`` with ``w*w = w2`` (``w2 = 0`` stands for Q, where ``b = 0``)."""

    def __init__(self, w2: int, a, b=0):
        self.w2, self.a, self.b = w2, Fraction(a), Fraction(b)

    def __add__(self, o):
        return Model(self.w2, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Model(self.w2, self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Model(self.w2, self.a * o.a + self.w2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def norm(self):
        return self.a * self.a - self.w2 * self.b * self.b

    def inverse(self):
        n = self.norm()
        return Model(self.w2, self.a / n, -self.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def conjugate(self):
        return Model(self.w2, self.a, -self.b) if self.w2 == -1 else self

    def galois_conjugate(self):
        return Model(self.w2, self.a, -self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0 or a > 0 and b >= 0:
            return 1
        if a <= 0 and b < 0 or a < 0 and b <= 0:
            return -1
        # mixed signs: the larger of a^2 and w2 b^2 decides
        return (1 if a > 0 else -1) if a * a > self.w2 * b * b else (1 if b > 0 else -1)

    def floor(self):
        # bracket lo <= self < hi around a float guess, then bisect exactly
        lo = hi = math.floor(float(self.a) + float(self.b) * math.sqrt(self.w2))
        step = 1
        while (self - Model(self.w2, lo)).sign() < 0:
            lo, step = lo - step, 2 * step
        step = 1
        while (self - Model(self.w2, hi)).sign() >= 0:
            hi, step = hi + step, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (self - Model(self.w2, mid)).sign() >= 0:
                lo = mid
            else:
                hi = mid
        return lo


def _w2(field):
    return {"rational": 0, "gaussian": -1}.get(field.tag, field.D)


fractions_st = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@st.composite
def pairs(draw, n=2):
    """A field and ``n`` (element, model) pairs of it."""
    field = draw(st.sampled_from(FIELDS))
    out = []
    for _ in range(n):
        a = draw(fractions_st)
        b = Fraction(0) if field.tag == "rational" else draw(fractions_st)
        out.append((field.element(a, b), Model(_w2(field), a, b)))
    return field, out


def agrees(x: FieldElement, m: Model) -> bool:
    """Same value as the model, and stored in normal form."""
    p, q, d = x.p, x.q, x.d
    normal = d > 0 and math.gcd(p, q, d) == 1
    return normal and (x.a, x.b) == (m.a, m.b)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_ring_operations(fp):
    _, [(x, mx), (y, my)] = fp
    assert agrees(x + y, mx + my)
    assert agrees(x - y, mx - my)
    assert agrees(x * y, mx * my)
    assert agrees(-x, Model(mx.w2, 0) - mx)
    if not y.is_zero():
        assert agrees(x / y, mx / my)
        assert agrees(y.inverse(), my.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@settings(max_examples=100, deadline=None)
@given(pairs(n=1), st.integers(-4, 6))
def test_powers(fp, k):
    _, [(x, mx)] = fp
    if k < 0 and x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x**k
        return
    want = Model(mx.w2, 1)
    base = mx if k >= 0 else mx.inverse()
    for _ in range(abs(k)):
        want = want * base
    assert agrees(x**k, want)


@settings(max_examples=100, deadline=None)
@given(pairs(n=1))
def test_conjugates_and_norm(fp):
    _, [(x, mx)] = fp
    assert agrees(x.conjugate(), mx.conjugate())
    assert agrees(galois_conjugate(x), mx.galois_conjugate())
    assert x.norm() == mx.norm()
    assert isinstance(x.norm(), Fraction)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_order_sign_and_floor(fp):
    field, [(x, mx), (y, my)] = fp
    if not field.is_real:
        with pytest.raises(ValueError):
            x.sign()
        with pytest.raises(ValueError):
            x.floor()
        with pytest.raises(ValueError):
            x < y
        return
    assert x.sign() == mx.sign()
    assert x.floor() == mx.floor()
    s = (mx - my).sign()
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)


@settings(max_examples=100, deadline=None)
@given(pairs(n=3))
def test_equality_and_hash(fp):
    _, [(x, mx), (y, my), (z, _)] = fp
    assert (x == y) == ((mx.a, mx.b) == (my.a, my.b))
    # the same value reached another way is equal, with the same hash
    again = (x + z) - z
    assert again == x and hash(again) == hash(x)
    # never equal to a plain int or Fraction, whatever the value
    assert x != mx.a and x != 0 and x != Fraction(0)


@settings(max_examples=100, deadline=None)
@given(pairs(n=1), st.integers(-50, 50), fractions_st)
def test_coercion_from_int_and_fraction(fp, n, r):
    field, [(x, mx)] = fp
    mn, mr = Model(mx.w2, n), Model(mx.w2, r)
    assert agrees(x + n, mx + mn) and agrees(n + x, mn + mx)
    assert agrees(x - r, mx - mr) and agrees(r - x, mr - mx)
    assert agrees(x * r, mx * mr) and agrees(n * x, mn * mx)
    if n:
        assert agrees(x / n, mx / mn)
    if not x.is_zero():
        assert agrees(r / x, mr / mx)
    if field.is_real:
        assert (x < n) == ((mx - mn).sign() < 0)
        assert (x >= r) == ((mx - mr).sign() >= 0)


@settings(max_examples=100, deadline=None)
@given(pairs(n=1))
def test_json_round_trip(fp):
    field, [(x, mx)] = fp
    text = x.to_json()
    coords = [mx.a] if field.tag == "rational" else [mx.a, mx.b]
    assert text == [[str(c.numerator), str(c.denominator)] for c in coords]
    back = FieldElement.from_json(field, text)
    assert back == x and agrees(back, mx)


@pytest.mark.parametrize(
    "D, unit", [(2, (3, 2)), (3, (2, 1)), (5, (9, 4)), (13, (649, 180)), (94, (2143295, 221064))]
)
def test_floor_next_to_integers(D, unit):
    # p - q sqrt(D) = 1/(p + q sqrt(D)) for a unit of norm one: powers of it
    # come within 10^-20 of an integer
    F = GroundField.quadratic(D)
    eps = F.element(*unit)
    for k in range(1, 5):
        x = eps**k
        for y in (x, -x, x / 7, -x / 7, galois_conjugate(x), -galois_conjugate(x)):
            m = Model(D, y.a, y.b)
            assert y.floor() == m.floor()
            assert y.sign() == m.sign()


def test_field_mismatch():
    Q2, Q3 = GroundField.quadratic(2), GroundField.quadratic(3)
    x, y = Q2.element(1, 1), Q3.element(1, 1)
    for op in (
        lambda: x + y,
        lambda: x - y,
        lambda: x * y,
        lambda: x / y,
        lambda: x < y,
        lambda: GroundField.rational().element(2) + x,
    ):
        with pytest.raises(FieldMismatch):
            op()
    # a rational value of another field coerces into this one
    assert x + Q3.element(Fraction(1, 2)) == Q2.element(Fraction(3, 2), 1)
    assert x * GroundField.gaussian().element(2) == Q2.element(2, 2)


def test_ground_fields_are_interned():
    assert GroundField.rational() is GroundField.rational()
    assert GroundField.gaussian() is GroundField.gaussian()
    assert GroundField.quadratic(13) is GroundField.quadratic(13)
    # a field built directly is a different object with the same value
    F = GroundField("quadratic", 13)
    assert F is not GroundField.quadratic(13) and F == GroundField.quadratic(13)
    x = F.element(1, 2)
    assert x == GroundField.quadratic(13).element(1, 2)
    assert x + GroundField.quadratic(13).element(0, 1) == F.element(1, 3)


def test_elements_are_immutable():
    x = GroundField.quadratic(2).element(Fraction(1, 2), 3)
    for name in ("a", "b", "p", "q", "d", "field", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert (x.p, x.q, x.d) == (1, 6, 2)
    assert (x.a, x.b) == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize(
    "data",
    [[["1", "0"]], [["1", "2"], ["3", "4"]], [["x", "2"]], [], None, [["1"]], "12"],
)
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(IsoleafError):
        FieldElement.from_json(GroundField.rational(), data)
