import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sectorwb.scalar import QuadExt, quad


def test_basic_arithmetic():
    d = quad(Fraction(3, 2), Fraction(1, 2), 13)  # (3+sqrt(13))/2
    assert d * d == 3 * d + 1
    assert (d - 3) * d == quad(1, 0, 13)
    assert float(d) == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-15)


def test_golden_ratio_identities():
    phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert phi ** 3 == 2 * phi + 1
    assert (phi - 1) * phi == quad(1, 0, 5)


def test_exact_sign_near_zero():
    # Pell pair: 665857^2 - 2*470832^2 = 1, so 665857 beats 470832*sqrt(2)
    # by about 7.5e-7; float comparison at this scale is already unreliable
    x = quad(665857, -470832, 2)
    assert x > 0
    assert quad(-665857, 470832, 2) < 0


def test_division_and_inverse():
    y = quad(2, 1, 2)
    assert y / y == quad(1, 0, 2)
    assert (1 / y) * y == quad(1, 0, 2)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        y / quad(0, 0, 2)


def test_square_free_radicand_rejected():
    with pytest.raises(ValueError):
        quad(1, 1, 12)
    with pytest.raises(ValueError):
        quad(1, 1, 0)


def test_constructor_still_validates():
    with pytest.raises(ValueError, match="not square-free"):
        QuadExt(Fraction(1), Fraction(1), 4)
    for a, b, m in ((0.5, 0, 2), (1, 1.5, 2), ("1/2", 0, 2)):
        with pytest.raises(TypeError, match="rational component"):
            QuadExt(a, b, m)
    with pytest.raises(TypeError, match="radicand"):
        QuadExt(1, 1, 2.0)


def test_repr_names_the_fields():
    assert repr(quad(3, 1, 13)) == "QuadExt(a=Fraction(3, 1), b=Fraction(1, 1), m=13)"


def test_mixed_radicands_still_raise():
    x, y = quad(1, 1, 2), quad(1, 1, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: x < y):
        with pytest.raises(ValueError, match="mixed radicands 2 and 3"):
            op()
    # a rational value adopts the other operand's radicand
    assert (quad(5, 0, 3) + x).m == 2 and (x * quad(2, 0, 3)).m == 2


def test_mixed_radicand_comparisons():
    assert quad(0, 1, 2) != quad(0, 1, 3)
    assert quad(5, 0, 2) == quad(5, 0, 3) == 5


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(fracs, fracs, fracs, fracs, st.sampled_from([2, 3, 5, 7, 13]))
def test_ring_axioms_hold(a1, b1, a2, b2, m):
    x = quad(a1, b1, m)
    y = quad(a2, b2, m)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-6, rel=1e-9)


@given(fracs, fracs, st.sampled_from([2, 3, 5, 7, 13]))
def test_sign_matches_float(a, b, m):
    x = quad(a, b, m)
    fx = float(x)
    if fx > 1e-7:
        assert x > 0
    elif fx < -1e-7:
        assert x < 0


@given(fracs, st.sampled_from([2, 3, 5, 7, 13]), st.sampled_from([2, 3, 5, 7, 13]))
def test_rational_values_hash_like_their_rationals(r, m1, m2):
    x, y = quad(r, 0, m1), quad(r, 0, m2)
    assert x == r == y and hash(x) == hash(r) == hash(y)
    assert len({x, r, y}) == 1
    assert {r: "a"}.get(x) == "a" and {x: "a"}.get(y) == "a"
    if r.denominator == 1:
        n = int(r)
        assert x == n and hash(x) == hash(n) and {n: "a"}.get(x) == "a"


@given(fracs, fracs.filter(bool), st.sampled_from([2, 3, 5, 7, 13]))
def test_equal_irrationals_hash_alike(a, b, m):
    x = quad(a, b, m)
    assert hash(x) == hash(quad(a, b, m)) == hash(x.conj().conj())
    assert len({x, quad(a, b, m), a}) == 2


def _rebuilt(z):
    # the public constructor re-runs every check the arithmetic skips
    assert type(z.a) is Fraction and type(z.b) is Fraction and type(z.m) is int
    w = QuadExt(z.a, z.b, z.m)
    assert (w.a, w.b, w.m) == (z.a, z.b, z.m)
    return w


@given(fracs, fracs, fracs, fracs, st.sampled_from([2, 3, 5, 7, 13]), st.integers(0, 4))
def test_arithmetic_results_match_public_constructor(a1, b1, a2, b2, m, n):
    x, y = quad(a1, b1, m), quad(a2, b2, m)
    want = {
        "add": (a1 + a2, b1 + b2), "sub": (a1 - a2, b1 - b2), "neg": (-a1, -b1),
        "mul": (a1 * a2 + b1 * b2 * m, a1 * b2 + b1 * a2), "conj": (a1, -b1),
        "radd": (a2 + a1, b1), "rsub": (a2 - a1, -b1), "rmul": (a2 * a1, a2 * b1),
    }
    got = {
        "add": x + y, "sub": x - y, "neg": -x, "mul": x * y, "conj": x.conj(),
        "radd": a2 + x, "rsub": a2 - x, "rmul": a2 * x,
    }
    for name, z in got.items():
        assert (z.a, z.b, z.m) == (*want[name], m), name
        assert _rebuilt(z) == z
    power = x ** n
    assert _rebuilt(power) == power and power.m == m
    expected = quad(1, 0, m)
    for _ in range(n):
        expected = expected * x
    assert power == expected
    if y != 0:
        for z in (x / y, a1 / y):
            assert _rebuilt(z) == z and z.m == m
        assert (x / y) * y == x and (a1 / y) * y == a1
