import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import _oracles
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


def test_truth_value_is_nonzero():
    # zero is false, as 0 and Fraction(0) are
    for m in (2, 3, 5, 7, 13):
        zero = quad(1, 1, m) - quad(1, 1, m)
        assert zero == 0 and bool(zero) is False and bool(quad(0, 0, m)) is False
        assert bool(quad(1, 0, m)) is bool(quad(0, 1, m)) is bool(quad("1/3", "-1/7", m)) is True
    # the Pell conjugate 665857 - 470832*sqrt(2) is about 7.5e-7, not zero
    assert bool(quad(665857, -470832, 2)) is True


def test_unsupported_operands_name_the_operator():
    x = quad(1, 1, 2)
    with pytest.raises(TypeError, match=re.escape(
            "unsupported operand type(s) for -: 'float' and 'QuadExt'")):
        1.5 - x
    assert x.__rsub__(1.5) is NotImplemented
    # so do comparisons, whichever side the QuadExt is on
    with pytest.raises(TypeError, match=re.escape(
            "'<' not supported between instances of 'float' and 'QuadExt'")):
        1.5 < x
    with pytest.raises(TypeError, match=re.escape(
            "'>=' not supported between instances of 'QuadExt' and 'NoneType'")):
        x >= None
    assert x.__gt__(1.5) is NotImplemented
    # a bool is refused as a power, as everywhere the package takes an int
    for n in (True, False):
        with pytest.raises(ValueError, match="only nonnegative integer powers"):
            x ** n


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
    for a, b, m in ((0.5, 0, 2), (1, 1.5, 2), ("1/2", 0, 2), (True, False, 2), (1, True, 2)):
        with pytest.raises(TypeError, match="rational component"):
            QuadExt(a, b, m)
    # a bool was read as 1 or 0, unlike every other constructor of the package
    for a, b in ((True, 1), (1, False)):
        with pytest.raises(TypeError, match="rational component, got bool"):
            quad(a, b, 3)
    with pytest.raises(TypeError, match="radicand"):
        QuadExt(1, 1, 2.0)


def test_repr_names_the_fields():
    assert repr(quad(3, 1, 13)) == "QuadExt(a=Fraction(3, 1), b=Fraction(1, 1), m=13)"


def test_mixed_radicands_still_raise():
    x, y = quad(1, 1, 2), quad(1, 1, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: x < y,
               lambda: x <= y, lambda: x > y, lambda: x >= y):
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


def test_held_in_lowest_terms():
    for x in (quad("3/2", "1/2", 13), quad(Fraction(4, 6), Fraction(-2, 6), 2), quad(-6, 0, 5),
              quad(0, "7/3", 3), quad(0)):
        assert type(x.p) is type(x.q) is type(x.r) is int
        assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1
        assert x.a == Fraction(x.p, x.r) and x.b == Fraction(x.q, x.r)
    d, zero = quad("3/2", "1/2", 13), quad(0)
    assert (d.p, d.q, d.r) == (3, 1, 2) and (zero.p, zero.q, zero.r) == (0, 0, 1)


def test_tracer_names_every_quadext_dunder():
    # the benchmark's tracer wraps these names on the class; one that moved
    # off QuadExt makes a traced run raise KeyError
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "QUAD_DUNDERS" for t in node.targets))
    assert len(names) == 15
    assert set(names) <= set(vars(QuadExt))


# -- differential: ints (p, q, r) against the Fraction coordinates (a, b) ----

RADICANDS = (2, 3, 5, 7, 13)
# fundamental units x + y*sqrt(m), x^2 - m y^2 = 1: their powers give large
# coordinates whose conjugates lie within 1/(2x) of zero
PELL = {2: (3, 2), 3: (2, 1), 5: (9, 4), 7: (8, 3), 13: (649, 180)}


def _pell(m, k, flip):
    x, y = PELL[m]
    u = quad(1, 0, m)
    for _ in range(k):
        u = u * quad(x, y, m)
    return (u.a, -u.b if flip else u.b)


small = st.fractions(min_value=-30, max_value=30, max_denominator=12)
large = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30))
rationals = st.one_of(small, large, st.integers(-5, 5).map(Fraction))


@st.composite
def coordinates(draw, m):
    """(a, b) of a value in Q(sqrt(m)): small, large, rational, or a Pell unit
    (or its conjugate) of up to 60 digits, scaled by a rational."""
    kind = draw(st.sampled_from(("small", "large", "rational", "pell")))
    if kind == "pell":
        a, b = _pell(m, draw(st.integers(1, 20)), draw(st.booleans()))
        c = draw(st.one_of(st.just(Fraction(1)), small.filter(bool)))
        return a * c, b * c
    if kind == "rational":
        return draw(rationals), Fraction(0)
    part = small if kind == "small" else st.one_of(small, large)
    return draw(part), draw(part)


@st.composite
def operand_pairs(draw):
    """(a, b, m) of x and the other operand as (a, b, m), an int, a Fraction or
    a non-rational; m may differ from x's."""
    m = draw(st.sampled_from(RADICANDS))
    x = (*draw(coordinates(m)), m)
    kind = draw(st.sampled_from(("same", "same", "other", "int", "fraction", "alien")))
    if kind in ("same", "other"):
        m2 = m if kind == "same" else draw(st.sampled_from(RADICANDS))
        return x, ("quad", (*draw(coordinates(m2)), m2))
    if kind == "int":
        return x, ("plain", draw(st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30))))
    if kind == "fraction":
        return x, ("plain", draw(rationals))
    return x, ("plain", draw(st.sampled_from((1.5, 2j, "1", None))))


def _outcome(fn, *args):
    """What fn(*args) gives: an exception's type and text, a plain value, or
    everything observable of a quadratic number."""
    try:
        z = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        # the oracle's class has another name, which Python's own messages show
        return ("raised", type(exc).__name__, str(exc).replace("FractionQuadExt", "QuadExt"))
    if not isinstance(z, (QuadExt, _oracles.FractionQuadExt)):
        return ("value", z)
    try:
        bits = float(z).hex()
    except OverflowError as exc:
        bits = str(exc)
    return ("quad", z.a, z.b, z.m, bits, str(z), repr(z), hash(z), z.sign(), z.is_integer)


BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


@given(operand_pairs(), st.integers(0, 7))
@example(((Fraction(665857), Fraction(-470832), 2), ("quad", (Fraction(0), Fraction(0), 2))), 3)
@example(((Fraction(1), Fraction(1), 3), ("quad", (Fraction(1), Fraction(1), 2))), 0)
def test_every_operation_matches_fraction_oracle(pair, n):
    (a, b, m), (kind, other) = pair
    new, old = QuadExt(a, b, m), _oracles.FractionQuadExt(a, b, m)
    if kind == "quad":
        other_new, other_old = QuadExt(*other), _oracles.FractionQuadExt(*other)
    else:
        other_new = other_old = other
    for name in BINARY:
        assert (_outcome(getattr(new, name), other_new)
                == _outcome(getattr(old, name), other_old)), name
    for op in (lambda x: x, lambda x: -x, lambda x: x.conj(), lambda x: x ** n,
               lambda x: x.__pow__(-1), lambda x: x.__pow__(2.0), lambda x: x ** True,
               lambda x: x.__pow__(False), bool):
        assert _outcome(op, new) == _outcome(op, old)
    if kind == "plain":
        # the reflected forms as Python calls them, the other operand on the left
        for op in (lambda x: other + x, lambda x: other - x, lambda x: other * x,
                   lambda x: other / x, lambda x: other == x, lambda x: other < x,
                   lambda x: other <= x, lambda x: other > x, lambda x: other >= x):
            assert _outcome(op, new) == _outcome(op, old)
