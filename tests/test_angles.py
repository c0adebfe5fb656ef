import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sectorwb.angles import (
    AngleSpectrum,
    HYPOTHESES_NOTE,
    angle_bound,
    angle_candidates,
    angle_cocommuting,
    angle_group,
    bound_cos,
    cocommuting_cos2,
    t_inner_roots,
)
from sectorwb.scalar import quad

import _oracles

_SQ2, _SQ5 = math.sqrt(2), math.sqrt(5)


def test_cocommuting_small_indices():
    spec = angle_cocommuting(3, 2)
    assert not spec.commuting
    assert spec.angles == pytest.approx((math.pi / 3,), abs=1e-12)


def test_cocommuting_index_pairs():
    # cos^2 = (pn-mp)/(mp(pn-1)) at a few hand-checked inputs
    for pn, mp, cos in [(7, 4, 2 ** -1.5), (13, 9, 3 ** -1.5),
                        (15, 8, 0.25), (4, 3, 1 / 3)]:
        spec = angle_cocommuting(pn, mp)
        assert math.cos(spec.angles[0]) == pytest.approx(cos, abs=1e-12)


def test_cocommuting_exact_inputs():
    pn = quad(Fraction(5, 2), Fraction(1, 2), 5)  # (5+sqrt(5))/2
    mp = quad(Fraction(3, 2), Fraction(1, 2), 5)  # (3+sqrt(5))/2
    spec = angle_cocommuting(pn, mp)
    assert math.cos(spec.angles[0]) == pytest.approx((3 - math.sqrt(5)) / 2,
                                                     abs=1e-12)


def test_equal_indices_commute():
    spec = angle_cocommuting(3, 3)
    assert spec.commuting
    assert spec.angles == ()


def test_cocommuting_rejects_pn_below_mp():
    with pytest.raises(ValueError):
        angle_cocommuting(2, 3)
    with pytest.raises(ValueError):
        angle_cocommuting(1, 1)


def test_group_quadrilateral():
    # |G|=24, |H|=|K|=4, |H∩K|=2: pn=6, mp=2
    spec = angle_group(24, 4, 4, 2)
    assert math.cos(spec.angles[0]) == pytest.approx(math.sqrt(0.4), abs=1e-12)
    with pytest.raises(ValueError):
        angle_group(24, 4, 6, 2)
    with pytest.raises(ValueError):
        angle_group(25, 4, 4, 2)
    with pytest.raises(ValueError):
        angle_group(24, 4, 4, 4)


@pytest.mark.parametrize("orders, name", [((4, 2, 2, True), "hk"), ((True, 1, 1, 1), "g")])
def test_group_orders_refuse_bools(orders, name):
    # a bool is an int to Python, but no group order: (4, 2, 2, True) would
    # otherwise read as pn = mp = 2 and commute
    with pytest.raises(ValueError, match=f"order {name} must be a positive integer"):
        angle_group(*orders)


def test_integers_beyond_float_range():
    # equal indices commute without a float; unequal ones need one
    assert angle_group(10 ** 640, 10 ** 320, 10 ** 320, 1).commuting
    with pytest.raises(ValueError, match="indices must both fit in a float"):
        angle_group(6 * 10 ** 400, 6, 6, 2)
    with pytest.raises(ValueError, match="indices must both fit in a float"):
        angle_cocommuting(10 ** 400, 2)


def test_angle_bound_values():
    assert angle_bound(2 + math.sqrt(2)) == pytest.approx(
        math.acos(math.sqrt(2) - 1), abs=1e-12)
    assert angle_bound(4) == pytest.approx(math.acos(1 / 3), abs=1e-12)
    with pytest.raises(ValueError):
        angle_bound(2)


def test_candidates_degenerate_branch():
    # s = +-1 collapses the plus branch to cosine 1 (P = Q), minus survives
    plus, minus = angle_candidates(3, 1.0)
    assert plus.degenerate and plus.angle is None
    assert plus.cosine == pytest.approx(1.0, abs=1e-12)
    assert not minus.degenerate
    assert minus.cosine == pytest.approx(1 / 3, abs=1e-12)


def test_candidates_symmetric_point():
    # s = 0 makes both branches equal to 1/sqrt(d)
    plus, minus = angle_candidates(4, 0.0)
    assert plus.cosine == pytest.approx(0.5, abs=1e-12)
    assert minus.cosine == pytest.approx(0.5, abs=1e-12)


def test_spectrum_constructor_guards():
    # any sequence of angles gives the same equal, hashable record
    spectrum = AngleSpectrum((0.5, 0.7))
    for same in (AngleSpectrum([0.5, 0.7]), AngleSpectrum(a for a in (0.5, 0.7))):
        assert same == spectrum and hash(same) == hash(spectrum)
        assert same.angles == (0.5, 0.7)
    # the constructor keeps decided angles; only from_cosines merges at EPS_ABS
    assert AngleSpectrum((0.5, 0.5 + 1e-12)).angles == (0.5, 0.5 + 1e-12)
    for bad in ((0.5, 0.5), (0.7, 0.5), (0.0,), (math.pi / 2,)):
        with pytest.raises(ValueError, match="strictly increasing inside"):
            AngleSpectrum(bad)
    assert AngleSpectrum.from_cosines([1.0, 0.5, 0.0]).angles == (
        pytest.approx(math.pi / 3),)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_rejected(bad):
    # each function checks its own inputs, with the same messages
    with pytest.raises(ValueError, match="indices must both be finite"):
        angle_cocommuting(bad, 2)
    with pytest.raises(ValueError, match="indices must both be finite"):
        angle_cocommuting(3, bad)
    for inner in (angle_candidates, t_inner_roots):
        with pytest.raises(ValueError, match="d_sigma must be finite"):
            inner(bad, 0.5)
        with pytest.raises(ValueError, match="^s must be finite"):
            inner(3, bad)
    with pytest.raises(ValueError, match="finite"):
        angle_bound(bad)
    with pytest.raises(ValueError, match="finite"):
        angle_candidates(3, bad, tol=math.inf)


def test_explicit_tolerance():
    # the default 1e-9 separates; a loose tol merges close indices, admits |s| > 1
    assert not angle_cocommuting(3, 2).commuting
    assert angle_cocommuting(3, 2, tol=1.5).commuting
    # group orders give integer indices, compared exactly: 4 and 3 stay apart
    assert angle_group(24, 6, 6, 2).angles == pytest.approx((1.23095941734,))
    with pytest.raises(TypeError):
        angle_group(24, 6, 6, 2, tol=1)
    assert angle_cocommuting(3 + 1e-12, 3).commuting
    assert angle_cocommuting(3 + 1e-12, 3, tol=0.0).angles
    with pytest.raises(ValueError, match="must not exceed 1"):
        angle_candidates(3, 1.2)
    assert angle_candidates(3, 1.2, tol=0.5)[1].cosine == pytest.approx(0.302376916857)
    with pytest.raises(ValueError, match="must not exceed 1"):
        t_inner_roots(3, 1.2)


def test_hypotheses_note_is_exposed():
    assert "hypotheses assumed" in HYPOTHESES_NOTE


d_values = st.floats(min_value=1.01, max_value=40.0,
                     allow_nan=False, allow_infinity=False)
s_values = st.floats(min_value=-1.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False)


@given(d_values, s_values)
def test_candidate_product_is_reciprocal_dimension(d, s):
    plus, minus = angle_candidates(d, s)
    assert plus.cosine * minus.cosine == pytest.approx(1.0 / d, abs=1e-12)


@given(d_values, s_values)
def test_t_inner_vieta(d, s):
    r1, r2 = t_inner_roots(d, s)
    assert r1 >= r2
    assert r1 + r2 == pytest.approx((d - 1.0) * s / d, abs=1e-12)
    assert r1 * r2 == pytest.approx(-1.0 / d, abs=1e-12)


@given(d_values, s_values)
def test_roots_and_candidates_agree_in_magnitude(d, s):
    plus, minus = angle_candidates(d, s)
    roots = sorted(abs(r) for r in t_inner_roots(d, s))
    assert sorted([plus.cosine, minus.cosine]) == roots


def _index_grid():
    """(pn, mp) pairs with 1 < mp < pn: the golden CLI and acceptance inputs, the
    classification's indices as floats, integers, and seeded random floats from
    just above 1 to 1e150."""
    pairs = [(3, 2), (7, 4), (13, 9), (15, 8), (4, 3), (6, 2), (4, 2), (3.41421356, 2.5),
             (2 + _SQ2, 1 + _SQ2), ((5 + _SQ5) / 2, (3 + _SQ5) / 2), (3 + 1e-12, 1.5)]
    pairs += [(pn, mp) for pn in range(3, 40) for mp in range(2, pn)]
    rng = random.Random(20)
    for _ in range(4000):
        pn = 1 + 10 ** rng.uniform(-8, 150)
        pairs.append((pn, 1 + (pn - 1) * rng.random()))
    return [(pn, mp) for pn, mp in pairs if 1 < mp < pn]


@pytest.mark.parametrize("pn, mp, want", [
    (3, 1.0000001, "0.000387298325051"),
    (12, 1.000000003, "5.72077555497e-05"),
])
def test_cocommuting_angle_prints_its_true_digits(pn, mp, want):
    (got,) = angle_cocommuting(pn, mp).angles
    assert f"{got:.12g}" == f"{_oracles.cocommuting_angle_decimal(pn, mp):.12g}" == want


def test_cocommuting_angles_keep_their_digits():
    # the index grid, a seeded sweep of mp from 1 + 1e-9 to 1.1 and a few group
    # orders: every kept angle within a few ulp of the decimal reference; the
    # cosine decides a drop, which happens only within 5e-5 of 0 or of pi/2
    rng = random.Random(37)
    pairs = [(pn, mp) for pn, mp in _index_grid() if abs(pn - mp) > 1e-9]
    pairs += [(1 + 10 ** rng.uniform(-1, 12), 1 + 10 ** rng.uniform(-9, -1)) for _ in range(2000)]
    worst, kept = 0.0, 0
    for pn, mp in pairs:
        spec, want = angle_cocommuting(pn, mp), _oracles.cocommuting_angle_decimal(pn, mp)
        if spec.angles:
            worst, kept = max(worst, _rel_err(spec.angles[0], want)), kept + 1
        else:
            assert min(want, math.pi / 2 - want) < 5e-5, (pn, mp)
    assert kept > 3000 and worst <= 1e-15
    for g, h, hk in [(24, 6, 2), (24, 4, 2), (60, 12, 4), (720, 24, 6), (10 ** 6, 10 ** 3, 8)]:
        (got,) = angle_group(g, h, h, hk).angles
        assert _rel_err(got, _oracles.cocommuting_angle_decimal(g // h, h // hk)) <= 1e-15


def _rel_err(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("d, s, plus, minus", [
    (1e6, 0.9, "0.900000211111", "1.11111085048e-06"),
    (1e12, 0.99, "0.99", "1.0101010101e-12"),
])
def test_candidate_cosines_print_their_true_digits(d, s, plus, minus):
    got = [c.cosine for c in angle_candidates(d, s)]
    want = _oracles.candidate_cosines_decimal(d, s)
    assert [f"{c:.12g}" for c in got] == [f"{c:.12g}" for c in want] == [plus, minus]


def test_candidate_cosines_keep_their_digits():
    # seeded sweep of d from just above 1 to 1e12 and |s| <= 1, with s = 0 and
    # s = +-1 at every d: both branches within a few ulp of the reference
    rng = random.Random(16)
    worst = 0.0
    for _ in range(400):
        d = 1 + 10 ** rng.uniform(-6, 12)
        for s in (rng.uniform(-1, 1), 0.0, 1.0, -1.0):
            got = [c.cosine for c in angle_candidates(d, s)]
            want = _oracles.candidate_cosines_decimal(d, s)
            # the roots are the same cosines, signed (c+, -c-) for s >= 0
            # and (c-, -c+) for s < 0
            r1, r2 = t_inner_roots(d, s)
            assert r1 > 0 > r2
            got += [r1, -r2] if s >= 0 else [-r2, r1]
            worst = max(worst, *map(_rel_err, got, want * 2))
    assert worst <= 1e-15


def test_roots_refuse_what_candidates_refuse():
    # past float range neither function returns a root: (d-1)^2 s^2 overflows
    message = re.escape("(d_sigma - 1)^2 s^2 overflows a float at d_sigma = 1e+200, s = 0.5")
    for inner in (angle_candidates, t_inner_roots):
        with pytest.raises(ValueError, match=message):
            inner(1e200, 0.5)


def test_bound_angle_keeps_its_digits():
    assert f"{angle_bound(2.0000001):.12g}" == "0.0004472135765"
    assert f"{_oracles.bound_angle_decimal(2.0000001):.12g}" == "0.0004472135765"
    pns = [pn for pn, _ in _index_grid() if pn > 2]
    pns += [2 + 10 ** -e for e in range(1, 16)] + [1e300, 1.7e308]
    assert max(_rel_err(angle_bound(pn), _oracles.bound_angle_decimal(pn))
               for pn in pns) <= 1e-15


def test_generic_formulas_check_nothing():
    # the callers check: the formulas compute in the type they are given
    assert cocommuting_cos2(Fraction(2), Fraction(3)) == Fraction(-1, 3)
    assert cocommuting_cos2(quad(3), quad(2)) == quad("1/4")
    with pytest.raises(ZeroDivisionError):
        bound_cos(quad(1))
