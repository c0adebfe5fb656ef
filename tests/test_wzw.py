import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles
from sectorwb import catalog, wzw
from sectorwb.angles import AngleSpectrum
from sectorwb._base import qint
from sectorwb.wzw import (
    QSixJ,
    SixJDomainError,
    alpha_induction_spectrum,
    asymptotic_spectrum,
    branching_rule,
    ghj_spectrum,
    monodromy_ratio,
    q6j,
    su2k_modular,
)


def test_s_matrix_unitary_and_symmetric():
    for k in range(1, 17):
        S = su2k_modular(k).S
        assert np.allclose(S @ S.T, np.eye(k + 1), atol=1e-10)
        assert np.allclose(S, S.T, atol=1e-12)


def test_quantum_dimensions_positive():
    md = su2k_modular(6)
    assert md.d[0] == pytest.approx(1.0, abs=1e-12)
    assert all(x > 0 for x in md.d)
    assert md.d[1] == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-12)


def test_verlinde_matches_fusion_table():
    for k in (1, 2, 3, 4, 6):
        md = su2k_modular(k)
        ring = catalog.builtin("su2", k)
        for i in range(k + 1):
            for j in range(k + 1):
                for l in range(k + 1):
                    want = ring.n(f"l{i}", f"l{j}", f"l{l}")
                    got = md.verlinde(i, j, l)
                    assert abs(got - want) < 1e-8, (k, i, j, l)


def test_monodromy_ratio_clamped():
    for k in range(1, 12):
        for j in range(k + 1):
            r = monodromy_ratio(k, 1, j)
            assert 0.0 <= r <= 1.0
    with pytest.raises(ValueError):
        monodromy_ratio(4, 1, 5)


def test_monodromy_ratio_matches_s_matrix():
    # the closed form reads the same four entries su2k_modular builds;
    # relative, not bitwise: np.sin may differ from math.sin in the last bit
    for k in range(1, 61):
        S = su2k_modular(k).S
        for i0 in range(k + 1):
            for j in range(k + 1):
                want = min(1.0, abs(S[0, 0] * S[i0, j]) / (abs(S[0, i0]) * abs(S[0, j])))
                assert abs(monodromy_ratio(k, i0, j) - want) <= 1e-15 * want, (k, i0, j)


def test_e6_spectrum():
    spec = ghj_spectrum(branching_rule("E6"))
    assert len(spec.angles) == 1
    assert spec.angles[0] == pytest.approx(math.acos(2 - math.sqrt(3)), abs=1e-12)
    assert spec.angles == alpha_induction_spectrum(10, 1, (0, 6)).angles


def test_a_and_d_spectra_trivial():
    # a single-block branching set gives no interior angles at all
    assert ghj_spectrum(branching_rule("A5")).angles == ()
    assert ghj_spectrum(branching_rule("A11")).angles == ()
    # D-even at i0=1: the extremal label pairs to ratio ~ 1
    assert ghj_spectrum(branching_rule("D6")).angles == ()


def test_e7_e8_spectra():
    # E7: the middle label 8 sits at ratio 0 (a right angle), so nothing
    # interior survives; E8: labels 10 and 18 alias to one interior angle
    assert ghj_spectrum(branching_rule("E7")).angles == ()
    e8 = ghj_spectrum(branching_rule("E8"))
    want = math.acos(math.cos(11 * math.pi / 30) / math.cos(math.pi / 30))
    assert e8.angles == pytest.approx((want,), abs=1e-12)


def test_branching_rule_table():
    # the rules once shipped as formulas and literals, with the Coxeter number
    # h = k + 2: A_n (n + 1, {0}), D_n (2n - 2, {0, k}) and the E table
    old = {f"A{n}": (n + 1, (0,)) for n in range(2, 41)}
    old.update({f"D{n}": (2 * n - 2, (0, 2 * n - 4)) for n in range(4, 81, 2)})
    old.update({"E6": (12, (0, 6)), "E7": (18, (0, 8, 16)), "E8": (30, (0, 10, 18, 28))})
    for graph, (h, J) in old.items():
        assert branching_rule(graph) == (graph, h - 2, J)
    # A and D take any size, as the old formulas did
    assert branching_rule("A500") == ("A500", 499, (0,))
    assert branching_rule("D1000") == ("D1000", 1996, (0, 1996))
    for bad in ("D5", "D2", "F4", "E9", "A1", "e6", "D", "6", "E6\n", "E\u0666",
                "D04", "A007", "E06", "D1001", "E5", "E10"):
        with pytest.raises(ValueError, match="unknown graph name"):
            branching_rule(bad)


def test_dynkin_graphs_run_from_the_end_of_the_longest_leg():
    want = {"A3": [[1], [0, 2], [1]],
            "D4": [[1], [0, 2, 3], [1], [1]],
            "D6": [[1], [0, 2], [1, 3], [2, 4, 5], [3], [3]],
            "E6": [[1], [0, 2], [1, 3, 4], [2], [2, 5], [4]],
            "E8": [[1], [0, 2], [1, 3], [2, 4], [3, 5, 6], [4], [4, 7], [6]]}
    for graph, adj in want.items():
        neighbours = wzw._dynkin_graph(graph)
        assert [neighbours(v) for v in range(len(adj))] == adj, graph


def test_asymptotic_counts_and_values():
    for n in range(3, 21):
        spec = asymptotic_spectrum(n)
        assert len(spec.angles) == (n - 2) // 2, n
    # closed form at n=4 hits the golden ratio
    spec = asymptotic_spectrum(4)
    assert math.cos(spec.angles[0]) == pytest.approx((3 - math.sqrt(5)) / 2,
                                                     abs=1e-12)
    spec = asymptotic_spectrum(5)
    assert math.cos(spec.angles[0]) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    with pytest.raises(ValueError):
        asymptotic_spectrum(2)


def test_asymptotic_n_is_capped():
    # only the value just above the cap: an uncapped huge n would take
    # seconds and gigabytes
    assert len(asymptotic_spectrum(40).angles) == 19
    with pytest.raises(ValueError, match=f"above the cap n <= {wzw.MAX_ASYMPTOTIC_N}$"):
        asymptotic_spectrum(wzw.MAX_ASYMPTOTIC_N + 1)


def test_q6j_special_values():
    for n in range(2, 7):
        h = Fraction(n, 2)
        sym = QSixJ(n + 1, n, h, h, 1, h, h)
        val = q6j(sym)
        assert val.real == pytest.approx(-1.0, abs=1e-9), n
        assert abs(val.imag) < 1e-12


def test_q6j_trivial_and_inadmissible():
    assert q6j(QSixJ(7, 0, 0, 0, 0, 0, 0)) == pytest.approx(1.0)
    # a real float, admissible or not: the value was complex() of one
    assert type(q6j(QSixJ(7, 0, 0, 0, 0, 0, 0))) is type(q6j(QSixJ(9, 1, 1, 3, 1, 1, 1))) is float
    # triangle violation in the (j1, j2, j12) triad
    assert q6j(QSixJ(9, 1, 1, 3, 1, 1, 1)) == 0
    # fractional perimeter
    assert q6j(QSixJ(9, Fraction(1, 2), 0, 0, 0, 0, 0)) == 0


def test_su2k_modular_refuses_a_bool_level():
    # True used to give ModularData with k = True; the catalog refuses it too
    for k in (True, False, 0, 1.0):
        with pytest.raises(ValueError, match="level k must be an integer >= 1"):
            su2k_modular(k)
        with pytest.raises(ValueError, match="requires an integer level k >= 1"):
            catalog.float_dimensions("su2", k)


@pytest.mark.parametrize("k, i0, j", [
    (10.5, 1, 2), (True, 0, 1), (4, 1.0, 2), (4, 1, 2.0), (4, True, 2), (4, 1, False),
    (4, 1, "2"), (0, 0, 0), (None, 0, 0),
])
def test_monodromy_refuses_what_is_not_an_int(k, i0, j):
    # monodromy_ratio(10.5, 1, 2) gave 0.7526 and (True, 0, 1) gave 1.0
    message = "level k must be" if type(k) is not int or k < 1 else "labels i0 and"
    with pytest.raises(ValueError, match=message):
        monodromy_ratio(k, i0, j)
    with pytest.raises(ValueError, match=message):
        alpha_induction_spectrum(k, i0, [0, j])


def test_alpha_induction_refuses_a_label_set_that_is_not_ints():
    # int(j) read 1.5 as 1 and True as 1
    for J in ([0, 1.5], [0, True], [False, 1], [0, "1"]):
        with pytest.raises(ValueError, match="labels i0 and J must be integers"):
            alpha_induction_spectrum(10, 1, J)
    assert alpha_induction_spectrum(10, 1, iter([0, 6])).angles == ghj_spectrum(branching_rule("E6")).angles


def test_su2_float_dimensions_are_the_quantum_integers():
    # the formula float_dimensions wrote inline, bit for bit, and the
    # dimensions of the S-matrix
    for k in (1, 2, 10, 40, 150):
        n = k + 2
        name, dims = catalog.float_dimensions("su2", k)
        assert dims == {f"l{j}": math.sin((j + 1) * math.pi / n) / math.sin(math.pi / n)
                        for j in range(k + 1)}
        assert list(dims.values()) == pytest.approx(su2k_modular(k).d, rel=1e-12)


def test_q6j_domain_errors():
    with pytest.raises(SixJDomainError):
        q6j(QSixJ(3, 2, 2, 2, 2, 2, 2))  # q-factorial past the vanishing integer
    # large spins at large m: [x] is close to x, so [171]! overflows a float;
    # quotients of infinite factorials would come out as nan
    for m, spin in ((2001, 200), (20001, 2000)):
        with pytest.raises(SixJDomainError, match=f"index 171 overflows a float at m = {m}$"):
            q6j(QSixJ(m, *[spin] * 6))
    with pytest.raises(ValueError):
        QSixJ(1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        QSixJ(5, Fraction(1, 3), 0, 0, 0, 0, 0)


def test_qfacts_keep_at_most_64_orders_and_the_same_floats():
    # a sweep over distinct m holds at most 64 lists, one per root-of-unity
    # order, and a second sweep, which builds the dropped lists again, gives
    # the same floats, those of a fresh list up to [2m - 1]! or the last finite one
    wzw._qfacts.cache_clear()
    ms = range(3, 203)
    first = [q6j(QSixJ(m, 1, 1, 1, 1, 1, 1)) for m in ms]
    assert wzw._qfacts.cache_info().currsize == 64
    for m, value in zip(ms, first):
        misses = wzw._qfacts.cache_info().misses
        assert q6j(QSixJ(m, 1, 1, 1, 1, 1, 1)) == value
        assert wzw._qfacts.cache_info().misses == misses + 1
        assert wzw._qfacts.cache_info().currsize <= 64
        f, fresh = wzw._qfacts(2 * m), [1.0]
        for x in range(1, len(f)):
            fresh.append(fresh[-1] * qint(x, 2 * m))
        assert f == fresh
        assert len(f) == 2 * m or math.isinf(f[-1] * qint(len(f), 2 * m))


def test_integers_beyond_float_range():
    with pytest.raises(SixJDomainError, match="order m must fit in a float"):
        q6j(QSixJ(10 ** 400, 1, 1, 1, 1, 1, 1))
    assert q6j(QSixJ(10 ** 400, 1, 1, 1, 1, 1, Fraction(1, 2))) == 0  # inadmissible: no float
    with pytest.raises(ValueError, match="level k and its labels must fit in a float"):
        alpha_induction_spectrum(10 ** 400, 1, [0, 1])
    with pytest.raises(ValueError, match="level k and its labels must fit in a float"):
        monodromy_ratio(10 ** 200, 10 ** 200, 10 ** 200)
    # the level fits a float, but s(0, i0) s(0, j) underflows to 0
    with pytest.raises(ValueError, match="too large for float S-matrix entries"):
        monodromy_ratio(10 ** 150, 1, 1)
    assert monodromy_ratio(10 ** 100, 1, 1) == 1.0
    # i0 = 1 reads no S entry: its angle at 10^150 is a normal float, and only
    # the product sin(3 pi/2n) sin(pi/2n) underflowing (k near 1.8e154) is refused
    (got,) = alpha_induction_spectrum(10 ** 150, 1, [0, 1]).angles
    assert _rel_err(got, _oracles.i0_one_angle_decimal(10 ** 150, 1)) <= 6e-16
    assert f"{got:.12g}" == "5.4413980927e-150"
    with pytest.raises(ValueError, match=r"^the level k = 1e\+200 is too large: its angles"):
        alpha_induction_spectrum(10 ** 200, 1, [0, 1])


def test_angles_a_float_cannot_tell_apart_name_the_level_and_labels():
    # past k near 1e16 two labels can round to one float angle, or one label's
    # angle to pi/2; the constructor's "not strictly increasing" named neither
    k, j = 10 ** 17, 10 ** 17 // 2
    with pytest.raises(ValueError, match=rf"^at level k = {k}, a float cannot tell apart the "
                                         rf"angles of labels j = {j - 2} and {j - 1}$"):
        alpha_induction_spectrum(k, 1, [0, j - 1, j - 2])
    # a label is named as given, not as its fold k - j
    with pytest.raises(ValueError, match=rf"labels j = {k - j + 2} and {j - 1}$"):
        alpha_induction_spectrum(k, 1, [0, j - 1, k - j + 2])
    k = 3 * 10 ** 18 + 7
    with pytest.raises(ValueError, match=rf"^at level k = {k}, a float cannot tell apart the "
                                         rf"angles of label j = {k // 2 + 1} and pi/2$"):
        alpha_induction_spectrum(k, 1, [0, k // 2 + 1])
    # either label alone keeps its angle, a float below pi/2
    (got,) = alpha_induction_spectrum(10 ** 17, 1, [0, j - 1]).angles
    assert got < math.pi / 2


def _rel_err(got, want):
    return abs(got - want) / want


def test_i0_one_angles_keep_their_digits():
    # the product form against the written ratio |cos(q pi/n)| / cos(pi/n) in
    # decimal: every label at k <= 40, labels sampled at levels up to 10^6,
    # and the three levels where the float ratio lost digits or the angle.
    # The form rounds about five times and asin amplifies by up to 1.27, so
    # a few labels in a thousand sit between 4e-16 and 5e-16
    rng = random.Random(46)
    cases = [(k, j) for k in range(1, 41) for j in range(1, k)]
    for _ in range(2000):
        k = int(10 ** rng.uniform(1, 6))
        cases.append((k, rng.randint(1, k - 1)))
    cases += [(200000, 1), (100000, 1), (9999, 1)]
    worst = 0.0
    for k, j in cases:
        n, q = k + 2, min(j + 1, k + 1 - j)
        (got,) = alpha_induction_spectrum(k, 1, [0, j]).angles or (None,)
        assert (got is None) == (q == 1 or 2 * q == n), (k, j)
        if got is not None:
            worst = max(worst, _rel_err(got, _oracles.i0_one_angle_decimal(k, j)))
    assert worst <= 6e-16
    assert [f"{alpha_induction_spectrum(k, 1, [0, 1]).angles[0]:.12g}"
            for k in (200000, 100000)] == ["2.72067183974e-05", "5.44128926781e-05"]
    assert f"{asymptotic_spectrum(10000).angles[0]:.12g}" == "0.000544085409678"


def test_asymptotic_is_the_i0_one_spectrum_one_level_down():
    for N in range(3, 2001):
        want = alpha_induction_spectrum(N - 1, 1, range((N - 2) // 2 + 1)).angles
        assert asymptotic_spectrum(N).angles == want, N


def test_i0_one_classes_match_the_float_path_in_count():
    # the congruences keep and merge exactly the labels that EPS_ABS kept
    # and merged at every small level: no case differs
    for k in range(1, 31):
        for j in range(k + 1):
            for j2 in range(j, k + 1):
                J = {0, j, j2}
                old = AngleSpectrum.from_cosines(monodromy_ratio(k, 1, i) for i in J).angles
                new = alpha_induction_spectrum(k, 1, J).angles
                assert len(new) == len(old), (k, J)
                assert new == pytest.approx(old, rel=1e-13, abs=0), (k, J)


def test_qsixj_spin_validation():
    for bad in (Fraction(-1, 2), Fraction(1, 3)):
        with pytest.raises(ValueError, match="not a nonnegative half-integer"):
            QSixJ(5, 0, bad, 0, 0, 0, 0)
    exact = QSixJ(5, 1, Fraction(1, 2), Fraction(3, 2), 1, Fraction(1, 2), Fraction(1, 2))
    loose = QSixJ(5, 1, 0.5, "3/2", 1, "1/2", 0.5)
    assert loose.spins == exact.spins
    assert all(type(x) is Fraction for x in loose.spins)
    assert loose == exact and hash(loose) == hash(exact)
    assert repr(loose) == ("QSixJ(m=5, j1=Fraction(1, 1), j2=Fraction(1, 2), "
                           "j12=Fraction(3, 2), j3=Fraction(1, 1), j=Fraction(1, 2), "
                           "j23=Fraction(1, 2))")
    assert q6j(loose) == q6j(exact) != 0


def test_s_matrix_is_read_only():
    S = su2k_modular(4).S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 0.0


def test_q6j_column_swap_symmetry():
    # swapping the first two columns (j1<->j2, j3<->j) preserves the value
    spins = [(1, 1, 1, 1, 1, 1),
             (1, 1, 2, 1, 1, 2),
             (1, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), 1, 1)]
    for j1, j2, j12, j3, j, j23 in spins:
        a = q6j(QSixJ(11, j1, j2, j12, j3, j, j23))
        b = q6j(QSixJ(11, j2, j1, j12, j, j3, j23))
        assert a == pytest.approx(b, abs=1e-12)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
def test_monodromy_against_cosine_form(k, j):
    if j > k:
        j = j % (k + 1)
    want = abs(math.cos((j + 1) * math.pi / (k + 2))) / math.cos(math.pi / (k + 2))
    assert monodromy_ratio(k, 1, j) == pytest.approx(min(1.0, want), abs=1e-12)
