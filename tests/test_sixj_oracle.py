"""Cross-checks of the q-deformed recoupling bracket against two oracles.

At huge m the quantum integers converge to the ordinary ones, so the
symbol must approach the recoupling bracket computed from explicit
Clebsch-Gordan matrices.  The CG side knows nothing about q-integers or
Racah sums; agreement pins the triad convention, the prefactor and the
phase all at once.

At every m the twice-spin kernel of q6j must reproduce the Racah sum on
Fraction spins bit for bit, and raise on exactly the same inputs.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from sectorwb.wzw import QSixJ, SixJDomainError, q6j

import _oracles

_M_CLASSICAL = 5 * 10 ** 6  # [x] = x to ~1e-13 relative at this size
_SPINS = [Fraction(n, 2) for n in range(5)]  # 0 .. 2


def _admissible(j1, j2, j12, j3, j, j23):
    return (_oracles.triangle(j1, j2, j12)
            and _oracles.triangle(j12, j3, j)
            and _oracles.triangle(j2, j3, j23)
            and _oracles.triangle(j1, j23, j))


def test_classical_limit_matches_cg_oracle():
    checked = 0
    for j1, j2, j12, j3, j, j23 in itertools.product(_SPINS, repeat=6):
        if not _admissible(j1, j2, j12, j3, j, j23):
            continue
        want = _oracles.recoupling_oracle(
            float(j1), float(j2), float(j12), float(j3), float(j), float(j23))
        got = q6j(QSixJ(_M_CLASSICAL, j1, j2, j12, j3, j, j23))
        assert abs(got.imag) < 1e-12
        assert abs(got.real - want) < 1e-6, (j1, j2, j12, j3, j, j23, want, got)
        checked += 1
    assert checked > 200  # the sweep must actually cover a real family


def test_inadmissible_agree_on_zero():
    # the oracle sums to ~0 on triangle-violating inputs only when the
    # violated triad is one it also sees; the symbol is defined to be 0
    assert q6j(QSixJ(_M_CLASSICAL, 1, 1, 3, 1, 1, 1)) == 0
    assert _oracles.recoupling_oracle(1, 1, 3, 1, 1, 1) == 0


def _outcome(evaluate, m, spins):
    """("value", bit pattern) or the kind of error raised."""
    try:
        z = evaluate(m, *spins)
    except (SixJDomainError, _oracles.SixJOracleDomainError):
        return ("domain",)
    except ValueError:
        return ("invalid",)
    return ("value", z.real.hex(), z.imag.hex())


def _package(m, *spins):
    return q6j(QSixJ(m, *spins))


def _twice_range(a, b, level):
    # twice-spins c with (a, b, c) a triad whose spin sum stays <= level
    return [c for c in range(abs(a - b), a + b + 1, 2) if a + b + c <= 2 * level]


def test_recoupling_matrices_match_oracle_bit_for_bit():
    rng = random.Random("q6j-oracle")
    checked = 0
    for m in range(3, 31):
        level = 2 * m - 2
        for _ in range(2):
            while True:
                a1, a2, a3, a = (rng.randint(0, level) for _ in range(4))
                rows = [x for x in _twice_range(a1, a2, level) if x in _twice_range(a3, a, level)]
                cols = [y for y in _twice_range(a2, a3, level) if y in _twice_range(a1, a, level)]
                if a1 + a2 + a3 + a <= level and rows and cols:
                    break
            for x in rows:
                for y in cols:
                    spins = [Fraction(t, 2) for t in (a1, a2, x, a3, a, y)]
                    want = _outcome(_oracles.q6j_oracle, m, spins)
                    assert want[0] == "value"
                    assert _outcome(_package, m, spins) == want, (m, spins)
                    checked += 1
    assert checked > 300


_SPIN = st.one_of(
    st.builds(Fraction, st.integers(-1, 24), st.sampled_from([1, 2, 2, 3])),
    st.sampled_from(["3/2", "1/3", 0.5, 1.5, 2, "x"]),
)


@st.composite
def _sixj_inputs(draw):
    m = draw(st.integers(1, 12))
    if draw(st.integers(0, 3)) == 0:
        return m, draw(st.lists(_SPIN, min_size=6, max_size=6))
    # twice-spins with j12 and j23 admissible in both of their triads when
    # that is possible; the level cut is left to chance
    a1, a2, a3, a = (draw(st.integers(0, 2 * m + 2)) for _ in range(4))
    a += (a1 + a2 + a3 + a) % 2  # j1 + j2 + j3 + j must be an integer

    def middle(p, q, r, s):
        both = [c for c in range(abs(p - q), p + q + 1, 2)
                if abs(r - s) <= c <= r + s and (r + s + c) % 2 == 0]
        return draw(st.sampled_from(both or range(abs(p - q), p + q + 1, 2)))

    a12, a23 = middle(a1, a2, a3, a), middle(a2, a3, a1, a)
    return m, [Fraction(t, 2) for t in (a1, a2, a12, a3, a, a23)]


@given(_sixj_inputs())
@example((3, [2, 2, 2, 2, 2, 2]))                      # domain error
@example((9, [1, 1, 3, 1, 1, 1]))                      # inadmissible
@example((5, [Fraction(1, 2)] * 6))                    # triangles hold, odd perimeters
@example((5, [Fraction(1, 3), 0, 0, 0, 0, 0]))         # invalid spin
@example((1, [0, 0, 0, 0, 0, 0]))                      # invalid m
@example((7, ["3/2", 0.5, 1, 1, 1, "1/2"]))            # string and float spins
def test_q6j_agrees_with_oracle(inputs):
    m, spins = inputs
    assert _outcome(_package, m, spins) == _outcome(_oracles.q6j_oracle, m, spins)
