"""SU(2) level-k modular data and the angle spectra it induces.

Covers the S-matrix and quantum dimensions, Verlinde fusion numbers,
monodromy ratios, induced angle spectra for a chosen branching subset J,
the Goodman-de la Harpe-Jones branching sets derived from the Dynkin graphs,
asymptotic-inclusion spectra, and Kirillov-Reshetikhin quantum 6j-symbols at a root of unity.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, List, NamedTuple, Tuple

from ._base import Frozen, fmt, qint
from .angles import AngleSpectrum

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


class ModularData(NamedTuple):
    """S-matrix and quantum dimensions of SU(2) at level k."""

    k: int
    S: np.ndarray
    d: Tuple[float, ...]

    def verlinde(self, i: int, j: int, l: int) -> float:
        """Fusion number N_ij^l = sum_m S_im S_jm S_lm / S_0m (real, near-integer)."""
        import numpy as np

        S = self.S
        return float(np.sum(S[i] * S[j] * S[l] / S[0]))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_level(k) -> None:
    if not _is_int(k) or k < 1:
        raise ValueError("level k must be an integer >= 1")


def su2k_modular(k: int) -> ModularData:
    """S_ij = sqrt(2/(k+2)) sin((i+1)(j+1) pi/(k+2)) and d_i = S_0i/S_00."""
    _check_level(k)
    import numpy as np

    n = k + 2
    idx = np.arange(1, k + 2, dtype=float)
    S = math.sqrt(2.0 / n) * np.sin(np.outer(idx, idx) * math.pi / n)
    S.flags.writeable = False
    d = tuple(float(x) for x in S[0] / S[0, 0])
    return ModularData(k, S, d)


def monodromy_ratio(k: int, i0: int, j: int) -> float:
    """|S_00 S_{i0 j}| / (|S_{0 i0}| |S_{0 j}|), clipped into [0, 1].

    For i0 = 1 this is |cos((j+1) pi/(k+2))| / cos(pi/(k+2)), which the spectra read
    through :func:`_i0_one_angles` instead.  The four entries come from the
    :func:`su2k_modular` formula, evaluated in the same order of operations, so no
    S-matrix is built.  A level or label product beyond float range raises ValueError,
    and so does a level so large that the product of S entries in the denominator
    underflows to 0.  So do a level that is not an int >= 1 and labels that are not
    ints, a bool included, as in :func:`su2k_modular`.
    """
    _check_level(k)
    if not (_is_int(i0) and _is_int(j)):
        raise ValueError("labels i0 and j must be integers")
    if not (0 <= i0 <= k and 0 <= j <= k):
        raise ValueError("labels must satisfy 0 <= i0, j <= k")
    n = k + 2

    def s(a: int, b: int) -> float:
        return scale * math.sin(float((a + 1) * (b + 1)) * math.pi / n)

    try:
        scale = math.sqrt(2.0 / n)
        ratio = abs(s(0, 0) * s(i0, j)) / (abs(s(0, i0)) * abs(s(0, j)))
    except OverflowError:
        raise ValueError("the level k and its labels must fit in a float") from None
    except ZeroDivisionError:
        raise ValueError("the level k is too large for float S-matrix entries") from None
    return min(1.0, ratio)


def alpha_induction_spectrum(k: int, i0: int, J: Iterable[int]) -> AngleSpectrum:
    """Angle spectrum {arccos(monodromy_ratio(k, i0, j)) : j in J}, less angles 0 and pi/2.

    i0 = 1 takes :func:`_i0_one_angles`, where congruences decide; any other i0 takes
    :meth:`AngleSpectrum.from_cosines`, where EPS_ABS drops and merges.  J must contain 0
    and stay within the level-k labels; k, i0 and every j must be ints, not bools.
    """
    J = list(J)
    _check_level(k)
    if not all(map(_is_int, [i0, *J])):
        raise ValueError("labels i0 and J must be integers")
    Jset = sorted(set(J))
    if 0 not in Jset:
        raise ValueError("J must contain 0")
    if any(j < 0 or j > k for j in Jset):
        raise ValueError("J must be a subset of {0..k}")
    if i0 == 1:
        return AngleSpectrum(_i0_one_angles(k + 2, (j + 1 for j in Jset)))
    return AngleSpectrum.from_cosines(monodromy_ratio(k, i0, j) for j in Jset)


def _i0_one_angles(n: int, qs: Iterable[int]) -> List[float]:
    """Increasing i0 = 1 angles of the labels q = j + 1 at n = k + 2.  |cos(q pi/n)| / cos(pi/n)
    folds q to min(q, n - q) and drops q = 1 (angle 0) and 2q = n (pi/2); theta = 2 asin(
    sqrt(sin((q+1) pi/2n) sin((q-1) pi/2n) / cos(pi/n))) cancels nothing, if nothing underflows."""
    try:
        h, c = math.pi / (2 * n), math.cos(math.pi / n)
    except OverflowError:
        raise ValueError("the level k and its labels must fit in a float") from None
    ps = [math.sin((q + 1) * h) * math.sin((q - 1) * h)
          for q in sorted({min(q, n - q) for q in qs} - {1}) if 2 * q != n]
    if min(ps, default=1.0) < sys.float_info.min:
        raise ValueError(f"the level k = {fmt(n - 2)} is too large: its angles underflow")
    return [2.0 * math.asin(math.sqrt(p / c)) for p in ps]


class BranchingRule(NamedTuple):
    """Level and label subset J describing the dual canonical endomorphism."""

    graph: str
    k: int
    J: Tuple[int, ...]


_GRAPH_RE = re.compile(r"([ADE])([1-9][0-9]*)")

# legs at the branch vertex besides the root's; first, step and last vertex count
_SERIES = {"A": ((), 2, 1, math.inf), "D": ((1, 1), 4, 2, math.inf), "E": ((1, 2), 6, 1, 8)}


def _dynkin_graph(name: str) -> Callable[[int], List[int]]:
    """The neighbours function of A_n (n >= 2), an even D_n (n >= 4), E6, E7 or E8, stored
    as no list; vertices 0, 1, ... run from the root *, the end of the longest leg, to the
    branch vertex, then the other legs follow, each from the branch out."""
    m = _GRAPH_RE.fullmatch(name)
    legs, low, step, high, n = (*_SERIES[m.group(1)], int(m.group(2))) if m else ((), 1, 1, 0, 0)
    if not (low <= n <= high and (n - low) % step == 0):
        raise ValueError(f"unknown graph name {name!r} (expected An, D2n, E6, E7 or E8)")
    branch = n - 1 - sum(legs)
    starts = [branch + 1 + sum(legs[:i]) for i in range(len(legs))]

    def neighbours(v: int) -> List[int]:
        out = ([branch] if v in starts else [v - 1] if v else []) + (starts if v == branch else [])
        return out + [v + 1] if v + 1 < n and v + 1 not in starts else out
    return neighbours


def branching_rule(graph: str) -> BranchingRule:
    """Level k and labels J of the Goodman-de la Harpe-Jones pair (Coxeter Graphs and
    Towers of Algebras, 1989): from e_* at the root * of the Dynkin graph, v_{j+1} = Delta v_j
    - v_{j-1} gives v_j = U_j(Delta) e_*, first 0 at j = h - 1 (h the Coxeter number), so
    k = h - 2 and J = {j <= k : (v_j)_* != 0}.  v keeps only its nonzero entries: O(h) on A, D."""
    neighbours = _dynkin_graph(graph)
    prev, v, J, j = {}, {0: 1}, [], 0
    while v:
        if 0 in v:
            J.append(j)
        nxt = {u: -x for u, x in prev.items()}
        for u, x in v.items():
            for w in neighbours(u):
                nxt[w] = nxt.get(w, 0) + x
        prev, v, j = v, {u: x for u, x in nxt.items() if x}, j + 1
    return BranchingRule(graph, j - 1, tuple(J))


def ghj_spectrum(rule: BranchingRule) -> AngleSpectrum:
    """Angle spectrum of the Goodman-de la Harpe-Jones pair for a :func:`branching_rule`."""
    return alpha_induction_spectrum(rule.k, 1, rule.J)


MAX_ASYMPTOTIC_N = 10_000
"""Largest n that :func:`asymptotic_spectrum` takes: its spectrum has
floor((n-2)/2) angles, about 5,000 at the cap, while n = 2,000,001 takes
0.6 s and 109 MB peak RSS (Python 3.11, two-vCPU Xeon VM)."""


def asymptotic_spectrum(n: int) -> AngleSpectrum:
    """Angle spectrum of the asymptotic inclusion of the A_n subfactor: the i0 = 1
    spectrum at level n - 1 of the labels j = 1 .. floor((n-2)/2), which fold to distinct
    classes below n/2, so it has exactly floor((n-2)/2) angles.  n must satisfy
    3 <= n <= MAX_ASYMPTOTIC_N, checked before anything is computed."""
    if not isinstance(n, int) or n < 3:
        raise ValueError("n must be an integer >= 3")
    if n > MAX_ASYMPTOTIC_N:
        raise ValueError(f"n = {n} is above the cap n <= {MAX_ASYMPTOTIC_N}")
    return AngleSpectrum(_i0_one_angles(n + 1, range(2, n // 2 + 1)))


# ---------------------------------------------------------------------------
# quantum 6j-symbols


class SixJDomainError(ValueError):
    """A q-factorial index left the positive range of the truncation, m lies
    beyond float range, or a q-factorial or the symbol overflows a float."""


class QSixJ(Frozen):
    """A quantum 6j-symbol {j1 j2 j12; j3 j j23} at q = e^{i pi / m}."""

    _fields = ("m", "j1", "j2", "j12", "j3", "j", "j23")
    __slots__ = _fields + ("_twice",)

    def __init__(self, m: int, j1: Fraction, j2: Fraction, j12: Fraction,
                 j3: Fraction, j: Fraction, j23: Fraction):
        from fractions import Fraction  # loaded by the 6j symbols alone

        if not isinstance(m, int) or m < 2:
            raise ValueError("root-of-unity order m must be an integer >= 2")
        object.__setattr__(self, "m", m)
        twice = []
        for name, spin in zip(self._fields[1:], (j1, j2, j12, j3, j, j23)):
            f = spin if type(spin) is Fraction else Fraction(spin)
            if f.numerator < 0 or f.denominator > 2:
                raise ValueError(f"spin {spin} is not a nonnegative half-integer")
            object.__setattr__(self, name, f)
            twice.append(f.numerator * (2 // f.denominator))
        object.__setattr__(self, "_twice", tuple(twice))

    @property
    def spins(self) -> Tuple[Fraction, ...]:
        return (self.j1, self.j2, self.j12, self.j3, self.j, self.j23)


@lru_cache(maxsize=64)
def _qfacts(M: int) -> List[float]:
    """The q-factorials [0]!, [1]!, ... for [x] taken at the root of unity of
    order M: up to [M-1]!, the last before the vanishing integer [M], or up to
    the last that fits a float.

    Each entry is the one before times the next quantum integer, the order of
    the n-fold product, so a list rebuilt after the cache dropped it holds the
    same floats; a sweep over m keeps the 64 latest.  [x] >= 1 for 0 < x < M,
    so a list never decreases: no list holds more than 202 entries for any
    even M up to 5000, nor at 10^5 or 10^7.
    """
    f = [1.0]
    for x in range(1, M):
        y = f[-1] * qint(x, M)
        if math.isinf(y):
            break
        f.append(y)
    return f


def q6j(sym: QSixJ) -> float:
    """Evaluate the symbol by the Racah single-sum formula.

    Quantum integers are taken at the half power of q, [x] =
    sin(x pi/(2m)) / sin(pi/(2m)), which keeps every factorial index of an
    admissible level-(m-2) symbol inside the positive range; inadmissible
    triads give 0.  Indices at or past the vanishing integer, and a
    q-factorial or a value that overflows a float (large spins at large m),
    raise SixJDomainError.

    Everything before the float sum runs on the twice-spins 2j, which the
    constructor stores as ints: a triad (a, b, c) of twice-spins is
    admissible when |a - b| <= c <= a + b and a + b + c is even, and every
    factorial index is a half sum of twice-spins.
    """
    a1, a2, a12, a3, a, a23 = sym._twice
    triads = ((a1, a2, a12), (a1, a, a23), (a3, a2, a23), (a3, a, a12))
    for x, y, z in triads:
        if not abs(x - y) <= z <= x + y or (x + y + z) & 1:
            return 0.0
    M = 2 * sym.m
    T = [(a1 + a2 + a12) // 2, (a1 + a + a23) // 2, (a3 + a2 + a23) // 2, (a3 + a + a12) // 2]
    Q = [(a1 + a2 + a3 + a) // 2, (a2 + a12 + a + a23) // 2, (a1 + a12 + a3 + a23) // 2]
    # admissible triads make every index below nonnegative and give
    # max(T) <= min(Q); the largest index is t + 1 at the last term or
    # Qi - t at the first
    top = max(min(Q) + 1, max(Q) - max(T))
    if top >= M:
        raise SixJDomainError(
            f"q-factorial index {top} reaches the vanishing quantum integer [{M}]"
        )
    if M > sys.float_info.max:
        raise SixJDomainError("the root-of-unity order m must fit in a float")
    f = _qfacts(M)
    if top >= len(f):
        raise SixJDomainError(f"q-factorial index {len(f)} overflows a float at m = {sym.m}")
    pre = 1.0
    for x, y, z in triads:
        num = f[(-x + y + z) // 2] * f[(x - y + z) // 2] * f[(x + y - z) // 2]
        pre *= math.sqrt(num / f[(x + y + z) // 2 + 1])
    total = 0.0
    for t in range(max(T), min(Q) + 1):
        term = (-1) ** t * f[t + 1]
        for Ti in T:
            term /= f[t - Ti]
        for Qi in Q:
            term /= f[Qi - t]
        total += term
    phase = (-1) ** Q[0]
    scale = math.sqrt(qint(a12 + 1, M) * qint(a23 + 1, M))
    value = phase * scale * pre * total
    if not math.isfinite(value):
        raise SixJDomainError(f"the symbol overflows a float at m = {sym.m}")
    return value
