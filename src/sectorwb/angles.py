"""Closed-form angle invariants for quadrilaterals of factors.

All operations here evaluate formulas; they do not (and cannot) check the
operator-algebraic hypotheses behind them, such as irreducibility of the
elementary subfactors or 2-supertransitivity.  Callers are responsible for
those, and the CLI prints a "hypotheses assumed" note with every result.
Each function checks its own numeric inputs (finite, in range) before it
evaluates anything.

Angles are radians throughout.  An :class:`AngleSpectrum` keeps the angles
it is given; only :meth:`AngleSpectrum.from_cosines` drops and merges them.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Tuple

from ._base import EPS_ABS, Frozen

HYPOTHESES_NOTE = (
    "hypotheses assumed: irreducible quadrilateral with the supertransitivity "
    "the formula requires; not checked from the numeric inputs"
)


def _dropped(c: float) -> bool:
    """Whether a cosine gives no interior angle: |c| <= EPS_ABS or c >= 1 - EPS_ABS."""
    return c >= 1.0 - EPS_ABS or abs(c) <= EPS_ABS


class AngleSpectrum(Frozen):
    """Interior angles of a quadrilateral, strictly increasing in (0, pi/2).

    The endpoints carry no information (0 collapses P = Q, pi/2 is the commuting
    direction); a `commuting` flag records whether the data forces E_P E_Q = E_N.
    """

    __slots__ = _fields = ("angles", "commuting")

    def __init__(self, angles: Iterable[float], commuting: bool = False):
        angles = tuple(map(float, angles))
        if not all(0.0 < a < b for a, b in zip(angles, angles[1:] + (math.pi / 2,))):
            raise ValueError(f"angles {angles} are not strictly increasing inside (0, pi/2)")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "commuting", commuting)

    @classmethod
    def from_cosines(cls, cosines: Iterable[float]) -> "AngleSpectrum":
        """Angles arccos(c), skipping each c that :func:`_dropped` names, with angles closer
        than EPS_ABS merged: the only two rules where EPS_ABS decides a spectrum."""
        kept = []
        for c in cosines:
            c = float(c)
            if _dropped(c):
                continue
            kept.append(math.acos(max(-1.0, c)))
        kept.sort()
        dedup = []
        for a in kept:
            if not dedup or a - dedup[-1] >= EPS_ABS:
                dedup.append(a)
        return cls(dedup)


def _inner(d_sigma, s, tol: float = EPS_ABS) -> Tuple[float, float]:
    """The dimension d(sigma) and the inner product s = <s_P, s_Q> of the
    coupling isometries as floats, once 1 < d(sigma) < inf, s is finite and
    |s| <= 1 + ``tol``."""
    d, s = float(d_sigma), float(s)
    if not 1 < d < math.inf:
        raise ValueError("d_sigma must be finite and exceed 1")
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    if abs(s) > 1 + tol:
        raise ValueError("|s| must not exceed 1")
    return d, s


class AngleCandidate(NamedTuple):
    """One branch of the quadratic angle formula.

    A cosine of 1 does not correspond to an angle at all (it would force
    P = Q), so `angle` is None and the branch is `degenerate`.
    """

    cosine: float
    angle: Optional[float]

    @property
    def degenerate(self) -> bool:
        return self.angle is None


def cocommuting_cos2(pn, mp):
    """cos^2 of a cocommuting quadrilateral, in the indices' type (float or QuadExt), unchecked."""
    return (pn - mp) / (mp * (pn - 1))


def bound_cos(pn):
    """cos of the largest angle in the 3-supertransitive case, in the index's type, unchecked."""
    return 1 / (pn - 1)


def angle_cocommuting(pn, mp, tol: float = EPS_ABS) -> AngleSpectrum:
    """Angle of a cocommuting quadrilateral from its two indices; equal indices
    force the commuting case instead of an angle.  Indices within ``tol`` of
    each other count as equal.  Unequal indices beyond float range raise
    ValueError; equal ones are compared exactly and commute.

    The cosine from :func:`cocommuting_cos2` decides, by the rule of
    :meth:`AngleSpectrum.from_cosines`, whether the angle is dropped; a kept
    angle is atan2(sqrt(pn (mp - 1)), sqrt(pn - mp)), as sin^2 = pn (mp - 1) /
    (mp (pn - 1)), which keeps its digits near mp = 1 where acos would not.
    """
    try:
        pn, mp = float(pn), float(mp)
    except OverflowError:
        if not pn == mp > 1:
            raise ValueError("indices must both fit in a float") from None
        return AngleSpectrum((), commuting=True)
    if not (1 < pn < math.inf and 1 < mp < math.inf):
        raise ValueError("indices must both be finite and exceed 1")
    if pn < mp - tol:
        raise ValueError("pn must be >= mp (cos^2 would be negative)")
    if abs(pn - mp) <= tol:
        return AngleSpectrum((), commuting=True)
    if mp * (pn - 1.0) == math.inf:
        raise ValueError(f"mp (pn - 1) overflows a float at pn = {pn}, mp = {mp}")
    if _dropped(math.sqrt(cocommuting_cos2(pn, mp))):
        return AngleSpectrum(())
    return AngleSpectrum([math.atan2(math.sqrt(pn * (mp - 1.0)), math.sqrt(pn - mp))])


def angle_group(g: int, h: int, k: int, hk: int) -> AngleSpectrum:
    """Angle of a group-subgroup quadrilateral from the four group orders.

    Uses pn = [G:H] and mp = [H:H image in the intersection], which requires
    |H| = |K| and the usual divisibility of orders; equal indices commute,
    by the rule of :func:`angle_cocommuting`.  The orders alone do not fix
    the group, so unequal indices assume the cocommuting formula: (8, 2, 2,
    1) gives 54.7356103172 degrees, yet the only group of order 8 that two
    subgroups of order 2 generate is D8, whose angle is 45 degrees.
    """
    for name, val in (("g", g), ("h", h), ("k", k), ("hk", hk)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ValueError(f"order {name} must be a positive integer")
    if h != k:
        raise ValueError("|H| = |K| is required (equal elementary indices)")
    if g % h != 0 or h % hk != 0:
        raise ValueError("group orders must divide: |H∩K| | |H| and |H| | |G|")
    pn = g // h
    mp = h // hk
    if pn <= 1 or mp <= 1:
        raise ValueError("degenerate inclusion: both indices must exceed 1")
    return angle_cocommuting(pn, mp)


def angle_candidates(d_sigma, s,
                     tol: float = EPS_ABS) -> Tuple[AngleCandidate, AngleCandidate]:
    """Both candidate cosines allowed by the coupling quadratic.

    c± = (sqrt((d-1)^2 s^2 + 4 d) ± (d-1)|s|) / (2 d); the product of the
    two cosines is exactly 1/d, so c- is taken as 1/(d c+), which cancels
    nothing.  Returned with the plus branch first.  |s| may exceed 1 by at
    most ``tol``.  Inputs whose (d-1)^2 s^2 overflows a float raise ValueError.
    """
    d, s = _inner(d_sigma, s, tol)
    try:
        root = math.sqrt((d - 1.0) ** 2 * s ** 2 + 4.0 * d)
    except OverflowError:  # from the float powers; a product overflows to inf
        root = math.inf
    if root == math.inf:
        raise ValueError(f"(d_sigma - 1)^2 s^2 overflows a float at d_sigma = {d}, s = {s}")
    plus = (root + (d - 1.0) * abs(s)) / (2.0 * d)
    return tuple(AngleCandidate(c, None if c >= 1.0 - EPS_ABS else math.acos(c))
                 for c in (plus, 1.0 / (d * plus)))


def t_inner_roots(d_sigma, s) -> Tuple[float, float]:
    """Roots of x^2 - ((d-1)/d) s x - 1/d = 0, larger root first.

    Vieta: sum = (d-1) s / d, product = -1/d; the absolute values of the
    roots coincide with the two candidate cosines.
    """
    d, s = _inner(d_sigma, s)
    b = (d - 1.0) * s / d
    disc = math.sqrt(b * b + 4.0 / d)
    return ((b + disc) / 2.0, (b - disc) / 2.0)


def angle_bound(pn) -> float:
    """Largest possible angle arccos(:func:`bound_cos`) in the 3-supertransitive case,
    as 2 asin(sqrt((pn - 2)/(2(pn - 1)))), which cancels nothing near pn = 2."""
    val = float(pn)
    if not 2 < val < math.inf:
        raise ValueError("pn must be finite and exceed 2 for the bound to be a cosine")
    return 2.0 * math.asin(math.sqrt((val - 2.0) / (val - 1.0) / 2.0))
