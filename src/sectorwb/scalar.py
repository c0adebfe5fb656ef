"""Number tower for the workbench.

Two kinds of scalars cover everything we compute:

* :class:`QuadExt`: exact elements a + b*sqrt(m) of a real quadratic field,
  with rational a, b and a fixed square-free radicand m, held on ints as
  (p + q*sqrt(m))/r.  Index values such as
  (3+sqrt(13))/2 or 2+sqrt(2) live here, and identities like d^2 = 3d + 1 are
  checked with zero error.
* plain ``float`` / ``complex``: everything that needs nested radicals or
  roots of unity, compared against the absolute tolerance ``EPS_ABS`` unless
  the caller passes its own.

Only one radicand per value is supported; mixing distinct radicands (other
than through a purely rational operand) raises.  Nested radicals such as
sqrt(d) for d itself irrational are handled downstream in floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Tuple

from ._base import Frozen


def _is_square_free(m: int) -> bool:
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def _ratio(x) -> Tuple[int, int]:
    """Numerator and positive denominator of a rational that is not a bool."""
    if isinstance(x, Rational) and not isinstance(x, bool):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"expected a rational component, got {type(x).__name__}")


class QuadExt(Frozen):
    """Exact (p + q*sqrt(m))/r = a + b*sqrt(m) in the real quadratic field Q(sqrt(m)).

    Held as ints p, q, r and the radicand m, with r > 0, gcd(p, q, r) = 1
    and m a square-free int >= 2, so each value has one (p, q, r) and each
    operation is a few int products and one ``math.gcd``.  The rational
    coordinates a = p/r and b = q/r are Fraction properties; the public
    constructor takes them.  Equality, hash, repr and str go by (a, b, m).
    A rational value (q = 0) keeps the m it was made with; it equals and
    hashes like its Fraction and combines with a value of any radicand.  A
    result takes the m of an irrational operand, else that of the QuadExt
    on the left.
    """

    __slots__ = ("p", "q", "r", "m")
    _fields = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0), m: int = 2):
        (ap, ar), (bp, br) = _ratio(a), _ratio(b)
        if not isinstance(m, int):
            raise TypeError("radicand must be an integer")
        if not _is_square_free(m):
            raise ValueError(f"radicand {m} is not square-free (or < 2)")
        _fill(self, ap * br, bp * ar, ar * br, m)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    # -- coercion ---------------------------------------------------------

    def _parts(self, other):
        """(p, q, r, m) of a QuadExt or rational operand, where m is the radicand
        of the result; None for any other type."""
        if isinstance(other, QuadExt):
            if other.q and self.q and other.m != self.m:
                raise ValueError(f"mixed radicands {self.m} and {other.m}")
            return other.p, other.q, other.r, (self.m if self.q or not other.q else other.m)
        if isinstance(other, int):
            return other, 0, 1, self.m
        if isinstance(other, Rational):
            return int(other.numerator), 0, int(other.denominator), self.m
        return None

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        s = self.r
        return _reduced(self.p * r + p * s, self.q * r + q * s, s * r, m)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.p, -self.q, self.r, self.m)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        s = self.r
        return _reduced(self.p * r - p * s, self.q * r - q * s, s * r, m)

    def __rsub__(self, other):
        diff = self.__sub__(other)  # canonical, so its negation is other - self exactly
        return NotImplemented if diff is NotImplemented else -diff

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        return _reduced(self.p * p + self.q * q * m, self.p * q + self.q * p, self.r * r, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        return _quotient(self.p, self.q, self.r, p, q, r, m)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        return _quotient(p, q, r, self.p, self.q, self.r, m)

    def __pow__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("only nonnegative integer powers")
        m, bp, bq = self.m, self.p, self.q
        p, q, r = 1, 0, self.r ** n
        while n:  # square and multiply on the numerator p + q*sqrt(m)
            if n & 1:
                p, q = p * bp + q * bq * m, p * bq + q * bp
            n >>= 1
            if n:
                bp, bq = bp * bp + bq * bq * m, 2 * bp * bq
        return _reduced(p, q, r, m)

    # -- exact predicates ----------------------------------------------------

    def conj(self) -> "QuadExt":
        """Galois conjugate a - b*sqrt(m)."""
        return _reduced(self.p, -self.q, self.r, self.m)

    @property
    def is_integer(self) -> bool:
        return not self.q and self.r == 1

    def sign(self) -> int:
        """Exact sign of the real value (p + q*sqrt(m))/r."""
        return _sign(self.p, self.q, self.m)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            # distinct square-free radicands never give equal irrational values
            return ((self.p, self.q, self.r) == (other.p, other.q, other.r)
                    and (not self.q or self.m == other.m))
        if isinstance(other, Rational):
            return not self.q and self.p == other.numerator and self.r == other.denominator
        return NotImplemented

    def __hash__(self):
        # a rational value equals its Fraction (and int), so it hashes alike
        if not self.q:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other, op):
        """op(sign of self - other, 0), or NotImplemented for an operand of
        another type, so that Python's error names the operator and both types."""
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, r, m = o
        # the sign of self - other, whose denominator self.r * r is positive
        return op(_sign(self.p * r - p * self.r, self.q * r - q * self.r, m), 0)

    def __lt__(self, other):
        return self._cmp(other, operator.lt)

    def __le__(self, other):
        return self._cmp(other, operator.le)

    def __gt__(self, other):
        return self._cmp(other, operator.gt)

    def __ge__(self, other):
        return self._cmp(other, operator.ge)

    # -- evaluation -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __float__(self) -> float:
        # int true division rounds correctly, as float(Fraction) does
        return self.p / self.r + self.q / self.r * math.sqrt(self.m)

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bs = "" if b == 1 else ("-" if b == -1 else f"{b}*")
        rad = f"{bs}sqrt({self.m})"
        if a == 0:
            return rad
        return f"{a}{'+' if b > 0 else ''}{rad}" if not rad.startswith("-") else f"{a}{rad}"


_set_p, _set_q, _set_r, _set_m = (vars(QuadExt)[f].__set__ for f in QuadExt.__slots__)


def _fill(x: QuadExt, p: int, q: int, r: int, m: int) -> None:
    """Set x to (p + q*sqrt(m))/r in lowest terms with r > 0."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    _set_p(x, p // g)
    _set_q(x, q // g)
    _set_r(x, r // g)
    _set_m(x, m)


def _reduced(p: int, q: int, r: int, m: int) -> QuadExt:
    # an arithmetic result: m is an already checked radicand, so the checks
    # of the public constructor are skipped
    x = object.__new__(QuadExt)
    _fill(x, p, q, r, m)
    return x


def _quotient(p1: int, q1: int, r1: int, p2: int, q2: int, r2: int, m: int) -> QuadExt:
    """(p1 + q1 sqrt(m))/r1 divided by (p2 + q2 sqrt(m))/r2, through the conjugate."""
    norm = p2 * p2 - q2 * q2 * m
    if not norm:  # p^2 = q^2 m with m square-free forces p = q = 0
        raise ZeroDivisionError("division by zero")
    return _reduced((p1 * p2 - q1 * q2 * m) * r2, (q1 * p2 - p1 * q2) * r2, r1 * norm, m)


def _sign(p: int, q: int, m: int) -> int:
    """Exact sign of p + q*sqrt(m)."""
    if not q:
        return (p > 0) - (p < 0)
    if not p or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: compare p^2 with q^2 m exactly; they differ, since
    # p^2 = q^2 m with m square-free forces p = q = 0
    if p * p > q * q * m:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def quad(a, b=0, m: int = 2) -> QuadExt:
    """Convenience constructor accepting ints, Fractions, or 'p/q' strings."""

    def conv(x):
        return Fraction(x) if isinstance(x, str) else x

    return QuadExt(conv(a), conv(b), m)

