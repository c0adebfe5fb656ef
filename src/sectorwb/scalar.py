"""Number tower for the workbench.

Two kinds of scalars cover everything we compute:

* :class:`QuadExt`: exact elements a + b*sqrt(m) of a real quadratic field,
  with rational a, b and a fixed square-free radicand m.  Index values such as
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
from fractions import Fraction
from numbers import Rational

EPS_ABS = 1e-9


def qint(x: int, n: int) -> float:
    """The quantum integer [x] = sin(x pi/n) / sin(pi/n), a float."""
    return math.sin(x * math.pi / n) / math.sin(math.pi / n)


def _is_square_free(m: int) -> bool:
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational component, got {type(x).__name__}")


class Frozen:
    """Base of the immutable value classes that check their input.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``; assigning or deleting one afterwards raises
    AttributeError.  Equality, hash and repr (``Name(field=value, ...)``)
    go by the fields named in ``_fields``, in that order.
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class QuadExt(Frozen):
    """Exact a + b*sqrt(m) with rational a, b and square-free integer m >= 2."""

    __slots__ = _fields = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0), m: int = 2):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        if not isinstance(m, int):
            raise TypeError("radicand must be an integer")
        if not _is_square_free(m):
            raise ValueError(f"radicand {m} is not square-free (or < 2)")
        object.__setattr__(self, "m", m)

    @classmethod
    def _raw(cls, a: Fraction, b: Fraction, m: int) -> "QuadExt":
        # results of arithmetic on validated values: a and b are already
        # Fractions and m an already checked radicand, so skip the checks
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "m", m)
        return x

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.b != 0 and self.b != 0 and other.m != self.m:
                raise ValueError(f"mixed radicands {self.m} and {other.m}")
            if other.b == 0:
                return QuadExt._raw(other.a, Fraction(0), self.m)
            return other
        if isinstance(other, Rational):
            return QuadExt._raw(Fraction(other), Fraction(0), self.m)
        return NotImplemented  # type: ignore[return-value]

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.m if self.b != 0 else o.m
        return QuadExt._raw(self.a + o.a, self.b + o.b, m)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._raw(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.m if self.b != 0 else o.m
        return QuadExt._raw(self.a * o.a + self.b * o.b * m, self.a * o.b + self.b * o.a, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.m
        if norm == 0:  # a^2 = b^2 m with m square-free forces a = b = 0
            raise ZeroDivisionError("division by zero")
        return self * QuadExt._raw(o.a / norm, -o.b / norm, o.m)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadExt._raw(Fraction(1), Fraction(0), self.m)
        base = self
        for _ in range(n):
            out = out * base
        return out

    # -- exact predicates ----------------------------------------------------

    def conj(self) -> "QuadExt":
        """Galois conjugate a - b*sqrt(m)."""
        return QuadExt._raw(self.a, -self.b, self.m)

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(m)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 m exactly; they differ, since
        # a^2 = b^2 m with m square-free forces a = b = 0
        if self.a * self.a > self.b * self.b * self.m:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            o = other
        elif isinstance(other, Rational):
            o = QuadExt._raw(Fraction(other), Fraction(0), self.m)
        else:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        # distinct square-free radicands never produce equal irrational values
        return self.a == o.a and self.b == o.b and self.m == o.m

    def __hash__(self):
        # a rational value equals its Fraction (and int), so it hashes alike
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError("cannot compare")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- evaluation -----------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        rad = f"{bs}sqrt({self.m})"
        if self.a == 0:
            return rad
        return f"{self.a}{'+' if self.b > 0 else ''}{rad}" if not rad.startswith("-") else f"{self.a}{rad}"


def quad(a, b=0, m: int = 2) -> QuadExt:
    """Convenience constructor accepting ints, Fractions, or 'p/q' strings."""

    def conv(x):
        if isinstance(x, str):
            return Fraction(x)
        return _as_fraction(x)

    return QuadExt(conv(a), conv(b), m)

