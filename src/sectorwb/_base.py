"""The float tolerance, the 12-digit float formatter ``fmt``, the quantum integer,
the immutable record base and the positioned syntax-error base, kept apart from
:mod:`sectorwb.scalar` so that a command with no exact arithmetic loads neither
QuadExt nor fractions.
"""

import math

EPS_ABS = 1e-9


def fmt(x) -> str:
    """A float (or complex) at 12 significant digits: the one format of printed numbers."""
    return f"{x:.12g}"


class PositionedSyntaxError(ValueError):
    """Text that does not parse; ``position`` is the offset the message names."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def qint(x: int, n: int) -> float:
    """The quantum integer [x] = sin(x pi/n) / sin(pi/n), a float."""
    return math.sin(x * math.pi / n) / math.sin(math.pi / n)


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
