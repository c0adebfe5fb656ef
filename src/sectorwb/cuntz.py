"""Normal-form rewriting for the Cuntz algebra O_4 and the Haagerup data.

Expressions are finite complex-linear combinations of words in the four
isometries S0, T0, T1, T2 and their adjoints.  The rule X^* Y = delta_{XY} 1
for generators X, Y pushes every adjoint to the right, reducing each word
to the shape u v^* with u, v plain generator strings.  Those shapes still
span the algebra redundantly, since completeness makes the four length-one
projections sum to 1, so normalization additionally expands junction
T2 T2^* pairs to reach a genuine linear basis.

Internally an element is a dict from pairs (u, v) of plain words to
coefficients, with no pair where u and v both end in T2.  A word
g1 ... gm is held as an int: a leading 1 bit followed by m two-bit digits
(S0 = 0, T0 = 1, T1 = 2, T2 = 3), so the empty word is 1, S0 is 4 and
S0 S0 is 16.  A prefix is then a right shift, a rest is a mask, joining
is a shift and an or, and u and v both end in T2 when u & v & 3 == 3.
Words are decoded back to generator indices only for ``terms``, text and
error messages.  The product of two pairs telescopes through the middle
block v1^* u2: when v1 is a prefix of u2 it is (u1 + rest of u2, v2),
when u2 is a prefix of v1 it is (u1, v2 + rest of v1), and otherwise it
is 0.  A product looks the telescoping pairs up instead of comparing
every pair with every pair: the left factor is indexed by its v, and each
u of the right factor looks up the v that are prefixes of it and the v
that extend it once, into a plan of rows that the factor keeps and that
every pair with that u only accumulates.  rho uses rho(u v^*) = rho(u)
rho(v)^*: the v belonging to one u are summed on their prefix trie in
Horner form, sum_g rho(g) (sum over the subtree below g), and then the u
likewise, each leaf adding the adjoint of its sum, so each generator
image multiplies once per trie edge, as a factor built once per image and
set of constants.  Since rho(S0) = S0/d + sum_i T_i T_i / sqrt(d), every
element built from rho(S0) or its adjoint holds one subtree three times,
below T0 T0, T1 T1 and T2 T2 (the triple).  Where the three are equal the
walk sums the subtree once and multiplies it by the triple factor
sum_i rho(T_i) rho(T_i) = sqrt(d) rho^2(S0) - rho(S0) / sqrt(d), whose
three terms' 97 pairs cancel to 24, instead of by rho(T_i) twice in each
branch.  The four image factors and the triple factor are one record,
``_images(c)``, an lru_cache of the two sets of constants used last, and
each factor carries its plans, up to MAX_PLANS, across calls.  CuntzExpr
holds exactly this dict: its constructor checks and reduces atom words
into it, every operation stays on pairs, and ``terms`` reads it back with
atom-word keys, so there is no separate normalization step.

On top of the rewriting engine the module defines the endomorphism rho and
the order-3 automorphism alpha that generate the even part of the Haagerup
subfactor, verifies the defining relations, and solves the two-coefficient
system that pins down the second Q-system.
"""

from __future__ import annotations

import cmath
import math
import re
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ._base import EPS_ABS, PositionedSyntaxError, fmt

GEN_NAMES = ("S0", "T0", "T1", "T2")

Atom = Tuple[int, bool]  # (generator index 0..3, adjoint flag)
Word = Tuple[Atom, ...]
Gens = Tuple[int, ...]  # generator indices of a plain word
Code = int  # a plain word as a leading 1 bit and one two-bit digit per generator
Pair = Tuple[Code, Code]  # (u, v) standing for u v^*
Terms = Dict[Pair, complex]


class QSystemError(ArithmeticError):
    """The Q-system coefficients miss their equations by at least the tolerance."""


class CuntzSyntaxError(PositionedSyntaxError):
    """Raised for malformed expression text; carries the offset."""


class CuntzExpr:
    """Immutable linear combination of Cuntz words, held in normal form.

    The constructor takes a dict from atom words to coefficients and reduces
    it at once; ``terms`` gives the normal form back with atom-word keys.
    So ``==`` and ``len`` describe the element, not how it was written.
    Coefficients are kept as given (a string raises TypeError); sums start
    from ``0j``, so an exact type that adds to ``0j`` stays exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Dict[Word, complex]] = None):
        pairs: Terms = {}
        for w, c in (terms or {}).items():
            if isinstance(c, str):
                raise TypeError(f"a coefficient cannot be the string {c!r}")
            p = _split(w)
            if c != 0 and p is not None:
                _add_pair(pairs, p[0], p[1], c)
        self._terms = {key: c for key, c in pairs.items() if c != 0}

    @classmethod
    def _of(cls, pairs: Terms, zeros: bool = True) -> "CuntzExpr":
        """Wrap (and keep) a pair dict in normal form; drop exact zeros unless zeros=False."""
        e = object.__new__(cls)
        e._terms = ({key: c for key, c in pairs.items() if c != 0}
                    if zeros and 0 in pairs.values() else pairs)
        return e

    @property
    def terms(self) -> Dict[Word, complex]:
        """The normal form, keyed by the atom words u v^*."""
        return {_atoms(u, v): c for (u, v), c in self._terms.items()}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, CuntzExpr) and self._terms == other._terms

    def _sum(self, other, negate: bool) -> "CuntzExpr":
        """self + other, or self + (-1) * other with the products of scale(-1), in one
        pass that drops an exactly cancelled pair."""
        if not isinstance(other, CuntzExpr):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for key, c in other._terms.items():
            if (s := get(key, 0j) + (-1 * c if negate else c)) != 0:
                out[key] = s
            else:
                del out[key]
        return CuntzExpr._of(out, zeros=False)

    def __add__(self, other: "CuntzExpr") -> "CuntzExpr":
        return self._sum(other, False)

    def __sub__(self, other: "CuntzExpr") -> "CuntzExpr":
        return self._sum(other, True)

    def __mul__(self, other):
        if isinstance(other, CuntzExpr):
            out: Terms = {}
            _mul_into(out, _Factor(self._terms), other._terms)
            return CuntzExpr._of(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self) -> "CuntzExpr":
        return self.scale(-1)

    def scale(self, c) -> "CuntzExpr":
        if isinstance(c, str):
            raise TypeError(f"cannot scale by the string {c!r}")
        return CuntzExpr._of({key: c * v for key, v in self._terms.items()})

    def adjoint(self) -> "CuntzExpr":
        return CuntzExpr._of(_adjoint(self._terms), zeros=False)


def zero() -> CuntzExpr:
    return CuntzExpr({})


def one() -> CuntzExpr:
    return CuntzExpr({(): 1})


def gen_expr(idx: int, adj: bool = False) -> CuntzExpr:
    """The generator idx (0..3 for S0, T0, T1, T2), or its adjoint; the
    constructor refuses any other index and an adj that is not a bool."""
    return CuntzExpr({((idx, adj),): 1})


def gens() -> Tuple[CuntzExpr, CuntzExpr, CuntzExpr, CuntzExpr]:
    """The four generators S0, T0, T1, T2 as expressions."""
    return tuple(gen_expr(i) for i in range(4))


def _gens(x: Code) -> Gens:
    """The generator indices of a word code, first generator first."""
    return tuple(x >> s & 3 for s in range(x.bit_length() - 3, -1, -2))


def _relabel(x: Code, shift: int) -> Code:
    """The word code x with S0 fixed and each T_i replaced by T_{i+shift},
    every digit (h, l) at once: a shift of 1 maps the digits 0, 1, 2, 3 to
    0, 2, 3, 1, which is (h ^ l, h), and 2 maps them to (l, h ^ l)."""
    top = 1 << x.bit_length() - 1
    low = (top - 1) // 3  # the low bit of every digit
    lo, hi = x & low, x >> 1 & low
    if shift % 3 == 1:
        return top | (hi ^ lo) << 1 | hi
    if shift % 3 == 2:
        return top | lo << 1 | hi ^ lo
    return x


def _split(word: Word) -> Optional[Pair]:
    """Reduce an atom word to its pair (u, v) in one pass, or None when an
    orthogonality delta kills it.  An atom whose generator index is not an
    int 0..3 (a bool included), or whose adjoint flag is not a bool, raises
    ValueError, even in a killed word.

    Adjoint atoms wait on a stack; a plain atom cancels the adjoint on top
    of it (X^* Y = delta_{XY}) or, when none waits, extends u.
    """
    u, stack, killed = 1, [], False
    for atom in word:
        g, adj = atom
        if type(g) is not int or not 0 <= g <= 3:
            raise ValueError(f"atom {atom!r}: the generator index must be an int 0..3")
        if type(adj) is not bool:
            raise ValueError(f"atom {atom!r}: the adjoint flag must be a bool")
        if adj:
            stack.append(g)
        elif stack:
            killed |= stack.pop() != g
        else:
            u = u << 2 | g
    v = 1
    for g in reversed(stack):
        v = v << 2 | g
    return None if killed else (u, v)


def _add_pair(out: Terms, u: Code, v: Code, c: complex) -> None:
    """Accumulate c u v^* into out, expanding junction T2 T2^* pairs.

    The pairs u v^* only span the algebra redundantly: completeness says
    1 = S0 S0^* + sum_i T_i T_i^*, so u' T2 T2^* v'^* equals u' v'^* minus
    its S0/T0/T1 counterparts.  Repeating that until u and v no longer both
    end in T2 leaves linearly independent pairs, which is what makes
    residuals meaningful.
    """
    while u & v & 3 == 3:
        u, v = u >> 2, v >> 2
        for x in range(3):
            key = (u << 2 | x, v << 2 | x)
            out[key] = out.get(key, 0j) - c
    key = (u, v)
    out[key] = out.get(key, 0j) + c


_PLAIN = tuple((g, False) for g in range(4))
_STARRED = tuple((g, True) for g in range(4))


def _atoms(u: Code, v: Code) -> Word:
    return (tuple(map(_PLAIN.__getitem__, _gens(u)))
            + tuple(map(_STARRED.__getitem__, reversed(_gens(v)))))


Rows = List[Tuple[Code, complex]]
Plan = Tuple[Rows, Rows, List[Tuple[int, int, Rows]]]
MAX_PLANS = 4096  # plans kept per left factor; past it a plan is built, used and dropped


class _Factor:
    """A left factor of _mul_into, indexed by its v, with its plans.

    exact maps each v to its rows (u, c), longer maps each proper prefix p
    of a v to the triples (shift, rest, rows of v) of the v that extend it,
    where v = p << shift | rest, and plans holds the plans built so far by
    their right-hand u, at most MAX_PLANS of them.
    """

    __slots__ = ("exact", "longer", "plans")

    def __init__(self, a: Terms):
        exact: Dict[Code, Rows] = {}
        for (u1, v1), c1 in a.items():
            exact.setdefault(v1, []).append((u1, c1))
        longer: Dict[Code, List[Tuple[int, int, Rows]]] = {}
        for v1, rows in exact.items():
            for shift in range(v1.bit_length() - 1, 0, -2):
                longer.setdefault(v1 >> shift, []).append((shift, v1 & (1 << shift) - 1, rows))
        self.exact, self.longer, self.plans = exact, longer, {}

    def plan(self, u2: Code) -> Plan:
        """The rows that meet a right-hand u2, in the order _mul_into takes
        them: (joined, exact, longer), where joined holds (u1 + rest of u2,
        c1) for the v1 that are proper prefixes of u2, the empty v first and
        then by length, exact the rows of v1 = u2, and longer the (shift,
        rest, rows) of the v1 that extend u2.  Kept while there is room."""
        exact = self.exact
        joined: Rows = []
        for s in range(u2.bit_length() - 1, 0, -2):
            tail = u2 & (1 << s) - 1
            joined += [(u1 << s | tail, c1) for u1, c1 in exact.get(u2 >> s, ())]
        plan = (joined, exact.get(u2, []), self.longer.get(u2, []))
        if len(self.plans) < MAX_PLANS:
            self.plans[u2] = plan
        return plan


def _mul_into(out: Terms, factor: _Factor, b: Terms) -> None:
    """Accumulate the product a b of normal forms into out, given a as a factor.

    Each pair of b meets only the pairs of a whose middle block v1^* u2
    telescopes: those whose v1 is a prefix of u2 and those whose v1
    extends it.  Which they are depends on u2 alone, so each u2 looks them
    up once into its plan (see _Factor.plan), and every pair of b with that
    u2 only accumulates.
    """
    get, plans = out.get, factor.plans
    for (u2, v2), c2 in b.items():
        plan = plans.get(u2)
        if plan is None:
            plan = factor.plan(u2)
        joined, exact, longer = plan
        for u, c1 in joined:
            key = (u, v2)
            out[key] = get(key, 0j) + c1 * c2
        # only when v1 = u2 can both sides end in T2; see _add_pair
        for u1, c1 in exact:
            if u1 & v2 & 3 == 3:
                _add_pair(out, u1, v2, c1 * c2)
            else:
                key = (u1, v2)
                out[key] = get(key, 0j) + c1 * c2
        for shift, rest, rows in longer:
            v = v2 << shift | rest
            for u1, c1 in rows:
                key = (u1, v)
                out[key] = get(key, 0j) + c1 * c2


def _adjoint(a: Terms) -> Terms:
    return {(v, u): c.conjugate() for (u, v), c in a.items()}


def _word_text(u: Code, v: Code) -> str:
    """The pair u v^* as text, such as "T0*S0^"; "1" for the empty word."""
    parts = [GEN_NAMES[g] for g in _gens(u)] + [GEN_NAMES[g] + "^" for g in reversed(_gens(v))]
    return "*".join(parts) if parts else "1"


def _format_coeff(c: complex) -> str:
    """A coefficient as text, without a part that is 0 or at most 1e-14 times a finite other."""
    if not c.imag or abs(c.imag) <= 1e-14 * abs(c.real) < math.inf:
        return fmt(c.real)
    if not c.real or abs(c.real) <= 1e-14 * abs(c.imag) < math.inf:
        return fmt(c.imag) + "i"
    return f"({fmt(c.real)}{'+' if c.imag >= 0 else '-'}{fmt(abs(c.imag))}i)"


def _check_finite(e: CuntzExpr) -> None:
    """Raise ValueError naming the first coefficient that overflowed to inf
    or nan while terms were summed."""
    if all(map(cmath.isfinite, e._terms.values())):
        return
    (u, v), c = next(item for item in e._terms.items() if not cmath.isfinite(item[1]))
    raise ValueError(f"coefficient of {_word_text(u, v)} overflows to {_format_coeff(c)}")


def residual(e: CuntzExpr) -> float:
    """Largest coefficient modulus of the normal form; 0 for the zero element.

    An overflowed coefficient raises ValueError: max() would pass over a nan
    and report a relation as holding.
    """
    _check_finite(e)
    return max(map(abs, e._terms.values()), default=0.0)


def render_expr(e: CuntzExpr, tol: float = EPS_ABS) -> str:
    """Deterministic text form of an expression's normal form.

    The prune at ``tol``, the dropping of a negligible part and the 1 and -1
    shortcuts read each coefficient rounded to the 12 digits ``fmt`` prints,
    so the text parses back to itself.  A coefficient that overflowed to inf
    or nan while terms were summed raises ValueError rather than being
    printed or pruned away.
    """
    _check_finite(e)
    shown = {key: complex(float(fmt(c.real)), float(fmt(c.imag))) for key, c in e._terms.items()}
    kept = {key: c for key, c in shown.items() if abs(c) > tol}
    if not kept:
        return "0"
    parts = []
    for u, v in sorted(kept, key=lambda p: (len(w := _atoms(*p)), w)):
        word = _word_text(u, v)
        coeff = _format_coeff(kept[u, v])
        if word == "1":
            parts.append(coeff)
        elif coeff == "1":
            parts.append(word)
        elif coeff == "-1":
            parts.append(f"-{word}")
        else:
            parts.append(f"{coeff}*{word}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# parser

_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TOKEN_RE = re.compile(
    r"(?:(?P<gen>S0|T0|T1|T2)(?P<adj>\^)?"
    rf"|(?P<num>{_NUM})(?P<imag>i)?"
    rf"|\((?P<re>-?{_NUM})(?P<im>[+-]{_NUM})i\)"
    r"|(?P<op>[+*-]))\s*"
)


def _tokens(text: str) -> List[Tuple[object, int]]:
    """Split text into (value, offset) pairs closed by (None, len(text)).

    A value is an atom (generator index, adjoint flag), a complex
    coefficient or one of the operators '+', '-', '*'; its offset is that
    of its first character, so an error names the token it rejects.  A
    coefficient with both parts is one token, (re+imi) or (re-imi).
    """
    out: List[Tuple[object, int]] = []
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise CuntzSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m["gen"]:
            val = (GEN_NAMES.index(m["gen"]), m["adj"] is not None)
        elif m["op"]:
            val = m["op"]
        else:
            val = (complex(float(m["re"]), float(m["im"])) if m["re"]
                   else float(m["num"]) * 1j if m["imag"] else complex(float(m["num"])))
            if not cmath.isfinite(val):
                raise CuntzSyntaxError(f"coefficient {m['num'] or m[0].rstrip()} is not finite", pos)
        out.append((val, pos))
        pos = m.end()
    out.append((None, len(text)))
    return out


def parse(text: str) -> CuntzExpr:
    """Parse expression text into its normal form.

    Grammar: EXPR := TERM (('+'|'-') TERM)*; TERM := [COEFF '*']? WORD;
    WORD := ATOM ('*' ATOM)*; ATOM := generator name with optional '^' for
    the adjoint; COEFF := decimal literal, with an 'i' suffix for imaginary,
    or (RE+IMi) or (RE-IMi) with RE a decimal literal, '-' allowed.
    Two leniencies beyond that: a leading '-' negates the first term, and a
    bare COEFF is accepted as a multiple of the empty word (so output like
    "1" round-trips).  The whole text is tokenized first, so a lexical error
    anywhere is reported before a grammar error.
    """
    tokens = _tokens(text)
    if len(tokens) == 1:
        raise CuntzSyntaxError("empty expression", len(text))
    negate = tokens[0][0] == "-"
    i = int(negate)
    # Equal words are summed in the order written (a word whose sum cancels
    # gives up its place) and '-' multiplies by complex(-1): the reduction's
    # float sums, and so the printed digits and signed zeros, follow the text.
    terms: Dict[Word, complex] = {}
    while True:
        coeff, atoms, want_atom = 1.0 + 0j, [], True
        if isinstance(tokens[i][0], complex):
            coeff = tokens[i][0]
            want_atom = tokens[i + 1][0] == "*"
            i += 1 + want_atom
        while want_atom:
            val, pos = tokens[i]
            if not isinstance(val, tuple):
                raise CuntzSyntaxError("expected a generator", pos)
            atoms.append(val)
            want_atom = tokens[i + 1][0] == "*"
            i += 1 + want_atom
        c = complex(-1) * coeff if negate else coeff
        if c != 0:
            word = tuple(atoms)
            terms[word] = terms.get(word, 0j) + c
            if terms[word] == 0:
                del terms[word]
        val, pos = tokens[i]
        if val is None:
            return CuntzExpr(terms)
        if val not in ("+", "-"):
            raise CuntzSyntaxError("expected '+' or '-'", pos)
        negate = val == "-"
        i += 1


# ---------------------------------------------------------------------------
# Haagerup data


class HaagerupConstants(NamedTuple):
    """Numeric constants entering the generator images.

    d = (3+sqrt(13))/2 satisfies d^2 = 3d+1 exactly; A is the 3x3 complex
    matrix in the image of the T generators, and B = (d-1) A(1,2) satisfies
    B^2 - B + d = 0.
    """

    d: float
    sqrt_d: float
    A: Tuple[Tuple[complex, complex, complex], ...]
    B: complex


def haagerup_constants(a12: Optional[complex] = None) -> HaagerupConstants:
    """Standard constants, or a variant with A(1,2) overridden.

    Overriding keeps A(2,1) = conj(A(1,2)); it exists for sensitivity
    experiments on the relation checks, and is kept as given: a non-finite
    A(1,2) raises ValueError, a string TypeError.  The standard one is
    (1 + sqrt(1-4d)) / (2(d-1)), which is B/(d-1).
    """
    d = (3 + math.sqrt(13)) / 2
    if a12 is None:
        a12 = (1 + cmath.sqrt(1 - 4 * d)) / (2 * (d - 1))
    elif not cmath.isfinite(a12):
        raise ValueError(f"A(1,2) must be finite, got {a12}")
    off = -1 / (d - 1)
    A = (
        (1 + off, off, off),
        (off, off, a12),
        (off, a12.conjugate(), off),
    )
    return HaagerupConstants(d, math.sqrt(d), A, (d - 1) * a12)


_STANDARD = haagerup_constants()


def _t(i: int) -> int:
    """Generator index of T_i for i taken mod 3."""
    return (i % 3) + 1


def rho_images(constants: Optional[HaagerupConstants] = None) -> Dict[int, CuntzExpr]:
    """Images of the four generators under rho."""
    c = constants or _STANDARD
    img: Dict[int, CuntzExpr] = {}
    terms: Dict[Word, complex] = {((0, False),): 1 / c.d}
    for i in range(3):
        terms[((_t(i), False), (_t(i), False))] = 1 / c.sqrt_d
    img[0] = CuntzExpr(terms)
    for i in range(3):
        terms = {
            ((0, False), (_t(-i), True)): 1 / c.sqrt_d,
            ((_t(-i), False), (0, False), (0, True)): 1,
        }
        for j in range(3):
            for k in range(3):
                w = ((_t(j), False), (_t(i + j + k), False), (_t(k), True))
                terms[w] = terms.get(w, 0j) + c.A[(i + j) % 3][(i + k) % 3]
        img[_t(i)] = CuntzExpr(terms)
    return img


def _factors(images: Dict[int, CuntzExpr]) -> Tuple[_Factor, ...]:
    """rho's generator images as factors at 0-3 and, at 4, the triple factor
    sum_i rho(T_i) rho(T_i), built from their pair dicts without exact zeros."""
    factors = [_Factor(images[g]._terms) for g in range(4)]
    triple: Terms = {}
    for g in (1, 2, 3):
        _mul_into(triple, factors[g], images[g]._terms)
    return (*factors, _Factor({key: c for key, c in triple.items() if c != 0}))


@lru_cache(maxsize=2)
def _images(c: HaagerupConstants) -> Tuple[_Factor, ...]:
    """_factors of rho's images under c, kept for the two most recently used c."""
    return _factors(rho_images(c))


def _rho_sum(items: List[Tuple[Code, Terms]], depth: int, img: Tuple[_Factor, ...]) -> Terms:
    """Sum of rho(w[depth:]) X^* over items (w, X), in Horner form on the trie.

    The words are distinct, so at most one ends at depth: the sum starts as
    its X^*.  The rest are grouped by their next generator g and add rho(g),
    the factor img[g], times the sum one level deeper, so each image
    multiplies once per edge.  The triple comes before them: when the
    subtrees below T0 T0, T1 T1 and T2 T2 hold the same suffix words with
    equal X, that subtree is summed once and multiplied by the triple factor
    img[4], sum_i rho(T_i) rho(T_i), and the T_i branches keep only their
    other words.  This is associativity, exact for any images; only nodes
    with all three T_i branches are looked at, so other sums keep their
    order and their bits.
    """
    out: Terms = {}
    children: Dict[int, List[Tuple[Code, Terms]]] = {}
    for w, x in items:
        s = w.bit_length() - 3 - 2 * depth  # shift of the digit at depth
        if s < 0:
            out = {(b, a): 0j + c.conjugate() for (a, b), c in x.items()}  # summed from 0j
        else:
            children.setdefault(w >> s & 3, []).append((w, x))
    if 3 in children and 1 in children and 2 in children:
        below = _twin_subtree(children, depth)
        if below is not None:
            _mul_into(out, img[4], _rho_sum(below, 0, img))
    for g, sub in children.items():
        _mul_into(out, img[g], _rho_sum(sub, depth + 1, img))
    return out


def _twin_subtree(children: Dict[int, List[Tuple[Code, Terms]]], depth: int
                  ) -> Optional[List[Tuple[Code, Terms]]]:
    """The subtree below T_i T_i as items (suffix, X) when it is the same
    for i = 0, 1, 2, and those items taken out of children[T_i] (a branch
    left empty goes); else None, with children unchanged.  Suffix words are
    compared first and then their X, exactly."""
    base = 5 + 2 * depth  # a word of this bit length ends at depth + 1
    twin: Optional[Dict[Code, Terms]] = None
    for g in (3, 1, 2):  # T2 T2 first: completeness most often leaves it out
        below = {w - ((w >> s) - 1 << s): x for w, x in children[g]  # the suffix as a word
                 if (s := w.bit_length() - base) >= 0 and w >> s & 3 == g}
        if not below or twin is not None and (below.keys() != twin.keys() or below != twin):
            return None
        twin = below
    for g in (1, 2, 3):
        rest = [(w, x) for w, x in children[g]
                if (s := w.bit_length() - base) < 0 or w >> s & 3 != g]
        if rest:
            children[g] = rest
        else:
            del children[g]
    return list(twin.items())


def rho_apply(e: CuntzExpr, constants: Optional[HaagerupConstants] = None) -> CuntzExpr:
    """Apply rho homomorphically (adjoint-compatibly).

    rho(u v^*) = rho(u) rho(v)^*: for each u, Y_u = sum_v rho(v) conj(c_uv)
    is evaluated on the trie of the v, and then sum_u rho(u) Y_u^* on the
    trie of the u, each adjoint taken at its leaf.  On either trie, equal
    subtrees below T0 T0, T1 T1 and T2 T2, as rho(S0) and its adjoint leave
    them, are multiplied once by sum_i rho(T_i) rho(T_i) (see _rho_sum).
    The factors are the record ``_images`` keeps for the constants.
    """
    img = _images(constants or _STANDARD)
    by_u: Dict[Code, List[Tuple[Code, Terms]]] = {}
    for (u, v), coeff in e._terms.items():
        by_u.setdefault(u, []).append((v, {(1, 1): coeff}))
    items = [(u, _rho_sum(vs, 0, img)) for u, vs in by_u.items()]
    return CuntzExpr._of(_rho_sum(items, 0, img))


def alpha_apply(e: CuntzExpr, shift: int = 2) -> CuntzExpr:
    """The automorphism fixing S0 and cycling T_i -> T_{i+shift} (default 2).

    Relabelling can make u and v both end in T2, so such a pair is re-added
    through the completeness expansion.  A shift that is not an int (a bool
    included) raises ValueError.
    """
    if type(shift) is not int:
        raise ValueError(f"alpha shift must be an int, got {shift!r}")
    out: Terms = {}
    get = out.get
    new = {x: _relabel(x, shift) for x in {x for pair in e._terms for x in pair}}
    for (u, v), c in e._terms.items():
        key = (new[u], new[v])
        if key[0] & key[1] & 3 == 3:
            _add_pair(out, *key, c)
        else:
            out[key] = get(key, 0j) + c
    return CuntzExpr._of(out)


# ---------------------------------------------------------------------------
# relation verification


class RelationCheck(NamedTuple):
    name: str
    residual: float
    passed: bool


class VerificationReport(NamedTuple):
    checks: Tuple[RelationCheck, ...]
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual_of(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)


def verify_haagerup_relations(
    constants: Optional[HaagerupConstants] = None,
    tol: float = EPS_ABS,
) -> VerificationReport:
    """Check the five relation families defining the Haagerup endomorphism.

    * isometry_relations: rho(X)^* rho(Y) = delta_{XY} on the generators,
      so rho extends to a unital *-endomorphism.
    * t0_s0_relation: rho(T0) S0 = T0 S0.
    * r_element_relation: sqrt(d) S0 + (d-1) T0^2 =
      sqrt(d) rho(S0) + (d-1) rho(T0) T0.
    * alpha_rho_commutation: alpha rho = rho alpha^2 on the generators.
    * s0_intertwines_rho_squared: rho^2(X) S0 = S0 X on the generators.

    Residuals are max coefficient moduli of the normal form.  A relation
    passes when its residual is below ``tol``.
    """
    c = constants or _STANDARD
    rho = {i: rho_apply(gen_expr(i), c) for i in range(4)}
    t0, s0 = gen_expr(1), gen_expr(0)
    # each family is a lazy sequence of (lhs, rhs), checked in this order
    families = (
        ("isometry_relations", ((rho[x].adjoint() * rho[y], one() if x == y else zero())
                                for x in range(4) for y in range(4))),
        ("t0_s0_relation", ((rho[1] * s0, t0 * s0) for _ in range(1))),
        ("r_element_relation", ((c.sqrt_d * s0 + (c.d - 1) * (t0 * t0),
                                 c.sqrt_d * rho[0] + (c.d - 1) * (rho[1] * t0))
                                for _ in range(1))),
        ("alpha_rho_commutation", ((alpha_apply(rho[i]),
                                    rho_apply(alpha_apply(alpha_apply(gen_expr(i))), c))
                                   for i in range(4))),
        ("s0_intertwines_rho_squared", ((rho_apply(rho[i], c) * s0, s0 * gen_expr(i))
                                        for i in range(4))),
    )
    checks = []
    for name, pairs in families:
        value = max(residual(lhs - rhs) for lhs, rhs in pairs)
        checks.append(RelationCheck(name, value, value < tol))
    return VerificationReport(tuple(checks), tol)


# ---------------------------------------------------------------------------
# the two-coefficient system


class QSystemSolution(NamedTuple):
    """The coefficients (a, b) that solve the four scalar equations, with
    each equation's residual."""

    a: complex
    b: complex
    residuals: Dict[str, float]

    @property
    def norm_sq(self) -> float:
        return abs(self.a) ** 2 + abs(self.b) ** 2


def _qsystem_residuals(a: complex, b: complex, c: HaagerupConstants) -> Dict[str, float]:
    d = c.d
    s = math.sqrt(d - 1)
    return {
        "s0_component": abs(a * a + s * a * b - 1 / c.sqrt_d),
        "t0_component": abs(a * b - b * b / s - math.sqrt((d - 1) / d)),
        "t1_component": abs(a * a - a * b / s - c.A[1][2] * b * b),
        "t2_component": abs(a * b + (1 + c.B) / s ** 3 * b * b),
    }


def solve_qsystem(tol: float = EPS_ABS) -> Tuple[QSystemSolution, QSystemSolution]:
    """Solve the four scalar equations; exactly two solutions, (a,b) and (-a,-b).

    b^2 = -(d-1)^2 / ((B+d) sqrt(d)) and a = -(B+1) b / (d-1)^{3/2}; the
    solutions satisfy |a|^2 = 1/d and |b|^2 = (d-1)/d, so |a|^2+|b|^2 = 1.
    Each equation is even in (a, b), so both carry the residuals of (a, b),
    in dicts of their own.  A residual or norm defect of at least ``tol``
    raises QSystemError: ``tol`` is below the rounding error.
    """
    c = _STANDARD
    d = c.d
    b_sq = -((d - 1) ** 2) / ((c.B + d) * c.sqrt_d)
    b = cmath.sqrt(b_sq)
    a = -(c.B + 1) / (d - 1) ** 1.5 * b
    sol = QSystemSolution(a, b, _qsystem_residuals(a, b, c))
    if max(sol.residuals.values()) >= tol or abs(sol.norm_sq - 1) >= tol:
        raise QSystemError(
            f"the coefficient system is not solved within tolerance {tol!r} "
            f"(residuals {sol.residuals}, |a|^2+|b|^2 = {sol.norm_sq})"
        )
    return sol, QSystemSolution(-a, -b, dict(sol.residuals))
