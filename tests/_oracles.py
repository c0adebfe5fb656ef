"""Independent oracles the tests check the package against.

Nothing here imports sectorwb.  Eleven families:

  * the candidate cosines, the bound angle and the cocommuting angle of
    exact double inputs, and the i0 = 1 SU(2)_k angle of a level and a
    label, in stdlib decimal, for checking that the float formulas keep
    their digits where the textbook forms cancel;
  * angular-momentum recoupling brackets from explicit Clebsch-Gordan
    matrices built with ladder operators, for cross-checking the q-deformed
    6j symbol in its classical limit;
  * the Racah single sum on Fraction spins, which q6j() replaced with a
    twice-spin kernel, for bit-for-bit cross-checking of q6j();
  * group representation rings derived from character tables of explicit
    permutation matrices, for cross-checking the stored fusion tables;
  * a right-multiplication-matrix evaluator for fusion words, for
    cross-checking decompose();
  * an atom-by-atom rewriting engine for the Cuntz algebra O4, for
    cross-checking the reduction in the CuntzExpr constructor and
    rho_apply(), and a generator relabelling
    for mutation experiments on the Haagerup relation checks;
  * the Cuntz pair engine with a product that looks u2's prefixes up at
    every length of the left factor's v and a relabelling digit by digit,
    in the library's loop and summation order, for bit-for-bit
    cross-checking of products, rho_apply(), alpha_apply() and differences;
  * an entry-by-entry fusion-axiom validator and a power-iteration
    PF-dimension solver, for cross-checking validate_ring() and
    pf_dimensions();
  * the entry-by-entry check and copy of a ring's tensor table (and of a
    ring file's ``"i,j"`` keys) and a dense table written entry by entry,
    for cross-checking the whole-table checks of the FusionRing
    constructor and ring_from_dict(), and FusionRing.N;
  * exact Gaussian rationals, for running the Cuntz engine on a
    coefficient type that does not round;
  * the quadratic-field number on Fraction coordinates a + b*sqrt(m)
    that scalar.QuadExt replaced with ints (p + q*sqrt(m))/r, and the
    dict-by-dict decompose() and hom_dim() that position-indexed rows
    replaced, for cross-checking both read paths value for value.
"""

import cmath
import decimal
import itertools
import math
import operator
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import numpy as np


# ---------------------------------------------------------------------------
# angle references in stdlib decimal


def candidate_cosines_decimal(d, s, prec=60):
    """Both candidate cosines (sqrt((d-1)^2 s^2 + 4d) +- (d-1)|s|)/(2d) of the
    exact double inputs, at ``prec`` digits, rounded once to floats.  The
    subtraction is the written one: at 60 digits it keeps more than 30
    digits for d up to 1e12."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        d, s = Decimal(d), abs(Decimal(s))
        root, spread = ((d - 1) ** 2 * s ** 2 + 4 * d).sqrt(), (d - 1) * s
        return float((root + spread) / (2 * d)), float((root - spread) / (2 * d))


def _two_asin_decimal(y2):
    """2 asin(y) for a Decimal y^2 <= 1/2 in the current context, rounded once
    to a float: the Taylor series of asin, whose terms shrink by y^2 or more."""
    term = total = y2.sqrt()  # term_n = c_n y^(2n+1), c_n = (2n)!/(4^n n!^2)
    n = 0
    while True:
        n += 1
        term *= y2 * (2 * n - 1) / (2 * n)
        step = term / (2 * n + 1)
        if total + step == total:
            return float(2 * total)
        total += step


def bound_angle_decimal(pn, prec=40):
    """arccos(1/(pn - 1)) of the exact double pn > 2, at ``prec`` digits,
    rounded once to a float: 2 asin(y) with y^2 = (pn - 2)/(2(pn - 1)) < 1/2."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec + 5
        pn = Decimal(pn)
        return _two_asin_decimal((pn - 2) / (2 * (pn - 1)))


def cocommuting_angle_decimal(pn, mp, prec=40):
    """The cocommuting angle theta of the exact doubles pn > mp > 1, at ``prec``
    digits, rounded once to a float.  cos^2 theta = (pn - mp)/(mp (pn - 1)) and
    sin^2 theta = pn (mp - 1)/(mp (pn - 1)), so theta = 2 asin(y) with
    y^2 = (1 - cos theta)/2 = sin^2 theta/(2 (1 + cos theta)) <= 1/2, a form
    that subtracts nothing near mp = 1 or mp = pn."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec + 5
        pn, mp = Decimal(pn), Decimal(mp)
        cos = ((pn - mp) / (mp * (pn - 1))).sqrt()
        return _two_asin_decimal(pn * (mp - 1) / (mp * (pn - 1)) / (2 * (1 + cos)))


def _pi_decimal():
    """pi in the current context: the recipe of the decimal module's documentation."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _cos_decimal(x):
    """cos(x) of a Decimal x in the current context: the documentation's Taylor recipe."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def i0_one_angle_decimal(k, j):
    """The i0 = 1 angle arccos(r) of the level-k label j, r = |cos(q pi/n)| / cos(pi/n)
    with q = j + 1 and n = k + 2, rounded once to a float.  r is the written ratio,
    not a product form: 1 - r loses about 2 log10(n) digits to cancellation, so the
    context carries 40 more than that; then theta = 2 asin(sqrt((1 - r)/2))."""
    n, q = k + 2, j + 1
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + 2 * len(str(n))
        pi = _pi_decimal()
        r = abs(_cos_decimal(q * pi / n)) / _cos_decimal(pi / n)
        return _two_asin_decimal((1 - r) / 2)


# ---------------------------------------------------------------------------
# Clebsch-Gordan recoupling


def jm_states(j):
    return [j - k for k in range(int(round(2 * j)) + 1)]


def _lower_coeff(j, m):
    # J- |j,m> = c |j,m-1>
    return math.sqrt(j * (j + 1) - m * (m - 1))


@lru_cache(maxsize=None)
def cg_matrix(j1, j2):
    """Coupled states |J,M> of j1 x j2 as vectors over the |m1,m2> basis.

    Highest-weight states are picked orthogonal to all higher-J states in
    the same M eigenspace, with the Condon-Shortley sign convention, then
    lowered through each multiplet.
    """
    ms1, ms2 = jm_states(j1), jm_states(j2)
    dim = len(ms1) * len(ms2)
    idx = {(m1, m2): i for i, (m1, m2) in enumerate(itertools.product(ms1, ms2))}
    out = {}
    J = j1 + j2
    while J >= abs(j1 - j2) - 1e-9:
        M = J
        space = [(m1, m2) for m1 in ms1 for m2 in ms2 if abs(m1 + m2 - M) < 1e-9]
        vecs = [out[key] for key in out if abs(key[1] - M) < 1e-9]
        if not vecs:
            v = np.zeros(dim)
            v[idx[space[0]]] = 1.0
        else:
            A = np.array(vecs)
            sub = np.zeros((len(space), dim))
            for r, key in enumerate(space):
                sub[r, idx[key]] = 1.0
            B = sub - sub @ A.T @ A
            _, _, vt = np.linalg.svd(B)
            v = vt[0] / np.linalg.norm(vt[0])
        best = max(space, key=lambda p: p[0])
        if v[idx[best]] < 0:
            v = -v
        out[(J, M)] = v
        cur, Mc = v, M
        while Mc - 1 >= -J - 1e-9:
            nxt = np.zeros(dim)
            for (m1, m2), i in idx.items():
                if abs(cur[i]) > 1e-14:
                    if m1 - 1 >= -j1 - 1e-9:
                        nxt[idx[(m1 - 1, m2)]] += cur[i] * _lower_coeff(j1, m1)
                    if m2 - 1 >= -j2 - 1e-9:
                        nxt[idx[(m1, m2 - 1)]] += cur[i] * _lower_coeff(j2, m2)
            nxt = nxt / np.linalg.norm(nxt)
            out[(J, Mc - 1)] = nxt
            cur = nxt
            Mc -= 1
        J -= 1
    return idx, out


def cg(j1, m1, j2, m2, J, M):
    idx, out = cg_matrix(j1, j2)
    if (J, M) not in out or (m1, m2) not in idx:
        return 0.0
    return out[(J, M)][idx[(m1, m2)]]


def triangle(a, b, c):
    s = a + b + c
    return (abs(a - b) <= c <= a + b) and abs(s - round(s)) < 1e-9


def recoupling_oracle(j1, j2, j12, j3, j, j23):
    """<(j1 j2)j12, j3; j m | j1, (j2 j3)j23; j m> by explicit CG sums at m=j."""
    m = j
    total = 0.0
    for m1 in jm_states(j1):
        for m2 in jm_states(j2):
            for m3 in jm_states(j3):
                if abs(m1 + m2 + m3 - m) > 1e-9:
                    continue
                m12, m23 = m1 + m2, m2 + m3
                if abs(m12) > j12 + 1e-9 or abs(m23) > j23 + 1e-9:
                    continue
                total += (cg(j1, m1, j2, m2, j12, m12)
                          * cg(j12, m12, j3, m3, j, m)
                          * cg(j2, m2, j3, m3, j23, m23)
                          * cg(j1, m1, j23, m23, j, m))
    return total


# ---------------------------------------------------------------------------
# quantum 6j-symbols on Fraction spins
#
# The evaluation q6j() used before its twice-spin kernel: every index is
# built from Fraction spins.  The q-integers repeat the package's formula,
# so the two must agree bit for bit.


class SixJOracleDomainError(ValueError):
    """A q-factorial index left the positive range of the truncation."""


def _sixj_half_int(x):
    f = Fraction(x)
    if f < 0 or (2 * f).denominator != 1:
        raise ValueError(f"spin {x} is not a nonnegative half-integer")
    return f


def _sixj_qint(x, M):
    return math.sin(x * math.pi / M) / math.sin(math.pi / M)


@lru_cache(maxsize=None)
def _sixj_qfact(n, M):
    if n < 0:
        raise SixJOracleDomainError("q-factorial of a negative index")
    if n >= M:
        raise SixJOracleDomainError(f"q-factorial index {n} reaches [{M}]")
    p = 1.0
    for i in range(1, n + 1):
        p *= _sixj_qint(i, M)
    return p


def _sixj_admissible(a, b, c):
    return abs(a - b) <= c <= a + b and (a + b + c).denominator == 1


def _sixj_delta(a, b, c, M):
    num = (_sixj_qfact(int(-a + b + c), M) * _sixj_qfact(int(a - b + c), M)
           * _sixj_qfact(int(a + b - c), M))
    return math.sqrt(num / _sixj_qfact(int(a + b + c + 1), M))


def q6j_oracle(m, *spins):
    """{j1 j2 j12; j3 j j23} at q = e^{i pi / m} by the Racah single sum."""
    if not isinstance(m, int) or m < 2:
        raise ValueError("root-of-unity order m must be an integer >= 2")
    j1, j2, j12, j3, j, j23 = (_sixj_half_int(x) for x in spins)
    triads = ((j1, j2, j12), (j1, j, j23), (j3, j2, j23), (j3, j, j12))
    if not all(_sixj_admissible(*t) for t in triads):
        return complex(0.0)
    M = 2 * m
    T = [int(j1 + j2 + j12), int(j1 + j + j23), int(j3 + j2 + j23), int(j3 + j + j12)]
    Q = [int(j1 + j2 + j3 + j), int(j2 + j12 + j + j23), int(j1 + j12 + j3 + j23)]
    pre = 1.0
    for t in triads:
        pre *= _sixj_delta(*t, M)
    total = 0.0
    for t in range(max(T), min(Q) + 1):
        term = (-1) ** t * _sixj_qfact(t + 1, M)
        for Ti in T:
            term /= _sixj_qfact(t - Ti, M)
        for Qi in Q:
            term /= _sixj_qfact(Qi - t, M)
        total += term
    phase = (-1) ** int(j1 + j2 + j3 + j)
    scale = math.sqrt(_sixj_qint(int(2 * j12 + 1), M) * _sixj_qint(int(2 * j23 + 1), M))
    return complex(phase * scale * pre * total)


# ---------------------------------------------------------------------------
# representation rings from character tables


def _perm_sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            s = -s
    return s


_PAIRINGS = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]


def _act_on_pairings(p):
    out = []
    for a, b in _PAIRINGS:
        a2 = tuple(sorted(p[x] for x in a))
        b2 = tuple(sorted(p[x] for x in b))
        out.append(_PAIRINGS.index(tuple(sorted((a2, b2)))))
    return tuple(out)


def s4_characters():
    """Irreducible characters of S4 from explicit permutation actions.

    The 3-dim characters come from the natural 4-point action minus the
    trivial part, the 2-dim one from the action on the three pair
    partitions (the S3 quotient).
    """
    elems = list(itertools.permutations(range(4)))
    chars = {}
    chars["1"] = [1.0 for _ in elems]
    chars["a"] = [float(_perm_sign(p)) for p in elems]
    chars["e"] = [float(sum(1 for i in range(4) if p[i] == i) - 1) for p in elems]
    chars["ae"] = [chars["a"][i] * chars["e"][i] for i in range(len(elems))]
    chars["e2"] = [
        float(sum(1 for i in range(3) if q[i] == i) - 1)
        for q in (_act_on_pairings(p) for p in elems)
    ]
    return elems, chars


def a4_characters():
    elems = [p for p in itertools.permutations(range(4)) if _perm_sign(p) == 1]
    w = cmath.exp(2j * cmath.pi / 3)
    rot = {(0, 1, 2): 0, (1, 2, 0): 1, (2, 0, 1): 2}

    chars = {}
    chars["1"] = [1.0 + 0j for _ in elems]
    chars["w"] = [w ** rot[_act_on_pairings(p)] for p in elems]
    chars["w2"] = [w ** (2 * rot[_act_on_pairings(p)]) for p in elems]
    chars["v"] = [complex(sum(1 for i in range(4) if p[i] == i) - 1) for p in elems]
    return elems, chars


def tensor_table(elems, chars):
    """Multiplicities <chi_i chi_j, chi_k> by averaging over the group."""
    names = list(chars)
    n = len(elems)
    table = {}
    for i, j in itertools.product(names, names):
        row = {}
        for k in names:
            val = sum(chars[i][g] * chars[j][g] * np.conj(chars[k][g])
                      for g in range(n)) / n
            m = round(abs(val))
            assert abs(val - m) < 1e-9, (i, j, k, val)
            if m:
                row[k] = m
        table[(i, j)] = row
    return table


# ---------------------------------------------------------------------------
# fusion words by right-multiplication matrices


def word_multiplicities(ring, word):
    """Decompose word[0]*word[1]*...*word[-1] with plain matrix algebra."""
    labels = list(ring.labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    def right_mat(lab):
        m = np.zeros((n, n), dtype=np.int64)
        for k in labels:
            for i in labels:
                m[pos[k], pos[i]] = ring.n(i, lab, k)
        return m

    vec = np.zeros(n, dtype=np.int64)
    vec[pos[word[0]]] = 1
    for lab in word[1:]:
        vec = right_mat(lab) @ vec
    return {lab: int(vec[pos[lab]]) for lab in labels if vec[pos[lab]]}


# ---------------------------------------------------------------------------
# Cuntz words, rewritten atom by atom
#
# An expression is a dict mapping words (tuples of (generator, adjoint)
# atoms) to complex coefficients.  Words are rewritten in place by
# X^* Y = delta_{XY}; junction T2 T2^* pairs are then expanded through
# 1 = S0 S0^* + T0 T0^* + T1 T1^* + T2 T2^*.


def cuntz_reduce_word(word):
    """Cancel adjacent X^* Y pairs until none is left; None when one is killed."""
    atoms = list(word)
    i = 0
    while i < len(atoms) - 1:
        (g1, a1), (g2, a2) = atoms[i], atoms[i + 1]
        if a1 and not a2:
            if g1 != g2:
                return None
            del atoms[i:i + 2]
            i = max(0, i - 1)
        else:
            i += 1
    return tuple(atoms)


def _cuntz_eliminate_completeness(terms):
    work = dict(terms)
    done = {}
    while work:
        w, c = work.popitem()
        if c == 0:
            continue
        j = next((pos for pos, (_, adj) in enumerate(w) if adj), len(w))
        if 0 < j < len(w) and w[j - 1] == (3, False) and w[j] == (3, True):
            head, tail = w[:j - 1], w[j + 1:]
            work[head + tail] = work.get(head + tail, 0j) + c
            for x in range(3):
                nw = head + ((x, False), (x, True)) + tail
                work[nw] = work.get(nw, 0j) - c
        else:
            done[w] = done.get(w, 0j) + c
    return done


def cuntz_normalize(terms):
    """Coefficients of an expression in the basis of words u v^* without a
    T2 T2^* junction."""
    out = {}
    for w, c in terms.items():
        r = cuntz_reduce_word(w)
        if r is not None:
            out[r] = out.get(r, 0j) + c
    return _cuntz_eliminate_completeness(out)


def _cuntz_adjoint(terms):
    return {tuple((g, not adj) for g, adj in reversed(w)): c.conjugate()
            for w, c in terms.items()}


def _cuntz_mul(x, y):
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            out[w1 + w2] = out.get(w1 + w2, 0j) + c1 * c2
    return out


def cuntz_rho(terms, images):
    """Apply the endomorphism with generator images {g: expression}: multiply
    the image (or its adjoint) of each atom in turn, normalizing after each
    factor."""
    out = {}
    for w, coeff in terms.items():
        acc = {(): 1.0 + 0j}
        for g, adj in w:
            factor = _cuntz_adjoint(images[g]) if adj else images[g]
            acc = cuntz_normalize(_cuntz_mul(acc, factor))
        for v, c in acc.items():
            out[v] = out.get(v, 0j) + coeff * c
    return cuntz_normalize(out)


def permute_t(e, perm):
    """Relabel T_i -> T_{perm[i]} while fixing S0, on any expression type
    with a ``terms`` word mapping and a constructor taking one.

    Every cyclic shift satisfies the alpha-rho exchange relation
    identically, so only non-cyclic permutations can break it.
    """
    if sorted(perm) != [0, 1, 2]:
        raise ValueError("perm must be a permutation of (0, 1, 2)")
    out = {}
    for w, c in e.terms.items():
        out[tuple((g if g == 0 else perm[g - 1] + 1, adj) for g, adj in w)] = c
    return type(e)(out)


# ---------------------------------------------------------------------------
# exact Gaussian rationals


class GaussianRational:
    """re + im*i with Fraction parts, an exact coefficient for CuntzExpr.

    It mixes with ints, Fractions and a zero complex, the 0j that the
    engine's sums start from.  Any other float or complex raises TypeError,
    so a float that leaks into an exact computation fails instead of
    rounding.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"a part must be an int or a Fraction, got {part!r}")
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def _lift(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, complex) and x == 0:
            return cls()
        return cls(x)

    def __add__(self, other):
        other = self._lift(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) + -self

    def __mul__(self, other):
        other = self._lift(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = self._lift(other)
        return (self.re, self.im) == (other.re, other.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


# ---------------------------------------------------------------------------
# Cuntz pairs, every prefix length looked up
#
# Pair dicts {(u, v): c} standing for sum c u v^*, with each plain word an
# int: a leading 1 bit and one two-bit digit per generator (S0 = 0, T0 = 1,
# T1 = 2, T2 = 3).  A product looks up u2's prefix at every length the left
# factor's v take, the empty v included, and then u2 itself and its
# extensions whatever u2's length; each match is summed in the same order
# as the library's, so coefficients, signed zeros and key order must agree
# bit for bit.


def pairs_add(out, u, v, c):
    """Accumulate c u v^*, expanding junction T2 T2^* pairs by completeness."""
    while u & v & 3 == 3:
        u, v = u >> 2, v >> 2
        for x in range(3):
            key = (u << 2 | x, v << 2 | x)
            out[key] = out.get(key, 0j) - c
    key = (u, v)
    out[key] = out.get(key, 0j) + c


def pairs_index(a):
    exact = {}
    for (u1, v1), c1 in a.items():
        exact.setdefault(v1, []).append((u1, c1))
    longer = {}
    for v1, rows in exact.items():
        for shift in range(v1.bit_length() - 1, 0, -2):
            longer.setdefault(v1 >> shift, []).append((shift, v1 & (1 << shift) - 1, rows))
    return exact, longer, tuple(sorted({(v.bit_length() - 1) >> 1 for v in exact}))


def pairs_mul_into(out, index, b):
    exact, longer, lengths = index
    for (u2, v2), c2 in b.items():
        m = (u2.bit_length() - 1) >> 1
        for n in lengths:
            if n >= m:
                break
            s = 2 * (m - n)
            rows = exact.get(u2 >> s)
            if rows:
                tail = u2 & (1 << s) - 1
                for u1, c1 in rows:
                    key = (u1 << s | tail, v2)
                    out[key] = out.get(key, 0j) + c1 * c2
        for u1, c1 in exact.get(u2, ()):
            pairs_add(out, u1, v2, c1 * c2)
        for shift, rest, rows in longer.get(u2, ()):
            v = v2 << shift | rest
            for u1, c1 in rows:
                key = (u1, v)
                out[key] = out.get(key, 0j) + c1 * c2


def _nonzero(terms):
    return {key: c for key, c in terms.items() if c != 0}


def pairs_mul(a, b):
    out = {}
    pairs_mul_into(out, pairs_index(a), b)
    return _nonzero(out)


def _pairs_adjoint(a):
    return {(v, u): c.conjugate() for (u, v), c in a.items()}


def _pairs_twin_rest(w, g, depth):
    """The bit count of w after its digits depth and depth + 1 when both are
    g (the block T_g T_g), else None."""
    rest = 2 * ((w.bit_length() - 1) // 2 - depth - 2)
    return rest if rest >= 0 and w >> rest & 15 == 5 * g else None


def _pairs_rho_sum(items, depth, img, triple):
    out = {}
    children = {}
    for w, x in items:
        s = w.bit_length() - 3 - 2 * depth
        if s < 0:
            for key, c in x.items():
                out[key] = out.get(key, 0j) + c
        else:
            children.setdefault(w >> s & 3, []).append((w, x))
    # equal subtrees below T0 T0, T1 T1 and T2 T2 are summed once, in the
    # order the T1 T1 branch lists them, and multiplied by
    # sum_g rho(T_g) rho(T_g), before the other branches
    if all(g in children for g in (1, 2, 3)):
        twins = {g: {} for g in (1, 2, 3)}  # the word after T_g T_g -> X
        for g in twins:
            for w, x in children[g]:
                rest = _pairs_twin_rest(w, g, depth)
                if rest is not None:
                    twins[g][1 << rest | w & (1 << rest) - 1] = x
        if twins[1] and twins[1] == twins[2] == twins[3]:
            pairs_mul_into(out, triple, _pairs_rho_sum(list(twins[2].items()), 0, img, triple))
            for g in twins:
                children[g] = [(w, x) for w, x in children[g]
                               if _pairs_twin_rest(w, g, depth) is None]
    for g, sub in children.items():
        if sub:
            pairs_mul_into(out, img[g], _pairs_rho_sum(sub, depth + 1, img, triple))
    return out


def pairs_rho(terms, images):
    """rho(u v^*) = rho(u) rho(v)^* on the prefix tries of the v and then the
    u, given the generator images as pair dicts."""
    img = {g: pairs_index(x) for g, x in images.items()}
    # sum_g rho(T_g) rho(T_g), each right factor's pairs grouped by their v
    triple = {}
    for g in (1, 2, 3):
        pairs_mul_into(triple, img[g], {(u, v): c for v, rows in img[g][0].items() for u, c in rows})
    triple = pairs_index(_nonzero(triple))
    by_u = {}
    for (u, v), coeff in terms.items():
        by_u.setdefault(u, []).append((v, {(1, 1): coeff.conjugate()}))
    items = [(u, _pairs_adjoint(_pairs_rho_sum(vs, 0, img, triple))) for u, vs in by_u.items()]
    return _nonzero(_pairs_rho_sum(items, 0, img, triple))


def relabel_digits(x, perm):
    """The word code x with each generator g replaced by perm[g], digit by digit."""
    y = 1
    for s in range(x.bit_length() - 3, -1, -2):
        y = y << 2 | perm[x >> s & 3]
    return y


def pairs_alpha(terms, shift):
    """S0 fixed and T_i -> T_{i+shift}, every pair re-added by completeness."""
    perm = (0,) + tuple((i + shift) % 3 + 1 for i in range(3))
    out = {}
    for (u, v), c in terms.items():
        pairs_add(out, relabel_digits(u, perm), relabel_digits(v, perm), c)
    return _nonzero(out)


def pairs_sub(x, y):
    """x + (-1) y: y scaled by complex(-1), then added to x pair by pair."""
    out = dict(x)
    for key, c in _nonzero({key: complex(-1) * c for key, c in y.items()}).items():
        out[key] = out.get(key, 0j) + c
    return _nonzero(out)


# ---------------------------------------------------------------------------
# fusion-ring axioms and PF dimensions, label by label
#
# The loop validator and the power iteration that validate_ring() and
# pf_dimensions() replaced.  Ring access goes through the public ``tensor``
# mapping only, so the dense tensor under test is not used.

PF_TOL = 1e-12
PF_MAX_ITER = 100_000


def _ring_n(ring, i, j, k):
    return ring.tensor.get((i, j), {}).get(k, 0)


def _left_matrix(ring, i):
    """Left multiplication by i: M[k, j] = N(i, j, k)."""
    labels = list(ring.labels)
    pos = {lab: x for x, lab in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for jx, j in enumerate(labels):
        for k, mult in ring.tensor.get((i, j), {}).items():
            mat[pos[k], jx] = mult
    return mat


def validate_ring_loops(ring, max_reports=50):
    """The four axiom families checked entry by entry, in label order; at
    most ``max_reports`` messages."""
    return list(itertools.islice(_ring_violations(ring), max_reports))


def _ring_violations(ring):
    labels = ring.labels
    unit = ring.unit

    def n(i, j, k):
        return _ring_n(ring, i, j, k)

    for j in labels:
        for k in labels:
            want = 1 if j == k else 0
            if n(unit, j, k) != want:
                yield f"unit: N({unit},{j},{k})={n(unit, j, k)} != {want}"
            if n(j, unit, k) != want:
                yield f"unit: N({j},{unit},{k})={n(j, unit, k)} != {want}"

    if ring.dual[unit] != unit:
        yield f"duality: dual({unit})={ring.dual[unit]} != {unit}"
    for i in labels:
        if ring.dual[ring.dual[i]] != i:
            yield f"duality: dual(dual({i}))={ring.dual[ring.dual[i]]} != {i}"
        for j in labels:
            want = 1 if j == ring.dual[i] else 0
            if n(i, j, unit) != want:
                yield f"duality: N({i},{j},{unit})={n(i, j, unit)} != {want}"

    for i in labels:
        for j in labels:
            for k in labels:
                v = n(i, j, k)
                if v != n(ring.dual[i], k, j):
                    yield (f"frobenius: N({i},{j},{k})={v} != "
                           f"N({ring.dual[i]},{k},{j})={n(ring.dual[i], k, j)}")
                if v != n(k, ring.dual[j], i):
                    yield (f"frobenius: N({i},{j},{k})={v} != "
                           f"N({k},{ring.dual[j]},{i})={n(k, ring.dual[j], i)}")

    # Python-int entries: sums of products of 64-bit multiplicities can
    # leave int64's range
    mats = {i: _left_matrix(ring, i).astype(object) for i in labels}
    for i in labels:
        for j in labels:
            lhs = sum(n(i, j, m) * mats[m] for m in labels)
            if isinstance(lhs, int):  # all coefficients zero
                lhs = np.zeros_like(mats[i])
            rhs = mats[i] @ mats[j]
            if not np.array_equal(lhs, rhs):
                bad = np.argwhere(lhs != rhs)
                l_ix, k_ix = bad[0]
                k, l = labels[k_ix], labels[l_ix]
                yield (f"associativity: sum_m N({i},{j},m)N(m,{k},{l})={lhs[l_ix, k_ix]}"
                       f" != sum_m N({j},{k},m)N({i},m,{l})={rhs[l_ix, k_ix]}")


def _strongly_connected(mat):
    n = mat.shape[0]
    adj = mat > 0

    def reach(start, forward):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            row = adj[:, v] if forward else adj[v, :]
            for w in np.nonzero(row)[0]:
                if w not in seen:
                    seen.add(int(w))
                    stack.append(int(w))
        return seen

    return len(reach(0, True)) == n and len(reach(0, False)) == n


def _power_vector(mat):
    """Unit PF eigenvector by power iteration on mat + I (kills periodicity)."""
    n = mat.shape[0]
    m = mat.astype(float)
    v = np.ones(n) / np.sqrt(n)
    for _ in range(PF_MAX_ITER):
        w = m @ v + v
        w /= np.linalg.norm(w)
        if np.max(np.abs(w - v)) < PF_TOL:
            return w
        v = w
    raise ArithmeticError(f"power iteration did not converge after {PF_MAX_ITER} iterations")


def pf_dimensions_power(ring):
    """PF dimensions by power iteration: each strongly connected label's own
    matrix gives its Rayleigh quotient; the others read the PF vector of
    sum_i M_i, normalized at the unit."""
    mats = {i: _left_matrix(ring, i) for i in ring.labels}
    global_vec = None
    out = {}
    for i in ring.labels:
        if _strongly_connected(mats[i]):
            v = _power_vector(mats[i])
            out[i] = float(v @ (mats[i].astype(float) @ v))
            continue
        if global_vec is None:
            v = _power_vector(sum(mats.values()).T)
            global_vec = v / v[ring.labels.index(ring.unit)]
        out[i] = float(global_vec[ring.labels.index(i)])
    return out


# ---------------------------------------------------------------------------
# The per-entry loops that the whole-table checks of the FusionRing
# constructor and catalog.ring_from_dict() replaced, and a dense table
# written entry by entry.  Errors are raised as ``error(message)``, so the
# caller passes the package's exception class.

INT64_MAX = 2 ** 63 - 1


def fusion_rows_loops(labels, tensor, error):
    """Check and copy a tensor table entry by entry, in table order: the
    rows with zero entries and emptied rows dropped, or ``error`` naming the
    first bad key, label, row that is not a mapping, or multiplicity."""
    pos = set(labels)
    rows = {}
    for key, row in dict(tensor).items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise error(f"tensor key {key!r} is not a pair of labels (i, j)")
        i, j = key
        if i not in pos or j not in pos:
            raise error(f"tensor key ({i!r},{j!r}) uses unknown label")
        if not isinstance(row, Mapping):
            raise error(f"tensor row ({i!r},{j!r}) is not a mapping")
        clean = {}
        for k, n in row.items():
            if k not in pos:
                raise error(f"tensor value label {k!r} unknown in ({i},{j})")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise error(f"multiplicity N({i},{j},{k})={n!r} is not a nonnegative integer")
            if n > INT64_MAX:
                raise error(f"multiplicity N({i},{j},{k})={n} does not fit in 64 bits")
            if n > 0:
                clean[k] = n
        if clean:
            rows[(i, j)] = clean
    return rows


def ring_file_tensor_loops(tensor_raw, error):
    """Split a ring file's ``"i,j"`` keys entry by entry, each key checked
    before its row; ``error`` names the first bad one."""
    tensor = {}
    for key, row in tensor_raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise error(f"tensor key {key!r} is not of the form 'i,j'")
        if not isinstance(row, dict):
            raise error(f"tensor[{key!r}] must be an object label->multiplicity")
        tensor[(parts[0], parts[1])] = row
    return tensor


def dense_tensor_loops(ring):
    """N[index(i), index(j), index(k)] = N(i,j,k), written entry by entry
    from the ring's ``tensor`` mapping."""
    pos = {lab: x for x, lab in enumerate(ring.labels)}
    n = len(pos)
    dense = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), row in ring.tensor.items():
        for k, mult in row.items():
            dense[pos[i], pos[j], pos[k]] = mult
    return dense


# ---------------------------------------------------------------------------
# quadratic-field numbers on Fractions, and sector words reduced dict by dict
#
# FractionQuadExt is QuadExt as it was with Fraction coordinates: every
# operation works on a and b, and repr names the class QuadExt, so the two
# can be compared on value, float bits, str, repr and hash.


def _fraction_component(x):
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational component, got {type(x).__name__}")


class FractionQuadExt:
    """Exact a + b*sqrt(m) with Fraction a, b and square-free m >= 2."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=Fraction(0), m=2):
        self.a, self.b, self.m = _fraction_component(a), _fraction_component(b), m

    @classmethod
    def _raw(cls, a, b, m):
        return cls(a, b, m)

    def _coerce(self, other):
        if isinstance(other, FractionQuadExt):
            if other.b != 0 and self.b != 0 and other.m != self.m:
                raise ValueError(f"mixed radicands {self.m} and {other.m}")
            if other.b == 0:
                return FractionQuadExt._raw(other.a, Fraction(0), self.m)
            return other
        if isinstance(other, Rational):
            return FractionQuadExt._raw(Fraction(other), Fraction(0), self.m)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.m if self.b != 0 else o.m
        return FractionQuadExt._raw(self.a + o.a, self.b + o.b, m)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadExt._raw(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.m if self.b != 0 else o.m
        return FractionQuadExt._raw(self.a * o.a + self.b * o.b * m,
                                    self.a * o.b + self.b * o.a, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.m
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return self * FractionQuadExt._raw(o.a / norm, -o.b / norm, o.m)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = FractionQuadExt._raw(Fraction(1), Fraction(0), self.m)
        for _ in range(n):
            out = out * self
        return out

    def conj(self):
        return FractionQuadExt._raw(self.a, -self.b, self.m)

    @property
    def is_integer(self):
        return self.b == 0 and self.a.denominator == 1

    def sign(self):
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        if self.a * self.a > self.b * self.b * self.m:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def __eq__(self, other):
        if isinstance(other, FractionQuadExt):
            o = other
        elif isinstance(other, Rational):
            o = FractionQuadExt._raw(Fraction(other), Fraction(0), self.m)
        else:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        return self.a == o.a and self.b == o.b and self.m == o.m

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other, op):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return op((self - o).sign(), 0)

    def __lt__(self, other):
        return self._cmp(other, operator.lt)

    def __le__(self, other):
        return self._cmp(other, operator.le)

    def __gt__(self, other):
        return self._cmp(other, operator.gt)

    def __ge__(self, other):
        return self._cmp(other, operator.ge)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        rad = f"{bs}sqrt({self.m})"
        if self.a == 0:
            return rad
        return f"{self.a}{'+' if self.b > 0 else ''}{rad}" if not rad.startswith("-") else f"{self.a}{rad}"

    def __repr__(self):
        return f"QuadExt(a={self.a!r}, b={self.b!r}, m={self.m!r})"


def _mul_label_dicts(ring, vec, lab):
    out = {}
    for i, mult in vec.items():
        for k, n in ring.tensor.get((i, lab), {}).items():
            out[k] = out.get(k, 0) + mult * n
    return out


def decompose_dicts(ring, terms):
    """decompose() of parsed (coefficient, word) terms, one dict per step."""
    total = {}
    for coeff, word in terms:
        vec = {ring.unit: 1}
        for lab in word:
            vec = _mul_label_dicts(ring, vec, lab)
        for k, n in vec.items():
            total[k] = total.get(k, 0) + coeff * n
    return {lab: total[lab] for lab in ring.labels if total.get(lab)}


def hom_dim_dicts(ring, x_terms, y_terms):
    dx = decompose_dicts(ring, x_terms)
    dy = decompose_dicts(ring, y_terms)
    return sum(n * dy.get(lab, 0) for lab, n in dx.items())
