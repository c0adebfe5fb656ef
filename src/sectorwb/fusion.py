"""Fusion rings: labels, duals, integer structure constants, and the calculus
built on them (validation, Perron-Frobenius dimensions, decomposition of
formal words, hom-space dimensions).

A fusion ring here is purely combinatorial: an ordered label set with a unit,
a dual involution, and a tensor table N(i,j,k) of nonnegative integers, held
as sparse rows and as a dense array built on first use (validation, PF solve).  The
four axiom families checked by :func:`validate_ring`:

* unit:        N(1,j,k) = N(j,1,k) = delta_{jk}
* duality:     N(i,j,1) = delta_{j, dual(i)},  dual(dual(i)) = i, dual(1) = 1
* Frobenius:   N(i,j,k) = N(dual(i),k,j) = N(k,dual(j),i)
* associativity: sum_m N(i,j,m) N(m,k,l) = sum_m N(j,k,m) N(i,m,l)

The first three are array identities on the dense tensor.  Associativity is
first attempted by an exact O(n^4) certificate that covers commutative rings
(Verlinde rings, group rings of abelian groups, Tambara-Yamagami rings):

1. N(i,j,k) = N(j,i,k), so the product is commutative;
2. every left multiplication matrix M_a commutes with X = sum_a c_a M_a,
   c_a = a^2 + 1 for the label at position a, in arithmetic that a range
   bound makes exact;
3. the unit vector is cyclic for X: its Krylov matrix has full rank modulo a
   prime, hence over the rationals.

A matrix that commutes with a cyclic (nonderogatory) matrix is a polynomial
in it (Horn & Johnson, Matrix Analysis, 2nd ed., section 3.2.4), so the M_a
commute pairwise, and then (ab)c = c(ab) = a(cb) = a(bc).  The certificate
needs none of the other axioms.  When it does not apply (noncommutative
rings such as the Haagerup even part, non-associative tables, an X without
the unit as cyclic vector, or multiplicities whose products could reach
2^53), the n^5 check runs instead: one batch of matrix products per label
and side, in float64 when its sums stay below 2^53 and in Python ints
beyond, which is also the only code that writes associativity reports.

:func:`pf_dimensions` takes the Perron vector of sum_i M_i from one symmetric
eigen-solve, which presumes a ring that passes :func:`validate_ring`;
:func:`dimension_failure` certifies given exact dimensions instead.

Sector expressions ("t2*r*r + 2*r") are formal nonnegative-integer
combinations of words of labels, passed around as text;
:func:`parse_sector_expr` reads one into (coefficient, word) pairs,
:func:`decompose` reduces it to a multiplicity vector and :func:`hom_dim`
counts intertwiners between two expressions.  Frobenius reciprocity then
holds automatically.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ._base import EPS_ABS, Frozen, PositionedSyntaxError

if TYPE_CHECKING:
    import numpy as np

LABEL_RE = re.compile(r"[A-Za-z0-9_']+")

# matrix products of multiplicities are exact in float64 below this bound
_FLOAT_EXACT = 2 ** 53
_INT64_MAX = 2 ** 63 - 1
# The associativity certificate takes Krylov ranks modulo this prime
# (2**23 - 15); n * (p - 1)**2 fits int64 for every n below 2**17.
_KRYLOV_PRIME = 8_388_593
# validate_ring returns at most this many reports
MAX_REPORTS = 50


class RingStructureError(ValueError):
    """Malformed ring data (unknown labels, bad multiplicities, ...)."""


class ExprSyntaxError(PositionedSyntaxError):
    """Sector-expression text that does not parse; carries a position."""


class FusionRing(Frozen):
    """Immutable fusion-ring data.

    The constructor checks the tensor table as a whole and scans it entry by
    entry only to name the first bad one (see :func:`_scan_tensor`).

    ``tensor`` maps (i, j) to {k: N(i,j,k)} with only positive entries stored;
    ``dual`` is total after construction (identity entries filled in).
    ``N`` is the same table as a dense array for :func:`validate_ring` and
    :func:`pf_dimensions` only (:meth:`n` reads ``tensor``), and ``right_rows``
    as lists indexed by label position; each is built on first use and kept
    in the instance ``__dict__`` (so the class declares no ``__slots__``).
    """

    _fields = ("name", "labels", "unit", "dual", "tensor")
    __hash__ = None  # the dual and tensor fields are dicts

    def __init__(self, name: str, labels: Sequence[str], unit: str, dual: Mapping[str, str],
                 tensor: Mapping[Tuple[str, str], Mapping[str, int]]):
        labels = tuple(labels)
        if not labels:
            raise RingStructureError("empty label set")
        for lab in labels:
            if not isinstance(lab, str) or not LABEL_RE.fullmatch(lab):
                raise RingStructureError(f"bad label {lab!r}")
        if len(set(labels)) != len(labels):
            raise RingStructureError("duplicate labels")
        if unit not in labels:
            raise RingStructureError(f"unit {unit!r} not among labels")
        dual = dict(dual or {})
        for a, b in dual.items():
            if a not in labels or b not in labels:
                raise RingStructureError(f"dual entry {a!r}->{b!r} uses unknown label")
        for lab in labels:
            dual.setdefault(lab, lab)
        pos, chain = {lab: x for x, lab in enumerate(labels)}, itertools.chain.from_iterable
        # whole-table checks; the ordered scan runs only to name the first bad entry,
        # and returns for non-dict mappings and int subclasses, which only type tests refuse
        rows = dict(tensor)
        if not set(map(type, rows.values())) <= {dict}:
            _scan_tensor(rows, pos)
        rows = {key: dict(row) for key, row in rows.items()}
        values = list(chain(map(dict.values, rows.values())))
        if not (set(map(type, rows)) <= {tuple} and set(map(len, rows)) <= {2}
                and pos.keys() >= set(chain(rows)) | set(chain(rows.values()))
                and set(map(type, values)) <= {int}):
            _scan_tensor(rows, pos)
        distinct = set(values)
        if min(distinct, default=0) < 0 or max(distinct, default=0) > _INT64_MAX:
            _scan_tensor(rows, pos)
        if 0 in distinct or not all(rows.values()):
            rows = {key: clean for key, row in rows.items()
                    if (clean := {k: n for k, n in row.items() if n > 0})}
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "tensor", rows)
        object.__setattr__(self, "_pos", pos)

    @cached_property
    def N(self) -> np.ndarray:
        """The table as a read-only int64 array indexed by label position,
        built on first use: ``N[index(i), index(j), index(k)] = N(i,j,k)``,
        flattened with ``np.fromiter`` and written with one scatter."""
        import numpy as np

        pos, size, chain = self._pos, len(self.labels), itertools.chain.from_iterable
        keys, rows = self.tensor.keys(), self.tensor.values()
        i, j = np.fromiter(map(pos.__getitem__, chain(keys)), np.int64,
                           2 * len(keys)).reshape(-1, 2).T
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        entries = int(counts.sum())
        ks = np.fromiter(map(pos.__getitem__, chain(rows)), np.int64, entries)
        values = np.fromiter(chain(map(dict.values, rows)), np.int64, entries)
        dense = np.zeros(size ** 3, dtype=np.int64)
        dense[np.repeat((i * size + j) * size, counts) + ks] = values
        dense.flags.writeable = False
        return dense.reshape(size, size, size)

    @cached_property
    def right_rows(self) -> Dict[str, List[Tuple[Tuple[int, int], ...]]]:
        """Right multiplication by each label b as rows indexed by label
        position, built on first use: ``right_rows[b][index(i)]`` holds the
        pairs (index(k), N(i,b,k)) of the positive entries."""
        pos, size = self._pos, len(self.labels)
        rows = {lab: [()] * size for lab in self.labels}
        for (i, b), row in self.tensor.items():
            rows[b][pos[i]] = tuple(zip(map(pos.__getitem__, row), row.values()))
        return rows

    # -- access -------------------------------------------------------------

    def n(self, i: str, j: str, k: str) -> int:
        self._pos[i], self._pos[j], self._pos[k]  # an unknown label raises KeyError
        return int(self.tensor.get((i, j), {}).get(k, 0))

    def index(self, label: str) -> int:
        return self._pos[label]


def _scan_tensor(rows: Mapping[object, Mapping[object, object]], pos: Mapping[str, int]) -> None:
    """Raise RingStructureError for the first entry, in table order, whose key is
    not a tuple of two labels, whose label is unknown, whose row is not a mapping
    or whose multiplicity is not an int in 0..2**63 - 1."""
    for key, row in rows.items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise RingStructureError(f"tensor key {key!r} is not a pair of labels (i, j)")
        i, j = key
        if i not in pos or j not in pos:
            raise RingStructureError(f"tensor key ({i!r},{j!r}) uses unknown label")
        if not isinstance(row, Mapping):
            raise RingStructureError(f"tensor row ({i!r},{j!r}) is not a mapping")
        for k, n in row.items():
            if k not in pos:
                raise RingStructureError(f"tensor value label {k!r} unknown in ({i},{j})")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise RingStructureError(f"multiplicity N({i},{j},{k})={n!r} is not a nonnegative integer")
            if n > _INT64_MAX:
                raise RingStructureError(f"multiplicity N({i},{j},{k})={n} does not fit in 64 bits")


# ---------------------------------------------------------------------------
# sector expressions


def parse_sector_expr(text: str, labels: Sequence[str]) -> List[Tuple[int, Tuple[str, ...]]]:
    """Parse ``TERM ('+' TERM)*`` with ``TERM := [COEFF '*']? label ('*' label)*``
    into (coefficient, word) pairs, in the order written.

    A leading token of ASCII digits is a coefficient unless it names a label (so the
    Haagerup unit "1" stays a label).  Unknown labels raise RingStructureError.
    """
    label_set = set(labels)
    terms: List[Tuple[int, Tuple[str, ...]]] = []
    pos = 0
    for chunk in text.split("+"):
        if not chunk.strip():
            raise ExprSyntaxError("empty term", pos)
        factors = chunk.split("*")
        tokens = [f.strip() for f in factors]
        if "" in tokens:  # report the offset at which the first empty factor starts
            before = factors[:tokens.index("")]
            raise ExprSyntaxError("empty factor", pos + sum(len(f) + 1 for f in before))
        coeff = 1
        if tokens[0].isascii() and tokens[0].isdigit() and tokens[0] not in label_set:
            coeff, at = int(tokens[0]), pos + chunk.find(tokens[0])
            if coeff <= 0:
                raise ExprSyntaxError("coefficient must be positive", at)
            tokens = tokens[1:]
            if not tokens:
                raise ExprSyntaxError("coefficient without a word", at)
        for t in tokens:
            if t not in label_set:
                if LABEL_RE.fullmatch(t):
                    raise RingStructureError(f"unknown label {t!r}")
                raise ExprSyntaxError(f"bad token {t!r}", pos + chunk.find(t))
        terms.append((coeff, tuple(tokens)))
        pos += len(chunk) + 1
    return terms


# ---------------------------------------------------------------------------
# operations


def validate_ring(ring: FusionRing) -> List[str]:
    """Check the four axiom families; returns the first ``MAX_REPORTS``
    messages, one per violation.

    Unit, duality and Frobenius violations are found as one array mask each
    over ``ring.N``, associativity ones per label, and all are
    reported in label order, unit before duality before Frobenius before
    associativity, with at most one associativity report per pair (i, j).
    Associativity is skipped only when the exact certificate of the module
    docstring proves it, which it does for commutative rings whose
    combination X has the unit as a cyclic vector; every other ring gets
    the n^5 check, so the reports do not depend on whether the certificate
    applied.
    """
    return list(itertools.islice(_violations(ring), MAX_REPORTS))


def _violations(ring: FusionRing) -> Iterator[str]:
    """The messages of validate_ring, lazily, so a cut stops the work."""
    import numpy as np

    labels, unit, N = ring.labels, ring.unit, ring.N
    n = len(labels)
    u = ring.index(unit)
    d = np.array([ring.index(ring.dual[lab]) for lab in labels])
    eye = np.eye(n, dtype=np.int64)

    left, right = N[u], N[:, u]
    for jx, kx in np.argwhere((left != eye) | (right != eye)):
        j, k, want = labels[jx], labels[kx], eye[jx, kx]
        if left[jx, kx] != want:
            yield f"unit: N({unit},{j},{k})={left[jx, kx]} != {want}"
        if right[jx, kx] != want:
            yield f"unit: N({j},{unit},{k})={right[jx, kx]} != {want}"

    if ring.dual[unit] != unit:
        yield f"duality: dual({unit})={ring.dual[unit]} != {unit}"
    to_unit = N[:, :, u]
    expected = eye[d]  # [i, j] = 1 iff j = dual(i)
    bad = to_unit != expected
    not_involution = d[d] != np.arange(n)
    for ix in np.flatnonzero(not_involution | bad.any(axis=1)):
        i = labels[ix]
        if not_involution[ix]:
            yield f"duality: dual(dual({i}))={ring.dual[ring.dual[i]]} != {i}"
        for jx in np.flatnonzero(bad[ix]):
            yield f"duality: N({i},{labels[jx]},{unit})={to_unit[ix, jx]} != {expected[ix, jx]}"

    swap_ij = N[d].transpose(0, 2, 1)  # [i, j, k] = N(dual(i), k, j)
    swap_jk = N[:, d].transpose(2, 1, 0)  # [i, j, k] = N(k, dual(j), i)
    for ix, jx, kx in np.argwhere((N != swap_ij) | (N != swap_jk)):
        i, j, k, v = labels[ix], labels[jx], labels[kx], N[ix, jx, kx]
        if v != swap_ij[ix, jx, kx]:
            yield (f"frobenius: N({i},{j},{k})={v} != "
                   f"N({ring.dual[i]},{k},{j})={swap_ij[ix, jx, kx]}")
        if v != swap_jk[ix, jx, kx]:
            yield (f"frobenius: N({i},{j},{k})={v} != "
                   f"N({k},{ring.dual[j]},{i})={swap_jk[ix, jx, kx]}")
    del swap_ij, swap_jk  # two N-sized copies the associativity check does not need

    if _associativity_proved(N, u):
        return
    # sums of n products of multiplicities, exact in float64 below 2**53
    A = N.astype(np.float64 if n * int(N.max()) ** 2 < _FLOAT_EXACT else object)
    by_k = A.transpose(1, 0, 2)  # [k, m, l] = N(m, k, l)
    for ix in range(n):
        # [j, k, l]: sum_m N(i,j,m) N(m,k,l) against sum_x N(j,k,x) N(i,x,l),
        # each a batch of n matrix products
        lhs = np.matmul(A[ix], by_k).transpose(1, 0, 2)
        rhs = np.matmul(A, A[ix])
        bad = lhs != rhs
        for jx in np.flatnonzero(bad.any(axis=(1, 2))):
            l_ix, k_ix = np.argwhere(bad[jx].T)[0]
            i, j, k, l = labels[ix], labels[jx], labels[k_ix], labels[l_ix]
            yield (f"associativity: sum_m N({i},{j},m)N(m,{k},{l})={int(lhs[jx, k_ix, l_ix])}"
                   f" != sum_m N({j},{k},m)N({i},m,{l})={int(rhs[jx, k_ix, l_ix])}")


def _associativity_proved(N: np.ndarray, u: int) -> bool:
    """True when the certificate in the module docstring proves that the
    table N (unit at index u) is associative; False means "not proved",
    never "not associative"."""
    import numpy as np

    n = len(N)
    if not np.array_equal(N, N.transpose(1, 0, 2)):
        return False
    M = N.transpose(0, 2, 1)  # M[a] = M_a, M_a[k, j] = N(a, j, k)
    c = np.arange(n, dtype=np.int64) ** 2 + 1
    # X = sum_a c_a M_a has entries at most top * sum(c), and the entries of
    # M_a X and X M_a are sums of n products, each at most top * max(X): one
    # bound makes them exact in float64 and keeps X in int64 for the Krylov step
    top = int(N.max())
    if n * top ** 2 * int(c.sum()) >= _FLOAT_EXACT:
        return False
    X = (c @ N.reshape(n, n * n)).reshape(n, n).T
    Mx, Xx = np.ascontiguousarray(M, dtype=np.float64), X.astype(np.float64)
    # n products of n x n matrices on each side, not one (n*n, n) product:
    # without CPU pinning on a two-CPU host the large product woke OpenBLAS
    # threads and took about 8 ms at 41 labels, against 0.1 ms pinned
    if not np.array_equal(np.matmul(Mx, Xx), np.matmul(Xx, Mx)):
        return False
    p = _KRYLOV_PRIME
    Xp = X % p
    K = np.empty((n, n), dtype=np.int64)  # row t = X^t e_u mod p
    v = np.zeros(n, dtype=np.int64)
    v[u] = 1
    for t in range(n):
        K[t] = v
        v = Xp @ v % p
    # Gaussian elimination mod p; every product of residues fits int64
    for col in range(n):
        nonzero = np.flatnonzero(K[col:, col])
        if not nonzero.size:
            return False
        r = col + nonzero[0]
        pivot = K[r].copy()
        K[r] = K[col]
        scale = K[col + 1:, col] * pow(int(pivot[col]), -1, p) % p
        K[col + 1:] = (K[col + 1:] - np.outer(scale, pivot)) % p
    return True


def pf_dimensions(ring: FusionRing) -> Dict[str, float]:
    """Perron-Frobenius dimension of every label.

    The dimension vector d satisfies M_i d = d_i d for every left
    multiplication matrix M_i, so it is the Perron vector of sum_i M_i,
    normalized at the unit.  On a ring that passes :func:`validate_ring`,
    Frobenius reciprocity makes that sum symmetric and rigidity makes it
    entrywise positive, so one symmetric eigen-solve gives d and its Perron
    eigenvalue is simple (EGNO, Tensor Categories, 3.3).  Other rings get no
    meaningful answer.
    """
    import numpy as np

    _, vecs = np.linalg.eigh(ring.N.sum(axis=0).astype(float))
    perron = vecs[:, -1]
    return dict(zip(ring.labels, (perron / perron[ring.index(ring.unit)]).tolist()))


def dimension_failure(ring: FusionRing, d: Mapping[str, object]) -> Optional[str]:
    """None when the exact values d are positive and d(a) d(b) = sum_c N(a,b,c) d(c)
    for all labels a, b they cover, which must be closed under products (su2's even
    labels are), else the first identity that fails.  Such a d is a positive
    eigenvector of every multiplication, so it is FPdim (EGNO, Tensor Categories, 3.3)."""
    for a, da in d.items():
        if not da > 0:
            return f"d({a}) = {da} is not positive"
    for a, b in itertools.product(d, repeat=2):
        if d[a] * d[b] != sum(n * d[c] for c, n in ring.tensor.get((a, b), {}).items()):
            return f"d({a}*{b}) = d({a}) d({b}) fails"
    return None


def _times(vec: Dict[int, int], rows: Sequence[Tuple[Tuple[int, int], ...]]) -> Dict[int, int]:
    """A multiplicity vector {label position: n > 0} times one label, given
    as that label's :attr:`FusionRing.right_rows`."""
    out: Dict[int, int] = {}
    for i, mult in vec.items():
        for k, n in rows[i]:
            out[k] = out.get(k, 0) + mult * n
    return out


def decompose(ring: FusionRing, text: str) -> Dict[str, int]:
    """Reduce sector-expression text to irreducible multiplicities, in label order.

    Words reduce strictly left to right on vectors keyed by label position;
    associativity of a validated ring makes the bracketing irrelevant.
    """
    rows, unit, labels = ring.right_rows, ring.index(ring.unit), ring.labels
    total: Dict[int, int] = {}
    for coeff, word in parse_sector_expr(text, labels):
        vec = dict(rows[word[0]][unit])  # the unit times the first label
        for lab in word[1:]:
            vec = _times(vec, rows[lab])
        for k, n in vec.items():
            total[k] = total.get(k, 0) + coeff * n
    return {labels[k]: total[k] for k in sorted(total)}


def hom_dim(ring: FusionRing, x: str, y: str) -> int:
    """dim Hom(x, y) = sum over irreducibles of the multiplicity product."""
    dx = decompose(ring, x)
    dy = decompose(ring, y)
    return sum(n * dy.get(lab, 0) for lab, n in dx.items())


def check_multiplicity_bound(ring: FusionRing, decomposition: Mapping[str, int]) -> bool:
    """Whether every multiplicity n_i satisfies n_i <= d(i) (within tolerance): true for
    a product of two labels, as N(a,b,i) <= min(d(a), d(b), d(i)), but not for every
    word or sum (on su2 at k = 2, l1*l1*l1*l1 = 2*l0 + 2*l2 and the answer is False)."""
    dims = pf_dimensions(ring)
    return all(n <= dims[lab] + EPS_ABS for lab, n in decomposition.items())
