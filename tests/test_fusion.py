import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sectorwb import catalog
from sectorwb.fusion import (
    ExprSyntaxError,
    MAX_REPORTS,
    FusionRing,
    RingStructureError,
    _associativity_proved,
    check_multiplicity_bound,
    decompose,
    dimension_failure,
    hom_dim,
    parse_sector_expr,
    pf_dimensions,
    validate_ring,
)
from sectorwb.scalar import quad

import _oracles


def _unit_rows(labels, unit):
    rows = {(unit, lab): {lab: 1} for lab in labels}
    rows.update({(lab, unit): {lab: 1} for lab in labels if lab != unit})
    return rows


def _ising():
    # three labels; the nontrivial involution-free example everyone uses
    tensor = _unit_rows(("1", "e", "s"), "1")
    tensor.update({
        ("e", "e"): {"1": 1},
        ("e", "s"): {"s": 1},
        ("s", "e"): {"s": 1},
        ("s", "s"): {"1": 1, "e": 1},
    })
    return FusionRing(name="ising", labels=("1", "e", "s"), unit="1",
                      dual={}, tensor=tensor)


def test_validate_accepts_good_ring():
    assert validate_ring(_ising()) == []


def test_validate_reports_unit_violation():
    tensor = _unit_rows(("1", "x"), "1")
    tensor[("1", "x")] = {"x": 2}
    bad = FusionRing(name="bad", labels=("1", "x"), unit="1", dual={},
                     tensor=tensor)
    report = validate_ring(bad)
    assert any(line.startswith("unit:") for line in report)


def test_validate_reports_broken_associativity():
    # multiplicity 2 on one side of s*s only: frobenius and associativity
    # both have to complain
    tensor = _unit_rows(("1", "e", "s"), "1")
    tensor.update({
        ("e", "e"): {"1": 1},
        ("e", "s"): {"s": 1},
        ("s", "e"): {"s": 1},
        ("s", "s"): {"1": 1, "e": 2},
    })
    bad = FusionRing(name="bad", labels=("1", "e", "s"), unit="1", dual={},
                     tensor=tensor)
    report = validate_ring(bad)
    assert any(line.startswith("frobenius:") for line in report)
    assert any(line.startswith("associativity:") for line in report)


def test_pf_dimensions_ising():
    dims = pf_dimensions(_ising())
    assert dims["1"] == pytest.approx(1.0, abs=1e-12)
    assert dims["e"] == pytest.approx(1.0, abs=1e-12)
    assert dims["s"] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_dimension_failure_ising():
    ring, sqrt2 = _ising(), quad(0, 1, 2)
    assert dimension_failure(ring, {"1": 1, "e": 1, "s": sqrt2}) is None
    assert dimension_failure(ring, {"1": 1, "e": -1, "s": sqrt2}) == "d(e) = -1 is not positive"
    # every value positive, but d(s)^2 = 4 is not d(1) + d(e) = 2
    assert dimension_failure(ring, {"1": 1, "e": 1, "s": 2}) == "d(s*s) = d(s) d(s) fails"
    # the conjugate sqrt(2) -> -sqrt(2) keeps every product identity, such as
    # d(s)^2 = d(1) + d(e), and fails on positivity alone
    assert (-sqrt2) * (-sqrt2) == 1 + 1
    assert dimension_failure(ring, {"1": 1, "e": 1, "s": -sqrt2}) == (
        "d(s) = -sqrt(2) is not positive")


def test_pf_dimensions_su2_formula():
    for k in list(range(1, 9)) + [40, 60, 120]:
        ring = catalog.builtin("su2", k)
        dims = pf_dimensions(ring)
        q = math.pi / (k + 2)
        for i in range(k + 1):
            assert dims[f"l{i}"] == pytest.approx(
                math.sin((i + 1) * q) / math.sin(q), rel=1e-13, abs=0)


def test_pf_dimensions_reducible_ring():
    # Z2 group ring doubled: labels {1,g} with g*g=1 is fine, but a ring
    # whose fusion graph is not strongly connected must still get dims
    tensor = _unit_rows(("1", "g"), "1")
    tensor[("g", "g")] = {"1": 1}
    ring = FusionRing(name="z2", labels=("1", "g"), unit="1", dual={},
                      tensor=tensor)
    dims = pf_dimensions(ring)
    assert dims == {"1": pytest.approx(1.0), "g": pytest.approx(1.0)}


def test_multiplicity_must_fit_64_bits():
    tensor = _unit_rows(("1", "x"), "1")
    tensor[("x", "x")] = {"1": 1, "x": 2 ** 63}
    with pytest.raises(RingStructureError, match="64 bits"):
        FusionRing(name="huge", labels=("1", "x"), unit="1", dual={}, tensor=tensor)


@pytest.mark.parametrize("fields, message", [
    ({"labels": ()}, "empty label set"),
    ({"labels": ("1", "x", "x")}, "duplicate labels"),
    ({"unit": "u"}, "unit 'u' not among labels"),
    ({"dual": {"x": "y"}}, "dual entry 'x'->'y' uses unknown label"),
    ({"tensor": {("x", "y"): {"1": 1}}}, r"tensor key \('x','y'\) uses unknown label"),
    ({"tensor": {("x", "x"): {"y": 1}}}, r"tensor value label 'y' unknown in \(x,x\)"),
    ({"tensor": {("x", "x"): {"1": 1.0}}}, r"multiplicity N\(x,x,1\)=1.0 is not a nonnegative"),
    # a two-character string key was read as the pair ("1", "x"), and a
    # 3-tuple failed with a bare "too many values to unpack"
    ({"tensor": {"1x": {"x": 1}}}, r"tensor key '1x' is not a pair of labels \(i, j\)$"),
    ({"tensor": {("1", "x", "x"): {"x": 1}}},
     r"tensor key \('1', 'x', 'x'\) is not a pair of labels \(i, j\)$"),
    # rows that are not mappings: a bare ValueError and TypeError from dict(row),
    # and a list of pairs that dict(row) accepted
    ({"tensor": {("1", "x"): "ab"}}, r"tensor row \('1','x'\) is not a mapping$"),
    ({"tensor": {("1", "x"): 5}}, r"tensor row \('1','x'\) is not a mapping$"),
    ({"tensor": {("1", "x"): [("x", 1)]}}, r"tensor row \('1','x'\) is not a mapping$"),
], ids=["empty", "duplicate", "unit", "dual", "tensor-key", "tensor-value", "non-integer",
        "string-key", "3-tuple-key", "string-row", "int-row", "pair-list-row"])
def test_constructor_rejects_bad_structure(fields, message):
    ring = dict(name="z2", labels=("1", "x"), unit="1", dual={},
                tensor=_unit_rows(("1", "x"), "1"))
    with pytest.raises(RingStructureError, match=f"^{message}"):
        FusionRing(**dict(ring, **fields))


def test_label_with_trailing_newline_is_rejected():
    with pytest.raises(RingStructureError, match="bad label"):
        FusionRing(name="x", labels=("1", "a\n"), unit="1", dual={},
                   tensor=_unit_rows(("1", "a\n"), "1"))


class _Mult(int):
    """An int subclass: stored as given, like a plain int."""


# ``planted`` faults and their entries: a key, or a (label, multiplicity)
_BAD_KEYS = ("ab", "a", ("a", "b", "c"), ("a",), ("a", "z"), ("z", "a"), (1, "a"))
_BAD_ENTRIES = (("z", 1), (1, 1), ("a", 1.0), ("a", 2.5), ("a", True), ("a", False),
                ("a", -1), ("a", -2 ** 64), ("a", 2 ** 63), ("a", 2 ** 70), ("a", None),
                ("a", "1"))
_GOOD_ENTRIES = (("a", 0), ("b", 0), ("a", 2 ** 63 - 1), ("c", _Mult(3)), ("b", _Mult(0)))
# rows that are not dicts: four that are no mapping, and a read-only mapping
_ROWS = ("ab", 5, [("a", 1)], None, MappingProxyType({"b": 1}))


@st.composite
def _planted_tables(draw):
    """A random table over the labels 1, a, b, c with up to three planted
    entries, each a bad key, a bad label or multiplicity, a zero, an empty
    row, a row that is not a dict, 2**63 - 1 or an int subclass, at a random
    place in table order."""
    labels = ("1", "a", "b", "c")
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(labels)] * 2), max_size=8, unique=True))
    items = [(key, {k: draw(st.integers(0, 4)) for k in draw(st.sets(st.sampled_from(labels)))})
             for key in pairs]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("key", "entry", "good", "empty", "row")))
        if kind in ("key", "empty", "row"):
            key = draw(st.sampled_from(_BAD_KEYS)) if kind == "key" else \
                (draw(st.sampled_from(labels)), draw(st.sampled_from(labels)))
            row = {"a": 1} if kind == "key" else {} if kind == "empty" else \
                draw(st.sampled_from(_ROWS))
            items.insert(draw(st.integers(0, len(items))), (key, row))
        elif rows := [row for _, row in items if type(row) is dict]:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            k, n = draw(st.sampled_from(_BAD_ENTRIES if kind == "entry" else _GOOD_ENTRIES))
            old, at = list(row.items()), draw(st.integers(0, len(row)))
            row.clear()
            row.update([*old[:at], (k, n), *old[at:]])
    return labels, dict(items)


def _assert_constructor_matches_oracle(labels, tensor):
    """The whole-table checks raise what the per-entry loop raised, for the
    same first bad entry, or store the same rows with the same objects."""
    try:
        want = _oracles.fusion_rows_loops(labels, tensor, RingStructureError)
    except RingStructureError as exc:
        with pytest.raises(RingStructureError) as got:
            FusionRing("t", labels, "1", {}, tensor)
        assert str(got.value) == str(exc)
        return
    ring = FusionRing("t", labels, "1", {}, tensor)
    assert [(key, [(k, n, type(n)) for k, n in row.items()]) for key, row in ring.tensor.items()] \
        == [(key, [(k, n, type(n)) for k, n in row.items()]) for key, row in want.items()]
    assert np.array_equal(ring.N, _oracles.dense_tensor_loops(ring))


@pytest.mark.parametrize("entry", _BAD_ENTRIES + _GOOD_ENTRIES, ids=repr)
def test_each_planted_entry_alone_matches_oracle(entry):
    # one fault in an otherwise valid table: only that entry's check can see it
    tensor = {**_unit_rows(("1", "a", "b", "c"), "1"), ("a", "b"): {"c": 1}}
    tensor[("a", "b")][entry[0]] = entry[1]
    _assert_constructor_matches_oracle(("1", "a", "b", "c"), tensor)


@pytest.mark.parametrize("key", _BAD_KEYS, ids=repr)
def test_each_planted_key_alone_matches_oracle(key):
    _assert_constructor_matches_oracle(("1", "a", "b", "c"),
                                       {**_unit_rows(("1", "a"), "1"), key: {"a": 1}})


@pytest.mark.parametrize("row", _ROWS, ids=repr)
def test_each_planted_row_alone_matches_oracle(row):
    _assert_constructor_matches_oracle(("1", "a", "b", "c"),
                                       {**_unit_rows(("1", "a"), "1"), ("a", "b"): row})


@given(_planted_tables())
def test_constructor_matches_entry_loop_oracle(table):
    _assert_constructor_matches_oracle(*table)


def test_dense_tensor_matches_entry_loop_oracle():
    rings = ([catalog.builtin("su2", k) for k in (*range(1, 13), 40)]
             + [_zn(n) for n in (1, 2, 7, 40)] + [_tambara_yamagami(n) for n in (1, 3, 32)]
             + [catalog.builtin(e.key) for e in catalog.ENTRIES if not e.parametrized])
    for ring in rings:
        assert ring.N.dtype == np.int64 and not ring.N.flags.writeable
        assert np.array_equal(ring.N, _oracles.dense_tensor_loops(ring)), ring.name
    with pytest.raises(RingStructureError, match="bad label"):
        FusionRing(name="x", labels=("1", "a\n"), unit="1", dual={},
                   tensor=_unit_rows(("1", "a\n"), "1"))


def test_dense_tensor_matches_rows():
    ring = catalog.builtin("a4_rep")
    for i in ring.labels:
        for j in ring.labels:
            for k in ring.labels:
                assert ring.N[ring.index(i), ring.index(j), ring.index(k)] == \
                    ring.tensor.get((i, j), {}).get(k, 0) == ring.n(i, j, k)
    with pytest.raises(ValueError):
        ring.N[0, 0, 0] = 7


def test_n_reads_the_sparse_table():
    # n agrees with the dense array entry for entry, but builds no N
    rings = ([catalog.builtin("su2", k) for k in range(1, 13)]
             + [catalog.builtin(e.key) for e in catalog.ENTRIES if not e.parametrized])
    for ring in rings:
        fresh = catalog.ring_from_dict(catalog.ring_to_dict(ring))
        for i, j, k in itertools.product(fresh.labels, repeat=3):
            assert fresh.n(i, j, k) == int(ring.N[ring.index(i), ring.index(j), ring.index(k)])
        assert "N" not in vars(fresh), ring.name
    ring = catalog.builtin("a4_rep")
    for args in (("nope", "1", "1"), ("1", "nope", "1"), ("1", "1", "nope")):
        with pytest.raises(KeyError, match="nope"):
            ring.n(*args)
    assert "N" not in vars(ring)


def test_n_at_a_large_level_imports_no_numpy():
    probe = """
import sys
from sectorwb.catalog import builtin
assert builtin("su2", 150).n("l1", "l1", "l2") == 1
assert "numpy" not in sys.modules, "numpy was imported"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def _zn(n):
    labels = tuple(f"g{i}" for i in range(n))
    tensor = {(labels[i], labels[j]): {labels[(i + j) % n]: 1}
              for i in range(n) for j in range(n)}
    dual = {labels[i]: labels[-i % n] for i in range(n)}
    return FusionRing(f"z{n}", labels, "g0", dual, tensor)


def _tambara_yamagami(n):
    """TY(Z/n): the group Z/n plus m with g*m = m*g = m, m*m = sum of g."""
    group = _zn(n)
    tensor = {key: dict(row) for key, row in group.tensor.items()}
    for g in group.labels:
        tensor[(g, "m")] = {"m": 1}
        tensor[("m", g)] = {"m": 1}
    tensor[("m", "m")] = {g: 1 for g in group.labels}
    return FusionRing(f"ty_z{n}", group.labels + ("m",), "g0", group.dual, tensor)


@st.composite
def _corrupted_rings(draw):
    """su2, Z/n, TY and catalog rings with up to three corruptions: a
    multiplicity raised or lowered by one, raised past 2**27 (so that exact
    matrix products leave float64 and run on Python ints), N(i,j,k) and
    N(j,i,k) raised together (the ring stays commutative, so the
    associativity certificate has to reject it), or the duals of two labels
    swapped."""
    family = draw(st.sampled_from(("su2", "zn", "ty", "catalog")))
    if family == "su2":
        ring = catalog.builtin("su2", draw(st.integers(1, 6)))
    elif family == "zn":
        ring = _zn(draw(st.integers(1, 7)))
    elif family == "ty":
        ring = _tambara_yamagami(draw(st.integers(1, 5)))
    else:
        ring = catalog.builtin(draw(st.sampled_from(
            [e.key for e in catalog.ENTRIES if not e.parametrized])))
    labels = ring.labels
    tensor = {key: dict(row) for key, row in ring.tensor.items()}
    dual = dict(ring.dual)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("up", "down", "big", "dual", "both")))
        if kind == "dual":
            a, b = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
            dual[a], dual[b] = dual[b], dual[a]
            continue
        if kind == "both":
            i, j, k = (draw(st.sampled_from(labels)) for _ in range(3))
            for key in {(i, j), (j, i)}:
                row = tensor.setdefault(key, {})
                row[k] = row.get(k, 0) + 1
            continue
        if kind == "down":
            nonzero = sorted((i, j, k) for (i, j), row in tensor.items()
                             for k, v in row.items() if v)
            if not nonzero:
                continue
            i, j, k = draw(st.sampled_from(nonzero))
        else:
            i, j, k = (draw(st.sampled_from(labels)) for _ in range(3))
        row = tensor.setdefault((i, j), {})
        row[k] = row.get(k, 0) + {"up": 1, "down": -1, "big": 2 ** 27 + 1}[kind]
    return FusionRing(ring.name, labels, ring.unit, dual, tensor)


@given(_corrupted_rings())
def test_validate_matches_loop_oracle(ring):
    assert validate_ring(ring) == _oracles.validate_ring_loops(ring, MAX_REPORTS)


def _table(labels, products):
    """A ring with the unit (first label) acting trivially on both sides and
    the given other products; the axioms other than unit need not hold."""
    tensor = _unit_rows(labels, labels[0])
    tensor.update(products)
    return FusionRing("table", labels, labels[0], {}, tensor)


def _proved(ring):
    return _associativity_proved(ring.N, ring.index(ring.unit))


def _dihedral(n):
    """The group ring of the dihedral group of order 2n; g{i}_{e} is r^i s^e."""
    labels = tuple(f"g{i}_{e}" for e in (0, 1) for i in range(n))
    tensor = {(f"g{i}_{a}", f"g{j}_{b}"): {f"g{(i + (-1) ** a * j) % n}_{(a + b) % 2}": 1}
              for a in (0, 1) for b in (0, 1) for i in range(n) for j in range(n)}
    dual = {f"g{i}_0": f"g{-i % n}_0" for i in range(n)}
    return FusionRing(f"d{n}", labels, "g0_0", dual, tensor)


@pytest.mark.parametrize("n", [13, 15])
def test_noncommutative_fallback_at_26_and_30_labels(n):
    # noncommutative, so the n^5 check runs on 26 and 30 labels; raising
    # N(g12_1,g1_0,g0_1) puts the first associativity report at j = g11_1,
    # position 24 of D13 and 26 of D15
    ring = _dihedral(n)
    assert len(ring.labels) == 2 * n and not _proved(ring)
    assert validate_ring(ring) == []
    tensor = {key: dict(row) for key, row in ring.tensor.items()}
    tensor[("g12_1", "g1_0")]["g0_1"] = 1
    broken = FusionRing(ring.name, ring.labels, ring.unit, ring.dual, tensor)
    report = validate_ring(broken)
    assert report == _oracles.validate_ring_loops(broken, MAX_REPORTS)
    first = next(line for line in report if line.startswith("associativity:"))
    assert first.startswith("associativity: sum_m N(g1_0,g11_1,m)")


def test_validate_reports_int64_overflowing_sums_exactly():
    # sums of products of multiplicities near 2**40 leave int64: the two
    # sides of (x*x)*y = x*(x*y) at y are A^2 + 3A + 1 and 2A^2
    A = 2 ** 40
    ring = _table(("1", "x", "y"), {
        ("x", "x"): {"1": 1, "x": A, "y": A},
        ("x", "y"): {"x": A, "y": A},
        ("y", "x"): {"x": A, "y": A},
        ("y", "y"): {"1": 1, "x": A, "y": 3},
    })
    lo, hi = A * A + 3 * A + 1, 2 * A * A
    assert (lo, hi) == (2 ** 80 + 3 * 2 ** 40 + 1, 2 ** 81)
    want = [
        f"associativity: sum_m N(x,x,m)N(m,y,y)={lo} != sum_m N(x,y,m)N(x,m,y)={hi}",
        f"associativity: sum_m N(x,y,m)N(m,y,x)={hi} != sum_m N(y,y,m)N(x,m,x)={lo}",
        f"associativity: sum_m N(y,x,m)N(m,x,y)={hi} != sum_m N(x,x,m)N(y,m,y)={lo}",
        f"associativity: sum_m N(y,y,m)N(m,x,x)={lo} != sum_m N(y,x,m)N(y,m,x)={hi}",
    ]
    assert not _proved(ring)
    assert validate_ring(ring) == want == _oracles.validate_ring_loops(ring, MAX_REPORTS)


def test_certificate_rejects_noncommutative_rings():
    assert not _proved(catalog.builtin("haagerup_even"))
    # x*1 = 1 + x but 1*x = x: the left multiplications commute (L_1 = I)
    # and the unit is cyclic, yet (x*1)*1 = 2*1 + x != x*(1*1)
    tensor = {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
              ("x", "1"): {"1": 1, "x": 1}, ("x", "x"): {"x": 1}}
    ring = FusionRing("lopsided", ("1", "x"), "1", {}, tensor)
    assert not _proved(ring)
    report = validate_ring(ring)
    assert report == _oracles.validate_ring_loops(ring)
    assert any(line.startswith("associativity:") for line in report)


def test_certificate_rejects_commutative_nonassociative_tables():
    # Z/3 with g1*g2 = g2*g1 = g0 + g1: commutative, not associative
    ring = _table(("g0", "g1", "g2"), {
        ("g1", "g1"): {"g2": 1}, ("g2", "g2"): {"g1": 1},
        ("g1", "g2"): {"g0": 1, "g1": 1}, ("g2", "g1"): {"g0": 1, "g1": 1},
    })
    assert np.array_equal(ring.N, ring.N.transpose(1, 0, 2))
    assert not _proved(ring)
    report = validate_ring(ring)
    assert report == _oracles.validate_ring_loops(ring)
    assert any(line.startswith("associativity:") for line in report)


def test_certificate_needs_a_cyclic_unit_vector():
    # the zero table is associative, but X = 0 has no cyclic vector
    zero = FusionRing("zero", ("1", "x"), "1", {}, {})
    assert not _proved(zero)
    # C + C with idempotents 1 and e: X = diag(1, 2) is cyclic, but the
    # vector of "1" spans an invariant line
    split = FusionRing("split", ("1", "e"), "1", {},
                       {("1", "1"): {"1": 1}, ("e", "e"): {"e": 1}})
    assert not _proved(split)
    # the dual numbers 1, x with x*x = 0: associative, not semisimple, and
    # 1 is cyclic for X = 1 + 2x, so the certificate applies
    dual_numbers = FusionRing("dual_numbers", ("1", "x"), "1", {},
                              {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                               ("x", "1"): {"x": 1}})
    assert _proved(dual_numbers)
    for ring in (zero, split, dual_numbers):
        assert not [line for line in _oracles.validate_ring_loops(ring)
                    if line.startswith("associativity:")]


def test_certificate_arithmetic_stays_exact():
    # x*x = A*x is associative; the certificate's bound n * top^2 * sum(c)
    # is 6*A^2, below 2**53 at A = 2**20, so float64 products decide; at
    # 2**28, 2**31 and 2**62 it is not, and the n^5 check decides on Python
    # ints (at 2**62 even X = sum_a c_a M_a, up to 3*A, would leave int64)
    for A, proved in ((2 ** 20, True), (2 ** 28, False), (2 ** 31, False), (2 ** 62, False)):
        ring = _table(("1", "x"), {("x", "x"): {"x": A}})
        assert _proved(ring) is proved
        report = validate_ring(ring)
        assert report == _oracles.validate_ring_loops(ring)
        assert not [line for line in report if line.startswith("associativity:")]


def _su2_table(k):
    # N(i,j,l) = 1 iff |i-j| <= l <= min(i+j, 2k-i-j) and i+j+l is even
    i, j, l = np.ogrid[:k + 1, :k + 1, :k + 1]
    return ((abs(i - j) <= l) & (l <= np.minimum(i + j, 2 * k - i - j))
            & ((i + j + l) % 2 == 0)).astype(np.int64)


def test_certificate_covers_the_commutative_rings():
    # a change that sends these back to the n^5 loop fails here, not only
    # in the benchmark; Z/n and TY(Z/n) at the ring-build sizes
    for k in list(range(1, 13)) + [40]:
        assert np.array_equal(_su2_table(k), catalog._su2(k).N)
    assert [k for k in range(1, 121) if not _associativity_proved(_su2_table(k), 0)] == []
    rings = [_zn(n) for n in range(1, 41)] + [_tambara_yamagami(n) for n in range(1, 33)]
    fixed = [catalog.builtin(e.key) for e in catalog.ENTRIES if not e.parametrized]
    noncommutative = {r.name for r in fixed
                      if not np.array_equal(r.N, r.N.transpose(1, 0, 2))}
    assert noncommutative == {"haagerup_even"}
    rings += [r for r in fixed if r.name not in noncommutative]
    assert [r.name for r in rings if not _proved(r)] == []


def test_validate_ring_stops_at_max_reports():
    # su2 at k = 6 breaks duality and Frobenius reciprocity in 68 places
    # with the duals of l1 and l5 swapped, and in 53 with those of l0 and
    # l6, where the dual(unit) report comes first and counts against the
    # cap like every other one
    su2 = catalog.builtin("su2", 6)
    for a, b, count in (("l1", "l5", 68), ("l0", "l6", 53)):
        ring = FusionRing(su2.name, su2.labels, su2.unit, {**su2.dual, a: b, b: a}, su2.tensor)
        full = _oracles.validate_ring_loops(ring, 10 ** 6)
        assert len(full) == count and full[MAX_REPORTS - 1].startswith("frobenius:")
        assert validate_ring(ring) == full[:MAX_REPORTS]
    assert MAX_REPORTS == 50 and full[0] == "duality: dual(l0)=l6 != l0"
    tensor = _unit_rows(("1", "x"), "1")
    tensor[("x", "x")] = {"1": 1}
    bad = FusionRing(name="bad", labels=("1", "x"), unit="1",
                     dual={"1": "x", "x": "1"}, tensor=tensor)
    full = validate_ring(bad)
    assert full[0] == "duality: dual(1)=x != 1" and len(full) > 3
    assert full == _oracles.validate_ring_loops(bad, 10 ** 6)


def test_parse_and_decompose():
    ring = _ising()
    assert decompose(ring, "s*s") == {"1": 1, "e": 1}
    assert decompose(ring, "s*s + e") == {"1": 1, "e": 2}
    assert decompose(ring, "2*s") == {"s": 2}
    assert decompose(ring, "1") == {"1": 1}


def test_parse_errors():
    ring = _ising()
    with pytest.raises(ExprSyntaxError):
        parse_sector_expr("s**e", ring.labels)
    with pytest.raises(ExprSyntaxError):
        parse_sector_expr("", ring.labels)
    with pytest.raises(ExprSyntaxError):
        parse_sector_expr("3", ring.labels)
    with pytest.raises(RingStructureError):
        parse_sector_expr("s + q", ring.labels)
    # an empty factor is reported where it starts, not after the first '*'
    for text, position in (("e*e**e", 4), ("e*e*", 4), ("a + e*e**e", 8), ("e*", 2)):
        with pytest.raises(ExprSyntaxError, match="empty factor") as exc:
            parse_sector_expr(text, ["a", "e"])
        assert exc.value.position == position


@pytest.mark.parametrize("text, message, position", [
    ("e +  0*e", "coefficient must be positive", 5),
    ("e + 3", "coefficient without a word", 4),
    (" 3 ", "coefficient without a word", 1),
])
def test_coefficient_errors_name_the_coefficient(text, message, position):
    with pytest.raises(ExprSyntaxError, match=message) as exc:
        parse_sector_expr(text, ["a", "e"])
    assert exc.value.position == position


@pytest.mark.parametrize("text", ["\u00b2*e", "\u0663*e", "e + \u00b2*e"])
def test_coefficients_are_ascii_digits(text):
    # a non-ASCII digit is no coefficient: "\u0663" (Arabic-Indic three) was
    # read as 3, and "\u00b2" (superscript two) ended in a bare int() error
    with pytest.raises(ExprSyntaxError, match="bad token") as exc:
        decompose(catalog.builtin("e6_even"), text)
    assert exc.value.position == text.index("*") - 1


def test_hom_dim_regression():
    ring = catalog.builtin("haagerup_even")
    assert hom_dim(ring, "t2*r*r", "t2 + r") == 2


@given(st.sampled_from(["d6_even", "a4_rep", "haagerup_even", "s4_rep"]), st.data())
def test_hom_dim_frobenius_move(key, data):
    ring = catalog.builtin(key)
    i = data.draw(st.sampled_from(ring.labels))
    j = data.draw(st.sampled_from(ring.labels))
    k = data.draw(st.sampled_from(ring.labels))
    assert hom_dim(ring, f"{i}*{j}", k) == hom_dim(ring, i, f"{k}*{ring.dual[j]}")


def test_multiplicity_bound():
    # n_i <= d(i): in the three-label ring both invertibles cap at 1
    # and s caps at sqrt(2)
    assert check_multiplicity_bound(_ising(), {"1": 1, "e": 1, "s": 1})
    assert not check_multiplicity_bound(_ising(), {"1": 4})
    assert not check_multiplicity_bound(_ising(), {"s": 2})


@pytest.mark.parametrize("word, bounded", [
    ("l1*l1", True), ("l1*l2", True), ("l2*l2", True),
    # a longer word: 2*l0 + 2*l2, and d(l0) = 1 < 2
    ("l1*l1*l1*l1", False),
])
def test_multiplicity_bound_holds_for_products_of_two_labels_only(word, bounded):
    ring = catalog.builtin("su2", 2)
    dec = decompose(ring, word)
    if word == "l1*l1*l1*l1":
        assert dec == {"l0": 2, "l2": 2}
    assert check_multiplicity_bound(ring, dec) is bounded


@given(st.sampled_from(
    ["su2_2", "su2_3", "su2_4", "d6_even", "e6_even", "s4_rep",
     "a4_rep", "d6aff_even", "haagerup_even"]),
    st.data())
def test_decompose_matches_matrix_oracle(key, data):
    if key.startswith("su2_"):
        ring = catalog.builtin("su2", int(key.split("_")[1]))
    else:
        ring = catalog.builtin(key)
    word = data.draw(st.lists(st.sampled_from(ring.labels), min_size=1, max_size=4))
    assert decompose(ring, "*".join(word)) == _oracles.word_multiplicities(ring, word)


@given(st.sampled_from(["d6_even", "s4_rep", "haagerup_even"]), st.data())
def test_dimension_homomorphism(key, data):
    ring = catalog.builtin(key)
    dims = pf_dimensions(ring)
    i = data.draw(st.sampled_from(ring.labels))
    j = data.draw(st.sampled_from(ring.labels))
    total = sum(m * dims[k] for k, m in decompose(ring, f"{i}*{j}").items())
    assert total == pytest.approx(dims[i] * dims[j], rel=1e-9)


# -- decompose and hom_dim on position-indexed rows, against dict-by-dict loops

def _diff_ring(key):
    """A fixed catalog ring, su2 at level k ("su2_k"), or a Z/n or TY(Z/n)
    ring read back from its file form, as `--file` reads it."""
    family, _, size = key.partition("_")
    if family == "su2":
        return catalog.builtin("su2", int(size))
    if family in ("zn", "ty"):
        ring = (_zn if family == "zn" else _tambara_yamagami)(int(size))
        return catalog.ring_from_dict(catalog.ring_to_dict(ring))
    return catalog.builtin(key)


DIFF_RINGS = ([k for k in catalog.builtin_keys() if k != "su2"]
              + [f"su2_{k}" for k in (*range(1, 21), 150)]
              + ["zn_1", "zn_7", "zn_40", "ty_1", "ty_3", "ty_32"])


@st.composite
def _sector_text(draw, labels, longest):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from((1, 1, 2, 3, 10 ** 20)))
        word = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=longest))
        terms.append("*".join(([] if coeff == 1 else [str(coeff)]) + word))
    return " + ".join(terms)


@given(st.sampled_from(DIFF_RINGS), st.data())
def test_decompose_and_hom_dim_match_dict_loops(key, data):
    ring = _diff_ring(key)
    x = data.draw(_sector_text(ring.labels, 12))
    y = data.draw(_sector_text(ring.labels, 4))
    got = decompose(ring, x)
    want = _oracles.decompose_dicts(ring, parse_sector_expr(x, ring.labels))
    assert got == want and list(got) == list(want)
    assert all(type(n) is int for n in got.values())
    assert hom_dim(ring, x, y) == _oracles.hom_dim_dicts(
        ring, parse_sector_expr(x, ring.labels), parse_sector_expr(y, ring.labels))


@pytest.mark.parametrize("key, word", [
    ("haagerup_even", ["r", "tr", "t2r", "r"] * 10),
    ("haagerup_even", ["t", "r", "tr", "t2", "t2r"] * 14),
    ("su2_150", [f"l{(7 * i) % 151}" for i in range(30)]),
    ("su2_20", ["l1", "l2", "l3"] * 20),
    ("ty_32", ["m"] * 40),
    ("d6aff_even", ["x", "t", "x", "tq", "x", "tp"] * 24),
])
def test_long_words_stay_exact_past_int64(key, word):
    ring = _diff_ring(key)
    text = "*".join(word) + " + 3*" + "*".join(reversed(word))
    got = decompose(ring, text)
    assert got == _oracles.decompose_dicts(ring, parse_sector_expr(text, ring.labels))
    assert max(got.values()) > 2 ** 63
    assert hom_dim(ring, text, "*".join(word)) == _oracles.hom_dim_dicts(
        ring, parse_sector_expr(text, ring.labels), [(1, tuple(word))])
