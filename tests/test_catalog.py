import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sectorwb import catalog, scalar
from sectorwb.catalog import (
    RingFormatError,
    RingValidationError,
    builtin,
    builtin_keys,
    load,
    ring_from_dict,
    ring_to_dict,
    save,
)
from sectorwb.cli import main
from sectorwb.fusion import (
    FusionRing,
    RingStructureError,
    dimension_failure,
    pf_dimensions,
    validate_ring,
)
from sectorwb.scalar import quad

import _oracles


# every fixed table, and su2 at every level up to 40 and a spread up to the cap
SHIPPED = [(e.key, None) for e in catalog.ENTRIES if not e.parametrized] + [
    ("su2", k) for k in (*range(1, 41), 60, 90, 120, catalog.MAX_LEVEL)]


def _shipped_reports(shipped=SHIPPED):
    """validate_ring's reports on the shipped rings that fail it, by name.
    builtin does not validate what it returns, so this is the check that a
    mistyped shipped table fails."""
    return {ring.name: report for key, k in shipped
            if (report := validate_ring(ring := builtin(key, k)))}


def test_every_builtin_validates():
    # about 2 s, most of it su2 at k = 120 and 150
    assert {key for key, _ in SHIPPED} == set(builtin_keys())
    assert _shipped_reports() == {}


def test_a_bad_shipped_table_fails_validation(monkeypatch, capsys):
    # a last rule overrides a product: N(a,e,e) = 1 + 1
    entries = tuple(e._replace(rules=e.rules + "a*e = 2*e\n") if e.key == "e6_even" else e
                    for e in catalog.ENTRIES)
    monkeypatch.setattr(catalog, "ENTRIES", entries)
    reports = _shipped_reports([(key, k) for key, k in SHIPPED if key != "su2"])
    assert list(reports) == ["e6_even"]
    assert "frobenius: N(a,e,e)=2 != N(e,e,a)=1" in reports["e6_even"]
    # swb validate runs the same check on a shipped ring
    assert main(["validate", "e6_even"]) == 1
    assert "  frobenius: N(a,e,e)=2 != N(e,e,a)=1\n" in capsys.readouterr().out


GOLDEN_RINGS = json.loads(
    (Path(__file__).parent / "golden_rings.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", [e.key for e in catalog.ENTRIES if not e.parametrized])
def test_fixed_ring_matches_its_record(key):
    # the records do not come from the rule text: a mistyped rule fails here
    # even when the ring it builds is still a valid fusion ring
    assert ring_to_dict(builtin(key)) == GOLDEN_RINGS[key]


def test_su2_requires_level():
    with pytest.raises(ValueError):
        builtin("su2")
    with pytest.raises(ValueError):
        builtin("su2", 0)


def test_su2_level_cap_is_checked_before_building(monkeypatch):
    def build(k):
        raise AssertionError(f"su2_{k} was built")

    monkeypatch.setattr(catalog, "_su2", build)
    with pytest.raises(ValueError, match=f"above the cap k <= {catalog.MAX_LEVEL}"):
        builtin("su2", catalog.MAX_LEVEL + 1)


def test_unknown_key():
    with pytest.raises(KeyError):
        builtin("e8_even")


def test_haagerup_even_dimensions():
    dims = pf_dimensions(builtin("haagerup_even"))
    d = (3 + math.sqrt(13)) / 2
    assert dims["1"] == pytest.approx(1.0, abs=1e-9)
    assert dims["t"] == pytest.approx(1.0, abs=1e-9)
    assert dims["r"] == pytest.approx(d, abs=1e-9)
    assert dims["tr"] == pytest.approx(d, abs=1e-9)


@pytest.mark.parametrize("key, k", [pytest.param(e.key, None, id=e.key)
                                    for e in catalog.ENTRIES if not e.parametrized] + [
    pytest.param("su2", n - 2, id=f"su2-{n - 2}") for n in catalog.TWO_COS])
def test_fixed_ring_dimensions_are_exact(key, k):
    # the exact dimensions (every label of a fixed ring, 1 where its entry lists
    # none; the even labels of su2) pass the Perron-Frobenius certificate, and
    # the float eigen-solve agrees
    ring, d = builtin(key, k), catalog.dimensions(key, k)
    assert dimension_failure(ring, d) is None
    if k is None:
        assert list(d) == list(ring.labels)
        assert set(next(e for e in catalog.ENTRIES if e.key == key).dims) <= set(ring.labels)
    else:
        assert list(d) == list(ring.labels[::2])
    pf = pf_dimensions(ring)
    assert all(float(d[a]) == pytest.approx(pf[a], abs=1e-12) for a in d)


def test_dimensions_build_no_ring(monkeypatch):
    # a fixed ring's labels and exact dimensions are its entry's data
    def init(self, *args):
        raise AssertionError(f"{args[0]} was built")

    monkeypatch.setattr(FusionRing, "__init__", init)
    for e in catalog.ENTRIES:
        if not e.parametrized:
            assert list(catalog.dimensions(e.key)) == e.labels.split()
            assert catalog.float_dimensions(e.key)[0] == e.key


def test_fixed_float_dimensions_are_the_bits_of_the_exact_ones(monkeypatch):
    # read from quad's arguments with int divisions, building no QuadExt
    want = {e.key: {lab: float(d).hex() for lab, d in catalog.dimensions(e.key).items()}
            for e in catalog.ENTRIES if not e.parametrized}
    monkeypatch.setattr(scalar.QuadExt, "__init__", lambda *args: pytest.fail("a QuadExt was built"))
    for key, dims in want.items():
        name, got = catalog.float_dimensions(key)
        assert name == key and {lab: d.hex() for lab, d in got.items()} == dims


def test_importing_the_catalog_loads_neither_fusion_nor_exact_arithmetic():
    probe = "import sys, sectorwb.catalog; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "sectorwb.catalog" in loaded
    assert not {"sectorwb.fusion", "sectorwb.scalar", "fractions", "decimal"} & loaded


def test_two_cos_is_twice_the_cosine():
    # the exact su2 dimensions are built from x = 2cos(2pi/n)
    for n, args in catalog.TWO_COS.items():
        x = quad(*args)
        assert float(x) == pytest.approx(2 * math.cos(2 * math.pi / n), abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_su2_even_dimensions_are_the_closed_form(k):
    d = catalog.dimensions("su2", k)
    assert list(d) == [f"l{j}" for j in range(0, k + 1, 2)]
    q = math.pi / (k + 2)
    for lab, v in d.items():
        assert float(v) == pytest.approx(math.sin((int(lab[1:]) + 1) * q) / math.sin(q), abs=1e-12)


def test_su2_dimensions_need_a_tabulated_level():
    for k in (None, 5, 7):
        with pytest.raises(ValueError, match="no exact dimensions"):
            catalog.dimensions("su2", k)
    with pytest.raises(KeyError):
        catalog.dimensions("e8_even")


@pytest.mark.parametrize("key, k, error, message", [
    ("e6_even", 5, ValueError, "e6_even takes no level parameter"),
    ("su2", 2.0, ValueError, "su2 requires an integer level k >= 1"),
    ("su2", True, ValueError, "su2 requires an integer level k >= 1"),
    ("su2", catalog.MAX_LEVEL + 2, ValueError, "above the cap"),
    ("nope", None, KeyError, "unknown catalog key 'nope'"),
])
def test_dimensions_refuse_what_builtin_refuses(key, k, error, message):
    # one lookup and one level check serve both functions
    for func in (builtin, catalog.dimensions):
        with pytest.raises(error, match=message):
            func(key, k)


def test_rep_ring_tables_match_character_oracle():
    elems, chars = _oracles.s4_characters()
    table = _oracles.tensor_table(elems, chars)
    ring = builtin("s4_rep")
    for (i, j), row in table.items():
        assert dict(ring.tensor.get((i, j), {})) == row, (i, j)

    elems, chars = _oracles.a4_characters()
    table = _oracles.tensor_table(elems, chars)
    ring = builtin("a4_rep")
    for (i, j), row in table.items():
        assert dict(ring.tensor.get((i, j), {})) == row, (i, j)


def test_round_trip_save_load(tmp_path):
    for key in ("d6_even", "haagerup_even", "s4_rep"):
        ring = builtin(key)
        p = tmp_path / f"{key}.json"
        save(ring, str(p))
        assert load(str(p)) == ring


def test_save_is_deterministic(tmp_path):
    ring = builtin("e6_even")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(ring, str(p1))
    save(ring, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_field_rejected():
    doc = ring_to_dict(builtin("e6_even"))
    doc["extra"] = 1
    with pytest.raises(RingFormatError, match="unknown fields"):
        ring_from_dict(doc)


def test_missing_field_rejected():
    doc = ring_to_dict(builtin("e6_even"))
    del doc["tensor"]
    with pytest.raises(RingFormatError, match="missing fields"):
        ring_from_dict(doc)


@pytest.mark.parametrize("name", [["x"], 3, None])
def test_name_must_be_a_string(name):
    doc = ring_to_dict(builtin("e6_even"))
    doc["name"] = name
    with pytest.raises(RingFormatError, match="name must be a string"):
        ring_from_dict(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "top-level JSON value must be an object"),
    (lambda doc: dict(doc, labels=["1", 2]), "labels must be an array of strings"),
    (lambda doc: dict(doc, dual=[["x", "x"]]), "dual must be an object label->label"),
    (lambda doc: dict(doc, tensor=[]), "tensor must be an object with 'i,j' keys"),
    (lambda doc: dict(doc, tensor=dict(doc["tensor"], **{"e,e": 1})),
     r"tensor\['e,e'\] must be an object label->multiplicity"),
], ids=["top-level", "labels", "dual", "tensor", "row"])
def test_malformed_documents_rejected(edit, message):
    with pytest.raises(RingFormatError, match=f"^{message}$"):
        ring_from_dict(edit(ring_to_dict(builtin("e6_even"))))


def test_bad_tensor_key_rejected():
    doc = ring_to_dict(builtin("e6_even"))
    doc["tensor"]["a"] = {"a": 1}
    with pytest.raises(RingFormatError, match="not of the form"):
        ring_from_dict(doc)


_FIXED_KEYS = [e.key for e in catalog.ENTRIES if not e.parametrized]


@st.composite
def _planted_documents(draw):
    """A fixed ring's document with up to three entries planted at random
    places in its tensor: a key not of the form 'i,j', a row that is not an
    object, both at once, or a well-formed entry with an unknown label."""
    doc = ring_to_dict(builtin(draw(st.sampled_from(_FIXED_KEYS))))
    items = list(doc["tensor"].items())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("key", "row", "both", "label")))
        key = draw(st.sampled_from(("a", "1,a,a", "", ",,"))) if kind in ("key", "both") \
            else draw(st.sampled_from(("1,1", "1,zz", "zz,1")))
        row = draw(st.sampled_from(([], 1, "a", None, [["a", 1]]))) if kind in ("row", "both") \
            else draw(st.sampled_from(({"1": 1}, {"zz": 1}, {"1": 1.0})))
        items.insert(draw(st.integers(0, len(items))), (key, row))
    doc["tensor"] = dict(items)
    return doc


@given(_planted_documents())
def test_ring_from_dict_matches_entry_loop_oracle(doc):
    # key before row within an entry, entries in file order, and the
    # constructor's checks only once every entry is well-formed
    try:
        tensor = _oracles.ring_file_tensor_loops(doc["tensor"], RingFormatError)
        want = _oracles.fusion_rows_loops(doc["labels"], tensor, RingStructureError)
    except (RingFormatError, RingStructureError) as exc:
        with pytest.raises(type(exc)) as got:
            ring_from_dict(doc)
        assert str(got.value) == str(exc)
        return
    assert ring_from_dict(doc).tensor == want


def test_json_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",\n  "labels": [}')
    with pytest.raises(RingFormatError, match=r"line 2"):
        load(str(p))


def test_label_with_trailing_newline_is_rejected(tmp_path):
    doc = ring_to_dict(builtin("e6_even"))
    doc["labels"][1] = "a\n"
    p = tmp_path / "newline.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(RingStructureError, match="bad label"):
        load(str(p))


def test_load_validates_axioms(tmp_path):
    doc = ring_to_dict(builtin("d6_even"))
    doc["tensor"]["r,r"]["r1"] = 5
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(RingValidationError) as exc:
        load(str(p))
    assert any("frobenius" in line or "associativity" in line
               for line in exc.value.report)


def test_catalog_entries_cover_builders():
    # each entry builds its own ring: the name is the key, su2 adds the level
    assert builtin_keys() == [e.key for e in catalog.ENTRIES]
    for e in catalog.ENTRIES:
        assert e.note
        want = f"{e.key}_3" if e.parametrized else e.key
        assert builtin(e.key, 3 if e.parametrized else None).name == want
    with pytest.raises(KeyError, match="unknown catalog key"):
        builtin("nope")
