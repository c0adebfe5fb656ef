import inspect
import math

import pytest

from sectorwb import angles, catalog, classify, cuntz, quad
from sectorwb.classify import (
    ANGLE_RULES,
    TAGS,
    PFLink,
    QuadCase,
    _links,
    case_by_id,
    classification_table,
    render_results,
    run_all,
    run_exclusion_checks,
    verify_case,
)


def test_table_has_seven_cases():
    cases = classification_table()
    assert len(cases) == 7
    assert [c.case_id for c in cases] == [
        "a5a3", "d6a4", "a7a7", "d6affa3", "e6affd4", "e7affa5", "e7affe7aff"]
    for case in cases:
        assert case.tag in TAGS, case.case_id
        assert case.angle_rule in ANGLE_RULES, case.case_id


def test_all_cases_pass():
    results = run_all()
    assert len(results) == 7
    for res in results:
        assert res.passed, render_results([res])
        assert [row.name for row in res.rows] == [
            "index_relation", "angle_recomputation", "pf_dimension_links"]


def test_case_lookup():
    case = case_by_id("a7a7")
    assert case.tag == "I"
    assert verify_case(case).passed
    with pytest.raises(KeyError):
        case_by_id("a8a8")


def test_equal_index_cases_use_the_bound():
    for cid in ("a7a7", "e7affe7aff"):
        case = case_by_id(cid)
        assert case.angle_rule == "bound"
        assert case.cos_exact * (case.pn - 1) == 1


def test_stored_angle_case():
    case = case_by_id("d6affa3")
    assert case.angle_rule == "stored"
    assert 2 * case.cos_exact ** 2 == 1 and case.cos_exact > 0  # cos(pi/4)


def test_exclusion_checks():
    results = run_exclusion_checks()
    assert [r.case_id for r in results] == [
        "class4_dimension_bound", "not_3supertransitive",
        "e6_group_exclusion", "a7_dimension_equation"]
    assert all(r.passed for r in results)


def _patch_dims(monkeypatch, key, **dims):
    entries = tuple(e._replace(dims={**e.dims, **dims}) if e.key == key else e
                    for e in catalog.ENTRIES)
    monkeypatch.setattr(catalog, "ENTRIES", entries)


def test_a_wrong_s4_rep_dimension_fails_its_links(monkeypatch):
    # d(r) = 1 + sqrt(13) in haagerup_even is tested through the CLI
    _patch_dims(monkeypatch, "s4_rep", ae=2)
    failed = [r.case_id for r in run_all() if not r.passed]
    assert failed == ["e7affa5", "e7affe7aff"]
    for res in run_all()[5:]:
        assert [row.name for row in res.rows if not row.passed] == ["pf_dimension_links"]
        assert "d(a*e) = d(a) d(e) fails" in res.rows[-1].detail


def test_a_wrong_a4_rep_dimension_fails_both_e6affd4_links(monkeypatch):
    # d(v) = 2 leaves d(1 + w + w2) = 3 = mp, but d is not multiplicative
    # on the ring, so the mp link fails as well as the pn link
    _patch_dims(monkeypatch, "a4_rep", v=2)
    assert [r.case_id for r in run_all() if not r.passed] == ["e6affd4"]
    assert _rows(case_by_id("e6affd4"))["pf_dimension_links"].detail == (
        "canonical endomorphism 1 + v of the A4 fixed point: d(v*v) = d(v) d(v) fails; "
        "canonical endomorphism 1 + w + w2 of the cubic fixed point: "
        "d(v*v) = d(v) d(v) fails")


def test_pf_link_identities_name_what_fails(monkeypatch):
    # a wrong pn, certified by the catalog link alone, with the catalog's dimensions
    # intact; mp keeps the su2 link of its A3 graph
    case = case_by_id("d6affa3")
    assert len(case.pf_links) == 1
    row = _rows(case._replace(pn=quad(5)))["pf_dimension_links"]
    assert not row.passed
    assert row.detail == ("canonical endomorphism 1 + t + x of the affine-D6 side: "
                          "d(1 + t + x) = 4, not 5; "
                          "A3 graph norm squared: d(l1*l1) = 2 = mp exactly")
    # a dimension that is not positive
    _patch_dims(monkeypatch, "d6aff_even", x=-2)
    row = _rows(case)["pf_dimension_links"]
    assert not row.passed and "d(x) = -2 is not positive" in row.detail


def test_a_wrong_index_fails_its_own_pf_link():
    # each link certifies the case's own pn or mp, not a copy of it
    assert "expected" not in PFLink._fields
    assert all(link.of in ("pn", "mp") for c in classification_table() for link in c.pf_links)
    a5a3 = case_by_id("a5a3")
    row = _rows(a5a3._replace(pn=quad(4)))["pf_dimension_links"]
    assert not row.passed
    assert row.detail == ("A5 graph norm squared: d(l1*l1) = 3, not 4; "
                          "A3 graph norm squared: d(l1*l1) = 2 = mp exactly")
    row = _rows(a5a3._replace(mp=quad(3)))["pf_dimension_links"]
    assert not row.passed and "A3 graph norm squared: d(l1*l1) = 2, not 3" in row.detail


def test_the_table_states_each_graph_once():
    # the table keeps only catalog links; the su2 links are read from the graph
    # names and equal the ones the table used to spell out
    table = classification_table()
    assert [link.ring_key for c in table for link in c.pf_links] == [
        "d6aff_even", "a4_rep", "a4_rep", "s4_rep", "s4_rep", "s4_rep"]
    derived = {c.case_id: [tuple(link) for link, _ in _links(c)[len(c.pf_links):]]
               for c in table}
    assert derived == {
        "a5a3": [("su2", 4, "l1*l1", "pn", "A5 graph norm squared"),
                 ("su2", 2, "l1*l1", "mp", "A3 graph norm squared")],
        "d6a4": [("su2", 8, "l1*l1", "pn", "D6 graph norm squared (equals the A9 value)"),
                 ("su2", 3, "l1*l1", "mp", "A4 graph norm squared")],
        "a7a7": [("su2", 6, "l1*l1", "pn", "A7 graph norm squared, both elementary subfactors")],
        "d6affa3": [("su2", 2, "l1*l1", "mp", "A3 graph norm squared")],
        "e6affd4": [],
        "e7affa5": [("su2", 4, "l1*l1", "mp", "A5 graph norm squared")],
        "e7affe7aff": [],
    }
    assert all(failed is None for c in table for _, failed in _links(c))


@pytest.mark.parametrize("cid, graphs, detail", [
    # A4 has level 3, whose norm squared is the golden-ratio index, not 3
    pytest.param("a5a3", {"graph_np": "A4"},
                 "A4 graph norm squared: d(l1*l1) = 3/2+1/2*sqrt(5), not 3", id="a5a3-A4"),
    # su2 at level 5 has no exact dimensions: the link fails, nothing raises
    pytest.param("a5a3", {"graph_np": "A6"},
                 "A6 graph norm squared: su2 has no exact dimensions at level 5", id="a5a3-A6"),
    # a name branching_rule refuses (an odd D) fails the same way
    pytest.param("a5a3", {"graph_np": "D5"},
                 "D5 graph norm squared: unknown graph name 'D5' "
                 "(expected An, D2n, E6, E7 or E8)", id="a5a3-D5"),
    # the mp graph of a7a7 no longer matches pn's, so mp gets a link of its own
    pytest.param("a7a7", {"graph_pm": "A6"},
                 "A7 graph norm squared: d(l1*l1) = 2+sqrt(2) = pn exactly; "
                 "A6 graph norm squared: su2 has no exact dimensions at level 5", id="a7a7-A6"),
])
def test_a_misnamed_graph_fails_its_row(cid, graphs, detail):
    row = _rows(case_by_id(cid)._replace(**graphs))["pf_dimension_links"]
    assert not row.passed
    assert row.detail.startswith(detail)


def test_a_graph_with_the_same_norm_passes():
    # D6 and A9 share the Coxeter number 10, so both have norm 2cos(pi/10) and
    # the same su2 level 8: the graph name decides the level, not the series
    row = _rows(case_by_id("d6a4")._replace(graph_np="A9"))["pf_dimension_links"]
    assert row.passed
    assert row.detail.startswith("A9 graph norm squared: d(l1*l1) = 5/2+1/2*sqrt(5) = pn exactly")


def test_the_angle_rule_fixes_the_index_relation():
    assert "relation" not in QuadCase._fields
    # a cocommuting case needs mp = pn - 1, so mp = pn fails
    row = _rows(case_by_id("a5a3")._replace(mp=quad(3)))["index_relation"]
    assert not row.passed and row.detail == "pn - 1 = 2 vs mp = 3 (exact)"
    # the bound needs mp = pn
    row = _rows(case_by_id("a7a7")._replace(mp=quad(1, 1, 2)))["index_relation"]
    assert not row.passed and row.detail == "pn = 2+sqrt(2) vs mp = 1+sqrt(2) (exact)"


def test_haagerup_d_is_the_catalog_value():
    # the Class IV rows read d from the catalog; cuntz keeps its own float, which
    # must be the catalog value's, bit for bit
    d = catalog.dimensions("haagerup_even")["r"]
    class4 = run_exclusion_checks()[0]
    assert class4.case_id == "class4_dimension_bound"
    rows = {row.name: row for row in class4.rows}
    assert d == quad("3/2", "1/2", 13)
    assert rows["dimension_equation"].detail == f"d^2 = 3d + 1 exactly at d = {d}"
    assert cuntz.haagerup_constants().d.hex() == float(d).hex()
    assert float(d) == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-12)
    # both candidates for [M:P], d and 1 + d, pass their exact identities
    assert {name: rows[name].passed for name in ("dimension_equation", "index_bound")} == {
        "dimension_equation": True, "index_bound": True}
    assert rows["index_bound"].detail == f"1 + d = {quad('5/2', '1/2', 13)} exactly"
    assert 1 + d == quad("5/2", "1/2", 13)
    assert rows["pf_agreement"].detail == f"PF dimension of r = {float(d):.12g}"


def test_each_exclusion_reads_its_ring_once(monkeypatch):
    # Class IV builds haagerup_even once, reads its exact dimensions once and
    # certifies them once; so does the e6 exclusion's PF link on e6_even
    calls = []

    def counted(name, f):
        def wrapper(key, *args):
            calls.append((name, getattr(key, "name", key)))
            return f(key, *args)
        return wrapper

    for name in ("builtin", "dimensions", "dimension_failure"):
        monkeypatch.setattr(classify, name, counted(name, getattr(classify, name)))
    assert all(r.passed for r in run_exclusion_checks())
    haagerup, e6 = (catalog.builtin(key).name for key in ("haagerup_even", "e6_even"))
    assert calls == [("builtin", "haagerup_even"), ("dimensions", "haagerup_even"),
                     ("dimension_failure", haagerup), ("builtin", "e6_even"),
                     ("dimensions", "e6_even"), ("dimension_failure", e6)]


def test_render_is_deterministic():
    a = render_results(run_all())
    b = render_results(run_all())
    assert a == b
    assert a.startswith("a5a3: PASS")
    assert a.count("PASS") == 7


def _rows(case):
    return {row.name: row for row in verify_case(case).rows}


def test_no_tolerance_argument():
    # every row is an exact identity, so the classification takes no tolerance
    assert list(inspect.signature(verify_case).parameters) == ["case"]
    assert not inspect.signature(run_all).parameters
    assert not inspect.signature(run_exclusion_checks).parameters
    with pytest.raises(TypeError):
        run_all(1e-30)


def test_swapped_cosines_fail_the_angle_row():
    a5a3, e6affd4 = case_by_id("a5a3"), case_by_id("e6affd4")
    for case, other, detail in (
            (a5a3, e6affd4, "rule cocommuting: cos^2 = 1/9, but (pn - mp)/(mp (pn - 1)) = 1/4; "
                            "angle 1.23095941734"),
            (e6affd4, a5a3, "rule cocommuting: cos^2 = 1/4, but (pn - mp)/(mp (pn - 1)) = 1/9; "
                            "angle 1.0471975512")):
        rows = _rows(case._replace(cos_exact=other.cos_exact))
        assert not rows["angle_recomputation"].passed
        assert rows["angle_recomputation"].detail == detail
        assert rows["pf_dimension_links"].passed
    # a cosine from another quadratic field (sqrt(5) against sqrt(2)) fails
    # the row instead of raising on the mixed radicands
    a7a7, d6a4 = case_by_id("a7a7"), case_by_id("d6a4")
    for case, other, detail in (
            (a7a7, d6a4, "rule bound: cos = 3/2-1/2*sqrt(5), but 1/(pn - 1) = -1+sqrt(2); "
                         "angle 1.17887365135"),
            (d6a4, a7a7, "rule cocommuting: cos^2 = 3-2*sqrt(2), but (pn - mp)/(mp (pn - 1)) "
                         "= 7/2-3/2*sqrt(5); angle 1.1437177404")):
        row = _rows(case._replace(cos_exact=other.cos_exact))["angle_recomputation"]
        assert not row.passed and row.detail == detail
    # cos(pi/4) of the stored case against the bound of a7a7
    a7a7, d6affa3 = case_by_id("a7a7"), case_by_id("d6affa3")
    row = _rows(a7a7._replace(cos_exact=d6affa3.cos_exact))["angle_recomputation"]
    assert not row.passed and row.detail == (
        "rule bound: cos = 1/2*sqrt(2), but 1/(pn - 1) = -1+sqrt(2); angle 0.785398163397")


def test_angle_rules_call_the_angles_formulas():
    # the rules hold no arithmetic of their own: each identity is a formula of
    # sectorwb.angles, which reproduces every case's cosine in QuadExt
    assert ANGLE_RULES["cocommuting"][2] is angles.cocommuting_cos2
    assert ANGLE_RULES["stored"] is None
    got = {c.case_id: (angles.cocommuting_cos2(c.pn, c.mp) if c.angle_rule == "cocommuting"
                       else angles.bound_cos(c.pn))
           for c in classification_table() if c.angle_rule != "stored"}
    assert got == {"a5a3": quad("1/4"), "d6a4": quad("7/2", "-3/2", 5), "e6affd4": quad("1/9"),
                   "e7affa5": quad("1/9"), "a7a7": quad(-1, 1, 2), "e7affe7aff": quad("1/3")}
    for c in classification_table():
        if c.angle_rule == "cocommuting":
            assert got[c.case_id] == c.cos_exact * c.cos_exact
        elif c.angle_rule == "bound":
            assert got[c.case_id] == c.cos_exact


@pytest.mark.parametrize("cid", ["a5a3", "d6a4", "a7a7", "e7affe7aff"])
def test_an_index_of_one_fails_the_angle_row(cid):
    # pn = 1 puts a zero under both formulas: the row fails, nothing raises
    case = case_by_id(cid)
    rows = _rows(case._replace(pn=quad(1)))
    row = rows["angle_recomputation"]
    assert not row.passed and "= undefined (division by zero); angle" in row.detail
    assert not rows["index_relation"].passed and not rows["pf_dimension_links"].passed
    if case.angle_rule == "cocommuting":  # so does mp = 0
        assert not _rows(case._replace(mp=quad(0)))["angle_recomputation"].passed


def test_every_passing_row_states_what_it_decided():
    # a passing row states an exact identity, or that its value is assumed; no
    # row prints one value on both sides of "vs"
    for res in run_all():
        for row in res.rows:
            assert row.passed and " vs " not in row.detail, row
            assert "exactly" in row.detail or "assumed" in row.detail, row
    rows = _rows(case_by_id("d6affa3"))
    assert rows["index_relation"].detail == "no relation; the stored angle is assumed"
    assert rows["angle_recomputation"].detail == (
        "rule stored: cos = 1/2*sqrt(2) is assumed, not derived from the indices; "
        "angle 0.785398163397")
    assert _rows(case_by_id("a5a3"))["angle_recomputation"].detail == (
        "rule cocommuting: cos^2 = 1/4 = (pn - mp)/(mp (pn - 1)) exactly; angle 1.0471975512")
    assert _rows(case_by_id("e7affe7aff"))["angle_recomputation"].detail == (
        "rule bound: cos = 1/3 = 1/(pn - 1) exactly; angle 1.23095941734")


def test_angle_row_needs_a_cosine_in_the_open_unit_interval():
    # a negated cosine fails under every rule, and so do 0, 1 and values above 1
    for cid in ("a5a3", "d6a4", "d6affa3"):
        case = case_by_id(cid)
        row = _rows(case._replace(cos_exact=-case.cos_exact))["angle_recomputation"]
        assert not row.passed and "angle nan" in row.detail
    for cos in (quad(0), quad(1), quad(2)):
        assert not _rows(case_by_id("d6affa3")._replace(cos_exact=cos))["angle_recomputation"].passed


@pytest.mark.parametrize("cid, fields, failed", [
    # a wrong table value: d is not multiplicative on su2 at level 6
    pytest.param("a7a7", {"x": (1, 1, 2)}, "d(l2*l6) = d(l2) d(l6) fails",
                 id="a7a7-wrong-x"),
    # the negative root of x^2 = x + 1, with pn = 2 + x to match
    pytest.param("d6a4", {"x": ("1/2", "-1/2", 5), "pn": quad("5/2", "-1/2", 5)},
                 "d(l4) = 1-sqrt(5) is not positive", id="d6a4-negative-root-and-pn"),
    # the right x, but pn is not 2 + x
    pytest.param("a7a7", {"pn": quad(3, 1, 2)}, "d(l1*l1) = 2+sqrt(2), not 3+sqrt(2)",
                 id="a7a7-wrong-pn"),
])
def test_a_wrong_two_cos_fails_the_pf_row(cid, fields, failed, monkeypatch):
    # "x" replaces 2cos(2pi/n) in the catalog's table for the su2 level n - 2 of
    # the case's pn link, the rest the case's fields: the su2 link is the only
    # certificate of pn = 2 + x = 4cos^2(pi/n), and it names the identity that fails
    case = case_by_id(cid)
    assert not case.pf_links  # pn's su2 link is read from its graph
    if "x" in fields:
        monkeypatch.setitem(catalog.TWO_COS, _links(case)[0][0].k + 2, fields["x"])
    case = case._replace(**{f: v for f, v in fields.items() if f != "x"})
    # read after the fields change: a7a7's pn apart from mp gets a link of its own
    link = _links(case)[0][0]
    assert (link.ring_key, link.of) == ("su2", "pn")
    row = _rows(case)["pf_dimension_links"]
    assert not row.passed
    assert row.detail.split("; ")[0] == f"{link.note}: {failed}"


@pytest.mark.parametrize("cid, fields", [
    # the negative root of x^2 = x + 1 with the case's pn
    pytest.param("d6a4", {"x": ("1/2", "-1/2", 5)}, id="d6a4-fields4"),
])
def test_a_wrong_two_cos_fails_the_polynomial_row(cid, fields, monkeypatch):
    # x = 2cos(2pi/n) is a root of its minimal polynomial; a wrong root in the
    # catalog's table leaves pn, mp and the cosine right, so the index and angle
    # rows pass and only the su2 link of the PF row fails
    case = case_by_id(cid)
    monkeypatch.setitem(catalog.TWO_COS, _links(case)[0][0].k + 2, fields["x"])
    rows = _rows(case._replace(**{f: v for f, v in fields.items() if f != "x"}))
    assert rows["index_relation"].passed and rows["angle_recomputation"].passed
    assert not rows["pf_dimension_links"].passed
    assert "exactly" not in rows["pf_dimension_links"].detail.split("; ")[0]


def test_a_failing_polynomial_row_names_each_failed_identity(monkeypatch):
    # x = (1 - sqrt(5))/2 still solves x^2 = x + 1: the D6 link names the
    # dimension that is not positive, and the A4 link still holds
    monkeypatch.setitem(catalog.TWO_COS, 10, ("1/2", "-1/2", 5))
    assert _rows(case_by_id("d6a4"))["pf_dimension_links"].detail == (
        "D6 graph norm squared (equals the A9 value): d(l4) = 1-sqrt(5) is not positive; "
        "A4 graph norm squared: d(l1*l1) = 3/2+1/2*sqrt(5) = mp exactly")
    # x = sqrt(3) at n = 8 with the case's pn: d is not multiplicative
    monkeypatch.setitem(catalog.TWO_COS, 8, (0, 1, 3))
    assert _rows(case_by_id("a7a7"))["pf_dimension_links"].detail == (
        "A7 graph norm squared, both elementary subfactors: "
        "d(l2*l6) = d(l2) d(l6) fails")


def test_pn_equal_to_two_plus_x_is_not_enough(monkeypatch):
    # x = sqrt(3) in the table and pn = 2 + sqrt(3) agree, and cos = 1/(pn - 1)
    # keeps the bound, but d is not multiplicative on su2 at level 6
    monkeypatch.setitem(catalog.TWO_COS, 8, (0, 1, 3))
    case = case_by_id("a7a7")._replace(pn=quad(2, 1, 3), mp=quad(2, 1, 3),
                                         cos_exact=quad("-1/2", "1/2", 3))
    rows = _rows(case)
    assert rows["index_relation"].passed and rows["angle_recomputation"].passed
    assert not rows["pf_dimension_links"].passed
    assert rows["pf_dimension_links"].detail == (
        "A7 graph norm squared, both elementary subfactors: "
        "d(l2*l6) = d(l2) d(l6) fails")
