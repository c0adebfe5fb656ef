import inspect
import math

import pytest

from sectorwb import angles, catalog, cuntz, quad
from sectorwb.classify import (
    ANGLE_RULES,
    TAGS,
    PFLink,
    QuadCase,
    _haagerup_d,
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
    # a wrong pn, certified by the first link alone, with the catalog's dimensions intact
    case = case_by_id("d6affa3")
    wrong = case._replace(pn=quad(5), pf_links=case.pf_links[:1])
    row = _rows(wrong)["pf_dimension_links"]
    assert not row.passed
    assert row.detail == ("canonical endomorphism 1 + t + x of the affine-D6 side: "
                          "d(1 + t + x) = 4, not 5")
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


def test_the_angle_rule_fixes_the_index_relation():
    assert "relation" not in QuadCase._fields
    # a cocommuting case needs mp = pn - 1, so mp = pn fails
    row = _rows(case_by_id("a5a3")._replace(mp=quad(3)))["index_relation"]
    assert not row.passed and row.detail == "pn - 1 = 2 vs mp = 3 (exact)"
    # the bound needs mp = pn
    row = _rows(case_by_id("a7a7")._replace(mp=quad(1, 1, 2)))["index_relation"]
    assert not row.passed and row.detail == "pn = 2+sqrt(2) vs mp = 1+sqrt(2) (exact)"


def test_haagerup_d_is_the_catalog_value():
    # classify reads d from the catalog; cuntz keeps its own float, which must
    # be the catalog value's, bit for bit
    d = catalog.dimensions("haagerup_even")["r"]
    low, rows = _haagerup_d()
    assert low == d == quad("3/2", "1/2", 13)
    assert cuntz.haagerup_constants().d.hex() == float(d).hex()
    assert float(low) == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-12)
    # both candidates for [M:P], d and 1 + d, pass their exact identities
    assert {row.name: row.passed for row in rows} == {"dimension_equation": True,
                                                      "index_bound": True}
    assert 1 + low == quad("5/2", "1/2", 13)


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
    link = case.pf_links[0]
    if "x" in fields:
        monkeypatch.setitem(catalog.TWO_COS, link.k + 2, fields["x"])
    case = case._replace(**{f: v for f, v in fields.items() if f != "x"})
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
    monkeypatch.setitem(catalog.TWO_COS, case.pf_links[0].k + 2, fields["x"])
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
