import math

import pytest

from sectorwb.classify import (
    case_by_id,
    class_iv_record,
    classification_table,
    e8aff_regression,
    render_results,
    run_all,
    run_exclusion_checks,
    tolerances,
    verify_case,
)


def test_table_has_seven_cases():
    cases = classification_table()
    assert len(cases) == 7
    assert [c.case_id for c in cases] == [
        "a5a3", "d6a4", "a7a7", "d6affa3", "e6affd4", "e7affa5", "e7affe7aff"]


def test_all_cases_pass():
    results = run_all()
    assert len(results) == 7
    for res in results:
        assert res.passed, render_results([res])
        assert [row.name for row in res.rows] == [
            "index_relation", "angle_recomputation",
            "exact_polynomials", "pf_dimension_links"]


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
        assert math.cos(case.angle) == pytest.approx(float(case.cos_exact),
                                                     abs=1e-12)


def test_stored_angle_case():
    case = case_by_id("d6affa3")
    assert case.angle == pytest.approx(math.pi / 4, abs=1e-15)
    assert case.angle_rule == "stored"


def test_exclusion_checks():
    results = run_exclusion_checks()
    assert [r.case_id for r in results] == [
        "class4_dimension_bound", "not_3supertransitive",
        "e6_group_exclusion", "a7_dimension_equation"]
    assert all(r.passed for r in results)


def test_class_iv_record_keeps_both_candidates():
    rec = class_iv_record()
    assert rec.ambiguous
    low, high = rec.mp_candidates
    assert high - low == 1
    assert all(row.passed for row in rec.checks)
    assert float(low) == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-12)


def test_e8aff_regression_separate():
    res = e8aff_regression()
    assert res.passed
    # the quartic candidate stays out of both official tallies
    tallied = {r.case_id for r in run_all()} | {r.case_id for r in run_exclusion_checks()}
    assert res.case_id not in tallied


def test_render_is_deterministic():
    a = render_results(run_all())
    b = render_results(run_all())
    assert a == b
    assert a.startswith("a5a3: PASS")
    assert a.count("PASS") == 7


def test_tolerance_argument():
    assert tolerances() == {"angle": 1e-12, "pf": 1e-9}
    assert tolerances(1e-30) == {"angle": 1e-30, "pf": 1e-30}
    assert render_results(run_all(None)) == render_results(run_all())
    # float dimensions and recomputed angles miss their exact values by
    # rounding errors, far above 1e-30
    assert not any(r.passed for r in run_all(1e-30))
    # only the two PF agreement checks compare floats
    assert [r.passed for r in run_exclusion_checks(1e-30)] == [False, True, False, True]
    # tol is also the equal-index tolerance of the cocommuting formula: at
    # 1.5, pn = 3 and mp = 2 count as equal, so no angle is recomputed
    rows = {r.name: r for r in verify_case(case_by_id("a5a3"), 1.5).rows}
    assert not rows["angle_recomputation"].passed and "angle nan" in rows["angle_recomputation"].detail
    assert rows["pf_dimension_links"].passed
