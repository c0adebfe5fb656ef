"""The seven noncommuting irreducible quadrilaterals as machine-checkable data.

The classification itself rests on operator-algebraic steps (irreducibility,
supertransitivity, cohomology vanishing, Galois-group identification) that
cannot be rederived from fusion data; each case records those as assumptions
in its notes.  What *is* checked: exact index identities in the quadratic
fields, exact identities between each angle's cosine and the indices, and
Perron-Frobenius links: a catalog ring's exact dimensions, certified as its
PF dimensions by :func:`fusion.dimension_failure`, summed over a sector
expression to give one of the case's own indices pn and mp.  The exclusion
checks replay the arithmetic behind the excluded cases; none records the
Class IV entry's undecided [M:P].  No check compares floats.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from . import angles
from ._base import fmt
from .catalog import builtin, dimensions
from .fusion import decompose, dimension_failure, hom_dim
from .scalar import QuadExt, quad

TAGS = ("I", "II", "III", "group-type", "D6affine")

# angle rule -> (n, p, f, text): the index relation mp = pn - n and the identity
# cos^p = f(pn, mp) with f a formula of :mod:`angles`, written as text.  A
# cocommuting quadrilateral has mp = pn - 1, the 3-supertransitive bound mp = pn;
# a stored angle (None) is taken as given, with no index relation
ANGLE_RULES = {
    "cocommuting": (1, 2, angles.cocommuting_cos2, "(pn - mp)/(mp (pn - 1))"),
    "bound": (0, 1, lambda pn, mp: angles.bound_cos(pn), "1/(pn - 1)"),
    "stored": None,
}

class PFLink(NamedTuple):
    """One Perron-Frobenius consistency link between a case and a catalog ring:
    the dimension of a sector expression, such as d(l1)^2 = d(l1*l1) on
    su2(k) or a canonical endomorphism 1 + t + x, against the case's index
    named by ``of``, "pn" or "mp"."""

    ring_key: str
    k: Optional[int]
    expr: str
    of: str
    note: str


def _fpdim_failure(ring_key: str, k: Optional[int], expr: str, expected: QuadExt) -> Optional[str]:
    """None when FPdim(expr) is ``expected``, else the failed identity: the
    catalog's exact dimensions d pass :func:`fusion.dimension_failure`, which makes
    them FPdim, and d(expr) is the sum of d over the decomposition of expr."""
    ring, d = builtin(ring_key, k), dimensions(ring_key, k)
    if failed := dimension_failure(ring, d):
        return failed
    dx = sum(n * d[a] for a, n in decompose(ring, expr).items())
    return None if dx == expected else f"d({expr}) = {dx}, not {expected}"


class QuadCase(NamedTuple):
    """One row of the classification: graphs, exact indices, angle, metadata.

    ``tag`` is one of :data:`TAGS`; ``angle_rule`` is a key of
    :data:`ANGLE_RULES` and also fixes the index relation.
    """

    case_id: str
    graph_np: str
    graph_pm: str
    pn: QuadExt
    mp: QuadExt
    tag: str
    cos_exact: QuadExt
    angle_rule: str
    galois: Optional[str]
    pf_links: Tuple[PFLink, ...]
    notes: str


class CheckRow(NamedTuple):
    name: str
    passed: bool
    detail: str


class CheckResult(NamedTuple):
    case_id: str
    rows: Tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


_ASSUMED = ("assumes irreducibility, the stated supertransitivity pattern and "
            "the operator-algebraic uniqueness arguments; only the arithmetic "
            "is rechecked here")


def classification_table() -> List[QuadCase]:
    """The seven cases, in a fixed order, with exact indices."""
    sqrt2m1 = quad(-1, 1, 2)           # sqrt(2) - 1
    half3m5 = quad("3/2", "-1/2", 5)   # (3 - sqrt(5))/2
    return [
        QuadCase(
            "a5a3", "A5", "A3", quad(3), quad(2),
            "group-type", quad("1/2"), "cocommuting", "S3",
            (PFLink("su2", 4, "l1*l1", "pn", "A5 graph norm squared"),
             PFLink("su2", 2, "l1*l1", "mp", "A3 graph norm squared")),
            "fixed points of an outer S3 action; " + _ASSUMED,
        ),
        QuadCase(
            "d6a4", "D6", "A4", quad("5/2", "1/2", 5), quad("3/2", "1/2", 5),
            "II", half3m5, "cocommuting", None,
            (PFLink("su2", 8, "l1*l1", "pn", "D6 graph norm squared (equals the A9 value)"),
             PFLink("su2", 3, "l1*l1", "mp", "A4 graph norm squared")),
            "golden-ratio indices (5+sqrt(5))/2 and (3+sqrt(5))/2; " + _ASSUMED,
        ),
        QuadCase(
            "a7a7", "A7", "A7", quad(2, 1, 2), quad(2, 1, 2),
            "I", sqrt2m1, "bound", None,
            (PFLink("su2", 6, "l1*l1", "pn",
                    "A7 graph norm squared, both elementary subfactors"),),
            "noncocommuting, equal indices 2+sqrt(2); " + _ASSUMED,
        ),
        QuadCase(
            "d6affa3", "D6affine", "A3", quad(4), quad(2),
            "D6affine", quad(0, "1/2", 2), "stored",
            "D8 (dihedral of order 8)",
            (PFLink("d6aff_even", None, "1 + t + x", "pn",
                    "canonical endomorphism 1 + t + x of the affine-D6 side"),
             PFLink("su2", 2, "l1*l1", "mp", "A3 graph norm squared")),
            "index-4 special case with angle pi/4, outside the cocommuting "
            "formula's reach; " + _ASSUMED,
        ),
        QuadCase(
            "e6affd4", "E6affine", "D4", quad(4), quad(3),
            "group-type", quad("1/3"), "cocommuting", "A4",
            (PFLink("a4_rep", None, "1 + v", "pn",
                    "canonical endomorphism 1 + v of the A4 fixed point"),
             PFLink("a4_rep", None, "1 + w + w2", "mp",
                    "canonical endomorphism 1 + w + w2 of the cubic fixed point")),
            "fixed points of an outer A4 action; " + _ASSUMED,
        ),
        QuadCase(
            "e7affa5", "E7affine", "A5", quad(4), quad(3),
            "III", quad("1/3"), "cocommuting",
            "Z/2 realized inside an S4 symmetry",
            (PFLink("s4_rep", None, "1 + e", "pn",
                    "canonical endomorphism 1 + e of the S4 fixed point"),
             PFLink("su2", 4, "l1*l1", "mp", "A5 graph norm squared")),
            "cocommuting but not of group type; " + _ASSUMED,
        ),
        QuadCase(
            "e7affe7aff", "E7affine", "E7affine", quad(4), quad(4),
            "I", quad("1/3"), "bound", None,
            (PFLink("s4_rep", None, "1 + e", "pn",
                    "canonical endomorphism 1 + e of the S4 fixed point"),
             PFLink("s4_rep", None, "1 + a + e2", "mp",
                    "canonical endomorphism 1 + a + e2 on the intermediate side")),
            "noncocommuting at index 4, no group realization; " + _ASSUMED,
        ),
    ]


def case_by_id(case_id: str) -> QuadCase:
    try:
        return {case.case_id: case for case in classification_table()}[case_id]
    except KeyError:
        raise KeyError(f"unknown case id {case_id!r}") from None


def verify_case(case: QuadCase) -> CheckResult:
    """Recheck one case: exact index relation, angle and PF links, which are
    the case's only certificate of pn and mp.  A passing row states the
    identity it decided, a failing one both sides."""
    failures = [_fpdim_failure(*link[:3], getattr(case, link.of)) for link in case.pf_links]
    return CheckResult(case.case_id, (*_rule_rows(case), CheckRow(
        "pf_dimension_links", not any(failures), "; ".join(
            f"{link.note}: " + (failed or f"d({link.expr}) = {getattr(case, link.of)} = "
                                          f"{link.of} exactly")
            for link, failed in zip(case.pf_links, failures)))))


def _rule_rows(case: QuadCase) -> Tuple[CheckRow, CheckRow]:
    """The index relation and the angle identity of the case's angle rule."""
    rule, pn, mp, c = ANGLE_RULES[case.angle_rule], case.pn, case.mp, case.cos_exact
    if rule is None:
        relation = CheckRow("index_relation", True, "no relation; the stored angle is assumed")
        ok, text = True, f"cos = {c} is assumed, not derived from the indices"
    else:
        n, p, formula, name = rule
        lhs, ok = f"pn - {n}" if n else "pn", pn - n == mp
        relation = CheckRow("index_relation", ok, f"{lhs} = mp = {mp} exactly" if ok
                            else f"{lhs} = {pn - n} vs mp = {mp} (exact)")
        lhs, have = ("cos^2", c * c) if p == 2 else ("cos", c)
        try:
            want = formula(pn, mp)
            ok = have == want
        except ZeroDivisionError:  # pn = 1 or mp = 0
            want, ok = "undefined (division by zero)", False
        text = f"{lhs} = {have} = {name} exactly" if ok else f"{lhs} = {have}, but {name} = {want}"
    in_range = 0 < c < 1
    if not in_range:
        ok, text = False, f"cos = {c} is not in (0, 1)"
    text += f"; angle {fmt(math.acos(float(c))) if in_range else 'nan'}"
    return relation, CheckRow("angle_recomputation", ok, f"rule {case.angle_rule}: {text}")


def run_all() -> List[CheckResult]:
    """Every case through :func:`verify_case`."""
    return [verify_case(c) for c in classification_table()]


# ---------------------------------------------------------------------------
# exclusion arithmetic


def _haagerup_d() -> Tuple[QuadExt, Tuple[CheckRow, CheckRow]]:
    """The catalog's Haagerup dimension d = d(r) = (3 + sqrt(13))/2 with its two
    exact identities, rows of the Class IV exclusion.  [M:P] is d or 1 + d, and
    nothing here decides which."""
    d = dimensions("haagerup_even")["r"]
    return d, (
        CheckRow("dimension_equation", d * d == 3 * d + 1, f"d^2 = 3d + 1 exactly at d = {d}"),
        CheckRow("index_bound", 1 + d == quad("5/2", "1/2", 13), f"1 + d = {1 + d} exactly"),
    )


def run_exclusion_checks() -> List[CheckResult]:
    """The four arithmetic exclusion facts, replayed on catalog data."""
    results = []

    ring = builtin("haagerup_even")
    d, identities = _haagerup_d()
    dec = decompose(ring, "r*r")
    contains = all(dec.get(l, 0) >= 1 for l in ("1", "r", "tr", "t2r"))
    results.append(CheckResult("class4_dimension_bound", (
        CheckRow("square_contains_three_reflections", contains,
                 f"r*r decomposes as {dec}"),
        *identities,
        CheckRow("pf_agreement", not (failed := _fpdim_failure("haagerup_even", None, "r", d)),
                 failed or f"PF dimension of r = {fmt(float(d))}"),
    )))

    val = hom_dim(ring, "t2*r*r", "t2 + r")
    results.append(CheckResult("not_3supertransitive", (
        CheckRow("hom_dimension", val == 2,
                 f"dim hom(t2*r*r, t2 + r) = {val}, needs 2"),
    )))

    x = quad(1, 1, 3)  # 1 + sqrt(3)
    results.append(CheckResult("e6_group_exclusion", (
        CheckRow("irrational_index_gap", not x.is_integer,
                 f"pn - 1 = {x} is not an integer, no group case exists"),
        CheckRow("pf_agreement", not (failed := _fpdim_failure("e6_even", None, "e", x)),
                 failed or f"PF dimension of e = {fmt(float(x))} matches 1 + sqrt(3)"),
    )))

    y = quad(1, 1, 2)  # 1 + sqrt(2)
    results.append(CheckResult("a7_dimension_equation", (
        CheckRow("quadratic", y * y == 2 * y + 1,
                 f"x = {y} satisfies x^2 - 2x - 1 = 0 exactly"),
        CheckRow("index_value", 1 + y == quad(2, 1, 2),
                 f"pn = 1 + x = {1 + y} exactly"),
    )))

    return results


def render_results(results: List[CheckResult]) -> str:
    """Deterministic text report, one block per case."""
    lines = []
    for res in results:
        lines.append(f"{res.case_id}: {'PASS' if res.passed else 'FAIL'}")
        for row in res.rows:
            lines.append(f"  [{'ok' if row.passed else 'FAIL'}] {row.name}: {row.detail}")
    return "\n".join(lines)
