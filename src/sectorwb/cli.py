"""Command-line entry point.

Exit codes: 0 on success, 1 when a verification/check reports failure,
2 on usage or parse errors.  With --json every invocation emits a single
document {"command", "inputs", "results", "residuals"}; floats are rounded
to 12 significant digits so the output is byte-stable and round-trips.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import angles, catalog, classify, cuntz, fusion, wzw
from .scalar import _ENV_TOLERANCE


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _jfloat(x: float) -> float:
    return float(_fmt(x))


def _jcomplex(z: complex) -> Dict[str, float]:
    return {"re": _jfloat(z.real), "im": _jfloat(z.imag)}


def _angle_doc(spec: angles.AngleSpectrum, degrees: bool) -> Dict:
    doc: Dict = {
        "commuting": spec.commuting,
        "angles_radians": [_jfloat(a) for a in spec.angles],
    }
    if degrees:
        doc["angles_degrees"] = [_jfloat(math.degrees(a)) for a in spec.angles]
    if len(spec.angles) == 1:
        doc["angle_radians"] = _jfloat(spec.angles[0])
    doc["note"] = angles.HYPOTHESES_NOTE
    return doc


def _angle_text(spec: angles.AngleSpectrum, degrees: bool) -> List[str]:
    if spec.commuting:
        lines = ["commuting (empty angle spectrum)"]
    elif not spec.angles:
        lines = ["empty angle spectrum"]
    else:
        unit = "deg" if degrees else "rad"
        vals = [math.degrees(a) if degrees else a for a in spec.angles]
        lines = [f"angle = {_fmt(v)} {unit}" for v in vals]
    lines.append(f"({angles.HYPOTHESES_NOTE})")
    return lines


def _resolve_ring(args) -> fusion.FusionRing:
    if getattr(args, "file", None):
        return catalog.load(args.file)
    if not args.ring:
        raise ValueError("a catalog ring name or --file is required")
    if args.ring == "su2":
        if args.k is None:
            raise ValueError("su2 requires --k LEVEL")
        return catalog.builtin("su2", args.k)
    return catalog.builtin(args.ring)


def _check_rows_doc(results) -> List[Dict]:
    return [
        {
            "case_id": r.case_id,
            "passed": r.passed,
            "rows": [
                {"name": row.name, "passed": row.passed, "detail": row.detail}
                for row in r.rows
            ],
        }
        for r in results
    ]


def _add_common(q: argparse.ArgumentParser, suppress: bool = True) -> None:
    # On leaf parsers the defaults are SUPPRESS so a trailing flag is
    # accepted without clobbering a value already parsed at the root.
    s = argparse.SUPPRESS
    q.add_argument("--json", action="store_true",
                   default=s if suppress else False,
                   help="emit a JSON document")
    q.add_argument("--degrees", action="store_true",
                   default=s if suppress else False,
                   help="report angles in degrees")
    q.add_argument("--tolerance", type=float,
                   default=s if suppress else None,
                   help="override the absolute comparison tolerance")
    q.add_argument("--out", default=s if suppress else None,
                   help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="swb",
        description="sector workbench: fusion rings, quadrilateral angles, "
        "modular data and the Haagerup Q-system",
    )
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(parent, name):
        q = parent.add_parser(name)
        leaves.append(q)
        return q

    leaf(sub.add_parser("catalog").add_subparsers(dest="action", required=True),
         "list")

    for name in ("validate", "dims"):
        q = leaf(sub, name)
        q.add_argument("ring", nargs="?", default=None)
        q.add_argument("--k", type=int, default=None)
        q.add_argument("--file", default=None)

    q = leaf(sub, "decompose")
    q.add_argument("ring", nargs="?", default=None)
    q.add_argument("expr")
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--file", default=None)

    q = leaf(sub, "hom")
    q.add_argument("ring", nargs="?", default=None)
    q.add_argument("expr1")
    q.add_argument("expr2")
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--file", default=None)

    ang = sub.add_parser("angle").add_subparsers(dest="action", required=True)
    q = leaf(ang, "cocommuting")
    q.add_argument("--pn", type=float, required=True)
    q.add_argument("--mp", type=float, required=True)
    q = leaf(ang, "group")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--hk", type=int, required=True)
    q = leaf(ang, "candidates")
    q.add_argument("--d", type=float, required=True)
    q.add_argument("--s", type=float, required=True)
    q = leaf(ang, "bound")
    q.add_argument("--pn", type=float, required=True)

    w = sub.add_parser("wzw").add_subparsers(dest="action", required=True)
    q = leaf(w, "spectrum")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--i0", type=int, default=1)
    q.add_argument("--J", required=True, help="comma-separated labels, e.g. 0,6")
    q = leaf(w, "ghj")
    q.add_argument("--graph", required=True)
    q = leaf(w, "asymptotic")
    q.add_argument("--n", type=int, required=True)
    q = leaf(w, "6j")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--spins", required=True,
                   help="six half-integers, e.g. 2,1,1,1,1,1 or 3/2,...")

    h = sub.add_parser("haagerup").add_subparsers(dest="action", required=True)
    leaf(h, "verify")
    leaf(h, "qsystem")

    c = sub.add_parser("cuntz").add_subparsers(dest="action", required=True)
    q = leaf(c, "normalize")
    q.add_argument("expr")

    q = leaf(sub, "classify")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--case", default=None)
    g.add_argument("--exclusions", action="store_true")

    for q in leaves:
        _add_common(q)
    return p


def _run(args) -> Tuple[int, Dict, List[str]]:
    """Execute one subcommand; returns (exit code, json results, text lines)."""
    cmd = args.command
    degrees = args.degrees

    if cmd == "catalog":
        entries = catalog.ENTRIES
        doc = {"entries": [
            {"key": e.key, "note": e.note, "parametrized": e.parametrized}
            for e in entries]}
        text = [f"{e.key:15s} {e.note}" for e in entries]
        return 0, doc, text

    if cmd == "validate":
        name = args.file or args.ring or "?"
        try:
            ring = _resolve_ring(args)
        except catalog.RingValidationError as exc:
            report = exc.report
        else:
            name = ring.name
            report = fusion.validate_ring(ring)
        doc = {"ring": name, "valid": not report, "errors": report}
        text = [f"{name}: ok"] if not report else \
            [f"{name}: {len(report)} error(s)"] + [f"  {e}" for e in report]
        return (0 if not report else 1), doc, text

    if cmd == "dims":
        ring = _resolve_ring(args)
        dims = fusion.pf_dimensions(ring)
        doc = {"ring": ring.name,
               "dimensions": {l: _jfloat(v) for l, v in dims.items()}}
        text = [f"{l}: {_fmt(v)}" for l, v in dims.items()]
        return 0, doc, text

    if cmd == "decompose":
        ring = _resolve_ring(args)
        dec = fusion.decompose(ring, args.expr)
        doc = {"ring": ring.name, "expr": args.expr, "decomposition": dec}
        text = [f"{l}: {n}" for l, n in dec.items()] or ["0"]
        return 0, doc, text

    if cmd == "hom":
        ring = _resolve_ring(args)
        val = fusion.hom_dim(ring, args.expr1, args.expr2)
        doc = {"ring": ring.name, "hom_dim": val}
        return 0, doc, [str(val)]

    if cmd == "angle":
        if args.action == "cocommuting":
            spec = angles.angle_cocommuting(args.pn, args.mp)
            return 0, _angle_doc(spec, degrees), _angle_text(spec, degrees)
        if args.action == "group":
            spec = angles.angle_group(args.g, args.h, args.k, args.hk)
            return 0, _angle_doc(spec, degrees), _angle_text(spec, degrees)
        if args.action == "candidates":
            c1, c2 = angles.angle_candidates(args.d, args.s)
            doc = {"candidates": []}
            text = []
            for c in (c1, c2):
                entry = {"cosine": _jfloat(c.cosine), "degenerate": c.degenerate,
                         "angle_radians": None if c.angle is None else _jfloat(c.angle)}
                doc["candidates"].append(entry)
                if c.degenerate:
                    text.append(f"cosine {_fmt(c.cosine)}: degenerate (P = Q), no angle")
                else:
                    text.append(f"cosine {_fmt(c.cosine)}: angle {_fmt(c.angle)} rad")
            doc["note"] = angles.HYPOTHESES_NOTE
            text.append(f"({angles.HYPOTHESES_NOTE})")
            return 0, doc, text
        spec_angle = angles.angle_bound(args.pn)
        doc = {"angle_radians": _jfloat(spec_angle), "note": angles.HYPOTHESES_NOTE}
        text = [f"angle = {_fmt(spec_angle)} rad"]
        if degrees:
            doc["angle_degrees"] = _jfloat(math.degrees(spec_angle))
            text = [f"angle = {_fmt(math.degrees(spec_angle))} deg"]
        text.append(f"({angles.HYPOTHESES_NOTE})")
        return 0, doc, text

    if cmd == "wzw":
        if args.action == "spectrum":
            J = [int(x) for x in args.J.split(",") if x.strip() != ""]
            spec = wzw.alpha_induction_spectrum(args.k, args.i0, J)
            return 0, _angle_doc(spec, degrees), _angle_text(spec, degrees)
        if args.action == "ghj":
            rule = wzw.branching_rule(args.graph)
            spec = wzw.ghj_spectrum(args.graph)
            doc = _angle_doc(spec, degrees)
            doc.update({"graph": rule.graph, "k": rule.k, "J": list(rule.J)})
            text = [f"graph {rule.graph}: level {rule.k}, J = {list(rule.J)}"]
            text += _angle_text(spec, degrees)
            return 0, doc, text
        if args.action == "asymptotic":
            spec = wzw.asymptotic_spectrum(args.n)
            return 0, _angle_doc(spec, degrees), _angle_text(spec, degrees)
        spins = [Fraction(s) for s in args.spins.split(",")]
        if len(spins) != 6:
            raise ValueError("exactly six spins are required")
        val = wzw.q6j(wzw.QSixJ(args.m, *spins))
        doc = {"m": args.m, "spins": [str(s) for s in spins], "value": _jcomplex(val)}
        text = [f"value = {_fmt(val.real)}" +
                (f" {'+' if val.imag >= 0 else '-'} {_fmt(abs(val.imag))}i"
                 if abs(val.imag) > 1e-14 else "")]
        return 0, doc, text

    if cmd == "haagerup":
        if args.action == "verify":
            tol = cuntz.RESIDUAL_TOL if args.tolerance is None else args.tolerance
            rep = cuntz.verify_haagerup_relations(tol=tol)
            doc = {
                "relations": [
                    {"name": c.name, "residual": _jfloat(c.residual),
                     "passed": c.passed} for c in rep.checks],
                "all_pass": rep.all_pass,
                "tolerance": rep.tolerance,
            }
            residuals = {c.name: _jfloat(c.residual) for c in rep.checks}
            text = [f"{c.name:30s} residual = {_fmt(c.residual):14s} "
                    f"{'ok' if c.passed else 'FAIL'}" for c in rep.checks]
            text.append("all relations hold" if rep.all_pass else "FAILURES present")
            return (0 if rep.all_pass else 1), {**doc, "_residuals": residuals}, text
        tol = cuntz.RESIDUAL_TOL if args.tolerance is None else args.tolerance
        sols = cuntz.solve_qsystem(tol=tol)
        doc = {"solutions": [], "tolerance": tol}
        text = []
        for i, s in enumerate(sols, 1):
            doc["solutions"].append({
                "a": _jcomplex(s.a), "b": _jcomplex(s.b),
                "abs_a_sq": _jfloat(abs(s.a) ** 2),
                "abs_b_sq": _jfloat(abs(s.b) ** 2),
                "residuals": {k: _jfloat(v) for k, v in s.residuals.items()},
            })
            text.append(f"solution {i}: a = {_fmt(s.a.real)}{s.a.imag:+.12g}i, "
                        f"b = {_fmt(s.b.real)}{s.b.imag:+.12g}i")
            text.append(f"  |a|^2 = {_fmt(abs(s.a)**2)}, |b|^2 = {_fmt(abs(s.b)**2)}")
            for k, v in s.residuals.items():
                text.append(f"  {k}: {_fmt(v)}")
        residuals = {k: _jfloat(max(s.residuals[k] for s in sols))
                     for k in sols[0].residuals}
        return 0, {**doc, "_residuals": residuals}, text

    if cmd == "cuntz":
        expr = cuntz.parse(args.expr)
        rendered = cuntz.render_expr(expr)
        doc = {"input": args.expr, "normal_form": rendered}
        return 0, doc, [rendered]

    if cmd == "classify":
        tol = args.tolerance
        if args.exclusions:
            results = classify.run_exclusion_checks(tol)
        elif args.case:
            results = [classify.verify_case(classify.case_by_id(args.case), tol)]
        else:
            results = classify.run_all(tol)
        ok = all(r.passed for r in results)
        doc = {"cases": _check_rows_doc(results),
               "passed": sum(r.passed for r in results), "total": len(results),
               "tolerance": classify.tolerances(tol)}
        text = classify.render_results(results).splitlines()
        text.append(f"{doc['passed']}/{doc['total']} passing")
        return (0 if ok else 1), doc, text

    raise ValueError(f"unknown command {cmd!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_tolerance = os.environ.get(_ENV_TOLERANCE)
    if args.tolerance is not None:
        os.environ[_ENV_TOLERANCE] = repr(args.tolerance)
    try:
        code, doc, text = _run(args)
    except (catalog.RingValidationError, cuntz.QSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (fusion.ExprSyntaxError, cuntz.CuntzSyntaxError,
            catalog.RingFormatError, fusion.RingStructureError,
            wzw.SixJDomainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved_tolerance is None:
            os.environ.pop(_ENV_TOLERANCE, None)
        else:
            os.environ[_ENV_TOLERANCE] = saved_tolerance

    residuals = doc.pop("_residuals", {})
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("json", "degrees", "tolerance", "out", "command", "action")
              and v is not None}
    if args.json:
        payload = {
            "command": args.command + (f" {args.action}" if getattr(args, "action", None) else ""),
            "inputs": {k: (v if isinstance(v, (int, float, bool)) else str(v))
                       for k, v in inputs.items()},
            "results": doc,
            "residuals": residuals,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = "\n".join(text)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
