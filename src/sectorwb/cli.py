"""Command-line entry point.

Exit codes: 0 on success, 1 when a verification/check reports failure,
2 on usage or parse errors.  With --json every invocation emits a single
document {"command", "inputs", "results", "residuals"}.  Handlers hand main raw floats;
main rounds every one in results and residuals to 12 significant digits (_base.fmt) in
one pass, so the output is byte-stable and round-trips, and then adds results.tolerance.
--json and --out go before or after the subcommand; --degrees and
--tolerance go after it, and only the commands whose answer they change take them.
A command compiles and builds only what it runs: its handler imports the modules it
uses, and a parser in _COMMANDS gets its arguments when argparse dispatches to it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import sectorwb
from ._base import EPS_ABS, fmt

if TYPE_CHECKING:
    from .angles import AngleSpectrum
    from .fusion import FusionRing


def _rounded(x):
    """The JSON form of a handler's value: floats at 12 significant digits, a complex
    value as {"re", "im"}."""
    if isinstance(x, float):
        return float(fmt(x))
    if isinstance(x, complex):
        return {"re": float(fmt(x.real)), "im": float(fmt(x.imag))}
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def _spectrum(spec: AngleSpectrum, degrees: bool) -> Tuple[int, Dict, List[str]]:
    from . import angles
    doc: Dict = {
        "commuting": spec.commuting,
        "angles_radians": list(spec.angles),
    }
    if degrees:
        doc["angles_degrees"] = [math.degrees(a) for a in spec.angles]
    if len(spec.angles) == 1:
        doc["angle_radians"] = spec.angles[0]
    doc["note"] = angles.HYPOTHESES_NOTE
    if spec.commuting:
        text = ["commuting (empty angle spectrum)"]
    elif not spec.angles:
        text = ["empty angle spectrum"]
    else:
        unit = "deg" if degrees else "rad"
        vals = [math.degrees(a) if degrees else a for a in spec.angles]
        text = [f"angle = {fmt(v)} {unit}" for v in vals]
    text.append(f"({angles.HYPOTHESES_NOTE})")
    return 0, doc, text


def _ascii_items(text: str, pattern: str, message: str) -> List[str]:
    """The stripped comma-separated items of ``text``, each ASCII matching ``pattern``
    (int() and Fraction() also read other digits and "_"); ``message`` names a bad one,
    an empty one as ''."""
    items = [x.strip() for x in text.split(",")]
    for x in items:
        if not re.fullmatch(pattern, x):
            raise ValueError(message.format(x or "''"))
    return items


def _resolve_ring(args) -> FusionRing:
    from . import catalog
    if not args.file:
        if not args.ring:
            raise ValueError("a catalog ring name or --file is required")
        return catalog.builtin(args.ring, args.k)
    if args.ring:
        raise ValueError("give a catalog ring name or --file, not both")
    if args.k is not None:
        raise ValueError("--file takes no level parameter")
    return catalog.load(args.file)


# -- handlers: each takes the parsed args, returns (exit code, json results, text lines)
# and imports the modules it uses, so that a command loads only those


def _catalog_list(args):
    from . import catalog
    entries = catalog.ENTRIES
    doc = {"entries": [
        {"key": e.key, "note": e.note, "parametrized": e.parametrized}
        for e in entries]}
    return 0, doc, [f"{e.key:15s} {e.note}" for e in entries]


def _validate(args):
    from . import catalog, fusion
    name, report = args.file or args.ring or "?", []
    try:
        ring = _resolve_ring(args)
        # a ring file is validated as it loads, a shipped ring only here
        name, report = ring.name, [] if args.file else fusion.validate_ring(ring)
    except catalog.RingValidationError as exc:
        report = exc.report
    doc = {"ring": name, "valid": not report, "errors": report}
    text = [f"{name}: ok"] if not report else \
        [f"{name}: {len(report)} error(s)"] + [f"  {e}" for e in report]
    return (0 if not report else 1), doc, text


def _dims(args):
    from . import catalog
    if args.file or not args.ring:
        from . import fusion
        ring = _resolve_ring(args)
        name, dims = ring.name, fusion.pf_dimensions(ring)
    else:  # a shipped ring: exact or closed-form values, no array
        name, dims = catalog.float_dimensions(args.ring, args.k)
    doc = {"ring": name, "dimensions": dims}
    return 0, doc, [f"{l}: {fmt(v)}" for l, v in dims.items()]


def _decompose(args):
    from . import fusion
    ring = _resolve_ring(args)
    dec = fusion.decompose(ring, args.expr)
    doc = {"ring": ring.name, "expr": args.expr, "decomposition": dec}
    return 0, doc, [f"{l}: {n}" for l, n in dec.items()] or ["0"]


def _hom(args):
    from . import fusion
    ring = _resolve_ring(args)
    val = fusion.hom_dim(ring, args.expr1, args.expr2)
    return 0, {"ring": ring.name, "hom_dim": val}, [str(val)]


def _angle_cocommuting(args):
    from . import angles
    return _spectrum(angles.angle_cocommuting(args.pn, args.mp, args.tolerance), args.degrees)


def _angle_group(args):
    from . import angles
    return _spectrum(angles.angle_group(args.g, args.h, args.k, args.hk), args.degrees)


def _angle_candidates(args):
    from . import angles
    doc = {"candidates": []}
    text = []
    unit = "deg" if args.degrees else "rad"
    for c in angles.angle_candidates(args.d, args.s, args.tolerance):
        shown = math.degrees(c.angle) if args.degrees and not c.degenerate else c.angle
        entry = {"cosine": c.cosine, "degenerate": c.degenerate, "angle_radians": c.angle}
        if args.degrees:
            entry["angle_degrees"] = shown
        doc["candidates"].append(entry)
        if c.degenerate:
            text.append(f"cosine {fmt(c.cosine)}: degenerate (P = Q), no angle")
        else:
            text.append(f"cosine {fmt(c.cosine)}: angle {fmt(shown)} {unit}")
    doc["note"] = angles.HYPOTHESES_NOTE
    text.append(f"({angles.HYPOTHESES_NOTE})")
    return 0, doc, text


def _angle_bound(args):
    from . import angles
    angle = angles.angle_bound(args.pn)
    doc = {"angle_radians": angle, "note": angles.HYPOTHESES_NOTE}
    shown = f"{fmt(angle)} rad"
    if args.degrees:
        doc["angle_degrees"] = math.degrees(angle)
        shown = f"{fmt(math.degrees(angle))} deg"
    return 0, doc, [f"angle = {shown}", f"({angles.HYPOTHESES_NOTE})"]


def _wzw_spectrum(args):
    from . import wzw
    labels = _ascii_items(args.J, "[0-9]+", "label {} in J is not a nonnegative integer")
    J = [int(x) for x in labels]
    return _spectrum(wzw.alpha_induction_spectrum(args.k, args.i0, J), args.degrees)


def _wzw_ghj(args):
    from . import wzw
    rule = wzw.branching_rule(args.graph)
    code, doc, text = _spectrum(wzw.ghj_spectrum(rule), args.degrees)
    doc.update({"graph": rule.graph, "k": rule.k, "J": list(rule.J)})
    return code, doc, [f"graph {rule.graph}: level {rule.k}, J = {list(rule.J)}"] + text


def _wzw_asymptotic(args):
    from . import wzw
    return _spectrum(wzw.asymptotic_spectrum(args.n), args.degrees)


def _wzw_6j(args):
    from fractions import Fraction

    from . import wzw
    spins = [Fraction(s) for s in _ascii_items(args.spins, "[0-9]+(/0*[1-9][0-9]*)?",
                                               "spin {} is not a nonnegative half-integer")]
    if len(spins) != 6:
        raise ValueError("exactly six spins are required")
    val = wzw.q6j(wzw.QSixJ(args.m, *spins))
    doc = {"m": args.m, "spins": [str(s) for s in spins], "value": complex(val)}
    return 0, doc, [f"value = {fmt(val)}"]


def _haagerup_verify(args):
    from . import cuntz
    constants = None
    if args.perturb is not None:
        a12 = cuntz.haagerup_constants().A[1][2] + args.perturb
        constants = cuntz.haagerup_constants(a12=a12)
    rep = cuntz.verify_haagerup_relations(constants, tol=args.tolerance)
    doc = {
        "relations": [{"name": c.name, "residual": c.residual, "passed": c.passed}
                      for c in rep.checks],
        "all_pass": rep.all_pass,
        "_residuals": {c.name: c.residual for c in rep.checks},
    }
    text = [f"{c.name:30s} residual = {fmt(c.residual):14s} "
            f"{'ok' if c.passed else 'FAIL'}" for c in rep.checks]
    text.append("all relations hold" if rep.all_pass else "FAILURES present")
    return (0 if rep.all_pass else 1), doc, text


def _haagerup_qsystem(args):
    from . import cuntz
    sols = cuntz.solve_qsystem(tol=args.tolerance)
    doc = {"solutions": []}
    text = []
    for i, s in enumerate(sols, 1):
        doc["solutions"].append({
            "a": s.a, "b": s.b, "abs_a_sq": abs(s.a) ** 2, "abs_b_sq": abs(s.b) ** 2,
            "residuals": s.residuals,
        })
        a, b = (f"{fmt(z.real)}{'' if (im := fmt(z.imag)).startswith('-') else '+'}{im}i"
                for z in (s.a, s.b))  # the imaginary part always signed
        text.append(f"solution {i}: a = {a}, b = {b}")
        text.append(f"  |a|^2 = {fmt(abs(s.a)**2)}, |b|^2 = {fmt(abs(s.b)**2)}")
        for k, v in s.residuals.items():
            text.append(f"  {k}: {fmt(v)}")
    doc["_residuals"] = sols[0].residuals  # both solutions carry the residuals of (a, b)
    return 0, doc, text


def _cuntz_normalize(args):
    from . import cuntz
    rendered = cuntz.render_expr(cuntz.parse(args.expr), args.tolerance)
    doc = {"input": args.expr, "normal_form": rendered}
    return 0, doc, [rendered]


def _classify(args):
    from . import classify
    if args.exclusions:
        results = classify.run_exclusion_checks()
    elif args.case:
        results = [classify.verify_case(classify.case_by_id(args.case))]
    else:
        results = classify.run_all()
    doc = {"cases": [{"case_id": r.case_id, "passed": r.passed,
                      "rows": [{"name": row.name, "passed": row.passed, "detail": row.detail}
                               for row in r.rows]} for r in results],
           "passed": sum(r.passed for r in results), "total": len(results)}
    text = classify.render_results(results).splitlines()
    text.append(f"{doc['passed']}/{doc['total']} passing")
    return (0 if doc["passed"] == doc["total"] else 1), doc, text


# -- parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as -1e-3 or -.5 as a value: argparse's
    own rule reads only forms such as -1 and -1.5 as numbers, and -1e-3 as an option.
    Subparsers are made of the same class.

    This relies on a CPython detail, as of 3.11 and 3.13: ArgumentParser.__init__ sets the
    private _negative_number_matcher, the pattern of those two forms, and _parse_optional
    reads it to tell a negative number from an option.  Should a release rename it, the
    override does nothing and test_a_negative_value_in_exponent_form_is_read_as_a_value
    fails; --opt=-1e-3 works either way.

    ``fill(parser)``, if given, runs once at the top of parse_known_args, which argparse
    (3.10 to 3.13) calls on the subparser it dispatches to: a command fills only the
    parsers on its own path."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


class _MisplacedTolerance(argparse.Action):
    """A root --tolerance: refused by name, where argparse would name its value."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error("--tolerance goes after the subcommand, on the commands that read it")


def _add_common(q: argparse.ArgumentParser, reads: str = "", suppress: bool = True) -> None:
    # On leaf parsers the defaults are SUPPRESS so a trailing flag is
    # accepted without clobbering a value already parsed at the root.
    # --degrees and --tolerance go only on the leaves whose handler ``reads`` them.
    s = argparse.SUPPRESS
    q.add_argument("--json", action="store_true",
                   default=s if suppress else False,
                   help="emit a JSON document")
    if "degrees" in reads:
        q.add_argument("--degrees", action="store_true", help="report angles in degrees")
    if "tolerance" in reads:
        q.add_argument("--tolerance", type=_tolerance, default=EPS_ABS,
                       help=f"absolute comparison tolerance (default {EPS_ABS})")
    q.add_argument("--out", default=s if suppress else None,
                   help="write output to a file")


_FLOAT, _INT = {"type": float, "required": True}, {"type": int, "required": True}
_RING = (("ring", {"nargs": "?", "default": None}),)
_LEVEL = (("--k", {"type": int, "default": None}), ("--file", {"default": None}))

# command words -> (handler, the flags of _add_common it reads, its own arguments),
# in the order of the usage lines
_COMMANDS = {
    ("catalog", "list"): (_catalog_list, "", ()),
    ("validate",): (_validate, "", _RING + _LEVEL),
    ("dims",): (_dims, "", _RING + _LEVEL),
    ("decompose",): (_decompose, "", _RING + (("expr", {}),) + _LEVEL),
    ("hom",): (_hom, "", _RING + (("expr1", {}), ("expr2", {})) + _LEVEL),
    ("angle", "cocommuting"): (_angle_cocommuting, "degrees tolerance",
                               (("--pn", _FLOAT), ("--mp", _FLOAT))),
    ("angle", "group"): (_angle_group, "degrees",
                         tuple((order, _INT) for order in ("--g", "--h", "--k", "--hk"))),
    ("angle", "candidates"): (_angle_candidates, "degrees tolerance",
                              (("--d", _FLOAT), ("--s", _FLOAT))),
    ("angle", "bound"): (_angle_bound, "degrees", (("--pn", _FLOAT),)),
    ("wzw", "spectrum"): (_wzw_spectrum, "degrees", (
        ("--k", _INT), ("--i0", {"type": int, "default": 1}),
        ("--J", {"required": True, "help": "comma-separated labels, e.g. 0,6"}))),
    ("wzw", "ghj"): (_wzw_ghj, "degrees", (("--graph", {"required": True}),)),
    ("wzw", "asymptotic"): (_wzw_asymptotic, "degrees", (("--n", _INT),)),
    ("wzw", "6j"): (_wzw_6j, "", (("--m", _INT), ("--spins", {
        "required": True, "help": "six half-integers, e.g. 2,1,1,1,1,1 or 3/2,..."}))),
    ("haagerup", "verify"): (_haagerup_verify, "tolerance", (("--perturb", {
        "type": float, "default": None, "metavar": "EPS",
        "help": "check the constants with A(1,2) shifted by EPS"}),)),
    ("haagerup", "qsystem"): (_haagerup_qsystem, "tolerance", ()),
    ("cuntz", "normalize"): (_cuntz_normalize, "tolerance", (("expr", {}),)),
    ("classify",): (_classify, "", (("--all", {"action": "store_true"}), ("--case", {}),
                                    ("--exclusions", {"action": "store_true"}))),
}


def _fill(path: Tuple[str, ...], q: argparse.ArgumentParser) -> None:
    """Give ``q``, the parser of ``path``, its arguments, or a group's empty leaves."""
    if path not in _COMMANDS:
        sub = q.add_subparsers(dest="action", required=True)
        for words in _COMMANDS:
            if words[:-1] == path:
                sub.add_parser(words[-1], fill=partial(_fill, words))
        return
    handler, reads, arguments = _COMMANDS[path]
    q.set_defaults(handler=handler)
    if handler is _cuntz_normalize:  # an expression such as -T0 is a value too
        q._negative_number_matcher = re.compile(r"-(\.?[0-9]|[ST])")
    # classify takes exactly one of its modes
    target = q.add_mutually_exclusive_group(required=True) if handler is _classify else q
    for name, kwargs in arguments:
        target.add_argument(name, **kwargs)
    _add_common(q, reads)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="swb",
        description="sector workbench: fusion rings, quadrilateral angles, "
        "modular data and the Haagerup Q-system",
    )
    _add_common(p, suppress=False)
    # SUPPRESS, so that the leaves keep their EPS_ABS default
    p.add_argument("--tolerance", nargs="?", default=argparse.SUPPRESS,
                   action=_MisplacedTolerance, help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(words[0] for words in _COMMANDS):
        sub.add_parser(name, fill=partial(_fill, (name,)))
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = args.handler(args)
        rendered = "\n".join(text)
        if args.json:
            import json

            residuals = _rounded(doc.pop("_residuals", {}))
            results = _rounded(doc)
            if "tolerance" in vars(args):  # set by the commands that read it, refused at the root
                results["tolerance"] = args.tolerance
            inputs = {k: v for k, v in vars(args).items() if v is not None and k not in
                      ("json", "degrees", "tolerance", "out", "command", "action", "handler")}
            rendered = json.dumps({
                "command": args.command + (f" {args.action}" if getattr(args, "action", None) else ""),
                "inputs": {k: (v if isinstance(v, (int, float, bool)) else str(v))
                           for k, v in inputs.items()},
                "results": results,
                "residuals": residuals,
            }, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        else:
            try:
                print(rendered, flush=True)
            except BrokenPipeError:
                # the reader closed the pipe: the rest goes to devnull, so the flush
                # at exit writes nothing either (the recipe of Python's signal docs)
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # An except clause is evaluated only when an exception reaches it, so
    # naming a class through the package imports its module only then.
    except (sectorwb.RingValidationError, sectorwb.QSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the package's syntax, format, structure and domain errors are ValueErrors
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
