"""Walk through the Cuntz-algebra verification of the Haagerup data.

Verifies the five relation families for the endomorphism, solves the
Q-system equations, and optionally repeats the verification with a
perturbed A(1,2) to show which relations notice the change.
"""

import argparse
import sys

from sectorwb.cuntz import (
    haagerup_constants,
    solve_qsystem,
    verify_haagerup_relations,
)


def show_report(report):
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        print(f"  [{mark}] {check.name:30s} residual {check.residual:.3e}")
    print(f"  => {'all pass' if report.all_pass else 'FAILURES'} "
          f"(tolerance {report.tolerance:g})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--perturb", type=float, default=None, metavar="EPS",
                    help="re-run the checks with A(1,2) shifted by EPS")
    args = ap.parse_args(argv)

    consts = haagerup_constants()
    print(f"d = {consts.d:.12f}  (d^2 - 3d - 1 = {consts.d**2 - 3*consts.d - 1:.1e})")
    print(f"B = {consts.B:.12f}  (B^2 - B + d = {abs(consts.B**2 - consts.B + consts.d):.1e})")
    print()

    print("relation families:")
    report = verify_haagerup_relations()
    show_report(report)
    print()

    print("Q-system solutions:")
    for i, sol in enumerate(solve_qsystem(), 1):
        print(f"  solution {i}: a = {sol.a:.12f}")
        print(f"              b = {sol.b:.12f}")
        print(f"              |a|^2 = {abs(sol.a)**2:.12f}, "
              f"|b|^2 = {abs(sol.b)**2:.12f}, worst residual "
              f"{max(sol.residuals.values()):.3e}")
    print()

    if args.perturb is not None:
        print(f"with A(1,2) shifted by {args.perturb:g}:")
        pert = haagerup_constants(a12=consts.A[1][2] + args.perturb)
        swept = verify_haagerup_relations(constants=pert)
        show_report(swept)

    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
