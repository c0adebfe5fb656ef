"""Sector workbench.

Fusion-ring arithmetic for finite sector systems, closed-form angle
invariants for quadrilaterals of factors, SU(2) level-k modular data,
and the Cuntz-algebra verification of the Haagerup Q-system.
"""

from .scalar import QuadExt, quad
from .fusion import (
    ExprSyntaxError,
    FusionRing,
    RingStructureError,
    check_multiplicity_bound,
    decompose,
    hom_dim,
    parse_sector_expr,
    pf_dimensions,
    validate_ring,
)
from .catalog import (
    CatalogEntry,
    ENTRIES,
    RingFormatError,
    RingValidationError,
    builtin,
    builtin_keys,
    load,
    ring_from_dict,
    ring_to_dict,
    save,
)
from .angles import (
    AngleCandidate,
    AngleSpectrum,
    HYPOTHESES_NOTE,
    InnerData,
    QuadIndexData,
    angle_bound,
    angle_candidates,
    angle_cocommuting,
    angle_group,
    t_inner_roots,
)
from .wzw import (
    BranchingRule,
    ModularData,
    QSixJ,
    SixJDomainError,
    alpha_induction_spectrum,
    asymptotic_spectrum,
    branching_rule,
    ghj_spectrum,
    monodromy_ratio,
    q6j,
    su2k_modular,
)
from .cuntz import (
    CuntzExpr,
    CuntzSyntaxError,
    HaagerupConstants,
    QSystemError,
    QSystemSolution,
    RelationCheck,
    VerificationReport,
    alpha_apply,
    haagerup_constants,
    parse,
    render_expr,
    residual,
    rho_apply,
    solve_qsystem,
    verify_haagerup_relations,
)
from .classify import (
    CheckResult,
    CheckRow,
    ClassIVRecord,
    QuadCase,
    case_by_id,
    class_iv_record,
    classification_table,
    e8aff_regression,
    render_results,
    run_all,
    run_exclusion_checks,
    verify_case,
)

__version__ = "0.1.0"

__all__ = [
    "QuadExt", "quad",
    "ExprSyntaxError", "FusionRing", "RingStructureError",
    "check_multiplicity_bound", "decompose", "hom_dim", "parse_sector_expr",
    "pf_dimensions", "validate_ring",
    "CatalogEntry", "ENTRIES", "RingFormatError", "RingValidationError",
    "builtin", "builtin_keys", "load", "ring_from_dict", "ring_to_dict",
    "save",
    "AngleCandidate", "AngleSpectrum", "HYPOTHESES_NOTE", "InnerData",
    "QuadIndexData", "angle_bound", "angle_candidates", "angle_cocommuting",
    "angle_group", "t_inner_roots",
    "BranchingRule", "ModularData", "QSixJ", "SixJDomainError",
    "alpha_induction_spectrum", "asymptotic_spectrum", "branching_rule",
    "ghj_spectrum", "monodromy_ratio", "q6j", "su2k_modular",
    "CuntzExpr", "CuntzSyntaxError", "HaagerupConstants",
    "QSystemError", "QSystemSolution", "RelationCheck", "VerificationReport",
    "alpha_apply", "haagerup_constants", "parse",
    "render_expr", "residual", "rho_apply", "solve_qsystem",
    "verify_haagerup_relations",
    "ClassIVRecord", "CheckResult", "CheckRow", "QuadCase", "case_by_id",
    "class_iv_record", "classification_table", "e8aff_regression",
    "render_results", "run_all", "run_exclusion_checks", "verify_case",
]
