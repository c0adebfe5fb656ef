"""Sector workbench.

Fusion-ring arithmetic for finite sector systems, closed-form angle
invariants for quadrilaterals of factors, SU(2) level-k modular data,
and the Cuntz-algebra verification of the Haagerup Q-system.

``import sectorwb`` loads no submodule: a public name, or a submodule
name, is imported on first access by the module ``__getattr__`` of
PEP 562 and then cached in the package namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("scalar", "QuadExt quad"),
        ("fusion", "ExprSyntaxError FusionRing RingStructureError check_multiplicity_bound "
                   "decompose hom_dim parse_sector_expr pf_dimensions validate_ring"),
        ("catalog", "CatalogEntry ENTRIES RingFormatError RingValidationError builtin "
                    "builtin_keys load ring_from_dict ring_to_dict save"),
        ("angles", "AngleCandidate AngleSpectrum HYPOTHESES_NOTE angle_bound angle_candidates "
                   "angle_cocommuting angle_group bound_cos cocommuting_cos2 t_inner_roots"),
        ("wzw", "BranchingRule ModularData QSixJ SixJDomainError alpha_induction_spectrum "
                "asymptotic_spectrum branching_rule ghj_spectrum monodromy_ratio q6j "
                "su2k_modular"),
        ("cuntz", "CuntzExpr CuntzSyntaxError HaagerupConstants QSystemError QSystemSolution "
                  "RelationCheck VerificationReport alpha_apply haagerup_constants parse "
                  "render_expr residual rho_apply solve_qsystem verify_haagerup_relations"),
        ("classify", "CheckResult CheckRow QuadCase case_by_id classification_table "
                     "render_results run_all run_exclusion_checks verify_case"),
    )
    for name in names.split()
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
