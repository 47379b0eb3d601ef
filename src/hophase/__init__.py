"""
Numerics for one-dimensional higher-order phase-transition energies

    (1/eps) int W(u) - lam eps^(2n-3) int (u^(n-1))^2 + eps^(2n-1) int (u^(n))^2

on intervals: energy evaluation and minimization, optimal transition
profiles and their limiting constants, the critical coupling strength
below which the energy stays coercive, exact Hermite coupling
polynomials, interpolation-inequality checks, and sharp-interface-limit
experiments.
"""

from .potentials import (
    BUILTIN_POTENTIALS,
    AssumptionResult,
    DoubleWell,
    ValidationReport,
    get_potential,
    make_quartic,
    validate_assumptions,
)
from .grids import (
    Field,
    Grid,
    derivative,
    diff_operator,
    field_from_csv,
    field_to_csv,
    quadrature_weights,
    stencil_weights,
)
from .hermite import (
    MAX_N,
    BoundaryData,
    CouplingPolynomial,
    coefficient_matrix_exact,
    coupling_energy_upper_bound,
    determinant_exact,
    endpoint_residuals,
    eval_poly,
    solve_eta,
    solve_zeta,
)
from .energy import (
    DiscreteEnergy,
    EnergyBreakdown,
    EnergyParams,
    evaluate,
    evaluate_rescaled,
    gradient,
)
from .ensembles import make_ensemble, random_field
from .critical import (
    LambdaEstimate,
    LambdaOptions,
    QuotientResult,
    SubcriticalReport,
    estimate_lambda_n,
    quotient,
    subdivided_quotient,
    verify_subcritical,
)
from .profiles import (
    ConstantsEstimate,
    JumpFunction,
    ProfileProblem,
    ProfileResult,
    build_recovery,
    estimate_constants,
    minimize_profile,
)
from .inequalities import (
    CheckReport,
    EnsembleCheckReport,
    GNParams,
    check_abstr,
    check_gagnir_interval,
    check_intlem,
    check_lower_bound_lemma,
    check_nirineq,
    ensemble_check,
    intlem_constant,
    lp_norm,
)
from .experiments import (
    EpsRow,
    MinimizeEnergyResult,
    RunRecord,
    SupercriticalReport,
    SweepConfig,
    count_jump_clusters,
    gamma_sweep,
    minimize_energy,
    supercritical_probe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # potentials
    "DoubleWell", "AssumptionResult", "ValidationReport", "make_quartic",
    "get_potential", "validate_assumptions", "BUILTIN_POTENTIALS",
    # grids
    "Grid", "Field", "diff_operator", "derivative", "stencil_weights",
    "quadrature_weights", "field_to_csv", "field_from_csv",
    # hermite
    "MAX_N", "BoundaryData", "CouplingPolynomial", "solve_zeta", "solve_eta",
    "eval_poly", "endpoint_residuals", "coefficient_matrix_exact",
    "determinant_exact", "coupling_energy_upper_bound",
    # energy
    "DiscreteEnergy", "EnergyParams", "EnergyBreakdown", "evaluate",
    "evaluate_rescaled", "gradient",
    # ensembles
    "random_field", "make_ensemble",
    # critical
    "QuotientResult", "quotient", "subdivided_quotient", "LambdaOptions",
    "LambdaEstimate", "estimate_lambda_n", "SubcriticalReport",
    "verify_subcritical",
    # profiles
    "ProfileProblem", "ProfileResult", "minimize_profile",
    "ConstantsEstimate", "estimate_constants",
    "JumpFunction", "build_recovery",
    # inequalities
    "GNParams", "CheckReport", "EnsembleCheckReport", "lp_norm",
    "intlem_constant", "check_intlem", "check_nirineq",
    "check_gagnir_interval", "check_abstr", "check_lower_bound_lemma",
    "ensemble_check",
    # experiments
    "SweepConfig", "EpsRow", "RunRecord", "MinimizeEnergyResult",
    "minimize_energy", "count_jump_clusters", "gamma_sweep",
    "SupercriticalReport", "supercritical_probe",
]
