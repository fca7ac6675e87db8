"""Weighted minimum-norm regression on equispaced Fourier features.

Exact generalization-risk formulas for plain and weighted min-norm
estimation with polynomially decaying coefficient covariances, fast
circulant solvers, Monte Carlo validation, and trigonometric function
interpolation in one and higher dimensions.
"""

from .circulant import equispaced_predict, fourier_matrix, gram_eigenvalues
from .errors import (
    ConfigurationError,
    NumericalInconsistencyError,
    RegimeError,
    SingularConstantError,
    StructureError,
    UnknownTargetError,
)
from .estimators import (
    EstimatorResult,
    least_squares,
    minnorm_kkt_check,
    solve_weighted_minnorm,
    weighted_minnorm,
)
from .interpolation import (
    FittedInterpolant,
    InterpolationProblem,
    Method,
    Target,
    WeightKind,
    builtin_targets,
    dense_grid_rmse,
    evaluate_interpolant,
    fit_interpolant,
    symmetric_frequencies,
)
from .model import (
    GridConfig,
    Regime,
    Spectrum,
    build_spectrum,
    classify_grid,
    cr_bounds,
)
from .montecarlo import (
    CoefficientModel,
    McConfig,
    McRiskEstimate,
    concentration_check,
    empirical_risk,
    empirical_risks,
    sample_theta,
    trial_generator,
)
from .risktheory import (
    BoundReport,
    ConcentrationBound,
    LowestRisks,
    RiskBreakdown,
    asymptotic_bound,
    concentration_bound,
    lowest_risks,
    risk_over_closed,
    risk_trace_over,
    risk_trace_under,
    risk_under_closed,
    theory_risk,
    theory_risks,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoefficientModel",
    "ConcentrationBound",
    "ConfigurationError",
    "EstimatorResult",
    "FittedInterpolant",
    "GridConfig",
    "InterpolationProblem",
    "LowestRisks",
    "McConfig",
    "McRiskEstimate",
    "Method",
    "NumericalInconsistencyError",
    "Regime",
    "RegimeError",
    "RiskBreakdown",
    "SingularConstantError",
    "Spectrum",
    "StructureError",
    "Target",
    "UnknownTargetError",
    "WeightKind",
    "asymptotic_bound",
    "build_spectrum",
    "builtin_targets",
    "classify_grid",
    "concentration_bound",
    "concentration_check",
    "cr_bounds",
    "dense_grid_rmse",
    "empirical_risk",
    "empirical_risks",
    "equispaced_predict",
    "evaluate_interpolant",
    "fit_interpolant",
    "fourier_matrix",
    "gram_eigenvalues",
    "least_squares",
    "lowest_risks",
    "minnorm_kkt_check",
    "risk_over_closed",
    "risk_trace_over",
    "risk_trace_under",
    "risk_under_closed",
    "sample_theta",
    "solve_weighted_minnorm",
    "symmetric_frequencies",
    "theory_risk",
    "theory_risks",
    "trial_generator",
    "weighted_minnorm",
]
