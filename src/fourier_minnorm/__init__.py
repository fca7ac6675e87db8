"""Weighted minimum-norm regression on equispaced Fourier features.

Exact generalization-risk formulas for plain and weighted min-norm
estimation with polynomially decaying coefficient covariances, fast
circulant solvers, Monte Carlo validation, and trigonometric function
interpolation in one and higher dimensions.  The dense reference routes
the fast ones are tested against live in ``fourier_minnorm.oracles``.
"""

from .circulant import equispaced_predict, gram_eigenvalues
from .errors import (
    ConfigurationError,
    NumericalInconsistencyError,
    RegimeError,
    SingularConstantError,
    StructureError,
    UnknownTargetError,
)
from .estimators import EstimatorResult, weighted_minnorm
from .interpolation import (
    FittedInterpolant,
    InterpolationProblem,
    Method,
    Target,
    WeightKind,
    builtin_targets,
    fit_interpolant,
    symmetric_frequencies,
)
from .model import (
    GridConfig,
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
)
from .risktheory import (
    BoundReport,
    ConcentrationBound,
    LowestRisks,
    asymptotic_bound,
    concentration_bound,
    lowest_risks,
    sweep_risks,
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
    "RegimeError",
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
    "empirical_risk",
    "empirical_risks",
    "equispaced_predict",
    "fit_interpolant",
    "gram_eigenvalues",
    "lowest_risks",
    "sweep_risks",
    "symmetric_frequencies",
    "weighted_minnorm",
]
