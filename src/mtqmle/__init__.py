"""Robust multivariate estimation through reweighted Gaussian quasi-likelihood.

The package fits parametric mean/covariance models to reweighted sample
moments of complex-valued data, provides sandwich asymptotics with empirical
MSE estimation and influence-function robustness analysis, data-driven weight
selection, two worked applications (complex linear regression and ULA source
localization), robust baselines, and a Monte Carlo experiment harness.
"""

from .asymptotics import (
    SandwichMatrices,
    SelectionResult,
    fisher_information,
    influence,
    log_phi_u,
    psi_u,
    psi_u_batch,
    sandwich,
    score_identity_check,
    select_mt_parameter,
)
from .estimator import (
    EstimationResult,
    ParameterSpace,
    ParametricMomentModel,
    check_identifiability,
    estimate_gqmle,
    estimate_mt_gqmle,
    objective_j_u,
)
from .exceptions import (DegenerateWeights, MTQMLEError, NotPositiveDefinite,
                         SingularMatrix)
from .transform import (
    EmpiricalMTMoments,
    MTFunction,
    check_mt_condition,
    constant_mt_function,
    empirical_mt_moments,
    gaussian_mt_function,
)

__all__ = [
    "DegenerateWeights",
    "EmpiricalMTMoments",
    "EstimationResult",
    "MTFunction",
    "MTQMLEError",
    "NotPositiveDefinite",
    "ParameterSpace",
    "ParametricMomentModel",
    "SandwichMatrices",
    "SelectionResult",
    "SingularMatrix",
    "check_identifiability",
    "check_mt_condition",
    "constant_mt_function",
    "empirical_mt_moments",
    "estimate_gqmle",
    "estimate_mt_gqmle",
    "fisher_information",
    "gaussian_mt_function",
    "influence",
    "log_phi_u",
    "objective_j_u",
    "psi_u",
    "psi_u_batch",
    "sandwich",
    "score_identity_check",
    "select_mt_parameter",
]

__version__ = "0.1.0"
