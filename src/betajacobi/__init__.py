"""Beta Jacobi ensembles: tridiagonal models, the limiting spectral
measure of the associated Jacobi matrices, and the moment hierarchy of
the corresponding particle dynamics, with cross-verifying routes."""

__version__ = "0.1.0"

from .coeffs import (
    JacobiParams,
    ModelKind,
    lambda_hat0,
    lambda_n,
    mu_n,
    tridiag_entries,
    validate_model,
)
from .dynamics import (
    MomentPath,
    integrate_moments,
    moment_drift_finite_n,
    ode_rhs,
    simulate_moments,
    stationary_uk,
)
from .ensemble import (
    BidiagonalFactor,
    EnsembleConfig,
    empirical_measure,
    exact_moment,
    limit_bidiagonal_squares,
    limit_pq,
    mc_moments,
    sample_model,
    substream,
    to_tridiagonal,
)
from .errors import (
    ConvergenceError,
    ConvergenceWarning,
    ParameterError,
    PoleError,
    UnsupportedRegionError,
)
from .hypergeom import gamma_ratio, hyp2f1, ln_gamma, pochhammer
from .spectral import (
    DiscreteMeasure,
    MomentVector,
    SymmetricTridiagonal,
    gauss_quadrature,
    jacobi_matrix,
    moment11,
    stieltjes_cf,
)
from .analytic import (
    DensityProfile,
    density_closed,
    density_numeric,
    density_profile,
    pn_combination,
    pn_explicit,
    pn_recurrence,
    recurrence_rn,
    stieltjes_auto,
    stieltjes_closed,
    u_of_x,
    v_of_x,
    wimp_rn,
    zeta_asymptotic,
    zeta_n,
)

__all__ = [
    "__version__",
    "JacobiParams", "ModelKind", "lambda_hat0", "lambda_n", "mu_n",
    "tridiag_entries", "validate_model",
    "SymmetricTridiagonal", "DiscreteMeasure", "MomentVector",
    "jacobi_matrix", "moment11", "gauss_quadrature", "stieltjes_cf",
    "ln_gamma", "pochhammer", "gamma_ratio", "hyp2f1",
    "stieltjes_closed", "stieltjes_auto", "u_of_x", "v_of_x",
    "density_closed", "density_numeric", "density_profile", "DensityProfile",
    "wimp_rn", "recurrence_rn", "pn_recurrence", "pn_combination",
    "pn_explicit", "zeta_n", "zeta_asymptotic",
    "EnsembleConfig", "BidiagonalFactor", "substream", "sample_model",
    "to_tridiagonal", "empirical_measure", "mc_moments", "exact_moment",
    "limit_pq", "limit_bidiagonal_squares",
    "MomentPath", "simulate_moments", "ode_rhs", "integrate_moments",
    "stationary_uk", "moment_drift_finite_n",
    "ParameterError", "PoleError", "UnsupportedRegionError",
    "ConvergenceError", "ConvergenceWarning",
]
