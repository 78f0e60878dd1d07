"""Expectation propagation for Bayesian inverse problems.

A library and CLI implementing EP for posteriors of projection type, a
recursive-linearization driver for nonlinear forward maps, a 2D complete
electrode model (EIT) forward solver, and a random-walk Metropolis-Hastings
baseline with multi-chain diagnostics.
"""

from .chol import CholeskyFactor, cholesky, solve
from .errors import (
    AdaptFailed,
    CavityInvalid,
    ConfigError,
    DegenerateSupport,
    DowndateFailed,
    ElectrodeCountMismatch,
    EpinverseError,
    GlobalNotPD,
    MeshFileError,
    MeshGenFailed,
    NonFiniteIterate,
    NonFiniteResult,
    NotPositiveDefinite,
    QuadratureNotConverged,
    SingularSystem,
)
from .factors import (
    FactorFamily,
    GaussianFactor1D,
    LaplacePositivityFactor,
    TiltedMoments,
    TiltedMomentsMany,
    moments_laplace_positivity,
    moments_quadrature,
)
from .ep import (
    CavityResult,
    EPOptions,
    EPResult,
    Site,
    SweepMetrics,
    project_moments,
    run_ep,
    update_site,
)
from .gaussians import MomentGaussian, NaturalGaussian, moment_from_natural

__all__ = [
    "AdaptFailed",
    "CavityInvalid",
    "CavityResult",
    "CholeskyFactor",
    "ConfigError",
    "EPOptions",
    "EPResult",
    "Site",
    "SweepMetrics",
    "project_moments",
    "run_ep",
    "update_site",
    "DegenerateSupport",
    "DowndateFailed",
    "ElectrodeCountMismatch",
    "EpinverseError",
    "FactorFamily",
    "GaussianFactor1D",
    "GlobalNotPD",
    "LaplacePositivityFactor",
    "MeshFileError",
    "MeshGenFailed",
    "MomentGaussian",
    "NaturalGaussian",
    "NonFiniteIterate",
    "NonFiniteResult",
    "NotPositiveDefinite",
    "QuadratureNotConverged",
    "SingularSystem",
    "TiltedMoments",
    "TiltedMomentsMany",
    "cholesky",
    "moment_from_natural",
    "moments_laplace_positivity",
    "moments_quadrature",
    "solve",
]

__version__ = "0.1.0"
