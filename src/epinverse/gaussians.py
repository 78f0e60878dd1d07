"""Gaussian representations in moment and natural parameters.

The natural form (h, K) = (C^{-1} mu, C^{-1}) is the internal source of truth;
moment-form values handed to callers are always fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chol
from .chol import CholeskyFactor


@dataclass
class MomentGaussian:
    """Gaussian in moment parameters (mean, covariance).  C is held
    C-contiguous: the EP engine updates it in place through BLAS."""

    mu: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        self.C = np.ascontiguousarray(self.C, dtype=float)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass
class NaturalGaussian:
    """Gaussian in natural parameters h = C^{-1} mu, K = C^{-1}.

    A Cholesky factor of K is cached.  The factor may be absent while K is
    only positive semidefinite (e.g. a linearized likelihood base before
    sites are multiplied in).
    """

    h: np.ndarray
    K: np.ndarray
    factor: CholeskyFactor | None = field(default=None)

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        self.K = np.asarray(self.K, dtype=float)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def ensure_factor(self) -> CholeskyFactor:
        """Factor K if not already cached; raises NotPositiveDefinite otherwise."""
        if self.factor is None:
            self.factor = chol.cholesky(self.K)
        return self.factor


def moment_from_natural(g: NaturalGaussian) -> MomentGaussian:
    """mu = K^{-1} h and C = K^{-1}, via the cached factor."""
    F = g.ensure_factor()
    mu = chol.solve(F, g.h)
    C = chol.inverse(F)
    return MomentGaussian(mu, C)


def log_density_1d(x: np.ndarray, mu: float, var: float) -> np.ndarray:
    """log N(x; mu, var) for scalars or arrays."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var)
