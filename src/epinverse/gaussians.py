"""Gaussian representations in moment and natural parameters.

The natural form (h, K) = (C^{-1} mu, C^{-1}) is what EP assembles from its
sites; moment_from_natural factors K afresh each time it turns that into the
moment form the sweeps read.  Neither form caches a factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chol


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
    """Gaussian in natural parameters h = C^{-1} mu, K = C^{-1}.  K may be
    only positive semidefinite (e.g. a linearized likelihood base before
    sites are multiplied in)."""

    h: np.ndarray
    K: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        self.K = np.asarray(self.K, dtype=float)

    @property
    def n(self) -> int:
        return self.h.shape[0]


def moment_from_natural(g: NaturalGaussian) -> MomentGaussian:
    """mu = K^{-1} h and C = K^{-1}, through a fresh Cholesky factor of K;
    raises NotPositiveDefinite if K is not positive definite."""
    F = chol.cholesky(g.K)
    return MomentGaussian(chol.solve(F, g.h), chol.inverse(F))


def log_density_1d(x: np.ndarray, mu: float, var: float) -> np.ndarray:
    """log N(x; mu, var) for scalars or arrays."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var)
