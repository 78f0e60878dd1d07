"""Dense SPD kernel layer: Cholesky factorization, rank-one up/downdates
and triangular solves.

All operations are pure: they never mutate their inputs, so factors can be
shared freely across threads for reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import DowndateFailed, NotPositiveDefinite

# Pivots at or below PIVOT_RTOL * max(diag(A)) are treated as loss of positive
# definiteness rather than roundoff.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the represented SPD matrix."""

    L: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[0]


def cholesky(A: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as L @ L.T.

    Parameters
    ----------
    A : ndarray, shape (n, n)
        Symmetric matrix.

    Raises
    ------
    NotPositiveDefinite
        If factorization fails or any pivot is <= 1e-14 * max(diag(A)).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(A).max(initial=0.0)))):
        raise ValueError("matrix is not symmetric")
    max_diag = float(np.max(np.diag(A), initial=0.0))
    if max_diag <= 0.0:
        raise NotPositiveDefinite("maximum diagonal entry is not positive")
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=0)
    if info != 0:
        raise NotPositiveDefinite(f"factorization broke down at pivot {info}")
    tol = PIVOT_RTOL * max_diag
    if np.any(np.diag(L) ** 2 <= tol):
        raise NotPositiveDefinite("pivot below tolerance; matrix is numerically singular")
    return CholeskyFactor(L)


def rank1_update(F: CholeskyFactor, x: np.ndarray, sign: int = +1) -> CholeskyFactor:
    """Factor of A + sign * x x^T from the factor of A, in O(n^2).

    The column sweep applies a plane rotation per pivot (a hyperbolic one for
    the downdate).  The downdate fails when the result would no longer be
    positive definite; the caller decides how to recover.

    Parameters
    ----------
    F : CholeskyFactor
        Factor of A.
    x : ndarray, shape (n,)
        Update vector.
    sign : {+1, -1}
        +1 adds x x^T, -1 subtracts it.

    Raises
    ------
    DowndateFailed
        If sign is -1 and A - x x^T is not positive definite.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.asarray(x, dtype=float).copy()
    n = F.n
    if x.shape != (n,):
        raise ValueError(f"update vector has shape {x.shape}, expected ({n},)")
    L = F.L.copy()
    for k in range(n):
        lkk = L[k, k]
        r2 = lkk * lkk + sign * x[k] * x[k]
        if sign < 0 and r2 <= PIVOT_RTOL * lkk * lkk:
            raise DowndateFailed(f"downdate loses positive definiteness at pivot {k}")
        r = np.sqrt(r2)
        c = r / lkk
        s = x[k] / lkk
        L[k, k] = r
        if k + 1 < n:
            col = (L[k + 1 :, k] + sign * s * x[k + 1 :]) / c
            L[k + 1 :, k] = col
            x[k + 1 :] = c * x[k + 1 :] - s * col
    return CholeskyFactor(L)


def solve(F: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for the matrix represented by F, via two triangular solves."""
    B = np.asarray(B, dtype=float)
    return cho_solve((F.L, True), B, check_finite=False)


def solve_lower(F: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve L Y = B (forward substitution only)."""
    return solve_triangular(F.L, B, lower=True, check_finite=False)


def inverse(F: CholeskyFactor) -> np.ndarray:
    """Dense inverse of the represented matrix (symmetrized)."""
    inv = solve(F, np.eye(F.n))
    return 0.5 * (inv + inv.T)
