"""Dense SPD kernel layer: Cholesky factorization, rank-one up/downdates
and triangular solves.

All operations are pure: they never mutate their inputs, so factors can be
shared freely across threads for reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

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

    Only the lower triangle is factored.  A is accepted as symmetric when it
    equals its transpose exactly, or else when |A - A^T| <= 1e-8 *
    max(1, max|A|) entrywise (non-finite entries: as np.allclose decides).

    Parameters
    ----------
    A : ndarray, shape (n, n)
        Symmetric matrix.

    Raises
    ------
    ValueError
        If A is not square, or not symmetric within the tolerance above.
    NotPositiveDefinite
        If factorization fails or any pivot is not > 1e-14 * max(diag(A)),
        NaN pivots included.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        atol = 1e-8 * max(1.0, float(np.abs(A).max(initial=0.0)))
        # with a finite atol, |A - A^T| <= atol is allclose's test; the slower
        # allclose decides the rest (non-finite entries)
        fast = math.isfinite(atol) and bool(np.all(np.abs(A - A.T) <= atol))
        if not (fast or np.allclose(A, A.T, rtol=0.0, atol=atol)):
            raise ValueError("matrix is not symmetric")
    max_diag = float(np.max(np.diag(A), initial=0.0))
    if max_diag <= 0.0:
        raise NotPositiveDefinite("maximum diagonal entry is not positive")
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=0)
    if info != 0:
        raise NotPositiveDefinite(f"factorization broke down at pivot {info}")
    d = np.diag(L)
    # written so that a NaN pivot (an inf entry that dpotrf passed) fails too
    if not np.all(d * d > PIVOT_RTOL * max_diag):
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
    """Solve A X = B for the matrix represented by F, via two triangular solves
    (LAPACK dpotrs, the call scipy's cho_solve makes); B is (n,) or (n, k)
    and is not overwritten."""
    X, info = dpotrs(F.L, np.asarray(B, dtype=float), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return X


def solve_lower(F: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve L Y = B (forward substitution only)."""
    return solve_triangular(F.L, B, lower=True, check_finite=False)


def inverse(F: CholeskyFactor) -> np.ndarray:
    """Dense symmetric inverse of the represented matrix, C-contiguous.

    LAPACK dpotri forms the lower triangle of (L L^T)^{-1} from the factor;
    the upper triangle of its output is L's, which is zero, so inv + inv^T
    mirrors the strict lower triangle exactly (x + 0 = x), and only the
    doubled diagonal has to be put back.  The result is bitwise symmetric.
    """
    inv, info = dpotri(F.L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"inversion from the factor failed (info {info})")
    sym = inv + inv.T
    np.fill_diagonal(sym, np.diagonal(inv))
    return sym
