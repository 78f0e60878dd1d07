"""Dense SPD kernel layer: Cholesky factorization, rank-one up/downdates
and triangular solves.

A factor is the lower-triangular ndarray L with L @ L.T equal to the SPD
matrix, as LAPACK dpotrf makes it: Fortran-ordered, its upper triangle
zero.  Every operation is pure by default: it never mutates its inputs, so
factors can be shared freely across threads for reading.  ``cholesky`` and
``inverse`` also work in place (``overwrite=True``), in the buffer of a
matrix the caller no longer needs, with the same bits as the pure path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import DowndateFailed, NotPositiveDefinite

# Pivots at or below PIVOT_RTOL * max(diag(A)) are treated as loss of positive
# definiteness rather than roundoff.
PIVOT_RTOL = 1e-14


def cholesky(A: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The lower factor L of a symmetric positive definite matrix A = L @ L.T.

    Only the lower triangle is factored.  A is accepted as symmetric when it
    equals its transpose exactly, or else when |A - A^T| <= 1e-8 *
    max(1, max|A|) entrywise (non-finite entries: as np.allclose decides).

    Parameters
    ----------
    A : ndarray, shape (n, n)
        Symmetric matrix.
    overwrite : bool
        Factor in A's own buffer, which then holds L (the returned L is A),
        when A is a Fortran-contiguous float array, such as the transpose of
        a C-contiguous one; any other A is copied, as by default.  A's
        contents are undefined after a failure.

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
        if not np.allclose(A, A.T, rtol=0.0, atol=atol):
            raise ValueError("matrix is not symmetric")
    max_diag = float(np.max(np.diag(A), initial=0.0))
    if max_diag <= 0.0:
        raise NotPositiveDefinite("maximum diagonal entry is not positive")
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=int(overwrite))
    if info != 0:
        raise NotPositiveDefinite(f"factorization broke down at pivot {info}")
    d = np.diag(L)
    # written so that a NaN pivot (an inf entry that dpotrf passed) fails too
    if not np.all(d * d > PIVOT_RTOL * max_diag):
        raise NotPositiveDefinite("pivot below tolerance; matrix is numerically singular")
    return L


def rank1_update(L: np.ndarray, x: np.ndarray, sign: int = +1) -> np.ndarray:
    """Factor of A + sign * x x^T from the factor of A, in O(n^2).

    The column sweep applies a plane rotation per pivot (a hyperbolic one for
    the downdate).  The downdate fails when the result would no longer be
    positive definite; the caller decides how to recover.

    Parameters
    ----------
    L : ndarray, shape (n, n)
        Lower factor of A.
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
    n = L.shape[0]
    if x.shape != (n,):
        raise ValueError(f"update vector has shape {x.shape}, expected ({n},)")
    L = L.copy()
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
    return L


def solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for A = L @ L.T, via two triangular solves
    (LAPACK dpotrs, the call scipy's cho_solve makes); B is (n,) or (n, k)
    and is not overwritten."""
    X, info = dpotrs(L, np.asarray(B, dtype=float), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return X


def solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L Y = B (forward substitution only)."""
    return solve_triangular(L, B, lower=True, check_finite=False)


def inverse(L: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Dense symmetric inverse of A = L @ L.T, C-contiguous.

    LAPACK dpotri forms the lower triangle of (L L^T)^{-1} from the factor;
    the upper triangle of its output is L's, which is zero, so inv + inv^T
    mirrors the strict lower triangle exactly (x + 0 = x), and only the
    doubled diagonal has to be put back.  The result is bitwise symmetric.
    With ``overwrite`` dpotri works in L's buffer (Fortran-contiguous, as
    ``cholesky`` makes it), and L no longer holds a factor.
    """
    inv, info = dpotri(L, lower=1, overwrite_c=int(overwrite))
    if info != 0:
        raise NotPositiveDefinite(f"inversion from the factor failed (info {info})")
    sym = inv + inv.T
    np.fill_diagonal(sym, np.diagonal(inv))
    return sym
