import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from epinverse import (
    DowndateFailed,
    NotPositiveDefinite,
    cholesky,
    solve,
)
from epinverse.chol import PIVOT_RTOL, inverse, rank1_update


def random_spd(n, rng, jitter=1.0):
    M = rng.standard_normal((n, n))
    return M.T @ M + jitter * np.eye(n)


def test_cholesky_identity():
    F = cholesky(np.eye(2))
    assert np.allclose(F.L, np.eye(2), atol=0.0)


def test_cholesky_hand_checked_2x2():
    F = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(F.L, np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-15)


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(1234)
    A = random_spd(8, rng)
    F = cholesky(A)
    rel = np.linalg.norm(F.L @ F.L.T - A) / np.linalg.norm(A)
    assert rel <= 1e-12


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.zeros((3, 3)))


def test_cholesky_rejects_tiny_pivot():
    A = np.diag([1.0, 1e-16])
    with pytest.raises(NotPositiveDefinite):
        cholesky(A)


def test_cholesky_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_rank1_update_identity_e1():
    F = cholesky(np.eye(2))
    up = rank1_update(F, np.array([1.0, 0.0]), +1)
    assert np.allclose(up.L @ up.L.T, np.diag([2.0, 1.0]), atol=1e-15)


def test_update_then_downdate_roundtrip():
    rng = np.random.default_rng(7)
    A = random_spd(6, rng)
    F = cholesky(A)
    x = rng.standard_normal(6)
    back = rank1_update(rank1_update(F, x, +1), x, -1)
    rel = np.linalg.norm(back.L - F.L) / np.linalg.norm(F.L)
    assert rel <= 1e-12


def test_rank1_update_matches_refactorization():
    rng = np.random.default_rng(99)
    A = random_spd(8, rng)
    x = rng.standard_normal(8)
    F = rank1_update(cholesky(A), x, +1)
    G = cholesky(A + np.outer(x, x))
    rel = np.linalg.norm(F.L - G.L) / np.linalg.norm(G.L)
    assert rel <= 1e-10


def test_rank1_downdate_matches_refactorization():
    rng = np.random.default_rng(100)
    A = random_spd(8, rng, jitter=5.0)
    x = 0.5 * rng.standard_normal(8)
    F = rank1_update(cholesky(A), x, -1)
    G = cholesky(A - np.outer(x, x))
    rel = np.linalg.norm(F.L - G.L) / np.linalg.norm(G.L)
    assert rel <= 1e-10


def test_downdate_failure_detected_and_input_untouched():
    F = cholesky(np.eye(3))
    L_before = F.L.copy()
    with pytest.raises(DowndateFailed):
        rank1_update(F, np.array([2.0, 0.0, 0.0]), -1)
    assert np.array_equal(F.L, L_before)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(n, rng)
    F = cholesky(A)
    x = rng.standard_normal(n)
    back = rank1_update(rank1_update(F, x, +1), x, -1)
    assert np.linalg.norm(back.L - F.L) <= 1e-12 * max(1.0, np.linalg.norm(F.L))


def test_solve_identity():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 3))
    assert np.allclose(solve(cholesky(np.eye(4)), B), B, atol=1e-15)


def test_solve_diagonal():
    F = cholesky(np.diag([2.0, 5.0]))
    X = solve(F, np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.2]), atol=1e-15)


def test_solve_residual_random():
    rng = np.random.default_rng(42)
    A = random_spd(8, rng)
    B = rng.standard_normal((8, 4))
    X = solve(cholesky(A), B)
    rel = np.linalg.norm(A @ X - B) / np.linalg.norm(B)
    assert rel <= 1e-10


def test_solve_then_multiply_roundtrip():
    rng = np.random.default_rng(5)
    A = random_spd(8, rng)
    B = rng.standard_normal(8)
    F = cholesky(A)
    assert np.linalg.norm(A @ solve(F, B) - B) / np.linalg.norm(B) <= 1e-10


@pytest.mark.parametrize("n,l", [(4, 1), (6, 2), (8, 2)])
def test_woodbury_identity(n, l):
    # l rank-one updates of a factor give the inverse the Woodbury identity
    # predicts for A + W W^T
    rng = np.random.default_rng(n * 100 + l)
    A = random_spd(n, rng)
    W = rng.standard_normal((n, l))
    F = cholesky(A)
    for j in range(l):
        F = rank1_update(F, W[:, j], +1)
    Ainv = np.linalg.inv(A)
    wood = Ainv - Ainv @ W @ np.linalg.inv(np.eye(l) + W.T @ Ainv @ W) @ W.T @ Ainv
    rel = np.linalg.norm(inverse(F) - wood) / np.linalg.norm(wood)
    assert rel <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_inverse_is_exactly_symmetric_and_matches_numpy(n):
    rng = np.random.default_rng(n)
    A = random_spd(n, rng)
    F = cholesky(A)
    L = F.L.copy()
    inv = inverse(F)
    assert inv.flags["C_CONTIGUOUS"] and np.array_equal(inv, inv.T)
    np.testing.assert_allclose(inv, np.linalg.inv(A), rtol=1e-10, atol=1e-12 * np.abs(inv).max())
    np.testing.assert_allclose(inv @ A, np.eye(n), atol=1e-10)
    assert np.array_equal(F.L, L)  # the factor is not touched


# ---------------------------------------------------------------------------
# the kernels against the formulas they replaced, bit for bit
# ---------------------------------------------------------------------------


def reference_cholesky(A):
    """The tolerance-only symmetry test cholesky ran before it tried exact
    equality first; the factor and its pivot test are the same as cholesky's."""
    A = np.asarray(A, dtype=float)
    atol = 1e-8 * max(1.0, float(np.abs(A).max(initial=0.0)))
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
    if not np.all(d * d > PIVOT_RTOL * max_diag):
        raise NotPositiveDefinite("pivot below tolerance; matrix is numerically singular")
    return L


def outcome(factor, A):
    """("ok", the factor's bytes) or (the error type, its message)."""
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            L = factor(A)
        except (ValueError, NotPositiveDefinite) as exc:
            return type(exc), str(exc)
    return "ok", np.asarray(getattr(L, "L", L)).tobytes()


def _symmetry_cases():
    rng = np.random.default_rng(41)
    A = random_spd(6, rng)
    scale = np.abs(A).max()
    within = A.copy()
    within[4, 1] += 0.9e-8 * scale
    beyond = A.copy()
    beyond[4, 1] += 1.1e-8 * scale
    nan = A.copy()
    nan[2, 3] = np.nan
    nan_pair = A.copy()
    nan_pair[2, 3] = nan_pair[3, 2] = np.nan
    pos_inf = A.copy()
    pos_inf[0, 5] = pos_inf[5, 0] = np.inf
    neg_inf = A.copy()
    neg_inf[1, 2] = neg_inf[2, 1] = -np.inf
    inf_diag = A.copy()
    inf_diag[3, 3] = np.inf
    half_inf = A.copy()
    half_inf[0, 5] = np.inf
    return {
        "exact": (A, "ok"),
        "within_1e-8": (within, "ok"),
        "beyond_1e-8": (beyond, ValueError),
        "nan_entry": (nan, ValueError),
        "nan_pair": (nan_pair, ValueError),
        # dpotrf passes it and leaves NaN pivots, which the pivot test refuses
        "symmetric_+inf": (pos_inf, NotPositiveDefinite),
        "symmetric_-inf": (neg_inf, None),
        "inf_diagonal": (inf_diag, None),
        "one_sided_inf": (half_inf, ValueError),
    }


@pytest.mark.parametrize("case", list(_symmetry_cases()))
def test_cholesky_symmetry_check_decides_as_before(case):
    A, expected = _symmetry_cases()[case]
    got = outcome(cholesky, A)
    assert got == outcome(reference_cholesky, A)
    if expected is not None:
        assert got[0] == expected
    if case == "within_1e-8":
        # accepted, and factored from the lower triangle as before
        assert np.array_equal(cholesky(A).L, reference_cholesky(A))


@pytest.mark.parametrize("n", [1, 3, 40])
def test_solve_is_bitwise_cho_solve(n):
    rng = np.random.default_rng(50 + n)
    F = cholesky(random_spd(n, rng))
    for B in (rng.standard_normal(n), rng.standard_normal((n, 4)), rng.standard_normal((4, n)).T):
        before = B.copy()
        X = solve(F, B)
        assert X.tobytes() == cho_solve((F.L, True), B, check_finite=False).tobytes()
        assert X.shape == B.shape and np.array_equal(B, before)
    with pytest.raises(ValueError):
        solve(F, np.ones(n + 1))


@pytest.mark.parametrize("n", [1, 2, 7, 60, 202])
def test_inverse_is_bitwise_the_tril_mirror(n):
    rng = np.random.default_rng(60 + n)
    F = cholesky(random_spd(n, rng))
    inv, info = dpotri(F.L, lower=1)
    assert info == 0
    ref = np.tril(inv, -1)
    ref += inv.T
    got = inverse(F)
    assert got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == ref.tobytes()
