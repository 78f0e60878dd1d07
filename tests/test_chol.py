import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinverse import (
    DowndateFailed,
    NotPositiveDefinite,
    cholesky,
    rank1_update,
    solve,
)
from epinverse.chol import inverse


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
