import numpy as np
import pytest

from epinverse import (
    GaussianFactor1D,
    LaplacePositivityFactor,
    NaturalGaussian,
    Site,
    moment_from_natural,
)
from epinverse import chol
from epinverse.ep import SiteSet, assemble_global, cavity, refresh_global


def random_natural(n, rng):
    M = rng.standard_normal((n, n))
    K = M.T @ M + np.eye(n)
    h = rng.standard_normal(n)
    return NaturalGaussian(h, K)


def test_moment_from_natural_identity():
    g = NaturalGaussian(np.zeros(3), np.eye(3))
    mg = moment_from_natural(g)
    assert np.allclose(mg.mu, 0.0) and np.allclose(mg.C, np.eye(3))


def test_moment_from_natural_diagonal():
    g = NaturalGaussian(np.array([2.0, 0.0]), np.diag([2.0, 4.0]))
    mg = moment_from_natural(g)
    assert np.allclose(mg.mu, [1.0, 0.0])
    assert np.allclose(mg.C, np.diag([0.5, 0.25]))


def test_moment_from_natural_residual():
    rng = np.random.default_rng(11)
    g = random_natural(6, rng)
    mg = moment_from_natural(g)
    assert np.linalg.norm(g.K @ mg.mu - g.h) / np.linalg.norm(g.h) <= 1e-10


def test_moment_natural_roundtrip():
    rng = np.random.default_rng(21)
    g = random_natural(5, rng)
    mg = moment_from_natural(g)
    K = np.linalg.inv(mg.C)
    assert np.linalg.norm(K @ mg.mu - g.h) / np.linalg.norm(g.h) <= 1e-10
    assert np.linalg.norm(K - g.K) / np.linalg.norm(g.K) <= 1e-10


# ---------------------------------------------------------------------------
# natural-parameter quotient and product as the EP engine forms them: the
# cavity divides a site out of the global marginal, assemble_global and
# refresh_global multiply sites in
# ---------------------------------------------------------------------------

def _one_site(u, tau, nu):
    """The SiteSet of one site on the row u with parameters (tau, nu)."""
    return SiteSet([Site(u, LaplacePositivityFactor(1.0, 0.0), tau=tau, nu=nu)], np.size(u))


def _marginal(state, site_set):
    """z = Sigma u and the marginal variance and mean of u^T x for the row u
    of the lone site of site_set, as row products; a coordinate site's row
    is the unit vector at its coordinate."""
    u = site_set.U[0] if site_set.coords is None else np.eye(1, state.mu.size, site_set.coords[0])[0]
    z = state.C @ u
    return z, u @ z, u @ state.mu


def _cavity(state, site_set):
    """ep.cavity of the lone site of site_set."""
    _, v, m = _marginal(state, site_set)
    return cavity(v, m, site_set.tau[0], site_set.nu[0])


def _refresh(state, site_set, old, new):
    """ep.refresh_global for the lone site of site_set moving from old to new (tau, nu)."""
    refresh_global(state, *_marginal(state, site_set), new[0] - old[0], new[1] - old[1])


def _with_site(g, u, tau, nu):
    """The global g times a rank-one site (nu u, tau u u^T), and the site."""
    g1 = NaturalGaussian(g.h + nu * u, g.K + tau * np.outer(u, u))
    return g1, _one_site(u, tau, nu)


def test_quotient_zero_contribution_is_identity():
    rng = np.random.default_rng(3)
    g = random_natural(4, rng)
    cav = _cavity(moment_from_natural(g), _one_site(np.eye(1, 4, 2), 0.0, 0.0))
    C = np.linalg.inv(g.K)
    assert cav.prec == pytest.approx(1.0 / C[2, 2], rel=1e-12)
    assert cav.eta == pytest.approx((C @ g.h)[2] / C[2, 2], rel=1e-12)


def test_quotient_scalar_arithmetic():
    g = NaturalGaussian(np.array([3.0]), np.array([[2.0]]))
    cav = _cavity(moment_from_natural(g), _one_site(np.array([[1.0]]), 0.5, 1.0))
    assert cav.eta == pytest.approx(2.0) and cav.prec == pytest.approx(1.5)


def test_quotient_then_product_restores():
    # dividing a site out of the global and multiplying it back in restores
    # the global; the cavity is the same whether or not the site is held
    rng = np.random.default_rng(17)
    g0 = random_natural(5, rng)
    u = rng.standard_normal(5)
    g1, s = _with_site(g0, u, 0.7, -0.4)
    m0, m1 = moment_from_natural(g0), moment_from_natural(g1)
    zero, held = (0.0, 0.0), (0.7, -0.4)
    w = moment_from_natural(g1)
    cav_held = _cavity(w, s)
    _refresh(w, s, held, zero)
    assert np.linalg.norm(w.mu - m0.mu) <= 1e-12 * np.linalg.norm(m0.mu)
    assert np.linalg.norm(w.C - m0.C) <= 1e-12 * np.linalg.norm(m0.C)
    cav_out = _cavity(w, _one_site(u, *zero))
    _refresh(w, s, zero, held)
    assert np.linalg.norm(w.mu - m1.mu) <= 1e-12 * np.linalg.norm(m1.mu)
    assert np.linalg.norm(w.C - m1.C) <= 1e-12 * np.linalg.norm(m1.C)
    assert cav_held.prec == pytest.approx(cav_out.prec, rel=1e-10)
    assert cav_held.eta == pytest.approx(cav_out.eta, rel=1e-10, abs=1e-12)


def test_product_adds_parameters():
    rng = np.random.default_rng(8)
    base = random_natural(3, rng)
    sites = [
        Site(rng.standard_normal((1, 3)), LaplacePositivityFactor(1.0, 0.0),
             tau=rng.uniform(0.1, 2.0), nu=rng.standard_normal())
        for _ in range(4)
    ]
    g = assemble_global(base, SiteSet(sites, 3))
    K = base.K + sum(s.tau * np.outer(s.U[0], s.U[0]) for s in sites)
    h = base.h + sum(s.nu * s.U[0] for s in sites)
    assert np.allclose(g.h, h, rtol=1e-14, atol=0.0)
    assert np.allclose(g.K, K, rtol=1e-13, atol=1e-14)
    L = chol.cholesky(g.K)
    assert np.allclose(L @ L.T, K, rtol=1e-12, atol=1e-12)


def _grid_density_product(gaussians, grid):
    """Brute-force pointwise product of Gaussian densities on a 1-D grid."""
    log_p = np.zeros_like(grid)
    for mu, var in gaussians:
        log_p += -0.5 * ((grid - mu) ** 2 / var + np.log(2 * np.pi * var))
    p = np.exp(log_p - log_p.max())
    return p / np.trapezoid(p, grid)


def test_product_matches_grid_density_1d():
    gaussians = [(0.3, 1.2), (-0.5, 0.7), (1.1, 2.5)]
    base = NaturalGaussian(np.zeros(1), np.zeros((1, 1)))
    sites = [
        Site(np.array([[1.0]]), GaussianFactor1D(mu, var), tau=1.0 / var, nu=mu / var)
        for mu, var in gaussians
    ]
    mg = moment_from_natural(assemble_global(base, SiteSet(sites, 1)))
    grid = np.linspace(-8, 8, 400001)
    brute = _grid_density_product(gaussians, grid)
    ours = np.exp(-0.5 * (grid - mg.mu[0]) ** 2 / mg.C[0, 0])
    ours /= np.trapezoid(ours, grid)
    dx = grid[1] - grid[0]
    tv = 0.5 * np.sum(np.abs(brute - ours)) * dx
    assert tv <= 1e-6


def test_product_matches_grid_density_2d():
    rng = np.random.default_rng(31)
    terms = []
    for _ in range(2):
        M = rng.standard_normal((2, 2))
        K = M.T @ M + np.eye(2)
        h = rng.standard_normal(2)
        terms.append((h, K))
    mg = moment_from_natural(NaturalGaussian(sum(t[0] for t in terms), sum(t[1] for t in terms)))

    xs = np.linspace(mg.mu[0] - 6, mg.mu[0] + 6, 601)
    ys = np.linspace(mg.mu[1] - 6, mg.mu[1] + 6, 601)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)

    log_brute = np.zeros_like(X)
    for h, K in terms:
        mu = np.linalg.solve(K, h)
        d = pts - mu
        log_brute += -0.5 * np.einsum("...i,ij,...j->...", d, K, d)
    brute = np.exp(log_brute - log_brute.max())
    brute /= brute.sum()

    d = pts - mg.mu
    Kg = np.linalg.inv(mg.C)
    ours = np.exp(-0.5 * np.einsum("...i,ij,...j->...", d, Kg, d))
    ours /= ours.sum()
    tv = 0.5 * np.abs(brute - ours).sum()
    assert tv <= 1e-6


def test_quotient_product_roundtrip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def inner(n, seed):
        # cavity (quotient) plus site (product) recovers the global marginal
        rng = np.random.default_rng(seed)
        g0 = random_natural(n, rng)
        u = rng.standard_normal(n)
        tau, nu = rng.uniform(0.0, 2.0), rng.standard_normal()
        g1, s = _with_site(g0, u, tau, nu)
        cav = _cavity(moment_from_natural(g1), s)
        C = np.linalg.inv(g1.K)
        marg_prec = 1.0 / (u @ C @ u)
        marg_eta = marg_prec * (u @ C @ g1.h)
        assert abs(cav.prec + tau - marg_prec) <= 1e-9 * marg_prec
        assert abs(cav.eta + nu - marg_eta) <= 1e-9 * max(abs(marg_eta), marg_prec, 1.0)

    inner()
