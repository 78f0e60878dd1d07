import math

import numpy as np
import pytest

from epinverse import (
    CavityResult,
    EPOptions,
    GaussianFactor1D,
    LaplacePositivityFactor,
    NaturalGaussian,
    Site,
    assemble_global,
    cavity,
    moments_laplace_positivity,
    project_moments,
    refresh_global,
    run_ep,
    update_site,
)
from epinverse.ep import site_moments
from epinverse.errors import CavityInvalid, NotPositiveDefinite
from epinverse.factors import TiltedMoments


def make_global(h, K):
    g = NaturalGaussian(np.asarray(h, dtype=float), np.asarray(K, dtype=float))
    g.ensure_factor()
    return g


# ---------------------------------------------------------------------------
# cavity
# ---------------------------------------------------------------------------

def test_cavity_empty_site_is_full_marginal():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    K = M.T @ M + np.eye(5)
    h = rng.standard_normal(5)
    g = make_global(h, K)
    U = rng.standard_normal((1, 5))
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), K_i=np.zeros((1, 1)), h_i=np.zeros(1))
    cav = cavity(g, s)
    Kinv = np.linalg.inv(K)
    marg_var = (U @ Kinv @ U.T).item()
    marg_mean = (U @ Kinv @ h).item()
    assert cav.prec[0, 0] == pytest.approx(1.0 / marg_var, rel=1e-10)
    assert cav.eta[0] / cav.prec[0, 0] == pytest.approx(marg_mean, rel=1e-10)


def test_cavity_scalar_example():
    g = make_global([2.0], [[2.0]])
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0),
             K_i=np.array([[0.5]]), h_i=np.array([0.3]))
    cav = cavity(g, s)
    assert cav.prec[0, 0] == pytest.approx(1.5, rel=1e-12)
    assert cav.eta[0] / cav.prec[0, 0] == pytest.approx((1.0 - 0.15) / 0.75, rel=1e-12)


def test_cavity_after_multiplying_site_back_in():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 4))
    K0 = M.T @ M + np.eye(4)
    h0 = rng.standard_normal(4)
    U = rng.standard_normal((1, 4))
    Ki = np.array([[0.8]])
    hi = np.array([0.4])
    g1 = make_global(h0 + U.T @ hi, K0 + U.T @ Ki @ U)
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), K_i=Ki, h_i=hi)
    cav = cavity(g1, s)
    K0inv = np.linalg.inv(K0)
    assert cav.eta[0] / cav.prec[0, 0] == pytest.approx((U @ K0inv @ h0).item(), rel=1e-10)
    assert 1.0 / cav.prec[0, 0] == pytest.approx((U @ K0inv @ U.T).item(), rel=1e-10)


def test_cavity_site_global_identity():
    # cavity natural params plus site params recover the global marginal
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 6))
    g = make_global(rng.standard_normal(6), M.T @ M + 2 * np.eye(6))
    U = rng.standard_normal((1, 6))
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), K_i=np.array([[0.5]]), h_i=np.array([0.2]))
    cav = cavity(g, s)
    Kinv = np.linalg.inv(g.K)
    marg_prec = 1.0 / (U @ Kinv @ U.T).item()
    marg_eta = marg_prec * (U @ Kinv @ g.h).item()
    assert cav.prec[0, 0] + s.K_i[0, 0] == pytest.approx(marg_prec, rel=1e-12)
    assert cav.eta[0] + s.h_i[0] == pytest.approx(marg_eta, rel=1e-12, abs=1e-12)


def test_cavity_of_null_projection_is_invalid():
    g = make_global([1.0, 2.0], [[3.0, 0.5], [0.5, 2.0]])
    s = Site(np.zeros((1, 2)), LaplacePositivityFactor(1.0, 0.0))
    with pytest.raises(CavityInvalid):
        cavity(g, s)


def test_cavity_flat_within_rtol():
    # the site holds the whole marginal precision: the cavity is exactly flat
    g = make_global([2.0], [[2.0]])
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0),
             K_i=np.array([[2.0 * (1.0 - 1e-13)]]), h_i=np.array([0.5]))
    cav = cavity(g, s)
    assert cav.is_flat and cav.prec[0, 0] == 0.0
    assert cav.eta[0] == pytest.approx(1.5, rel=1e-12)
    s.K_i = np.array([[2.0 * (1.0 + 1e-11)]])
    with pytest.raises(CavityInvalid):
        cavity(g, s)


# ---------------------------------------------------------------------------
# Site
# ---------------------------------------------------------------------------

def test_site_holds_its_own_row():
    eye = np.eye(3)
    s = Site(eye[1:2], LaplacePositivityFactor(1.0, 0.0))
    assert s.U.shape == (1, 3) and not np.shares_memory(s.U, eye)
    assert s.K_i.shape == (1, 1) and s.h_i.shape == (1,)
    assert Site(np.array([0.0, 2.0]), LaplacePositivityFactor(1.0, 0.0)).U.shape == (1, 2)


def test_site_rejects_more_than_one_row():
    with pytest.raises(ValueError):
        Site(np.eye(3)[:2], LaplacePositivityFactor(1.0, 0.0))


# ---------------------------------------------------------------------------
# update_site
# ---------------------------------------------------------------------------

def test_update_site_identity_factor_gives_zero():
    g = make_global([1.0, 0.0], [[2.0, 0.3], [0.3, 1.5]])
    U = np.array([[1.0, 0.0]])
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), K_i=np.array([[0.4]]), h_i=np.array([0.1]))
    cav = cavity(g, s)
    tm = TiltedMoments(0.0, cav.eta[0] / cav.prec[0, 0], 1.0 / cav.prec[0, 0])
    K_new, h_new = update_site(s, cav, tm)
    assert abs(K_new[0, 0]) <= 1e-12
    assert abs(h_new[0]) <= 1e-12


def test_update_site_gaussian_factor_recovers_its_naturals():
    g = make_global([0.5, -0.2], [[1.7, 0.2], [0.2, 2.2]])
    U = np.array([[0.6, -0.8]])
    fam = GaussianFactor1D(0.7, 0.5)
    s = Site(U, fam)
    cav = cavity(g, s)
    tm = site_moments(s, cav)
    K_new, h_new = update_site(s, cav, tm)
    assert K_new[0, 0] == pytest.approx(1.0 / fam.t_var, rel=1e-10)
    assert h_new[0] == pytest.approx(fam.t_mean / fam.t_var, rel=1e-10)


def test_update_site_log_concave_psd_grid():
    rng = np.random.default_rng(77)
    for _ in range(300):
        v_hat = 10.0 ** rng.uniform(-2, 2)
        m_hat = rng.normal() * math.sqrt(v_hat) * 2
        lam = 10.0 ** rng.uniform(-2, 2)
        bg = rng.normal()
        floor = bg - abs(rng.normal()) if rng.random() < 0.5 else -math.inf
        f = LaplacePositivityFactor(lam, bg, floor)
        tm = moments_laplace_positivity(f, m_hat, v_hat)
        s = Site(np.array([[1.0]]), f)
        cav = CavityResult(np.array([m_hat / v_hat]), np.array([[1.0 / v_hat]]), False)
        K_new, _ = update_site(s, cav, tm)
        assert K_new[0, 0] >= -1e-10


@pytest.mark.parametrize("var", [0.0, -1.0, math.inf, math.nan])
def test_update_site_rejects_bad_variance(var):
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0))
    cav = CavityResult(np.array([0.0]), np.array([[1.0]]), False)
    with pytest.raises(NotPositiveDefinite):
        update_site(s, cav, TiltedMoments(0.0, 0.0, var))


# ---------------------------------------------------------------------------
# refresh_global
# ---------------------------------------------------------------------------

def test_refresh_noop_is_bit_identical():
    g = make_global([1.0, 2.0], [[3.0, 0.5], [0.5, 2.0]])
    s = Site(np.array([[1.0, 0.0]]), LaplacePositivityFactor(1.0, 0.0))
    out = refresh_global(g, s, (s.K_i, s.h_i), (s.K_i.copy(), s.h_i.copy()))
    assert out is g


def test_refresh_matches_full_reassembly():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    base = NaturalGaussian(rng.standard_normal(6), M.T @ M + np.eye(6))
    sites = [
        Site(rng.standard_normal((1, 6)), LaplacePositivityFactor(1.0, 0.0))
        for _ in range(4)
    ]
    g = assemble_global(base, sites)
    s = sites[2]
    new = (np.array([[2.3]]), np.array([-0.7]))
    g2 = refresh_global(g, s, (s.K_i, s.h_i), new)
    s.K_i, s.h_i = new
    scratch = assemble_global(base, sites)
    assert np.linalg.norm(g2.h - scratch.h) <= 1e-12 * np.linalg.norm(scratch.h)
    assert (
        np.linalg.norm(g2.factor.L - scratch.factor.L) / np.linalg.norm(scratch.factor.L)
        <= 1e-10
    )


def test_refresh_apply_then_revert():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((5, 5))
    base = NaturalGaussian(rng.standard_normal(5), M.T @ M + np.eye(5))
    s = Site(rng.standard_normal((1, 5)), LaplacePositivityFactor(1.0, 0.0))
    g = assemble_global(base, [s])
    old = (s.K_i.copy(), s.h_i.copy())
    new = (np.array([[0.2]]), np.array([1.1]))
    g2 = refresh_global(g, s, old, new)
    g3 = refresh_global(g2, s, new, old)
    assert np.linalg.norm(g3.factor.L - g.factor.L) / np.linalg.norm(g.factor.L) <= 1e-12
    assert np.linalg.norm(g3.h - g.h) <= 1e-12 * max(np.linalg.norm(g.h), 1.0)


# ---------------------------------------------------------------------------
# project_moments
# ---------------------------------------------------------------------------

def test_project_moments_trivial_factor():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((3, 3))
    C = M.T @ M + np.eye(3)
    mu = rng.standard_normal(3)
    U = rng.standard_normal((1, 3))
    out = project_moments(mu, C, U, U @ mu, U @ C @ U.T)
    assert np.allclose(out.mu, mu, atol=1e-12)
    assert np.allclose(out.C, C, atol=1e-12)


def test_project_moments_half_normal():
    mu = np.zeros(2)
    C = np.eye(2)
    U = np.array([[1.0, 0.0]])
    sbar = np.array([math.sqrt(2 / math.pi)])
    Cbar = np.array([[1 - 2 / math.pi]])
    out = project_moments(mu, C, U, sbar, Cbar)
    assert np.allclose(out.mu, [math.sqrt(2 / math.pi), 0.0], atol=1e-14)
    assert np.allclose(out.C, np.diag([1 - 2 / math.pi, 1.0]), atol=1e-14)


def _gh_full_moments(mu, C, U, log_t, n_pts=48):
    """Tensor Gauss-Hermite oracle for Z^{-1} t(Ux) N(x; mu, C) moments."""
    n = len(mu)
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_pts)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=-1)
    W = np.ones(Z.shape[0])
    for g in np.meshgrid(*([weights] * n), indexing="ij"):
        W = W * g.ravel()
    A = np.linalg.cholesky(C)
    X = mu + Z @ A.T
    tv = np.exp(log_t((X @ U.T)))
    wz = W * tv
    z = wz.sum()
    mean = (X * wz[:, None]).sum(axis=0) / z
    d = X - mean
    cov = (d[:, :, None] * d[:, None, :] * wz[:, None, None]).sum(axis=0) / z
    return mean, cov


def test_project_moments_vs_tensor_quadrature():
    rng = np.random.default_rng(123)
    n, l = 3, 1
    M = rng.standard_normal((n, n))
    C = M.T @ M + np.eye(n)
    mu = rng.standard_normal(n)
    U = rng.standard_normal((l, n))

    def log_t(s):
        return np.log(1.0 / (1.0 + np.sum(s, axis=-1) ** 2) + 0.05)

    # 1-d tilted moments on s by dense quadrature
    m_s = (U @ mu).item()
    v_s = (U @ C @ U.T).item()
    grid = np.linspace(m_s - 10 * math.sqrt(v_s), m_s + 10 * math.sqrt(v_s), 200001)
    w = np.exp(log_t(grid[:, None]) - 0.5 * (grid - m_s) ** 2 / v_s)
    sbar = float((grid * w).sum() / w.sum())
    cbar = float(((grid - sbar) ** 2 * w).sum() / w.sum())

    got = project_moments(mu, C, U, np.array([sbar]), np.array([[cbar]]))
    want_mean, want_cov = _gh_full_moments(mu, C, U, log_t)
    assert np.linalg.norm(got.mu - want_mean) / np.linalg.norm(want_mean) <= 1e-6
    assert np.linalg.norm(got.C - want_cov) / np.linalg.norm(want_cov) <= 1e-6


def test_projection_z_invariance():
    # normalizer in x-space equals normalizer in s-space
    rng = np.random.default_rng(55)
    for n in (2, 3):
        M = rng.standard_normal((n, n))
        C = M.T @ M + np.eye(n)
        mu = rng.standard_normal(n)
        U = rng.standard_normal((1, n))

        def log_t(s):
            return np.log(2.0 + np.sin(0.8 * np.sum(s, axis=-1)))

        nodes, weights = np.polynomial.hermite_e.hermegauss(60)
        grids = np.meshgrid(*([nodes] * n), indexing="ij")
        Z = np.stack([g.ravel() for g in grids], axis=-1)
        W = np.ones(Z.shape[0])
        for g in np.meshgrid(*([weights] * n), indexing="ij"):
            W = W * g.ravel()
        A = np.linalg.cholesky(C)
        X = mu + Z @ A.T
        z_x = float((W * np.exp(log_t(X @ U.T))).sum() / W.sum())

        m_s = (U @ mu).item()
        v_s = (U @ C @ U.T).item()
        s_nodes = m_s + math.sqrt(v_s) * nodes
        z_s = float((weights * np.exp(log_t(s_nodes[:, None]))).sum() / weights.sum())
        assert abs(z_x - z_s) / abs(z_s) <= 1e-8


# ---------------------------------------------------------------------------
# run_ep
# ---------------------------------------------------------------------------

def test_run_ep_all_gaussian_one_sweep_exact():
    rng = np.random.default_rng(42)
    n = 8
    M = rng.standard_normal((n, n))
    K0 = M.T @ M + np.eye(n)
    h0 = rng.standard_normal(n)
    base = NaturalGaussian(h0, K0)
    sites = []
    K_exact = K0.copy()
    h_exact = h0.copy()
    for _ in range(5):
        U = rng.standard_normal((1, n))
        mt, vt = rng.normal(), rng.uniform(0.3, 2.0)
        sites.append(Site(U, GaussianFactor1D(mt, vt)))
        K_exact += U.T @ U / vt
        h_exact += U[0] * (mt / vt)
    res = run_ep(base, sites, EPOptions(max_sweeps=1, site_tol=1e-8))
    mu_exact = np.linalg.solve(K_exact, h_exact)
    C_exact = np.linalg.inv(K_exact)
    assert np.linalg.norm(res.mean - mu_exact) / np.linalg.norm(mu_exact) <= 1e-10
    assert np.linalg.norm(res.cov - C_exact) / np.linalg.norm(C_exact) <= 1e-10


def test_run_ep_decoupled_converges_in_one_sweep():
    rng = np.random.default_rng(11)
    n = 6
    base = NaturalGaussian(np.zeros(n), np.zeros((n, n)))
    sites = []
    for i in range(n):
        U = np.zeros((1, n))
        U[0, i] = 1.0
        lam = rng.uniform(0.5, 2.0)
        bg = rng.normal()
        sites.append(Site(U, LaplacePositivityFactor(lam, bg, bg - 2.0)))
    res = run_ep(base, sites, EPOptions(max_sweeps=2, site_tol=1e-300))
    assert not res.skipped_sites
    assert res.metrics[1].max_site_change < 1e-12


def test_run_ep_single_site_exact_moment_matching():
    lam, m0, v0 = 1.3, 0.4, 0.8
    fam = LaplacePositivityFactor(lam, 0.0, -math.inf)
    base = NaturalGaussian(np.array([m0 / v0]), np.array([[1.0 / v0]]))
    s = Site(np.array([[1.0]]), fam)
    res = run_ep(base, [s], EPOptions(max_sweeps=30, site_tol=1e-12))
    exact = moments_laplace_positivity(fam, m0, v0)
    assert res.mean[0] == pytest.approx(exact.mean, rel=1e-8, abs=1e-10)
    assert res.cov[0, 0] == pytest.approx(exact.var, rel=1e-8)


def test_run_ep_serial_and_parallel_agree():
    rng = np.random.default_rng(19)
    n = 4
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(0.3 * rng.standard_normal(n), M.T @ M + np.eye(n))

    def make_sites():
        sites = []
        for i in range(n):
            U = np.zeros((1, n))
            U[0, i] = 1.0
            sites.append(Site(U, LaplacePositivityFactor(1.0, 0.0, -1.0)))
        return sites

    res_s = run_ep(base, make_sites(), EPOptions(max_sweeps=200, site_tol=1e-10, sweep_mode="serial"))
    res_p = run_ep(base, make_sites(), EPOptions(max_sweeps=400, site_tol=1e-10, sweep_mode="parallel"))
    assert res_s.converged and res_p.converged
    assert np.linalg.norm(res_s.mean - res_p.mean) / np.linalg.norm(res_s.mean) <= 1e-6


def test_run_ep_ledger_consistency():
    rng = np.random.default_rng(31)
    n = 5
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(rng.standard_normal(n), M.T @ M + np.eye(n))
    sites = []
    for i in range(n):
        U = np.zeros((1, n))
        U[0, i] = 1.0
        sites.append(Site(U, LaplacePositivityFactor(0.8, 0.1, -2.0)))
    res = run_ep(base, sites, EPOptions(max_sweeps=10, site_tol=1e-9))
    # after the run, the sites' parameters fully determine the global state
    scratch = assemble_global(base, sites)
    mu = np.linalg.solve(scratch.K, scratch.h)
    assert np.linalg.norm(mu - res.mean) / np.linalg.norm(res.mean) <= 1e-10


def test_run_ep_metrics_and_histories():
    rng = np.random.default_rng(8)
    n = 3
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(rng.standard_normal(n), M.T @ M + np.eye(n))
    sites = [Site(np.eye(n)[i : i + 1], LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    res = run_ep(base, sites, EPOptions(max_sweeps=20, site_tol=1e-8))
    assert res.converged
    assert len(res.metrics) == res.sweeps_used
    assert len(res.mean_history) == res.sweeps_used + 1
    assert res.metrics[-1].e_f_mu == 0.0
    assert res.metrics[-1].e_f_C == 0.0
    evals = np.linalg.eigvalsh(res.cov)
    assert evals.min() > 0.0


# ---------------------------------------------------------------------------
# failure-path handling
# ---------------------------------------------------------------------------

class BlowupFactor(GaussianFactor1D):
    """Reports a pathologically huge tilted variance, as a badly behaved
    (non-log-concave) family can: the resulting site precision drives the
    global precision below its pivot tolerance and the downdate must fail."""

    def moments(self, m, v):
        return TiltedMoments(0.0, 0.0, 1e20)


def test_run_ep_downdate_failure_skips_and_reverts():
    base = NaturalGaussian(np.zeros(1), np.array([[0.5]]))
    s = Site(np.array([[1.0]]), BlowupFactor(0.0, 1.0))
    res = run_ep(base, [s], EPOptions(max_sweeps=1, site_tol=1e-8))
    assert any("DowndateFailed" in sk.reason for sk in res.skipped_sites)
    # site parameters reverted to their initial values
    assert s.K_i[0, 0] == 1.0 and s.h_i[0] == 0.0
    # global state still the assembled initial one
    assert res.cov[0, 0] == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_run_ep_downdate_failure_abort():
    from epinverse import DowndateFailed

    base = NaturalGaussian(np.zeros(1), np.array([[0.5]]))
    s = Site(np.array([[1.0]]), BlowupFactor(0.0, 1.0))
    with pytest.raises(DowndateFailed):
        run_ep(base, [s], EPOptions(max_sweeps=1, site_tol=1e-8, on_downdate_failure="abort"))


def test_run_ep_global_not_pd():
    from epinverse import GlobalNotPD

    base = NaturalGaussian(np.zeros(2), -2.0 * np.eye(2))
    sites = [Site(np.eye(2)[i : i + 1], LaplacePositivityFactor(1.0, 0.0)) for i in range(2)]
    with pytest.raises(GlobalNotPD):
        run_ep(base, sites, EPOptions(max_sweeps=1))


def test_run_ep_cavity_invalid_skips():
    # a negative-precision companion site drives the cavity indefinite
    base = NaturalGaussian(np.zeros(1), np.array([[1.0]]))
    good = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), K_i=np.array([[3.0]]))
    bad = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), K_i=np.array([[-2.0]]))
    res = run_ep(base, [good, bad], EPOptions(max_sweeps=1, site_tol=1e-8))
    assert any("CavityInvalid" in sk.reason for sk in res.skipped_sites)


def test_run_ep_sweep_with_skipped_sites_does_not_converge():
    # every site is skipped, so no site moves; that is not convergence
    base = NaturalGaussian(np.zeros(4), np.eye(4))
    sites = [Site(np.eye(1, 4, i), LaplacePositivityFactor(1.0, 0.0, floor=60.0)) for i in range(4)]
    res = run_ep(base, sites, EPOptions(max_sweeps=3, site_tol=1e-8))
    assert not res.converged
    assert res.sweeps_used == 3
    assert len(res.skipped_sites) == 12
    assert all("DegenerateSupport" in sk.reason for sk in res.skipped_sites)


def test_run_ep_degenerate_support_skips():
    base = NaturalGaussian(np.zeros(1), np.array([[1.0]]))
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0, floor=60.0))
    res = run_ep(base, [s], EPOptions(max_sweeps=1, site_tol=1e-8))
    assert any("DegenerateSupport" in sk.reason for sk in res.skipped_sites)


def test_serial_and_parallel_agree_single_site():
    fam = LaplacePositivityFactor(1.3, 0.0, -math.inf)
    base = NaturalGaussian(np.array([0.5]), np.array([[1.25]]))
    s1 = [Site(np.array([[1.0]]), fam)]
    s2 = [Site(np.array([[1.0]]), fam)]
    r1 = run_ep(base, s1, EPOptions(max_sweeps=60, site_tol=1e-10, sweep_mode="serial"))
    r2 = run_ep(base, s2, EPOptions(max_sweeps=60, site_tol=1e-10, sweep_mode="parallel"))
    assert abs(r1.mean[0] - r2.mean[0]) / abs(r1.mean[0]) <= 1e-6
