import math
import tracemalloc

import numpy as np
import pytest

from epinverse import (
    CavityResult,
    EPOptions,
    GaussianFactor1D,
    LaplacePositivityFactor,
    MomentGaussian,
    NaturalGaussian,
    Site,
    moment_from_natural,
    moments_laplace_positivity,
    project_moments,
    run_ep,
    update_site,
)
from epinverse import chol, ep
from epinverse.ep import SiteSet, SkippedSite, assemble_global, cavity, refresh_global, site_moments
from epinverse.errors import CavityInvalid, DegenerateSupport, DowndateFailed, NotPositiveDefinite
from epinverse.factors import FactorFamily, TiltedMoments


def make_work(h, K):
    """The engine's moment-form work state (mu, Sigma) of N(h, K) in natural form."""
    return moment_from_natural(NaturalGaussian(np.asarray(h, dtype=float), np.asarray(K, dtype=float)))


def one(s):
    """The SiteSet of the lone site s."""
    return SiteSet([s], s.U.shape[1])


def site_row(site_set, i, n):
    """Row i of site_set: the unit vector at its coordinate when the set
    holds coordinates, else its stacked row."""
    if site_set.coords is None:
        return site_set.U[i]
    return np.eye(1, n, site_set.coords[i])[0]


def marginal(state, site_set, i):
    """z = Sigma u and the marginal variance and mean of u^T x for row i of
    site_set, as row products."""
    u = site_row(site_set, i, state.mu.size)
    z = state.C @ u
    return z, u @ z, u @ state.mu


def site_cavity(state, site_set, i):
    """ep.cavity of site i against the marginal of its row."""
    _, v, m = marginal(state, site_set, i)
    return cavity(v, m, site_set.tau[i], site_set.nu[i])


def run_ep_collecting(base, sites, opts):
    """run_ep with an on_snapshot that keeps every snapshot; returns the
    result and the snapshots' (mean, covariance), entry snapshot first."""
    snaps = []
    res = run_ep(base, sites, opts, lambda sweep, snap: snaps.append((snap.mu, snap.C)))
    return res, snaps


def site_refresh(state, site_set, i, old, new):
    """ep.refresh_global for site i moving from old to new (tau, nu)."""
    z, v, m = marginal(state, site_set, i)
    refresh_global(state, z, v, m, new[0] - old[0], new[1] - old[1])


# ---------------------------------------------------------------------------
# cavity
# ---------------------------------------------------------------------------

def test_cavity_empty_site_is_full_marginal():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    K = M.T @ M + np.eye(5)
    h = rng.standard_normal(5)
    g = make_work(h, K)
    U = rng.standard_normal((1, 5))
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), tau=0.0, nu=0.0)
    cav = site_cavity(g, one(s), 0)
    Kinv = np.linalg.inv(K)
    marg_var = (U @ Kinv @ U.T).item()
    marg_mean = (U @ Kinv @ h).item()
    assert cav.prec == pytest.approx(1.0 / marg_var, rel=1e-10)
    assert cav.eta / cav.prec == pytest.approx(marg_mean, rel=1e-10)


def test_cavity_scalar_example():
    g = make_work([2.0], [[2.0]])
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), tau=0.5, nu=0.3)
    cav = site_cavity(g, one(s), 0)
    assert cav.prec == pytest.approx(1.5, rel=1e-12)
    assert cav.eta / cav.prec == pytest.approx((1.0 - 0.15) / 0.75, rel=1e-12)


def test_cavity_after_multiplying_site_back_in():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 4))
    K0 = M.T @ M + np.eye(4)
    h0 = rng.standard_normal(4)
    U = rng.standard_normal((1, 4))
    tau, nu = 0.8, 0.4
    g1 = make_work(h0 + nu * U[0], K0 + tau * U.T @ U)
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), tau=tau, nu=nu)
    cav = site_cavity(g1, one(s), 0)
    K0inv = np.linalg.inv(K0)
    assert cav.eta / cav.prec == pytest.approx((U @ K0inv @ h0).item(), rel=1e-10)
    assert 1.0 / cav.prec == pytest.approx((U @ K0inv @ U.T).item(), rel=1e-10)


def test_cavity_site_global_identity():
    # cavity natural params plus site params recover the global marginal
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 6))
    h, K = rng.standard_normal(6), M.T @ M + 2 * np.eye(6)
    g = make_work(h, K)
    U = rng.standard_normal((1, 6))
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), tau=0.5, nu=0.2)
    cav = site_cavity(g, one(s), 0)
    Kinv = np.linalg.inv(K)
    marg_prec = 1.0 / (U @ Kinv @ U.T).item()
    marg_eta = marg_prec * (U @ Kinv @ h).item()
    assert cav.prec + s.tau == pytest.approx(marg_prec, rel=1e-12)
    assert cav.eta + s.nu == pytest.approx(marg_eta, rel=1e-12, abs=1e-12)


def test_cavity_of_null_projection_is_invalid():
    g = make_work([1.0, 2.0], [[3.0, 0.5], [0.5, 2.0]])
    s = Site(np.zeros((1, 2)), LaplacePositivityFactor(1.0, 0.0))
    with pytest.raises(CavityInvalid):
        site_cavity(g, one(s), 0)


def test_cavity_flat_within_rtol():
    # the site holds the whole marginal precision: the cavity is exactly flat
    g = make_work([2.0], [[2.0]])
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), tau=2.0 * (1.0 - 1e-13), nu=0.5)
    cav = site_cavity(g, one(s), 0)
    assert cav.is_flat and cav.prec == 0.0
    assert cav.eta == pytest.approx(1.5, rel=1e-12)
    s.tau = 2.0 * (1.0 + 1e-11)
    with pytest.raises(CavityInvalid):
        site_cavity(g, one(s), 0)


# ---------------------------------------------------------------------------
# Site
# ---------------------------------------------------------------------------

def test_site_holds_its_own_row():
    eye = np.eye(3)
    s = Site(eye[1:2], LaplacePositivityFactor(1.0, 0.0))
    assert s.U.shape == (1, 3) and not np.shares_memory(s.U, eye)
    assert s.tau == 1.0 and s.nu == 0.0
    assert Site(np.array([0.0, 2.0]), LaplacePositivityFactor(1.0, 0.0)).U.shape == (1, 2)


def test_site_rejects_more_than_one_row():
    with pytest.raises(ValueError):
        Site(np.eye(3)[:2], LaplacePositivityFactor(1.0, 0.0))


# ---------------------------------------------------------------------------
# SiteSet
# ---------------------------------------------------------------------------

def test_site_set_stacks_rows_and_finds_coordinates():
    lap, gauss = LaplacePositivityFactor(1.0, 0.0), GaussianFactor1D(0.0, 1.0)
    unit = [Site(np.eye(1, 4, c), f, tau=0.5 + c, nu=-c) for c, f in zip([2, 0, 2], [lap, gauss, lap])]
    site_set = SiteSet(unit, 4)
    assert site_set.coords.tolist() == [2, 0, 2] and site_set.U is None
    assert site_set.tau.tolist() == [2.5, 0.5, 2.5] and site_set.nu.tolist() == [-2.0, 0.0, -2.0]
    assert site_set.family == [lap, gauss, lap]
    groups = {id(f): idx.tolist() for f, idx in site_set.groups}
    assert groups == {id(lap): [0, 2], id(gauss): [1]}
    # an equal but distinct family falls in the same group
    assert len(SiteSet(unit + [Site(np.eye(1, 4, 3), LaplacePositivityFactor(1.0, 0.0))], 4).groups) == 2

    rows = np.array([[0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.6, 0.0, -0.8, 0.0]])
    for U in (rows, rows[:2]):  # a scaled unit row is not a coordinate row either
        dense = SiteSet([Site(u, lap) for u in U], 4)
        assert dense.coords is None and np.array_equal(dense.U, U)


def test_site_set_stacks_only_general_rows():
    lap = LaplacePositivityFactor(1.0, 0.0)
    unit = [Site(np.eye(1, 300, c), lap) for c in range(299, -1, -1)]  # more rows than one block
    lean = SiteSet(unit, 300)
    assert lean.U is None and lean.coords.tolist() == list(range(299, -1, -1))
    # one general row past the first block of rows: all the rows are stacked
    rows = np.eye(300)
    rows[280, 3] = 0.5
    general = SiteSet([Site(u, lap) for u in rows], 300)
    assert general.coords is None and np.array_equal(general.U, rows)


@pytest.mark.parametrize("mode, rows, stacked", [("parallel", "coordinates", False),
                                                 ("serial", "coordinates", False),
                                                 ("parallel", "dense_rows", True),
                                                 ("serial", "dense_rows", True)])
def test_run_ep_stacks_the_rows_only_for_a_sweep_that_reads_them(monkeypatch, mode, rows, stacked):
    name = f"_{mode}_sweep"
    sweep, seen = getattr(ep, name), []

    def spy(snap, sites):
        seen.append(sites.U is not None)
        return sweep(snap, sites)

    monkeypatch.setattr(ep, name, spy)
    n = 6
    U = _ROWS[rows](n)
    sites = [Site(u, LaplacePositivityFactor(1.0, 0.0, -1.0)) for u in U]
    run_ep(_spd_base(n, 31), sites, EPOptions(max_sweeps=3, site_tol=1e-14, sweep_mode=mode))
    assert seen == [stacked] * 3


class UnhashableGaussian(GaussianFactor1D):
    """A factor family that cannot be hashed."""

    __hash__ = None


def test_site_set_groups_an_unhashable_family_by_identity():
    shared, twin = UnhashableGaussian(0.3, 0.5), UnhashableGaussian(0.3, 0.5)
    assert shared == twin
    families = [shared, shared, twin, shared]
    sites, oracle_sites = ([Site(np.eye(1, 4, i), f) for i, f in enumerate(families)] for _ in range(2))
    groups = [(f, idx.tolist()) for f, idx in SiteSet(sites, 4).groups]
    assert [idx for _, idx in groups] == [[0, 1, 3], [2]]
    assert groups[0][0] is shared and groups[1][0] is twin

    base = _spd_base(4, 31)
    want, want_skipped, _ = per_site_parallel_ep(base, oracle_sites, 3, 1e-300)
    res, snaps = run_ep_collecting(base, sites, EPOptions(max_sweeps=3, site_tol=1e-300, sweep_mode="parallel"))
    assert not res.skipped_sites and not want_skipped and res.sweeps_used == 3
    assert _rel(_site_params(sites), _site_params(oracle_sites)) <= 1e-12
    assert _rel(snaps[-1][0], want[-1][0]) <= 1e-12


# ---------------------------------------------------------------------------
# update_site
# ---------------------------------------------------------------------------

def test_update_site_identity_factor_gives_zero():
    g = make_work([1.0, 0.0], [[2.0, 0.3], [0.3, 1.5]])
    U = np.array([[1.0, 0.0]])
    s = Site(U, LaplacePositivityFactor(1.0, 0.0), tau=0.4, nu=0.1)
    cav = site_cavity(g, one(s), 0)
    tm = TiltedMoments(0.0, cav.eta / cav.prec, 1.0 / cav.prec)
    K_new, h_new = update_site(0, cav, tm)
    assert abs(K_new) <= 1e-12
    assert abs(h_new) <= 1e-12


def test_update_site_gaussian_factor_recovers_its_naturals():
    g = make_work([0.5, -0.2], [[1.7, 0.2], [0.2, 2.2]])
    U = np.array([[0.6, -0.8]])
    fam = GaussianFactor1D(0.7, 0.5)
    s = Site(U, fam)
    cav = site_cavity(g, one(s), 0)
    tm = site_moments(fam, cav)
    K_new, h_new = update_site(0, cav, tm)
    assert K_new == pytest.approx(1.0 / fam.t_var, rel=1e-10)
    assert h_new == pytest.approx(fam.t_mean / fam.t_var, rel=1e-10)


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
    g = make_work([1.0, 2.0], [[3.0, 0.5], [0.5, 2.0]])
    mu, C = g.mu.copy(), g.C.copy()
    s = Site(np.array([[1.0, 0.0]]), LaplacePositivityFactor(1.0, 0.0))
    site_refresh(g, one(s), 0, (1.0, 0.0), (1.0, 0.0))
    assert np.array_equal(g.mu, mu) and np.array_equal(g.C, C)


def test_refresh_matches_full_reassembly():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    base = NaturalGaussian(rng.standard_normal(6), M.T @ M + np.eye(6))
    sites = [
        Site(rng.standard_normal((1, 6)), LaplacePositivityFactor(1.0, 0.0))
        for _ in range(4)
    ]
    site_set = SiteSet(sites, 6)
    work = moment_from_natural(assemble_global(base, site_set))
    mu_buf, C_buf = work.mu, work.C
    new = (2.3, -0.7)
    site_refresh(work, site_set, 2, (site_set.tau[2], site_set.nu[2]), new)
    # the work state is moved in place
    assert work.mu is mu_buf and work.C is C_buf
    site_set.tau[2], site_set.nu[2] = new
    scratch = moment_from_natural(assemble_global(base, site_set))
    assert np.linalg.norm(work.mu - scratch.mu) <= 1e-12 * np.linalg.norm(scratch.mu)
    assert np.linalg.norm(work.C - scratch.C) <= 1e-12 * np.linalg.norm(scratch.C)


def test_refresh_apply_then_revert():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((5, 5))
    base = NaturalGaussian(rng.standard_normal(5), M.T @ M + np.eye(5))
    s = Site(rng.standard_normal((1, 5)), LaplacePositivityFactor(1.0, 0.0))
    work = moment_from_natural(assemble_global(base, one(s)))
    mu0, C0 = work.mu.copy(), work.C.copy()
    old, new = (1.0, 0.0), (0.2, 1.1)
    site_refresh(work, one(s), 0, old, new)
    site_refresh(work, one(s), 0, new, old)
    assert np.linalg.norm(work.C - C0) / np.linalg.norm(C0) <= 1e-12
    assert np.linalg.norm(work.mu - mu0) <= 1e-12 * max(np.linalg.norm(mu0), 1.0)


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
    scratch = assemble_global(base, SiteSet(sites, n))
    mu = np.linalg.solve(scratch.K, scratch.h)
    assert np.linalg.norm(mu - res.mean) / np.linalg.norm(res.mean) <= 1e-10


def test_run_ep_metrics_and_histories():
    rng = np.random.default_rng(8)
    n = 3
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(rng.standard_normal(n), M.T @ M + np.eye(n))
    sites = [Site(np.eye(n)[i : i + 1], LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    snaps = []
    res = run_ep(base, sites, EPOptions(max_sweeps=20, site_tol=1e-8),
                 lambda k, snap: snaps.append((k, snap, snap.mu.copy(), snap.C.copy())))
    assert res.converged
    assert [m.sweep for m in res.metrics] == list(range(1, res.sweeps_used + 1))
    assert res.metrics[-1].max_site_change < 1e-8
    assert all(m.max_site_change >= 1e-8 for m in res.metrics[:-1])
    # one snapshot before the first sweep and one after each sweep
    assert [k for k, *_ in snaps] == list(range(res.sweeps_used + 1))
    assert snaps[-1][1].mu is res.mean and snaps[-1][1].C is res.cov
    # a snapshot is not changed after it is handed over
    assert all(np.array_equal(snap.mu, mu) and np.array_equal(snap.C, C) for _, snap, mu, C in snaps)
    # the callback changes nothing the run computes
    quiet_sites = [Site(np.eye(n)[i : i + 1], LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    quiet = run_ep(base, quiet_sites, EPOptions(max_sweeps=20, site_tol=1e-8))
    assert quiet.mean.tobytes() == res.mean.tobytes() and quiet.cov.tobytes() == res.cov.tobytes()
    assert quiet.metrics == res.metrics
    evals = np.linalg.eigvalsh(res.cov)
    assert evals.min() > 0.0


@pytest.mark.parametrize("max_sweeps", [0, -3])
def test_ep_options_reject_fewer_than_one_sweep(max_sweeps):
    # zero sweeps would refit no site yet could be read as converged
    with pytest.raises(ValueError, match="max_sweeps"):
        EPOptions(max_sweeps=max_sweeps)


@pytest.mark.parametrize("site_tol", [0.0, -1.0, math.nan])
def test_ep_options_reject_a_non_positive_site_tol(site_tol):
    # a NaN tolerance was accepted, and no sweep could then converge
    with pytest.raises(ValueError, match="site_tol"):
        EPOptions(site_tol=site_tol)


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
    assert s.tau == 1.0 and s.nu == 0.0
    # global state still the assembled initial one
    assert res.cov[0, 0] == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_run_ep_global_not_pd():
    from epinverse import GlobalNotPD

    base = NaturalGaussian(np.zeros(2), -2.0 * np.eye(2))
    sites = [Site(np.eye(2)[i : i + 1], LaplacePositivityFactor(1.0, 0.0)) for i in range(2)]
    # the entry snapshot fails: sweep 0
    with pytest.raises(GlobalNotPD, match=r"^sweep 0: maximum diagonal entry is not positive$"):
        run_ep(base, sites, EPOptions(max_sweeps=1))


def test_run_ep_global_not_pd_after_a_sweep_leaves_the_assembled_parameters():
    from epinverse import GlobalNotPD

    # the parallel refit takes the whole precision 0.5 + 1 down to ~1e-20
    base = NaturalGaussian(np.zeros(1), np.array([[0.5]]))
    s = Site(np.array([[1.0]]), BlowupFactor(0.0, 1.0))
    with pytest.raises(GlobalNotPD, match=r"^sweep 2: maximum diagonal entry is not positive$"):
        run_ep(base, [s], EPOptions(max_sweeps=3, sweep_mode="parallel"))
    assert s.tau == 1e-20 - 0.5 and s.nu == 0.0


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_run_ep_writes_the_sites_when_it_returns(monkeypatch, mode):
    base = _spd_base(4, 17)
    sites = [Site(np.eye(1, 4, i), LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(4)]
    seen = []
    assemble = ep.assemble_global

    def recording_assemble(base, site_set):
        seen.append([(s.tau, s.nu) for s in sites])
        return assemble(base, site_set)

    monkeypatch.setattr(ep, "assemble_global", recording_assemble)
    res = run_ep(base, sites, EPOptions(max_sweeps=4, site_tol=1e-300, sweep_mode=mode))
    assert res.sweeps_used == 4 and len(seen) == 5
    assert all(params == [(1.0, 0.0)] * 4 for params in seen)
    # the sites hold the parameters of the last assembled global
    scratch = moment_from_natural(assemble(base, SiteSet(sites, 4)))
    assert np.array_equal(scratch.mu, res.mean) and np.array_equal(scratch.C, res.cov)


def test_run_ep_cavity_invalid_skips():
    # a negative-precision companion site drives the cavity indefinite
    base = NaturalGaussian(np.zeros(1), np.array([[1.0]]))
    good = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), tau=3.0)
    bad = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0), tau=-2.0)
    res = run_ep(base, [good, bad], EPOptions(max_sweeps=1, site_tol=1e-8))
    assert any("CavityInvalid" in sk.reason for sk in res.skipped_sites)


def test_run_ep_sweep_with_skipped_sites_does_not_converge():
    # every site is skipped (the floor overflows its tilted logZ to -inf), so
    # no site moves; that is not convergence
    base = NaturalGaussian(np.zeros(4), np.eye(4))
    sites = [Site(np.eye(1, 4, i), LaplacePositivityFactor(1.0, 0.0, floor=1e308)) for i in range(4)]
    res = run_ep(base, sites, EPOptions(max_sweeps=3, site_tol=1e-8))
    assert not res.converged
    assert res.sweeps_used == 3
    assert len(res.skipped_sites) == 12
    assert all("DegenerateSupport" in sk.reason for sk in res.skipped_sites)


def test_run_ep_degenerate_support_skips():
    base = NaturalGaussian(np.zeros(1), np.array([[1.0]]))
    s = Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 0.0, floor=1e308))
    res = run_ep(base, [s], EPOptions(max_sweeps=1, site_tol=1e-8))
    assert any(sk.reason == "DegenerateSupport: no numerically reachable mass (logZ = -inf)"
               for sk in res.skipped_sites)


def test_serial_and_parallel_agree_single_site():
    fam = LaplacePositivityFactor(1.3, 0.0, -math.inf)
    base = NaturalGaussian(np.array([0.5]), np.array([[1.25]]))
    s1 = [Site(np.array([[1.0]]), fam)]
    s2 = [Site(np.array([[1.0]]), fam)]
    r1 = run_ep(base, s1, EPOptions(max_sweeps=60, site_tol=1e-10, sweep_mode="serial"))
    r2 = run_ep(base, s2, EPOptions(max_sweeps=60, site_tol=1e-10, sweep_mode="parallel"))
    assert abs(r1.mean[0] - r2.mean[0]) / abs(r1.mean[0]) <= 1e-6


# ---------------------------------------------------------------------------
# the moment-form engine against a dense reference
# ---------------------------------------------------------------------------

class BimodalFactor(FactorFamily):
    """t(s) = N(s; -a, r) + N(s; a, r).  Not log-concave: moment matching
    can give a site a negative precision."""

    def __init__(self, a, r):
        self.a, self.r = a, r

    def moments(self, m, v):
        # each component times N(s; m, v) is a scaled Gaussian
        centers, r = np.array([-self.a, self.a]), self.r
        logw = -0.5 * (m - centers) ** 2 / (v + r) - 0.5 * math.log(2 * math.pi * (v + r))
        means = (m * r + centers * v) / (v + r)
        top = logw.max()
        w = np.exp(logw - top)
        logz = top + math.log(w.sum())
        w /= w.sum()
        mean = float(w @ means)
        var = v * r / (v + r) + float(w @ (means - mean) ** 2)
        return TiltedMoments(logz, mean, var)

    def log_density(self, s):
        s = np.asarray(s, dtype=float)
        log_n = [-0.5 * (s - c) ** 2 / self.r for c in (-self.a, self.a)]
        return np.logaddexp(*log_n) - 0.5 * math.log(2 * math.pi * self.r)


def textbook_serial_ep(base, rows, family, sweeps):
    """Serial EP that re-inverts the global precision before every site;
    returns the (mean, covariance) after each sweep."""
    tau, nu = np.ones(len(rows)), np.zeros(len(rows))

    def moments():
        K = base.K + sum(t * np.outer(u, u) for t, u in zip(tau, rows))
        C = np.linalg.inv(K)
        return C @ (base.h + rows.T @ nu), C

    out = []
    for _ in range(sweeps):
        for i, u in enumerate(rows):
            mu, C = moments()
            v = u @ C @ u
            cav_prec, cav_eta = 1.0 / v - tau[i], (u @ mu) / v - nu[i]
            tm = family.moments(cav_eta / cav_prec, 1.0 / cav_prec)
            tau[i] = 1.0 / tm.var - cav_prec
            nu[i] = tm.mean / tm.var - cav_eta
        out.append(moments())
    return out


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_serial_sweeps_match_textbook_ep_with_downdates(monkeypatch):
    rng = np.random.default_rng(5)
    n, m, sweeps = 5, 8, 6
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(rng.standard_normal(n), M.T @ M + 2.0 * np.eye(n))
    rows = rng.standard_normal((m, n)) / math.sqrt(n)
    family = BimodalFactor(1.0, 0.3)
    sites = [Site(u, family) for u in rows]

    in_loop, dKs = [], []

    def recording_refresh(work, z, v, m, dK, dh):
        refresh_global(work, z, v, m, dK, dh)
        dKs.append(dK)
        in_loop.append((work.mu.copy(), work.C.copy()))

    monkeypatch.setattr(ep, "refresh_global", recording_refresh)
    res, snaps = run_ep_collecting(base, sites, EPOptions(max_sweeps=sweeps, site_tol=1e-300))
    assert res.sweeps_used == sweeps and not res.skipped_sites
    assert min(dKs) < 0.0 < max(dKs)  # downdates and updates
    assert min(s.tau for s in sites) < 0.0 < max(s.tau for s in sites)

    want = textbook_serial_ep(base, rows, family, sweeps)
    for k, (mu, C) in enumerate(want, start=1):
        assert _rel(snaps[k][0], mu) <= 1e-10
        assert _rel(snaps[k][1], C) <= 1e-10
        # the work state at the end of the sweep, before the snapshot resets it
        mu_loop, C_loop = in_loop[k * m - 1]
        assert _rel(mu_loop, snaps[k][0]) <= 1e-10
        assert _rel(C_loop, snaps[k][1]) <= 1e-10


@pytest.mark.parametrize("above", [False, True], ids=["at_tolerance", "just_above"])
def test_downdate_guard_at_pivot_tolerance(monkeypatch, above):
    # Sigma = I exactly, so site 1's marginal variance is v = 1 and its
    # refit's denominator is 1 + dK, exact in floating point for dK near -1;
    # dK is chosen so that it is the nearest value 1 + dK can take at or
    # below PIVOT_RTOL, or the nearest above it
    tol = chol.PIVOT_RTOL
    dK = -1.0 + tol
    while 1.0 + dK > tol:
        dK = float(np.nextafter(dK, -2.0))
    if above:
        dK = float(np.nextafter(dK, 0.0))
    assert (1.0 + dK > tol) == above and abs(1.0 + dK - tol) <= 2.0**-52

    base = NaturalGaussian(np.zeros(2), 0.5 * np.eye(2))
    sites = [Site(np.eye(1, 2, i), LaplacePositivityFactor(1.0, 0.0), tau=0.5) for i in range(2)]
    refits = {0: (0.3, 0.1), 1: (0.5 + dK, 0.2)}
    monkeypatch.setattr(ep, "update_site", lambda i, cav, tm: refits[i])

    res = run_ep(base, sites, EPOptions(max_sweeps=1))
    assert sites[0].tau == 0.3
    if above:
        assert not res.skipped_sites
        assert sites[1].tau == 0.5 + dK
    else:
        # the failed downdate skips its site: it keeps its parameters, and
        # the sweep does not converge
        assert [(sk.index, sk.reason.split(":")[0]) for sk in res.skipped_sites] == [(1, "DowndateFailed")]
        assert sites[1].tau == 0.5 and sites[1].nu == 0.0
        assert not res.converged


class MarkedFactor(GaussianFactor1D):
    """Tells a flat-cavity refit (tilted variance 1) from a proper one (1/4)
    by the site precision it leaves: 1 - 0, or 4 - the cavity precision."""

    def moments(self, m, v):
        return TiltedMoments(0.0, 0.0, 0.25)

    def moments_flat(self, eta=0.0):
        return TiltedMoments(0.0, 0.0, 1.0)


def test_cavity_tolerance_boundaries_classify_alike_in_both_forms():
    # Sigma = I exactly, so the marginal precision is 1 and the cavity
    # precision 1 - tau is exact for tau near 1; the taus are the nearest on
    # either side of -CAVITY_RTOL and of +CAVITY_RTOL
    tol = ep.CAVITY_RTOL
    flat_low = 1.0  # the largest tau with 1 - tau >= -tol
    while 1.0 - np.nextafter(flat_low, 2.0) >= -tol:
        flat_low = np.nextafter(flat_low, 2.0)
    flat_high = 1.0  # the smallest tau with 1 - tau <= tol
    while 1.0 - np.nextafter(flat_high, 0.0) <= tol:
        flat_high = np.nextafter(flat_high, 0.0)
    taus = [float(t) for t in (np.nextafter(flat_low, 2.0), flat_low, flat_high, np.nextafter(flat_high, 0.0))]
    assert [1.0 - t < -tol for t in taus] == [True, False, False, False]
    assert [1.0 - t > tol for t in taus] == [False, False, False, True]

    n = len(taus)
    sites = [Site(np.eye(1, n, i), MarkedFactor(0.0, 1.0), tau=t) for i, t in enumerate(taus)]
    # the scalar rule: negative, flat, flat, proper
    state, site_set = MomentGaussian(np.zeros(n), np.eye(n)), SiteSet(sites, n)
    with pytest.raises(CavityInvalid):
        site_cavity(state, site_set, 0)
    assert [site_cavity(state, site_set, i).is_flat for i in (1, 2, 3)] == [True, True, False]

    # the array rule, in one parallel sweep from K0 + diag(tau) = I
    base = NaturalGaussian(np.zeros(n), np.diag([1.0 - t for t in taus]))
    res, snaps = run_ep_collecting(base, sites, EPOptions(max_sweeps=1, sweep_mode="parallel"))
    assert np.array_equal(snaps[0][1], np.eye(n))
    assert [(sk.index, sk.reason.split(":")[0]) for sk in res.skipped_sites] == [(0, "CavityInvalid")]
    assert [s.tau for s in sites] == [taus[0], 1.0, 1.0, 4.0 - (1.0 - taus[3])]


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_run_ep_keeps_the_cholesky_loop_off_the_hot_path(monkeypatch, mode):
    # rank1_update is an O(n) Python loop; neither it nor the triangular
    # solves of the factor-form cavity belong in a sweep
    def boom(*args, **kwargs):
        raise AssertionError("called from run_ep")

    monkeypatch.setattr(chol, "rank1_update", boom)
    monkeypatch.setattr(chol, "solve_lower", boom)
    rng = np.random.default_rng(19)
    n = 4
    M = rng.standard_normal((n, n))
    base = NaturalGaussian(0.3 * rng.standard_normal(n), M.T @ M + np.eye(n))
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    res = run_ep(base, sites, EPOptions(max_sweeps=50, site_tol=1e-10, sweep_mode=mode))
    assert res.converged and not res.skipped_sites


# ---------------------------------------------------------------------------
# the array-form parallel sweep against a per-site oracle
# ---------------------------------------------------------------------------

class ZeroVarianceFactor(GaussianFactor1D):
    """Reports a zero tilted variance, which update_site rejects."""

    def moments(self, m, v):
        return TiltedMoments(0.0, m, 0.0)


def per_site_parallel_ep(base, sites, max_sweeps, site_tol):
    """Parallel EP one site at a time: every refit comes from the
    start-of-sweep snapshot through ep.cavity, site_moments and update_site.
    Writes the final parameters into the sites and returns the
    (mean, covariance) after each sweep, the skipped sites and whether the
    run converged."""
    site_set = SiteSet(sites, base.n)
    snap = moment_from_natural(assemble_global(base, site_set))
    history, skipped, converged = [], [], False
    for sweep in range(1, max_sweeps + 1):
        refits = {}
        for i in range(len(sites)):
            try:
                cav = site_cavity(snap, site_set, i)
                refits[i] = ep.update_site(i, cav, ep.site_moments(site_set.family[i], cav))
            except (CavityInvalid, DegenerateSupport, NotPositiveDefinite) as exc:
                skipped.append(SkippedSite(sweep, i, f"{type(exc).__name__}: {exc}"))
        old = list(zip(site_set.tau.tolist(), site_set.nu.tolist()))
        change = max(
            [0.0]
            + [
                math.hypot(K - old[i][0], h - old[i][1]) / max(math.hypot(*old[i]), 1e-12)
                for i, (K, h) in refits.items()
            ]
        )
        for i, (K, h) in refits.items():
            site_set.tau[i], site_set.nu[i] = K, h
        snap = moment_from_natural(assemble_global(base, site_set))
        history.append((snap.mu, snap.C))
        if change < site_tol and len(refits) == len(sites):
            converged = True
            break
    for s, K, h in zip(sites, site_set.tau, site_set.nu):
        s.tau, s.nu = K, h
    return history, skipped, converged


def _site_params(sites):
    return np.array([[s.tau, s.nu] for s in sites])


def _spd_base(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return NaturalGaussian(scale * rng.standard_normal(n), M.T @ M + np.eye(n))


def _zero_block_base(n, seed):
    # coordinate 0 is decoupled and has no base precision: with tau = 1 the
    # site holds its whole marginal precision, so its cavity is flat
    g = _spd_base(n, seed)
    K = g.K.copy()
    K[0, :] = K[:, 0] = 0.0
    return NaturalGaussian(np.concatenate([[0.0], g.h[1:]]), K)


def _parallel_cases():
    lap = LaplacePositivityFactor(1.0, 0.0, -1.0)
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((7, 5)) / math.sqrt(5)
    mixed = [lap, LaplacePositivityFactor(3.0, 0.2, -math.inf), GaussianFactor1D(0.3, 0.5),
             BimodalFactor(1.0, 0.3), lap, GaussianFactor1D(-0.2, 2.0), LaplacePositivityFactor(0.5, 0.0)]
    return {
        # the CLI's layout: one unit row per unknown, one shared family
        "coordinate_rows": lambda: (
            _spd_base(6, 1), [Site(np.eye(1, 6, i), lap) for i in range(6)]),
        "dense_rows_mixed_families": lambda: (
            _spd_base(5, 2), [Site(u, f) for u, f in zip(rows, mixed)]),
        "unit_and_dense_rows": lambda: (
            _spd_base(4, 3), [Site(np.eye(1, 4, i), lap) for i in range(4)] + [Site(rows[0, :4], lap)]),
        # one nonzero per row, but not a unit vector: not a coordinate site
        "scaled_coordinate_rows": lambda: (
            _spd_base(4, 5), [Site(0.5 * np.eye(1, 4, i), lap) for i in range(4)]),
        "flat_cavity": lambda: (
            _zero_block_base(4, 4),
            [Site(np.eye(1, 4, i), LaplacePositivityFactor(1.5, 0.2, -1.0)) for i in range(4)]),
        "skips": lambda: (
            NaturalGaussian(np.array([0.0, 0.3, 0.0, 0.1]), np.diag([1.0, 1.0, 1.0, 2.0])),
            [
                Site(np.eye(1, 4, 0), lap, tau=3.0),  # with the next site: CavityInvalid
                Site(np.eye(1, 4, 0), lap, tau=-2.0),
                Site(np.eye(1, 4, 1), LaplacePositivityFactor(1.0, 0.0, floor=1e308)),  # DegenerateSupport
                Site(np.eye(1, 4, 2), ZeroVarianceFactor(0.0, 1.0)),  # NotPositiveDefinite
                Site(np.eye(1, 4, 3), lap),
                Site(np.eye(1, 4, 2), lap),
            ]),
    }


@pytest.mark.parametrize("case", list(_parallel_cases()))
def test_parallel_sweep_matches_per_site_oracle(case):
    make = _parallel_cases()[case]
    base, sites = make()
    _, oracle_sites = make()
    sweeps = 4
    if case == "flat_cavity":
        assert site_cavity(make_work(base.h, base.K + np.diag([1.0, 1.0, 1.0, 1.0])), SiteSet(sites, 4), 0).is_flat
    want, want_skipped, want_converged = per_site_parallel_ep(base, oracle_sites, sweeps, 1e-300)
    res, snaps = run_ep_collecting(base, sites, EPOptions(max_sweeps=sweeps, site_tol=1e-300, sweep_mode="parallel"))
    assert res.skipped_sites == want_skipped
    assert (case == "skips") == bool(want_skipped)
    assert res.converged == want_converged and res.sweeps_used == len(want)
    assert _rel(_site_params(sites), _site_params(oracle_sites)) <= 1e-12
    for k, (mu, C) in enumerate(want, start=1):
        assert _rel(snaps[k][0], mu) <= 1e-12
        assert _rel(snaps[k][1], C) <= 1e-12


def test_parallel_sweep_with_a_skip_does_not_converge():
    base, sites = _parallel_cases()["skips"]()
    res = run_ep(base, sites, EPOptions(max_sweeps=3, site_tol=1e300, sweep_mode="parallel"))
    assert not res.converged and res.sweeps_used == 3
    reasons = {sk.reason.split(":")[0] for sk in res.skipped_sites}
    assert reasons == {"CavityInvalid", "DegenerateSupport", "NotPositiveDefinite"}
    # the skipped sites keep their parameters
    assert sites[2].tau == 1.0 and sites[3].tau == 1.0


def test_parallel_sweep_uses_no_per_site_kernel(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("per-site kernel called in a parallel sweep")

    for name in ("cavity", "site_moments", "update_site", "refresh_global"):
        monkeypatch.setattr(ep, name, boom)
    monkeypatch.setattr(LaplacePositivityFactor, "moments", boom)
    base, sites = _parallel_cases()["coordinate_rows"]()
    res = run_ep(base, sites, EPOptions(max_sweeps=50, site_tol=1e-10, sweep_mode="parallel"))
    assert res.converged and not res.skipped_sites


def test_sum_sites_adds_sites_on_one_coordinate():
    rng = np.random.default_rng(12)
    base = _spd_base(4, 12)
    coords = [0, 2, 2, 3, 0]
    sites = [Site(np.eye(1, 4, c), LaplacePositivityFactor(1.0, 0.0), tau=rng.uniform(-0.5, 2.0), nu=rng.normal())
             for c in coords]
    site_set = SiteSet(sites, 4)
    g = assemble_global(base, site_set)
    K, h = g.K, g.h
    U = np.vstack([s.U for s in sites])
    tau, nu = _site_params(sites).T
    assert ep._coordinates(U).tolist() == coords
    assert site_set.coords.tolist() == coords
    np.testing.assert_allclose(K, base.K + U.T @ (tau[:, None] * U), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(h, base.h + U.T @ nu, rtol=1e-14, atol=0.0)
    assert K[2, 2] == pytest.approx(base.K[2, 2] + tau[1] + tau[2], rel=1e-15)


def assemble_symmetrizing_every_snapshot(base, sites):
    """assemble_global as it was before run_ep symmetrized the base once:
    0.5 (K + K^T) of the assembled sum, on every snapshot."""
    if sites.coords is not None:
        K, h = base.K.copy(), base.h.copy()
        np.add.at(K, (sites.coords, sites.coords), sites.tau)
        np.add.at(h, sites.coords, sites.nu)
    else:
        K = sites.U.T @ (sites.tau[:, None] * sites.U)
        K += base.K
        h = base.h + sites.U.T @ sites.nu
    return NaturalGaussian(h, 0.5 * (K + K.T))


_ROWS = {
    "coordinates": lambda n: np.eye(n),
    "repeated_coordinates": lambda n: np.eye(n)[[0, 2, 2, 3, 0, 5, 1, 4, 2]],
    "dense_rows": lambda n: np.random.default_rng(77).standard_normal((n + 2, n)) / math.sqrt(n),
}


@pytest.mark.parametrize("mode", ["parallel", "serial"])
@pytest.mark.parametrize("rows", list(_ROWS))
def test_run_ep_symmetrizing_the_base_once_changes_no_bit(monkeypatch, mode, rows):
    n = 6
    g = _spd_base(n, 31)
    # asymmetric within cholesky's 1e-8 relative tolerance
    noise = np.random.default_rng(32).standard_normal((n, n))
    base = NaturalGaussian(g.h, g.K + 1e-11 * np.abs(g.K).max() * noise)
    assert not np.array_equal(base.K, base.K.T)
    K0 = base.K.copy()
    U = _ROWS[rows](n)
    opts = EPOptions(max_sweeps=8, site_tol=1e-14, sweep_mode=mode)

    def fresh_sites():
        return [Site(u, LaplacePositivityFactor(1.0, 0.0, -1.0)) for u in U]

    sites = fresh_sites()
    res, snaps = run_ep_collecting(base, sites, opts)
    assert np.array_equal(base.K, K0)  # the caller's base is not changed
    ref_sites = fresh_sites()
    monkeypatch.setattr(ep, "assemble_global", lambda _base, ss: assemble_symmetrizing_every_snapshot(base, ss))
    ref, ref_snaps = run_ep_collecting(base, ref_sites, opts)

    assert res.sweeps_used == ref.sweeps_used >= 3
    assert res.mean.tobytes() == ref.mean.tobytes()
    assert res.cov.tobytes() == ref.cov.tobytes()
    assert len(snaps) == len(ref_snaps) == res.sweeps_used + 1
    assert all(a.tobytes() == b.tobytes() for snap, ref_snap in zip(snaps, ref_snaps) for a, b in zip(snap, ref_snap))
    assert res.metrics == ref.metrics and res.skipped_sites == ref.skipped_sites
    assert _site_params(sites).tobytes() == _site_params(ref_sites).tobytes()


@pytest.mark.parametrize("symmetric", [True, False])
def test_run_ep_copies_only_an_asymmetric_base(monkeypatch, symmetric):
    n = 6
    g = _spd_base(n, 41)
    K = g.K if symmetric else g.K + 1e-11 * np.abs(g.K).max() * np.random.default_rng(42).standard_normal((n, n))
    base = NaturalGaussian(g.h, K)
    assert np.array_equal(K, K.T) == symmetric
    seen = []
    real_assemble = ep.assemble_global

    def recording_assemble(b, ss):
        seen.append(b)
        return real_assemble(b, ss)

    monkeypatch.setattr(ep, "assemble_global", recording_assemble)
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    res = run_ep(base, sites, EPOptions(max_sweeps=3, site_tol=1e-14, sweep_mode="parallel"))
    assert len(seen) == res.sweeps_used + 1
    # a symmetric base is used as passed; an asymmetric one once symmetrized
    assert all((b is base) == symmetric for b in seen)
    assert all(b is seen[0] for b in seen)


def row_product_serial_sweep(snap, sites, flat):
    """ep._serial_sweep as it read a coordinate site's marginal from its
    stacked unit row, z = Sigma u, v = u^T z and m = u^T mu; appends whether
    each cavity it forms is flat to ``flat``."""
    U = np.eye(snap.mu.size)[sites.coords]
    state = MomentGaussian(snap.mu.copy(), snap.C.copy())
    tau, nu = sites.tau.copy(), sites.nu.copy()
    errors = {}
    for i in range(tau.size):
        u = U[i]
        z = state.C @ u
        v, m = u @ z, u @ state.mu
        try:
            cav = cavity(v, m, sites.tau[i], sites.nu[i])
            flat.append(cav.is_flat)
            new = update_site(i, cav, site_moments(sites.family[i], cav))
            refresh_global(state, z, v, m, new[0] - sites.tau[i], new[1] - sites.nu[i])
        except (CavityInvalid, DegenerateSupport, NotPositiveDefinite, DowndateFailed) as exc:
            errors[i] = exc
            continue
        tau[i], nu[i] = new
    return tau, nu, errors


_SERIAL_COORDINATE_CASES = {
    "coordinates": lambda: (_spd_base(6, 31), [Site(u, LaplacePositivityFactor(1.0, 0.0, -1.0))
                                               for u in _ROWS["coordinates"](6)]),
    "repeated_coordinates": lambda: (_spd_base(6, 31), [Site(u, LaplacePositivityFactor(1.0, 0.0, -1.0))
                                                        for u in _ROWS["repeated_coordinates"](6)]),
    "skips": _parallel_cases()["skips"],
    "flat_cavity": _parallel_cases()["flat_cavity"],
}


@pytest.mark.parametrize("case", list(_SERIAL_COORDINATE_CASES))
def test_serial_column_read_is_bitwise_the_row_product(monkeypatch, case):
    make = _SERIAL_COORDINATE_CASES[case]
    base, sites = make()
    _, ref_sites = make()
    opts = EPOptions(max_sweeps=6, site_tol=1e-300, sweep_mode="serial")
    res, snaps = run_ep_collecting(base, sites, opts)
    flat = []
    monkeypatch.setattr(ep, "_serial_sweep", lambda snap, ss: row_product_serial_sweep(snap, ss, flat))
    ref, ref_snaps = run_ep_collecting(base, ref_sites, opts)

    assert bool(ref.skipped_sites) == (case == "skips") and any(flat) == (case == "flat_cavity")
    assert res.sweeps_used == ref.sweeps_used == 6
    assert len(snaps) == len(ref_snaps) == 7
    assert all(a.tobytes() == b.tobytes() for snap, ref_snap in zip(snaps, ref_snaps) for a, b in zip(snap, ref_snap))
    assert res.metrics == ref.metrics and res.skipped_sites == ref.skipped_sites
    assert _site_params(sites).tobytes() == _site_params(ref_sites).tobytes()


def _run_ep_traced_peak_bytes(n: int, max_sweeps: int, mode: str = "parallel") -> int:
    rng = np.random.default_rng(6)
    A = rng.standard_normal((n + 20, n)) / math.sqrt(n)
    base = NaturalGaussian(100.0 * A.T @ rng.standard_normal(n + 20), 100.0 * A.T @ A)
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(2.0, 0.0, -5.0)) for i in range(n)]
    opts = EPOptions(max_sweeps=max_sweeps, site_tol=1e-300, sweep_mode=mode)
    tracemalloc.start()
    try:
        res = run_ep(base, sites, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sweeps_used == max_sweeps
    return peak


def test_run_ep_peak_memory_does_not_grow_with_the_sweeps():
    """A run holds a fixed number of n x n arrays however many sweeps it
    makes: ten sweeps peak less than one n x n array above two."""
    n = 150
    growth = _run_ep_traced_peak_bytes(n, 10) - _run_ep_traced_peak_bytes(n, 2)
    assert growth < 8 * n * n


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_run_on_coordinate_sites_holds_no_stacked_rows(mode):
    # the m x n stack of unit rows was one n x n array more, held for the run
    n = 150
    assert _run_ep_traced_peak_bytes(n, 2, mode) < 5 * 8 * n * n


@pytest.mark.parametrize("coordinate_rows", [True, False])
def test_snapshot_in_place_is_bitwise_the_pure_moment_form(coordinate_rows):
    # _snapshot factors and inverts in the assembled K's buffer; its bits
    # must be those of factoring and inverting copies
    rng = np.random.default_rng(11)
    n = 9
    A = rng.standard_normal((12, n))
    base = NaturalGaussian(rng.standard_normal(n), A.T @ A)
    rows = np.eye(n) if coordinate_rows else rng.standard_normal((n, n))
    sites = [Site(rows[i], LaplacePositivityFactor(1.0, 0.0, -1.0), tau=0.5 + i, nu=0.1 * i) for i in range(n)]
    site_set = SiteSet(sites, n)
    if coordinate_rows:
        base = NaturalGaussian(base.h, 0.5 * (base.K + base.K.T))  # as run_ep does
    want = moment_from_natural(assemble_global(base, site_set))
    got = ep._snapshot(base, site_set)
    assert got.mu.tobytes() == want.mu.tobytes()
    assert got.C.flags["C_CONTIGUOUS"] and got.C.tobytes() == want.C.tobytes()
