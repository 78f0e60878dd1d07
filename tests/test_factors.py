import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinverse import (
    DegenerateSupport,
    GaussianFactor1D,
    LaplacePositivityFactor,
    moments_laplace_positivity,
    moments_quadrature,
)
from epinverse import factors
from epinverse.factors import trunc_gauss_std, trunc_gauss_std_many


def rel(a, b, scale=0.0):
    return abs(a - b) / max(abs(b), scale)


# ---------------------------------------------------------------------------
# standardized truncated-normal kernel
# ---------------------------------------------------------------------------

def test_trunc_std_untruncated():
    logz, mean, var, _, _ = trunc_gauss_std(-math.inf, math.inf)
    assert logz == 0.0 and mean == 0.0 and var == 1.0


def test_trunc_std_half_normal():
    logz, mean, var, _, _ = trunc_gauss_std(0.0, math.inf)
    assert logz == pytest.approx(math.log(0.5), rel=1e-14)
    assert mean == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
    assert var == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-13)


def test_trunc_std_mirror_symmetry():
    for a, b in [(0.5, 2.0), (3.0, math.inf), (11.0, math.inf), (-1.0, 4.0)]:
        lz1, m1, v1, _, _ = trunc_gauss_std(a, b)
        lz2, m2, v2, _, _ = trunc_gauss_std(-b, -a)
        assert lz1 == pytest.approx(lz2, rel=1e-14)
        assert m1 == pytest.approx(-m2, rel=1e-13)
        assert v1 == pytest.approx(v2, rel=1e-13)


def test_trunc_std_far_tail_finite_and_positive():
    logz, mean, var, delta, _ = trunc_gauss_std(1e3, math.inf)
    assert math.isfinite(logz) and logz < -5e5
    assert 0.0 < var < 1.0
    assert mean > 1e3 and 0.0 < delta < 1e-2


def test_trunc_std_series_consistency_at_crossover():
    # the erfcx branch just below alpha=10 and the series branch just above
    # must agree through the switch
    lz1, m1, v1, d1, _ = trunc_gauss_std(9.999999, math.inf)
    lz2, m2, v2, d2, _ = trunc_gauss_std(10.000001, math.inf)
    assert rel(m1, m2) < 1e-6 and rel(v1, v2) < 1e-5 and rel(lz1, lz2) < 1e-6


# ---------------------------------------------------------------------------
# Laplace-positivity semi-analytic moments
# ---------------------------------------------------------------------------

def test_laplace_positivity_trivial_limit():
    f = LaplacePositivityFactor(lam=0.0, sigma_bg=0.0, floor=-math.inf)
    tm = moments_laplace_positivity(f, 0.7, 2.3)
    assert tm.logZ == 0.0 and tm.mean == 0.7 and tm.var == 2.3


def test_laplace_positivity_vs_quadrature_basic():
    f = LaplacePositivityFactor(lam=1.0, sigma_bg=0.0, floor=0.0)
    got = moments_laplace_positivity(f, 0.0, 1.0)
    ora = moments_quadrature(f, 0.0, 1.0)
    assert rel(got.mean, ora.mean) <= 1e-10
    assert rel(got.var, ora.var) <= 1e-10
    assert rel(got.logZ, ora.logZ) <= 1e-10


def test_laplace_positivity_extreme_tilt_no_overflow():
    # lam * sqrt(v) = 1e3 with the cavity centered at the background
    f = LaplacePositivityFactor(lam=1e3, sigma_bg=0.7, floor=-math.inf)
    tm = moments_laplace_positivity(f, 0.7, 1.0)
    assert math.isfinite(tm.logZ)
    assert 0.0 < tm.var < 1.0
    assert tm.mean == pytest.approx(0.7, abs=1e-9)
    # oracle comparison in the same regime (log-domain quadrature)
    ora = moments_quadrature(f, 0.7, 1.0)
    assert rel(tm.var, ora.var) <= 1e-9
    assert rel(tm.mean, ora.mean) <= 1e-9


def test_laplace_positivity_degenerate_support():
    f = LaplacePositivityFactor(lam=1.0, sigma_bg=0.0, floor=50.0)
    with pytest.raises(DegenerateSupport):
        moments_laplace_positivity(f, 0.0, 1.0)


def test_laplace_positivity_flat_zero_tilt_matches_large_v_limit():
    f = LaplacePositivityFactor(lam=2.0, sigma_bg=0.3, floor=-0.5)
    flat = f.moments_flat(0.0)
    lim = moments_laplace_positivity(f, 0.0, 1e8)
    assert rel(flat.mean, lim.mean) <= 1e-6
    assert rel(flat.var, lim.var) <= 1e-6


def test_laplace_positivity_flat_vs_direct_quadrature():
    from scipy.integrate import quad

    f = LaplacePositivityFactor(lam=2.0, sigma_bg=0.3, floor=-0.5)
    for eta in (0.0, 0.7, -0.9):
        flat = f.moments_flat(eta)
        dens = lambda s: math.exp(eta * s - f.lam * abs(s - f.sigma_bg))
        hi = f.sigma_bg + 60.0 / (f.lam - eta)
        z, _ = quad(dens, f.floor, hi, points=[f.sigma_bg], limit=200)
        m1, _ = quad(lambda s: s * dens(s), f.floor, hi, points=[f.sigma_bg], limit=200)
        mean = m1 / z
        m2, _ = quad(lambda s: (s - mean) ** 2 * dens(s), f.floor, hi, points=[f.sigma_bg], limit=200)
        assert rel(flat.logZ, math.log(z)) <= 1e-9
        assert rel(flat.mean, mean, scale=1e-12) <= 1e-9
        assert rel(flat.var, m2 / z) <= 1e-9


def test_laplace_positivity_flat_pure_exponential():
    # floor above background: single shifted-exponential piece
    f = LaplacePositivityFactor(lam=3.0, sigma_bg=0.0, floor=1.0)
    tm = f.moments_flat(0.0)
    assert tm.mean == pytest.approx(1.0 + 1.0 / 3.0, rel=1e-13)
    assert tm.var == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_laplace_positivity_flat_unreachable_mass_is_degenerate():
    # one shifted-exponential piece with logZ = -1000 - log(1000)
    f = LaplacePositivityFactor(lam=1e3, sigma_bg=0.0, floor=1.0)
    with pytest.raises(DegenerateSupport, match=r"no numerically reachable mass \(logZ = -1006.9\)"):
        f.moments_flat(0.0)


@pytest.mark.parametrize("lam", [1.0, 1e3])
@pytest.mark.parametrize("eta", [0.0, 0.5, -3.0])
def test_laplace_positivity_flat_floor_one_subnormal_below_bg(lam, eta):
    # the lower piece has width 5e-324: its weight underflows in the mixture
    # and must leave the moments of a floor at the background, with no NaN
    tm = LaplacePositivityFactor(lam, 0.0, -5e-324).moments_flat(eta)
    ref = LaplacePositivityFactor(lam, 0.0, 0.0).moments_flat(eta)
    assert np.isfinite([tm.logZ, tm.mean, tm.var]).all()
    assert tm.logZ == pytest.approx(ref.logZ, rel=1e-15, abs=1e-300)
    assert tm.mean == pytest.approx(ref.mean, rel=1e-15)
    assert tm.var == pytest.approx(ref.var, rel=1e-15)


def _scalar_moments_or_nan(f, m, v):
    """(logZ, mean, var) of the scalar kernel at every (m[k], v[k]), NaN where
    it raises DegenerateSupport."""
    out = np.full((3, len(m)), np.nan)
    for k, (mk, vk) in enumerate(zip(m.tolist(), v.tolist())):
        try:
            tm = moments_laplace_positivity(f, mk, vk)
        except DegenerateSupport:
            continue
        out[:, k] = tm.logZ, tm.mean, tm.var
    return out


@pytest.mark.parametrize(
    "lam, bg, floor",
    [(1e308, 1.41e-3, 1e-5), (1e308, 0.0, -math.inf), (2.0, 0.0, 1e308), (2.0, 1e308, 0.0)],
)
def test_laplace_positivity_bounds_that_overflow_leave_no_reachable_mass(lam, bg, floor):
    # a standardized bound that overflows to +-inf used to reach the
    # truncated-normal kernel as an empty interval, and ValueError
    f = LaplacePositivityFactor(lam, bg, floor)
    m, v = np.array([-1.0, 0.0, 0.5]), np.array([1e-2, 1.0, 4.0])
    with np.errstate(over="ignore"):
        for mk, vk in zip(m, v):
            with pytest.raises(DegenerateSupport):
                moments_laplace_positivity(f, mk, vk)
        assert sorted(f.moments_many(m, v).errors) == [0, 1, 2]
        # a NaN cavity mean is still refused, not skipped
        with pytest.raises(ValueError, match="empty truncation interval"):
            f.moments_many(np.array([np.nan]), np.array([1.0]))


def test_laplace_positivity_floor_within_rounding_of_bg_drops_the_lower_piece():
    # floor one ulp below bg: at most of these points the lower piece's
    # standardized interval is empty in floating point or carries no finite
    # log mass.  It is dropped, and the moments are those of floor = bg.
    bg = 0.3
    near = LaplacePositivityFactor(2.0, bg, 0.29999999999999993)
    at = LaplacePositivityFactor(2.0, bg, bg)
    assert near.floor == np.nextafter(bg, 0.0)
    m, v = (x.ravel() for x in np.meshgrid(np.linspace(-3.0, 3.0, 61), [1e-4, 1e-2, 0.1, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _scalar_moments_or_nan(at, m, v)
        scalar = _scalar_moments_or_nan(near, m, v)
        many = near.moments_many(m, v)
    assert sorted(many.errors) == np.flatnonzero(np.isnan(want[0])).tolist()
    # where the lower piece survives, its sliver of standardized width ~1e-15
    # takes the Gauss-Legendre rule, and its ~1e-14 weight moves no moment
    # past roundoff
    for got in (scalar, np.array([many.logZ, many.mean, many.var])):
        np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)
    flat, flat_at = near.moments_flat(0.0), at.moments_flat(0.0)
    assert flat_at.mean == 0.8
    np.testing.assert_allclose([flat.logZ, flat.mean, flat.var], [flat_at.logZ, flat_at.mean, flat_at.var], rtol=1e-12)


def test_laplace_positivity_narrow_lower_piece_vs_quadrature():
    # the lower piece is [floor, bg) one ulp wide, at x = 9.98 standardized:
    # just short of the a >= 10 far tail, it must still take the rule that
    # holds at any width
    f = LaplacePositivityFactor(2.0, 0.3, 0.29999999999999993)
    got = moments_laplace_positivity(f, 0.2, 1e-4)
    many = f.moments_many(np.array([0.2]), np.array([1e-4]))
    ora = moments_quadrature(f, 0.2, 1e-4)
    # mean and var of the same density by 40-digit adaptive quadrature (mpmath)
    ref_mean, ref_var = 0.30097904683023474, 9.409749146785246e-07
    for lz, mean, var in ((got.logZ, got.mean, got.var), (many.logZ[0], many.mean[0], many.var[0])):
        assert rel(lz, ora.logZ) <= 1e-10
        assert rel(mean, ora.mean) <= 1e-10
        # m + 12 sd is only 20 decay lengths above the mass at bg: the oracle
        # must widen its window past it, or the cut-off mass moves its
        # variance by 1e-7
        assert rel(var, ora.var) <= 1e-10
        assert rel(mean, ref_mean) <= 1e-14
        assert rel(var, ref_var) <= 1e-13


def test_narrow_two_sided_interval_takes_the_conditioned_rule():
    # width 1e-6 at lower bounds below 10: on u = s - a in [0, w] the density
    # is e^{-a u} to first order, so mean - a = w/2 - a w^2/12 and the
    # variance is w^2/12, both up to relative O(a^2 w^2)
    w = 1e-6
    a = np.array([-0.4e-6, 0.0, 1.0, 5.0, 9.98])
    many = trunc_gauss_std_many(a, a + w)
    for k, ak in enumerate(a.tolist()):
        logz, mean, var, mma, mmb = trunc_gauss_std(ak, ak + w)
        assert (logz, mean, var, mma, mmb) == tuple(x[k] for x in many)
        wk = (ak + w) - ak
        assert var == pytest.approx(wk * wk / 12.0, rel=1e-9)
        assert mma == pytest.approx(0.5 * wk - ak * wk * wk / 12.0, rel=1e-9)


def test_laplace_positivity_looks_up_the_scalar_kernel_at_call_time(monkeypatch):
    # the tracer wraps factors.trunc_gauss_std; a kernel bound at import time
    # would hide the scalar calls from it
    calls = []
    kernel = factors.trunc_gauss_std
    monkeypatch.setattr(factors, "trunc_gauss_std", lambda a, b: calls.append((a, b)) or kernel(a, b))
    moments_laplace_positivity(LaplacePositivityFactor(2.0, 0.5, 0.0), 0.3, 1.0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Gaussian factor closed form
# ---------------------------------------------------------------------------

def test_gaussian_factor_symmetric_case():
    tm = GaussianFactor1D(0.0, 1.0).moments(0.0, 1.0)
    assert tm.mean == pytest.approx(0.0, abs=0.0)
    assert tm.var == pytest.approx(0.5, rel=1e-14)
    assert tm.logZ == pytest.approx(-0.5 * math.log(2 * math.pi * 2.0), rel=1e-14)


def test_gaussian_factor_shifted():
    tm = GaussianFactor1D(2.0, 1.0).moments(0.0, 1.0)
    assert tm.mean == pytest.approx(1.0, rel=1e-14)
    assert tm.var == pytest.approx(0.5, rel=1e-14)


def test_gaussian_factor_vs_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mt, vt = rng.normal(), rng.uniform(0.2, 3.0)
        m, v = rng.normal(), rng.uniform(0.2, 3.0)
        got = GaussianFactor1D(mt, vt).moments(m, v)
        ora = moments_quadrature(GaussianFactor1D(mt, vt), m, v)
        assert rel(got.mean, ora.mean, scale=1e-12) <= 1e-10
        assert rel(got.var, ora.var) <= 1e-10


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_quadrature_constant_factor():
    f = LaplacePositivityFactor(lam=0.0, sigma_bg=0.0, floor=-math.inf)
    tm = moments_quadrature(f, 1.3, 0.49)
    assert abs(tm.logZ) <= 1e-12
    assert rel(tm.mean, 1.3) <= 1e-12
    assert rel(tm.var, 0.49) <= 1e-12


def test_quadrature_half_normal_closed_form():
    f = LaplacePositivityFactor(lam=0.0, sigma_bg=0.0, floor=0.0)
    tm = moments_quadrature(f, 0.0, 1.0)
    assert tm.mean == pytest.approx(math.sqrt(2 / math.pi), rel=1e-11)
    assert tm.var == pytest.approx(1 - 2 / math.pi, rel=1e-10)
    assert tm.logZ == pytest.approx(math.log(0.5), rel=1e-11)


def test_cross_oracle_grid():
    # semi-analytic vs quadrature across the documented parameter grid
    v = 1.0
    sd = math.sqrt(v)
    bg = 0.7
    for lam in (1e-2, 1.0, 1e2):
        for dm in (-5.0 * sd, 0.0, 5.0 * sd):
            for floor in (-math.inf, bg - 5.0 * sd, bg):
                f = LaplacePositivityFactor(lam=lam, sigma_bg=bg, floor=floor)
                m = bg + dm
                got = moments_laplace_positivity(f, m, v)
                ora = moments_quadrature(f, m, v)
                assert rel(got.mean, ora.mean, scale=sd) <= 1e-9, (lam, dm, floor)
                assert rel(got.var, ora.var) <= 1e-9, (lam, dm, floor)


# ---------------------------------------------------------------------------
# differential and structural properties
# ---------------------------------------------------------------------------

def _fd_identity_check(f, m, v):
    sd = math.sqrt(v)
    step = 1e-4 * sd
    lz = lambda x: moments_laplace_positivity(f, x, v).logZ
    d1 = (lz(m + step) - lz(m - step)) / (2 * step)
    d2 = (lz(m + step) - 2 * lz(m) + lz(m - step)) / step**2
    tm = moments_laplace_positivity(f, m, v)
    assert rel(tm.mean, v * d1 + m, scale=sd) <= 1e-4
    assert rel(tm.var, v * v * d2 + v) <= 1e-4


def test_tilted_moment_differential_identity():
    # mean(m) = v dlogZ/dm + m and var(m) = v^2 d2logZ/dm2 + v
    cases = [
        (LaplacePositivityFactor(1.0, 0.0, 0.0), 0.5, 1.0),
        (LaplacePositivityFactor(2.0, 0.3, -1.0), -0.2, 0.5),
        (LaplacePositivityFactor(0.5, -0.4, -math.inf), 1.0, 2.0),
        (LaplacePositivityFactor(10.0, 0.0, 0.0), 0.1, 0.04),
    ]
    for f, m, v in cases:
        _fd_identity_check(f, m, v)


def test_variance_positive_and_contractive_on_grid():
    # log-concave factor: 0 < var <= v everywhere on the grid
    rng = np.random.default_rng(2024)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 2)
        bg = rng.normal()
        floor = bg - abs(rng.normal()) if rng.random() < 0.5 else -math.inf
        v = 10.0 ** rng.uniform(-2, 2)
        m = bg + rng.normal() * math.sqrt(v) * 3
        f = LaplacePositivityFactor(lam, bg, floor)
        tm = moments_laplace_positivity(f, m, v)
        assert 0.0 < tm.var <= v * (1 + 1e-12)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _laplace_factors():
    # floors 1e-16 to 10 below bg, one ulp below it, or none
    def build(lam, bg, below):
        if below is None:
            floor = -math.inf
        elif below == "ulp":
            floor = float(np.nextafter(bg, -math.inf))
        else:
            floor = bg - below
        return LaplacePositivityFactor(lam, bg, floor)

    below = st.one_of(st.none(), st.just("ulp"), _log_uniform(-16, 1))
    return st.builds(build, _log_uniform(-3, 3), st.floats(-2.0, 2.0), below)


@settings(max_examples=300, deadline=None)
@given(
    _laplace_factors(),
    st.lists(st.tuples(st.floats(-40.0, 40.0), _log_uniform(-10, 4)), min_size=1, max_size=8),
)
def test_laplace_moment_kernels_contract_and_agree_property(f, cavities):
    # cavity means within 40 sd of bg on either side, variances 1e-10 to 1e4
    v = np.array([vk for _, vk in cavities])
    m = np.array([f.sigma_bg + t * math.sqrt(vk) for t, vk in cavities])
    many = f.moments_many(m, v)
    for k in range(len(m)):
        try:
            tm = moments_laplace_positivity(f, float(m[k]), float(v[k]))
        except DegenerateSupport:
            assert k in many.errors
            continue
        assert k not in many.errors
        # log-concave factor: the tilted variance never exceeds the cavity's
        if math.isfinite(tm.var):
            assert tm.var <= np.nextafter(v[k], math.inf)
        sd = math.sqrt(tm.var)
        assert rel(many.logZ[k], tm.logZ, 1.0) <= 1e-12
        assert rel(many.mean[k], tm.mean, sd) <= 1e-12
        assert rel(many.var[k], tm.var) <= 1e-12


def test_quadrature_not_converged_on_oscillatory_factor():
    from epinverse import FactorFamily, QuadratureNotConverged

    class Oscillatory(FactorFamily):
        def moments(self, m, v):
            raise NotImplementedError

        def log_density(self, s):
            s = np.asarray(s, dtype=float)
            return np.log(2.0 + np.sin(3e6 * s))

    with pytest.raises(QuadratureNotConverged):
        moments_quadrature(Oscillatory(), 0.0, 1.0)


def test_quadrature_refuses_a_tilted_mass_that_keeps_its_window_growing():
    from epinverse import FactorFamily, QuadratureNotConverged

    class Flattening(FactorFamily):
        # cancels the N(0, 1) cavity: the tilted integrand is flat, never integrable
        def moments(self, m, v):
            raise NotImplementedError

        def log_density(self, s):
            s = np.asarray(s, dtype=float)
            return 0.5 * s * s

    with pytest.raises(QuadratureNotConverged, match="widenings"):
        moments_quadrature(Flattening(), 0.0, 1.0)


def test_flat_moments_negative_tilt_and_divergence():
    from scipy.integrate import quad

    f = LaplacePositivityFactor(lam=1.5, sigma_bg=0.2, floor=-2.0)
    # c = lam + eta < 0: mass piles toward the floor
    eta = -2.5
    flat = f.moments_flat(eta)
    dens = lambda s: math.exp(eta * s - f.lam * abs(s - f.sigma_bg))
    hi = f.sigma_bg + 60.0 / (f.lam - eta)
    z, _ = quad(dens, f.floor, hi, points=[f.sigma_bg], limit=200)
    m1, _ = quad(lambda s: s * dens(s), f.floor, hi, points=[f.sigma_bg], limit=200)
    m2, _ = quad(lambda s: (s - m1 / z) ** 2 * dens(s), f.floor, hi, points=[f.sigma_bg], limit=200)
    assert rel(flat.mean, m1 / z, scale=1e-12) <= 1e-9
    assert rel(flat.var, m2 / z) <= 1e-9

    # pure indicator with no tilt: infinite mass on the flat cavity
    from epinverse import DegenerateSupport

    g = LaplacePositivityFactor(lam=0.0, sigma_bg=0.0, floor=0.0)
    with pytest.raises(DegenerateSupport):
        g.moments_flat(0.0)
    # negative tilt restores integrability
    tm = g.moments_flat(-2.0)
    assert tm.mean == pytest.approx(0.5, rel=1e-12)
    assert tm.var == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# array kernels against the scalar ones
# ---------------------------------------------------------------------------

def test_trunc_std_many_matches_scalar_on_every_branch():
    # whole line, one-sided (core and Mills, plain and mirrored), two-sided
    # (core and far tail, plain and mirrored), and narrow intervals
    bounds = [-math.inf, -300.0, -40.0, -12.0, -10.0, -3.0, -0.5, 0.0, 1e-9, 0.5, 3.0,
              9.999, 10.0, 10.5, 12.0, 40.0, 40.001, 300.0, math.inf]
    pairs = [(a, b) for a in bounds for b in bounds if a < b]
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    many = trunc_gauss_std_many(a, b)
    for k, (ak, bk) in enumerate(pairs):
        ref = trunc_gauss_std(ak, bk)
        for name, want, got in zip(("logZ", "mean", "var", "mean-a", "mean-b"), ref, many):
            if math.isinf(want):
                assert got[k] == want, (ak, bk, name)
            else:
                assert rel(got[k], want, scale=1e-300) <= 1e-12, (ak, bk, name, got[k], want)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_trunc_std_many_broadcasts_an_infinite_bound(side):
    x = np.array([-300.0, -12.0, -3.0, 0.0, 0.5, 9.999, 10.5, 40.0, 300.0])
    a, b = (-math.inf, x) if side == "lower" else (x, math.inf)
    many = trunc_gauss_std_many(a, b)
    for k, xk in enumerate(x.tolist()):
        ref = trunc_gauss_std(*((-math.inf, xk) if side == "lower" else (xk, math.inf)))
        for want, got in zip(ref, many):
            assert got[k] == want or rel(got[k], want, scale=1e-300) <= 1e-12, (xk, got[k], want)


def test_trunc_std_many_rejects_an_empty_interval():
    with pytest.raises(ValueError, match="empty"):
        trunc_gauss_std_many(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


LAPLACE_REGIMES = {
    # name: (lam, bg, floor, v, cavity means, scalar tail kernel the grid reaches)
    "core": (1.0, 0.0, -1.0, 1.0, np.linspace(-3.0, 3.0, 13), None),
    "mills_tail": (1.0, 0.0, 0.0, 1.0, np.array([-9.5, -12.0, -20.0, -30.0]), "_mills_tail"),
    "far_tail_two_sided": (1.0, 0.0, -1.0, 1.0, np.array([-12.0, -25.0, -35.0]), "_far_tail_two_sided"),
    "mirrored_far_tail": (30.0, 0.0, -1.0, 1.0, np.array([-2.0, 0.0, 0.5, 3.0]), "_far_tail_two_sided"),
    "mirrored_mills_tail": (30.0, 0.0, -math.inf, 1.0, np.array([-5.0, 0.0, 5.0, 15.0]), "_mills_tail"),
    "mirrored_core": (1.0, 0.0, -1.0, 1.0, np.array([0.0, 0.2, 0.6]), None),
    "no_floor": (2.0, 0.5, -math.inf, 0.3, np.linspace(-4.0, 4.0, 9), None),
    "floor_at_bg": (2.0, 0.5, 0.5, 0.3, np.linspace(-4.0, 4.0, 9), None),
    "floor_above_bg": (2.0, 0.5, 1.5, 0.3, np.linspace(-4.0, 4.0, 9), None),
    "lam_zero": (0.0, 0.5, 0.0, 2.0, np.linspace(-4.0, 4.0, 9), None),
    "lam_zero_no_floor": (0.0, 0.5, -math.inf, 2.0, np.linspace(-4.0, 4.0, 9), None),
    "degenerate": (1.0, 0.0, 60.0, 1.0, np.array([0.0, 20.0, 30.0, 61.0]), None),
}


@pytest.mark.parametrize("regime", LAPLACE_REGIMES)
def test_laplace_moments_many_matches_scalar(regime, monkeypatch):
    lam, bg, floor, v, means, tail_kernel = LAPLACE_REGIMES[regime]
    f = LaplacePositivityFactor(lam, bg, floor)
    sd = math.sqrt(v)
    many = f.moments_many(means, np.full(len(means), v))
    if tail_kernel is not None:
        calls = []
        kernel = getattr(factors, tail_kernel)
        monkeypatch.setattr(factors, tail_kernel, lambda *a: calls.append(a) or kernel(*a))
    degenerate = []
    for k, m in enumerate(means.tolist()):
        try:
            tm = f.moments(m, v)
        except DegenerateSupport as exc:
            degenerate.append(k)
            assert str(many.errors[k]) == str(exc)
            assert np.isnan([many.logZ[k], many.mean[k], many.var[k]]).all()
            continue
        assert rel(many.mean[k], tm.mean, scale=sd) <= 1e-10, (m, many.mean[k], tm.mean)
        assert rel(many.var[k], tm.var) <= 1e-10, (m, many.var[k], tm.var)
        assert rel(many.logZ[k], tm.logZ, scale=1.0) <= 1e-10, (m, many.logZ[k], tm.logZ)
    assert sorted(many.errors) == degenerate
    assert (regime == "degenerate") == bool(degenerate) and len(degenerate) < len(means)
    if tail_kernel is not None:
        assert calls, f"the grid does not reach {tail_kernel}"


def test_laplace_moments_many_criterion_4_grid_vs_quadrature():
    # the criterion-4 grid, one array call per factor
    bg = 0.7
    worst, count = 0.0, 0
    dm_svs = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    for lam_sv in (1e-2, 1.0, 10.0, 1e2, 1e3):
        for floor_kind in ("none", "far", "near", "at_bg"):
            for v in (0.25, 4.0):
                sd = math.sqrt(v)
                floor = {"none": -math.inf, "far": bg - 5.0 * sd, "near": bg - 0.5 * sd, "at_bg": bg}[floor_kind]
                f = LaplacePositivityFactor(lam_sv / sd, bg, floor)
                ms = bg + dm_svs * sd
                many = f.moments_many(ms, np.full(len(ms), v))
                assert not many.errors
                for k, m in enumerate(ms.tolist()):
                    ora = moments_quadrature(f, m, v)
                    worst = max(worst, rel(many.mean[k], ora.mean, scale=sd), rel(many.var[k], ora.var))
                    count += 1
    assert count == 200
    assert worst <= 1e-9


class _FlakyGaussian(GaussianFactor1D):
    """Has no reachable mass for cavity means above 10."""

    def moments(self, m, v):
        if m > 10.0:
            raise DegenerateSupport(f"mean {m} out of reach")
        return super().moments(m, v)


def test_default_moments_many_loops_the_scalar_kernel():
    f = _FlakyGaussian(0.3, 0.7)
    ms, vs = np.array([-1.0, 11.0, 0.5]), np.array([0.5, 1.0, 2.0])
    many = f.moments_many(ms, vs)
    assert list(many.errors) == [1] and str(many.errors[1]) == "mean 11.0 out of reach"
    assert np.isnan([many.logZ[1], many.mean[1], many.var[1]]).all()
    for k in (0, 2):
        tm = f.moments(ms[k], vs[k])
        assert (many.logZ[k], many.mean[k], many.var[k]) == (tm.logZ, tm.mean, tm.var)
