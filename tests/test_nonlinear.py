import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from epinverse import (
    EPOptions,
    GaussianFactor1D,
    GlobalNotPD,
    LaplacePositivityFactor,
    NonFiniteIterate,
    Site,
    nonlinear,
)
from epinverse.factors import TiltedMoments
from epinverse.gaussians import MomentGaussian
from epinverse.nonlinear import (
    ForwardModel,
    LinearModel,
    NonlinearOptions,
    TraceRow,
    _effective_tau,
    _inner_site_tol,
    linearize,
    run_nonlinear,
)


def fd_directional(model: ForwardModel, x: np.ndarray, d: np.ndarray, eps: float) -> np.ndarray:
    """Central finite difference of F along direction d."""
    return (model.evaluate(x + eps * d) - model.evaluate(x - eps * d)) / (2.0 * eps)


class ScalarPower(ForwardModel):
    def __init__(self, p):
        self.p = p
        self.m = self.n = 1

    def evaluate(self, x):
        return np.array([float(x[0]) ** self.p])

    def jacobian(self, x):
        return np.array([[self.p * float(x[0]) ** (self.p - 1)]])


# ---------------------------------------------------------------------------
# LinearModel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, n, count", [(20, 12, 4000), (200, 400, 200)])
def test_linear_model_evaluate_is_a_at_x_bit_for_bit(m, n, count):
    # evaluate calls np.dot; on the CLI's linear problems it must give the
    # bits of A @ x, on MH-sized steps around the centre and on wide draws
    from epinverse import cli

    keys = {"problem": "linear", "linear_m": str(m), "linear_n": str(n)}
    model = cli._build_linear_problem(keys, 2025).model
    rng = np.random.default_rng(m + n)
    for scale in (0.01, 1.0, 1e6):
        for x in 0.3 + scale * rng.standard_normal((count, n)):
            assert model.evaluate(x).tobytes() == (model.A @ x).tobytes()


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------

def test_linearize_linear_model_independent_of_point():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 3))
    model = LinearModel(A)
    data = rng.standard_normal(5)
    b1 = linearize(model, np.zeros(3), data, 2.0)
    b2 = linearize(model, rng.standard_normal(3), data, 2.0)
    assert np.allclose(b1.K, 2.0 * A.T @ A, atol=1e-12)
    assert np.allclose(b1.K, b2.K, atol=1e-10)
    assert np.allclose(b1.h, b2.h, atol=1e-10)


def test_linearize_residual_free_point():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    model = LinearModel(A)
    x = rng.standard_normal(4)
    data = model.evaluate(x)
    base = linearize(model, x, data, 1.0)
    mu = np.linalg.solve(base.K, base.h)
    assert np.allclose(mu, x, atol=1e-10)


def test_linearize_scalar_square():
    model = ScalarPower(2)
    base = linearize(model, np.array([2.0]), np.array([4.0]), 1.0)
    assert base.K[0, 0] == pytest.approx(16.0, rel=1e-14)
    assert base.h[0] == pytest.approx(32.0, rel=1e-14)


def test_jacobian_matches_fd():
    model = ScalarPower(3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, size=1)
        d = rng.standard_normal(1)
        fd = fd_directional(model, x, d, 1e-6)
        jd = model.jacobian(x) @ d
        assert np.linalg.norm(fd - jd) / np.linalg.norm(jd) <= 1e-5


# ---------------------------------------------------------------------------
# BB step policy (_effective_tau)
# ---------------------------------------------------------------------------

def test_bb_step_zero_direction_change():
    # raw BB value 0: a zero step would freeze the iterate, so tau = 1
    mu_k, mu_km1 = np.array([1.0, 2.0]), np.array([0.5, 1.5])
    d = np.array([0.3, -0.2])
    assert _effective_tau(mu_k, mu_km1, d, d) == 1.0


def test_bb_step_unit():
    mu_k, mu_km1 = np.array([1.0, 2.0]), np.array([0.5, 1.5])
    s = mu_k - mu_km1
    # raw = 1 and raw = 4: the BB magnitude 1/raw
    assert _effective_tau(mu_k, mu_km1, s, np.zeros(2)) == pytest.approx(1.0)
    assert _effective_tau(mu_k, mu_km1, 4.0 * s, np.zeros(2)) == pytest.approx(0.25)


def test_bb_step_clamped():
    mu_k, mu_km1 = np.array([1.0]), np.array([0.0])
    s = mu_k - mu_km1
    # raw of either sign takes min(1, 1/|raw|)
    assert _effective_tau(mu_k, mu_km1, 3.0 * s, np.zeros(1)) == 1.0 / 3.0
    assert _effective_tau(mu_k, mu_km1, -2.0 * s, np.zeros(1)) == 0.5
    assert _effective_tau(mu_k, mu_km1, 0.5 * s, np.zeros(1)) == 1.0
    assert _effective_tau(mu_k, mu_km1, -0.5 * s, np.zeros(1)) == 1.0


def test_bb_step_coincident_iterates():
    mu = np.array([1.0, 1.0])
    assert _effective_tau(mu, mu.copy(), np.ones(2), np.zeros(2)) == 1.0


# ---------------------------------------------------------------------------
# run_nonlinear
# ---------------------------------------------------------------------------

def test_linear_forward_converges_in_one_outer():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((6, 4))
    model = LinearModel(A)
    x_true = rng.standard_normal(4)
    data = model.evaluate(x_true)
    sites = [
        Site(np.eye(4)[i : i + 1], LaplacePositivityFactor(0.5, 0.0, -10.0))
        for i in range(4)
    ]
    opts = NonlinearOptions(alpha=100.0, max_outer=5, outer_tol=1e-8,
                            inner=EPOptions(max_sweeps=80, site_tol=1e-10))
    res = run_nonlinear(model, data, sites, opts, np.zeros(4))
    # second linearization is identical, so the second outer step moves nowhere
    assert res.converged
    assert res.outer_iters <= 2
    assert all(0.0 <= r.tau <= 1.0 for r in res.outer_records)
    assert res.outer_records[0].tau == 1.0


def _cubic_map_oracle(alpha, prior_mean, prior_var, b):
    """1-d grid search for the MAP of exp(-alpha/2 (x^3-b)^2) N(x; m, v)."""
    grid = np.linspace(0.0, 3.0, 2000001)
    obj = -0.5 * alpha * (grid**3 - b) ** 2 - 0.5 * (grid - prior_mean) ** 2 / prior_var
    return grid[np.argmax(obj)]


def test_scalar_cubic_matches_grid_search_map():
    # with a Gaussian prior the inner EP is exact, so the outer fixed point
    # satisfies the MAP stationarity condition
    model = ScalarPower(3)
    alpha, b = 2.0, 8.0
    prior_mean, prior_var = 1.5, 10.0
    sites = [Site(np.array([[1.0]]), GaussianFactor1D(prior_mean, prior_var))]
    opts = NonlinearOptions(alpha=alpha, max_outer=60, outer_tol=1e-10,
                            inner=EPOptions(max_sweeps=40, site_tol=1e-12))
    res = run_nonlinear(model, b * np.ones(1), sites, opts, np.array([1.2]))
    x_map = _cubic_map_oracle(alpha, prior_mean, prior_var, b)
    assert abs(res.mean[0] - x_map) <= 1e-4
    # residual decreases strictly while the iteration is still moving
    active = [r for r in res.outer_records if r.rel_mean_change > 1e-6]
    resids = [r.residual_norm for r in active]
    assert all(later < earlier for earlier, later in zip(resids, resids[1:]))


def test_floor_projection_invariant():
    model = ScalarPower(3)
    sites = [Site(np.array([[1.0]]), LaplacePositivityFactor(1.0, 1.0, 0.5))]
    opts = NonlinearOptions(alpha=1.0, max_outer=8, outer_tol=1e-6, floor=0.5,
                            inner=EPOptions(max_sweeps=20, site_tol=1e-8))
    res = run_nonlinear(model, np.array([8.0]), sites, opts, np.array([0.6]))
    assert np.all(res.mean >= 0.5)
    assert all(0.0 <= r.tau <= 1.0 for r in res.outer_records)


def test_default_floor_is_minus_inf_and_projects_nothing():
    # the default floor, -inf, leaves a negative posterior mean alone
    assert NonlinearOptions(alpha=1.0).floor == -math.inf
    sites = [Site(np.eye(1, 2, i), GaussianFactor1D(0.0, 100.0)) for i in range(2)]
    res = run_nonlinear(LinearModel(np.eye(2)), np.array([-3.0, 2.0]), sites,
                        NonlinearOptions(alpha=1.0, max_outer=3), np.zeros(2))
    assert res.mean[0] < -2.0 and res.mean[1] > 1.0


@pytest.mark.parametrize("floor", [-math.inf, 0.0])
def test_non_finite_iterate_is_caught_before_the_floor(floor):
    sites = [Site(np.eye(1, 2, i), GaussianFactor1D(0.0, 1.0)) for i in range(2)]
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIterate):
        run_nonlinear(LinearModel(np.eye(2)), np.array([np.inf, 0.0]), sites,
                      NonlinearOptions(alpha=1.0, floor=floor), np.zeros(2))


def test_a_linearization_that_overflows_is_a_non_finite_iterate():
    # F(mu0) and J mu0 overflow to inf, so the base's h is inf - inf
    sites = [Site(np.eye(1, 2, i), GaussianFactor1D(0.0, 1.0)) for i in range(2)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate, match="linearization"):
        run_nonlinear(
            LinearModel(1e200 * np.eye(2)), np.zeros(2), sites, NonlinearOptions(alpha=1.0), np.full(2, 1e200)
        )


@pytest.mark.parametrize("max_outer", [0, -1])
def test_nonlinear_options_reject_fewer_than_one_outer(max_outer):
    with pytest.raises(ValueError, match="max_outer"):
        NonlinearOptions(alpha=1.0, max_outer=max_outer)


@pytest.mark.parametrize("outer_tol", [0.0, -1.0, math.nan])
def test_nonlinear_options_reject_a_non_positive_outer_tol(outer_tol):
    # these ran every outer iteration without a word
    with pytest.raises(ValueError, match="outer_tol"):
        NonlinearOptions(alpha=1.0, outer_tol=outer_tol)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_nonlinear_options_reject_a_non_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        NonlinearOptions(alpha=alpha)


class Widening(GaussianFactor1D):
    """Tilted moments twice as wide as the cavity: a sweep fits the site
    precision -K0 / 2, which leaves K0 / 2 against the base K0 it was fitted
    on, but not against a base less than half as steep."""

    def moments(self, m, v):
        return TiltedMoments(0.0, m, 2.0 * v)


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_global_not_pd_names_the_outer_iteration_and_the_sweep(mode):
    # F(x) = x^2 from x = 1: outer 1 fits tau = -2 against K0 = 4; the warm
    # site meets the flatter base of outer 2 at its entry snapshot
    s = Site(np.ones((1, 1)), Widening(0.0, 1.0))
    opts = NonlinearOptions(alpha=1.0, max_outer=3, outer_tol=1e-300,
                            inner=EPOptions(max_sweeps=2, site_tol=1e-12, sweep_mode=mode))
    with pytest.raises(GlobalNotPD, match=r"^outer iteration 2, sweep 0: maximum diagonal entry is not positive$"):
        run_nonlinear(ScalarPower(2), np.array([0.04]), [s], opts, np.array([1.0]))
    assert s.tau == pytest.approx(-2.0, rel=1e-12)


def test_skipped_sites_cover_every_outer_iteration():
    # site 1's floor overflows its tilted logZ to -inf in every EP sweep
    rng = np.random.default_rng(4)
    model = LinearModel(rng.standard_normal((5, 2)))
    sites = [
        Site(np.eye(1, 2, 0), LaplacePositivityFactor(1.0, 0.0, -5.0)),
        Site(np.eye(1, 2, 1), LaplacePositivityFactor(1.0, 0.0, floor=1e308)),
    ]
    opts = NonlinearOptions(alpha=10.0, max_outer=3, outer_tol=1e-300,
                            inner=EPOptions(max_sweeps=2, site_tol=1e-8))
    res = run_nonlinear(model, rng.standard_normal(5), sites, opts, np.zeros(2))
    assert res.outer_iters == 3
    assert [outer for outer, _ in res.skipped_sites] == [1, 1, 2, 2, 3, 3]
    assert [s.sweep for _, s in res.skipped_sites] == [1, 2] * 3
    assert all(s.index == 1 and s.reason.startswith("DegenerateSupport") for _, s in res.skipped_sites)


def test_trace_rows_are_tagged_by_outer_and_inner():
    model = ScalarPower(3)
    sites = [Site(np.array([[1.0]]), GaussianFactor1D(1.0, 5.0))]
    opts = NonlinearOptions(alpha=1.0, max_outer=4, outer_tol=1e-12,
                            inner=EPOptions(max_sweeps=6, site_tol=1e-12))
    res = run_nonlinear(model, np.array([8.0]), sites, opts, np.array([1.0]))
    assert res.trace
    outers = sorted({row.outer for row in res.trace})
    assert outers[0] == 1 and outers[-1] == res.outer_iters
    last = res.trace[-1]
    assert last.e_f_mu == 0.0 and last.e_f_C == 0.0


def test_inner_site_tol_is_forcing_times_the_last_mean_change_and_bounded():
    eta = nonlinear.FORCING
    assert 0.0 < eta < 1.0
    # outer iteration 1 (no change yet) and a small change get site_tol
    assert _inner_site_tol(1e-4, 0.0) == 1e-4
    assert _inner_site_tol(1e-4, 1e-5) == 1e-4
    assert _inner_site_tol(1e-4, 0.01) == eta * 0.01
    # from mu0 = 0 the first change is about 1e299: the tolerance stays eta
    assert _inner_site_tol(1e-4, 1e299) == _inner_site_tol(1e-4, math.inf) == eta


class Quadratic(ForwardModel):
    """F(x) = A (x + c x^2), mildly nonlinear."""

    def __init__(self, A, c):
        self.A, self.c = A, c
        self.m, self.n = A.shape

    def evaluate(self, x):
        return self.A @ (x + self.c * x * x)

    def jacobian(self, x):
        return self.A * (1.0 + 2.0 * self.c * x)


def _recorded_quadratic_run(monkeypatch):
    """A run whose third outer step passes the outer test on a loosened EP
    run; returns the result, the options and, per run_ep call, (site_tol,
    max_sweeps, sweeps used, converged, last site change)."""
    calls = []
    real_run_ep = nonlinear.run_ep

    def recording_run_ep(base, sites, opts, on_snapshot, start=None):
        r = real_run_ep(base, sites, opts, on_snapshot, start)
        calls.append((opts.site_tol, opts.max_sweeps, r.sweeps_used, r.converged, r.metrics[-1].max_site_change))
        return r

    monkeypatch.setattr(nonlinear, "run_ep", recording_run_ep)
    rng = np.random.default_rng(0)
    n = 4
    model = Quadratic(rng.standard_normal((6, n)), 0.05)
    data = model.evaluate(np.array([0.5, 0.0, 1.0, 0.2])) + 0.01 * rng.standard_normal(6)
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(1.0, 0.0, -2.0)) for i in range(n)]
    opts = NonlinearOptions(alpha=10.0, max_outer=10, outer_tol=1e-3,
                            inner=EPOptions(max_sweeps=40, site_tol=1e-6, sweep_mode="parallel"))
    return run_nonlinear(model, data, sites, opts, np.full(n, 0.3)), opts, calls


def test_each_outer_iteration_after_the_first_stops_at_the_forcing_tolerance(monkeypatch):
    res, opts, calls = _recorded_quadratic_run(monkeypatch)
    site_tol = opts.inner.site_tol
    records = res.outer_records
    assert records[0].site_tol == calls[0][0] == site_tol
    for k in range(1, len(records)):
        assert calls[k][0] == max(site_tol, nonlinear.FORCING * min(records[k - 1].rel_mean_change, 1.0))
    # the first change (from 0.3 to about 1.3) is capped at 1
    assert records[0].rel_mean_change > 1.0 and records[1].site_tol == nonlinear.FORCING


def test_a_step_on_a_loosened_ep_run_does_not_end_the_run(monkeypatch):
    """The third step moves the mean by less than outer_tol, but its EP run
    stopped at the loosened tolerance with sites still moving by more than
    site_tol: the run goes on, finishes that EP run at site_tol and takes
    the step again.  Stopping on the loosened run would report a run
    converged whose last sweep moved a site by 3e-4 against site_tol 1e-6."""
    res, opts, calls = _recorded_quadratic_run(monkeypatch)
    site_tol, max_sweeps = opts.inner.site_tol, opts.inner.max_sweeps
    assert res.converged and res.outer_iters == 3 and len(calls) == 4
    loose_tol, _, loose_sweeps, loose_converged, loose_change = calls[2]
    assert loose_tol > site_tol and loose_converged and loose_change >= site_tol
    # the finishing run: site_tol, within the iteration's sweep cap
    tol, sweeps_left, sweeps, converged, change = calls[3]
    assert tol == site_tol and sweeps_left == max_sweeps - loose_sweeps
    assert converged and change < site_tol
    last = res.outer_records[-1]
    assert last.site_tol == site_tol and last.ep_converged and last.rel_mean_change < opts.outer_tol
    assert last.inner_sweeps == loose_sweeps + sweeps
    # the finishing run starts from the loosened run's last snapshot and
    # makes no entry snapshot; its sweeps number on from the loosened run's
    assert [r.inner for r in res.trace if r.outer == 3] == list(range(1, last.inner_sweeps + 1))
    assert len(res.trace) == sum(r.inner_sweeps for r in res.outer_records)


def test_the_forcing_rule_off_keeps_every_outer_iteration_at_site_tol(monkeypatch):
    monkeypatch.setattr(nonlinear, "FORCING", 0.0)
    res, opts, calls = _recorded_quadratic_run(monkeypatch)
    assert res.converged and len(calls) == res.outer_iters
    assert all(tol == opts.inner.site_tol for tol, *_ in calls)
    assert all(r.site_tol == opts.inner.site_tol for r in res.outer_records)


def _full_rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


@pytest.mark.parametrize("full_cov_max_n", [nonlinear.FULL_COV_MAX_N, 3])
def test_trace_rows_equal_the_rows_of_the_full_snapshots(monkeypatch, full_cov_max_n):
    """The trace streams e_p and keeps each covariance's strict lower
    triangle and diagonal for e_f; its rows are the rows that every sweep's
    full snapshot gives: e_p against the snapshot before it (the first outer
    iteration's entry snapshot first), e_f against the last.  Above
    FULL_COV_MAX_N unknowns the rows compare diagonals, bit for bit; below
    it the C columns sum the same Frobenius norms in another order, so they
    agree to roundoff and the other columns bit for bit."""
    monkeypatch.setattr(nonlinear, "FULL_COV_MAX_N", full_cov_max_n)  # 3: the diagonal path
    monkeypatch.setattr(nonlinear, "FORCING", 0.0)  # every EP run sweeps to its cap
    histories = []
    real_run_ep = nonlinear.run_ep

    def recording_run_ep(base, sites, opts, on_snapshot, start=None):
        histories.append([])

        def record(sweep, snap):
            histories[-1].append((sweep, snap.mu, snap.C))
            on_snapshot(sweep, snap)

        return real_run_ep(base, sites, opts, record, start)

    monkeypatch.setattr(nonlinear, "run_ep", recording_run_ep)
    rng = np.random.default_rng(8)
    n = 6
    model = LinearModel(rng.standard_normal((9, n)))
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n)]
    opts = NonlinearOptions(alpha=10.0, max_outer=3, outer_tol=1e-300,
                            inner=EPOptions(max_sweeps=4, site_tol=1e-300, sweep_mode="parallel"))
    res = run_nonlinear(model, model.evaluate(np.full(n, 0.5)), sites, opts, np.zeros(n))

    assert res.outer_iters == 3 and len(histories) == 3
    assert all([sweep for sweep, *_ in h] == list(range(5)) for h in histories)
    compared = (lambda C: C) if n <= full_cov_max_n else np.diag
    snapshots = [
        (k, sweep, mu, compared(C))
        for k, history in enumerate(histories, 1)
        for sweep, mu, C in history
        if sweep or k == 1
    ]
    *_, mu_fin, C_fin = snapshots[-1]
    want = [
        TraceRow(outer, inner, _full_rel(mu, mu_p), _full_rel(mu, mu_fin), _full_rel(C, C_p), _full_rel(C, C_fin))
        for (*_, mu_p, C_p), (outer, inner, mu, C) in zip(snapshots, snapshots[1:])
    ]
    assert len(want) == sum(r.inner_sweeps for r in res.outer_records) == 12
    if n > full_cov_max_n:
        assert res.trace == want
    else:
        assert [r[:4] for r in map(astuple, res.trace)] == [w[:4] for w in map(astuple, want)]
        got, exact = (np.array([(r.e_p_C, r.e_f_C) for r in rows]) for rows in (res.trace, want))
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0.0)


def _traced_peak_bytes(n: int, max_outer: int, max_sweeps: int) -> int:
    rng = np.random.default_rng(5)
    model = LinearModel(rng.standard_normal((n + 20, n)) / math.sqrt(n))
    data = model.evaluate(np.where(rng.random(n) < 0.1, 1.0, 0.0))
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(2.0, 0.0, -5.0)) for i in range(n)]
    opts = NonlinearOptions(alpha=100.0, max_outer=max_outer, outer_tol=1e-300,
                            inner=EPOptions(max_sweeps=max_sweeps, site_tol=1e-300, sweep_mode="parallel"))
    tracemalloc.start()
    try:
        res = run_nonlinear(model, data, sites, opts, np.zeros(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outer_iters == max_outer
    assert [r.inner_sweeps for r in res.outer_records] == [max_sweeps] * max_outer
    return peak


def test_each_kept_sweep_costs_about_half_a_covariance(monkeypatch):
    """With the inner sweep cap fixed, each sweep more outer iterations keep
    raises the peak by its mean and packed covariance, about half of 8 n^2
    bytes; a full covariance per sweep would be 8 n^2 or more."""
    monkeypatch.setattr(nonlinear, "FORCING", 0.0)  # every EP run sweeps to its cap
    n, sweeps = 150, 3
    slope = (_traced_peak_bytes(n, 4, sweeps) - _traced_peak_bytes(n, 2, sweeps)) / (2 * sweeps)
    assert slope <= 0.6 * 8 * n * n


def test_trace_rows_allocate_less_than_one_covariance():
    """rows() reads each kept sweep through its strict lower triangle and
    diagonal, with no n x n buffer to unpack into and no n x n difference:
    its peak stays below one covariance, 8 n^2 bytes."""
    n, rng = 150, np.random.default_rng(3)
    trace = nonlinear._Trace()
    for sweep in range(5):
        A = rng.standard_normal((n, n))
        trace.add(sweep, MomentGaussian(rng.standard_normal(n), A @ A.T))
    tracemalloc.start()
    try:
        rows = trace.rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.outer, r.inner) for r in rows] == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert peak < 8 * n * n


def test_bb_step_always_clamped_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    vec = st.lists(finite, min_size=1, max_size=5)

    @settings(max_examples=200, deadline=None)
    @given(vec, vec, vec, vec)
    def inner(a, b, c, d):
        n = min(len(a), len(b), len(c), len(d))
        tau = _effective_tau(np.array(a[:n]), np.array(b[:n]), np.array(c[:n]), np.array(d[:n]))
        assert 0.0 < tau <= 1.0

    inner()
