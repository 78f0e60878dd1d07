import math
import tracemalloc

import numpy as np
import pytest

from epinverse import EPOptions, GaussianFactor1D, LaplacePositivityFactor, NonFiniteIterate, Site, nonlinear
from epinverse.nonlinear import (
    ForwardModel,
    LinearModel,
    NonlinearOptions,
    TraceRow,
    _effective_tau,
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
    assert _effective_tau(mu_k, mu_km1, s, np.zeros(2)) == pytest.approx(1.0)
    assert _effective_tau(mu_k, mu_km1, 0.25 * s, np.zeros(2)) == pytest.approx(0.25)


def test_bb_step_clamped():
    mu_k, mu_km1 = np.array([1.0]), np.array([0.0])
    s = mu_k - mu_km1
    # raw > 1 is clamped to 1; raw < 0 takes the BB magnitude min(1, -1/raw)
    assert _effective_tau(mu_k, mu_km1, 3.0 * s, np.zeros(1)) == 1.0
    assert _effective_tau(mu_k, mu_km1, -2.0 * s, np.zeros(1)) == 0.5
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


def test_skipped_sites_cover_every_outer_iteration():
    # site 1's floor puts its tilted mass out of reach in every EP sweep
    rng = np.random.default_rng(4)
    model = LinearModel(rng.standard_normal((5, 2)))
    sites = [
        Site(np.eye(1, 2, 0), LaplacePositivityFactor(1.0, 0.0, -5.0)),
        Site(np.eye(1, 2, 1), LaplacePositivityFactor(1.0, 0.0, floor=60.0)),
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


def _full_rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


@pytest.mark.parametrize("full_cov_max_n", [nonlinear.FULL_COV_MAX_N, 3])
def test_trace_rows_equal_the_rows_of_the_full_snapshots(monkeypatch, full_cov_max_n):
    """The trace streams e_p and keeps packed covariances for e_f; its rows
    are, bit for bit, the rows that every sweep's full snapshot gives: e_p
    against the snapshot before it (the first outer iteration's entry
    snapshot first), e_f against the last; above FULL_COV_MAX_N unknowns
    the rows compare diagonals."""
    monkeypatch.setattr(nonlinear, "FULL_COV_MAX_N", full_cov_max_n)  # 3: the diagonal path
    histories = []
    real_run_ep = nonlinear.run_ep

    def recording_run_ep(base, sites, opts, on_snapshot):
        histories.append([])

        def record(sweep, snap):
            histories[-1].append((sweep, snap.mu, snap.C))
            on_snapshot(sweep, snap)

        return real_run_ep(base, sites, opts, record)

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
    assert res.trace == want


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


def test_each_kept_sweep_costs_about_half_a_covariance():
    """With the inner sweep cap fixed, each sweep more outer iterations keep
    raises the peak by its mean and packed covariance, about half of 8 n^2
    bytes; a full covariance per sweep would be 8 n^2 or more."""
    n, sweeps = 150, 3
    slope = (_traced_peak_bytes(n, 4, sweeps) - _traced_peak_bytes(n, 2, sweeps)) / (2 * sweeps)
    assert slope <= 0.6 * 8 * n * n


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
