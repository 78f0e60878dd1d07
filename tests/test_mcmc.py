import dataclasses
import math

import numpy as np
import pytest

from epinverse import mcmc
from epinverse.errors import AdaptFailed
from epinverse.factors import LaplacePositivityFactor
from epinverse.mcmc import (
    ChainConfig,
    ChainSummary,
    LaplacePositivityPrior,
    Posterior,
    adapt_proposal,
    brooks_gelman,
    log_posterior,
    mh_chain,
    multi_chain_report,
    overdispersed_inits,
    run_chains,
)


def gaussian_log_post(mu, prec):
    def lp(x):
        d = x - mu
        return float(-0.5 * d @ prec @ d)

    return lp


# ---------------------------------------------------------------------------
# log_posterior
# ---------------------------------------------------------------------------

def test_log_posterior_floor_violation():
    prior = LaplacePositivityPrior(lam=1.0, bg=0.0, floor=0.5)
    lp = log_posterior(np.array([0.4, 1.0]), lambda s: s, np.zeros(2), 1.0, prior)
    assert lp == -math.inf


def test_log_posterior_zero_at_background_fit():
    prior = LaplacePositivityPrior(lam=2.0, bg=1.0, floor=0.0)
    sigma = np.array([1.0, 1.0])
    data = sigma.copy()
    assert log_posterior(sigma, lambda s: s, data, 3.0, prior) == 0.0


def test_log_posterior_recomputation():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 3))
    prior = LaplacePositivityPrior(lam=0.7, bg=0.2, floor=-10.0)
    data = rng.standard_normal(5)
    for _ in range(10):
        s = rng.standard_normal(3)
        got = log_posterior(s, lambda x: A @ x, data, 2.5, prior)
        want = -1.25 * np.sum((A @ s - data) ** 2) - 0.7 * np.sum(np.abs(s - 0.2))
        assert got == pytest.approx(want, rel=1e-12)


def _loop_log_posterior(sigma, forward_fn, data, alpha, prior):
    """The log posterior as first written (np.any floor test, np.sum), kept as
    the reference the lean one must equal bit for bit."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < prior.floor):
        return -math.inf
    r = forward_fn(sigma) - data
    return float(-0.5 * alpha * (r @ r) - prior.lam * np.sum(np.abs(sigma - prior.sigma_bg)))


def test_log_posterior_admits_sigma_at_the_floor():
    prior = LaplacePositivityPrior(lam=1.0, bg=0.0, floor=0.5)
    lp = log_posterior(np.array([0.5, 1.0]), lambda s: s, np.zeros(2), 1.0, prior)
    assert lp == -0.5 * 1.25 - 1.5


def test_log_posterior_rejects_one_ulp_below_the_floor():
    prior = LaplacePositivityPrior(lam=1.0, bg=0.0, floor=0.5)
    sigma = np.array([1.0, np.nextafter(0.5, -math.inf), 2.0])
    assert log_posterior(sigma, lambda s: s, np.zeros(3), 1.0, prior) == -math.inf


def test_log_posterior_minus_inf_floor_equals_a_floor_far_below():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 3))
    data = rng.standard_normal(4)
    open_prior = LaplacePositivityPrior(lam=0.7, bg=0.1, floor=-math.inf)
    far_prior = LaplacePositivityPrior(lam=0.7, bg=0.1, floor=-1e300)
    for _ in range(20):
        s = 5.0 * rng.standard_normal(3)
        a = log_posterior(s, lambda x: A @ x, data, 2.0, open_prior)
        b = log_posterior(s, lambda x: A @ x, data, 2.0, far_prior)
        assert a == b and math.isfinite(a)


def test_log_posterior_nan_entry():
    prior = LaplacePositivityPrior(lam=1.0, bg=0.0, floor=0.0)
    # a NaN entry is not below the floor: the value is NaN
    assert math.isnan(log_posterior(np.array([np.nan, 1.0]), lambda s: s, np.zeros(2), 1.0, prior))
    # another entry below the floor still rejects, as np.any(sigma < floor) does
    assert log_posterior(np.array([np.nan, -1.0]), lambda s: s, np.zeros(2), 1.0, prior) == -math.inf


def test_mh_chain_never_accepts_a_nan_log_posterior():
    # proposals with a positive entry reach log_posterior with a NaN entry
    prior = LaplacePositivityPrior(lam=0.5, bg=0.0, floor=-10.0)
    post = Posterior(lambda s: s, np.full(2, -1.0), 1.0, prior)

    def lp(s):
        return post(np.where(s > 0.0, np.nan, s))

    cfg = ChainConfig(steps=5000, burn_in=0, thin=1, proposal_std=1.0, seed=4)
    out, samples = mh_chain(cfg, np.full(2, -1.0), lp, store_samples=True)
    assert 0.0 < out.acceptance_rate < 1.0
    assert samples.max() <= 0.0


def test_prior_is_the_ep_factor():
    prior = LaplacePositivityPrior(lam=2.0, bg=0.5, floor=0.0)
    assert type(prior) is LaplacePositivityFactor
    assert prior == LaplacePositivityFactor(2.0, 0.5, 0.0)


def test_prior_refuses_an_array_background():
    # one scalar background per coordinate, as EP's factor fits it
    with pytest.raises(TypeError):
        LaplacePositivityPrior(lam=2.0, bg=np.array([0.0, 0.5, 1.0]), floor=0.0)


@pytest.mark.parametrize("floor", [0.0, 0.3, -math.inf])
def test_log_posterior_prior_term_is_the_factor_log_density(floor):
    # the MH density and the quadrature oracle read the prior through
    # different formulas: with a zero residual they agree within roundoff,
    # -inf below the floor included
    rng = np.random.default_rng(5)
    prior = LaplacePositivityFactor(2.0, 0.2, floor)
    below = 0
    for _ in range(200):
        s = 0.3 + 0.4 * rng.standard_normal(12)
        got = log_posterior(s, lambda x: np.zeros(3), np.zeros(3), 400.0, prior)
        want = float(prior.log_density(s).sum())
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        below += want == -math.inf
    assert (below > 0) == math.isfinite(floor)


@pytest.mark.parametrize("floor", [0.0, -0.5, -math.inf])
@pytest.mark.parametrize("bg", [0.2])
def test_log_posterior_equals_the_loop_formula_bit_for_bit(floor, bg):
    rng = np.random.default_rng(11)
    n = 12
    A = rng.standard_normal((20, n)) / math.sqrt(20)
    data = rng.standard_normal(20)
    prior = LaplacePositivityPrior(lam=2.0, bg=bg, floor=floor)
    rejected = 0
    for _ in range(200):
        s = 0.3 + 0.4 * rng.standard_normal(n)
        want = _loop_log_posterior(s, lambda x: A @ x, data, 400.0, prior)
        got = log_posterior(s, lambda x: A @ x, data, 400.0, prior)
        assert got == want
        rejected += want == -math.inf
    assert (rejected > 0) == math.isfinite(floor)


def test_chain_config_rejects_no_steps():
    with pytest.raises(ValueError, match="steps"):
        ChainConfig(steps=0, burn_in=-1, thin=1, proposal_std=1.0, seed=0)


def test_chain_config_rejects_negative_burn_in():
    with pytest.raises(ValueError, match="burn_in"):
        ChainConfig(steps=100, burn_in=-1, thin=1, proposal_std=1.0, seed=0)


@pytest.mark.parametrize("std", [0.0, -1.0, math.nan, math.inf, np.array([1.0, 0.0]),
                                 np.array([np.nan, 1.0])])
def test_chain_config_rejects_degenerate_proposal_std(std):
    with pytest.raises(ValueError, match="proposal_std"):
        ChainConfig(steps=100, burn_in=10, thin=1, proposal_std=std, seed=0)


# ---------------------------------------------------------------------------
# mh_chain
# ---------------------------------------------------------------------------

def test_tiny_proposal_acceptance_approaches_one():
    lp = gaussian_log_post(np.zeros(2), np.eye(2))
    cfg = ChainConfig(steps=4000, burn_in=100, thin=1, proposal_std=1e-8, seed=1)
    out = mh_chain(cfg, np.zeros(2), lp)
    assert out.acceptance_rate > 0.999


def test_standard_normal_moments():
    lp = gaussian_log_post(np.zeros(1), np.eye(1))
    cfg = ChainConfig(steps=1_000_000, burn_in=100_000, thin=1, proposal_std=2.4, seed=2)
    out = mh_chain(cfg, np.zeros(1), lp)
    assert abs(out.mean[0]) <= 0.01
    assert abs(out.std[0] - 1.0) <= 0.02


def test_fixed_seed_reproducible():
    lp = gaussian_log_post(np.zeros(2), np.eye(2))
    cfg = ChainConfig(steps=20_000, burn_in=2_000, thin=5, proposal_std=1.0, seed=99)
    a = mh_chain(cfg, np.zeros(2), lp)
    b = mh_chain(cfg, np.zeros(2), lp)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)
    assert a.acceptance_rate == b.acceptance_rate


def test_streaming_equals_batch():
    lp = gaussian_log_post(np.zeros(2), np.eye(2))
    cfg = ChainConfig(steps=30_000, burn_in=5_000, thin=7, proposal_std=1.5, seed=5)
    summary, samples = mh_chain(cfg, np.zeros(2), lp, store_samples=True)
    assert summary.samples_kept == samples.shape[0]
    assert np.linalg.norm(summary.mean - samples.mean(axis=0)) <= 1e-10
    assert np.linalg.norm(summary.var - samples.var(axis=0, ddof=1)) <= 1e-10


def test_rejects_zero_probability_init():
    prior = LaplacePositivityPrior(lam=1.0, bg=0.0, floor=0.0)
    post = Posterior(lambda s: s, np.zeros(1), 1.0, prior)
    cfg = ChainConfig(steps=100, burn_in=10, thin=1, proposal_std=0.5, seed=0)
    with pytest.raises(ValueError):
        mh_chain(cfg, np.array([-1.0]), post)


def test_detailed_balance_three_state_analog():
    # discrete 3-state chain with the same accept rule reaches the target
    target = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(12)
    x = 0
    counts = np.zeros(3)
    steps = 1_000_000
    props = rng.integers(0, 2, size=steps)  # move left/right cyclically
    us = rng.random(steps)
    for k in range(steps):
        prop = (x + (1 if props[k] else -1)) % 3
        if us[k] <= min(1.0, target[prop] / target[x]):
            x = prop
        counts[x] += 1
    emp = counts / steps
    assert np.abs(emp - target).max() <= 1e-2


def _loop_mh_chain(cfg, init, log_post):
    """The chain loop as first written (per-step ``std * noise[j]``, per-step
    numpy comparisons), kept as the reference mh_chain must equal bit for
    bit."""
    x = np.asarray(init, dtype=float).copy()
    n = x.shape[0]
    lp = log_post(x)
    std = np.broadcast_to(np.asarray(cfg.proposal_std, dtype=float), (n,))
    rng = np.random.default_rng(cfg.seed)
    kept = 0
    mean = np.zeros(n)
    m2 = np.zeros(n)
    accepted = 0
    samples = []
    block = 8192
    done = 0
    while done < cfg.steps:
        nb = min(block, cfg.steps - done)
        noise = rng.standard_normal((nb, n))
        logu = np.log(rng.random(nb))
        for j in range(nb):
            prop = x + std * noise[j]
            lp_new = log_post(prop)
            if logu[j] <= lp_new - lp:
                x = prop
                lp = lp_new
                accepted += 1
            step = done + j
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
                kept += 1
                delta = x - mean
                mean += delta / kept
                m2 += delta * (x - mean)
                samples.append(x.copy())
        done += nb
    var = m2 / (kept - 1) if kept > 1 else np.zeros(n)
    summary = ChainSummary(mean=mean, std=np.sqrt(var), acceptance_rate=accepted / cfg.steps,
                           samples_kept=kept, seed=cfg.seed)
    return summary, np.asarray(samples)


def _floored_linear_posterior():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((8, 5)) / math.sqrt(8)
    data = A @ np.full(5, 0.4) + 0.1 * rng.standard_normal(8)
    prior = LaplacePositivityPrior(lam=2.0, bg=0.0, floor=0.0)
    return Posterior(lambda x: A @ x, data, 100.0, prior)


@pytest.mark.parametrize("proposal_std", [0.05, np.linspace(0.02, 0.08, 5)])
@pytest.mark.parametrize("steps, burn_in, thin", [(3000, 300, 1), (20_000, 1_234, 7)])
def test_mh_chain_equals_the_loop_reference_bit_for_bit(proposal_std, steps, burn_in, thin):
    # 20 000 steps cross two noise-block boundaries; the floor makes rejections
    post = _floored_linear_posterior()
    cfg = ChainConfig(steps=steps, burn_in=burn_in, thin=thin, proposal_std=proposal_std, seed=17)
    init = np.full(5, 0.3)
    want, want_samples = _loop_mh_chain(cfg, init, post)
    got, got_samples = mh_chain(cfg, init, post, store_samples=True)
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.std, want.std)
    assert got.acceptance_rate == want.acceptance_rate
    assert 0.0 < got.acceptance_rate < 1.0
    assert got.samples_kept == want.samples_kept
    assert np.array_equal(got_samples, want_samples)
    plain = mh_chain(cfg, init, post)
    assert np.array_equal(plain.mean, got.mean) and np.array_equal(plain.std, got.std)


@pytest.mark.parametrize(
    "steps, burn_in, thin",
    [
        (20_000, 9_000, 7),  # burn-in ends in the second block; 7 does not divide 8192
        (17_000, 8_192, 5),  # burn-in ends on a block boundary
        (4_000, 3_999, 1),  # a pilot: only the last step is kept
        (10_000, 9_999, 1),  # a pilot longer than one block
    ],
)
def test_mh_chain_keep_index_matches_the_loop_reference(steps, burn_in, thin):
    # the first kept step of each block is computed once per block; it must
    # keep the steps that (step - burn_in) % thin == 0 keeps, bit for bit
    post = _floored_linear_posterior()
    cfg = ChainConfig(steps=steps, burn_in=burn_in, thin=thin, proposal_std=0.05, seed=23)
    init = np.full(5, 0.3)
    want, want_samples = _loop_mh_chain(cfg, init, post)
    got, got_samples = mh_chain(cfg, init, post, store_samples=True)
    assert got.samples_kept == want.samples_kept == len(range(burn_in, steps, thin))
    assert np.array_equal(got_samples, want_samples)
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.std, want.std)
    assert got.acceptance_rate == want.acceptance_rate


def test_every_posterior_call_goes_through_the_module_log_posterior(monkeypatch):
    # a tracer wraps mcmc.log_posterior and must see every evaluation a chain makes
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return log_posterior(*args, **kwargs)

    monkeypatch.setattr(mcmc, "log_posterior", counted)
    cfg = ChainConfig(steps=600, burn_in=0, thin=1, proposal_std=0.05, seed=5)
    mh_chain(cfg, np.full(5, 0.3), _floored_linear_posterior())
    assert len(calls) == cfg.steps + 1  # the start, then one per step


def test_pilots_and_chains_run_through_the_module_mh_chain(monkeypatch):
    # a step counter wraps mcmc.mh_chain and must see every pilot and chain
    steps = []

    def counted(cfg, *args, **kwargs):
        steps.append(cfg.steps)
        return mh_chain(cfg, *args, **kwargs)

    monkeypatch.setattr(mcmc, "mh_chain", counted)
    post = _floored_linear_posterior()
    reported = []
    adapt_proposal(post, np.full(5, 0.3), 2.0, pilot_steps=500, seed=2,
                   on_pilot=lambda cfg, summary: reported.append(cfg.steps))
    assert len(reported) > 1 and steps == reported
    cfgs = [ChainConfig(steps=300, burn_in=30, proposal_std=0.05, seed=k) for k in range(2)]
    run_chains(cfgs, [np.full(5, 0.3)] * 2, post)
    assert steps == reported + [300, 300]


# ---------------------------------------------------------------------------
# adapt_proposal
# ---------------------------------------------------------------------------

def test_adapt_proposal_scale_is_the_one_of_burned_in_pilots(monkeypatch):
    # pilots that discard a fifth of their steps, through the loop reference,
    # reach the same scale: the pilots read only the acceptance
    post = _floored_linear_posterior()
    init = np.full(5, 0.3)
    got = adapt_proposal(post, init, 2.0, pilot_steps=1000, seed=2)
    pilots = []

    def burned_in_pilot(cfg, x0, log_post):
        pilots.append(cfg.burn_in)
        old = dataclasses.replace(cfg, burn_in=cfg.steps // 5)
        return _loop_mh_chain(old, x0, log_post)[0]

    monkeypatch.setattr(mcmc, "mh_chain", burned_in_pilot)
    want = adapt_proposal(post, init, 2.0, pilot_steps=1000, seed=2)
    assert got == want
    assert len(pilots) > 3 and set(pilots) == {999}


def test_adapt_proposal_reports_each_pilot():
    post = _floored_linear_posterior()
    init = np.full(5, 0.3)
    pilots = []
    got = adapt_proposal(post, init, 2.0, pilot_steps=1000, seed=2,
                         on_pilot=lambda cfg, summary: pilots.append((cfg, summary)))
    assert got == adapt_proposal(post, init, 2.0, pilot_steps=1000, seed=2)
    assert len(pilots) > 3 and pilots[-1][0].proposal_std == got
    for k, (cfg, summary) in enumerate(pilots):
        assert cfg.steps == 1000 and cfg.seed == 2 * 1000003 + k
        assert summary.acceptance_rate == mh_chain(cfg, init, post).acceptance_rate
    lo, hi = mcmc.ACCEPTANCE_BAND
    assert lo <= pilots[-1][1].acceptance_rate <= hi
    assert not any(lo <= s.acceptance_rate <= hi for _, s in pilots[:-1])


def test_adapt_keeps_in_band_scale():
    lp = gaussian_log_post(np.zeros(1), np.eye(1))
    s0 = 5.0  # sits mid-band for a 1-d standard normal
    s = adapt_proposal(lp, np.zeros(1), s0, pilot_steps=4000, seed=3)
    assert s == s0


def test_adapt_shrinks_oversized_scale():
    lp = gaussian_log_post(np.zeros(2), np.eye(2))
    s = adapt_proposal(lp, np.zeros(2), 500.0, pilot_steps=4000, seed=4)
    cfg = ChainConfig(steps=20_000, burn_in=2_000, thin=1, proposal_std=s, seed=11)
    out = mh_chain(cfg, np.zeros(2), lp)
    assert 0.15 <= out.acceptance_rate <= 0.33  # slack beyond the pilot band


def test_adapt_failure():
    # a posterior flat on the admissible set accepts everything: the band is
    # unreachable no matter the scale
    def lp(x):
        return 0.0

    with pytest.raises(AdaptFailed):
        adapt_proposal(lp, np.zeros(1), 1.0, pilot_steps=500, seed=5, max_pilots=6)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _chains_for(seeds, steps=40_000, mu=None, prec=None, init_scale=3.0):
    mu = np.zeros(2) if mu is None else mu
    prec = np.eye(2) if prec is None else prec
    lp = gaussian_log_post(mu, prec)
    out = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed + 10_000)
        init = mu + init_scale * rng.standard_normal(mu.shape)
        cfg = ChainConfig(steps=steps, burn_in=steps // 5, thin=5, proposal_std=1.7, seed=seed)
        out.append(mh_chain(cfg, init, lp))
    return out


def test_brooks_gelman_identical_chains_exactly_one():
    chains = _chains_for([42, 42])
    rhat = brooks_gelman(chains)
    assert np.all(rhat == 1.0)
    rep = multi_chain_report(chains)
    assert rep.mean_err == 0.0 and rep.std_err == 0.0 and rep.rhat_max == 1.0


def test_brooks_gelman_converged_chains():
    chains = _chains_for(list(range(8)), steps=100_000)
    rhat = brooks_gelman(chains)
    assert rhat.max() < 1.05


def test_brooks_gelman_stuck_chains_diverge():
    # two chains frozen at different points: within-variance ~ 0, between large
    a = ChainSummary(mean=np.array([0.0]), std=np.array([1e-6]), acceptance_rate=0.0,
                     samples_kept=1000, seed=0)
    b = ChainSummary(mean=np.array([5.0]), std=np.array([1e-6]), acceptance_rate=0.0,
                     samples_kept=1000, seed=1)
    rhat = brooks_gelman([a, b])
    assert rhat[0] > 100.0


def test_multi_chain_report_schema():
    chains = _chains_for([1, 2, 3])
    rep = multi_chain_report(chains)
    assert rep.rhat.shape == (2,)
    assert len(rep.acceptance_rates) == 3
    assert rep.grand_mean.shape == (2,)


def test_linear_gaussian_posterior_recovered():
    # MCMC moments match the analytic Gaussian posterior within 3 standard
    # errors of the Monte Carlo estimate
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 2))
    x_true = np.array([0.7, -0.3])
    data = A @ x_true
    alpha = 4.0
    prec = alpha * A.T @ A + np.eye(2)
    mu = np.linalg.solve(prec, alpha * A.T @ data)
    lp = gaussian_log_post(mu, prec)  # equivalent linear-Gaussian posterior

    cfg = ChainConfig(steps=400_000, burn_in=40_000, thin=4, proposal_std=0.9, seed=8)
    out = mh_chain(cfg, mu.copy(), lp)
    cov = np.linalg.inv(prec)
    sd = np.sqrt(np.diag(cov))
    # effective sample size is conservatively ~ kept / 40 at this scale
    ess = out.samples_kept / 40.0
    se = sd / math.sqrt(ess)
    assert np.all(np.abs(out.mean - mu) <= 3.0 * se)
    assert np.all(np.abs(out.std - sd) <= 0.1 * sd)


def test_run_chains_sequential_matches_individual():
    lp = gaussian_log_post(np.zeros(1), np.eye(1))
    cfgs = [ChainConfig(steps=5000, burn_in=500, thin=2, proposal_std=2.0, seed=s) for s in (1, 2)]
    inits = [np.zeros(1), np.ones(1) * 0.5]
    outs = run_chains(cfgs, inits, lp, workers=1)
    solo = [mh_chain(c, x, lp) for c, x in zip(cfgs, inits)]
    for a, b in zip(outs, solo):
        assert np.array_equal(a.mean, b.mean)


def test_overdispersed_inits_respect_floor():
    inits = overdispersed_inits(np.zeros(3), 2.0, 5, seed=9, floor=0.0)
    assert len(inits) == 5
    for x0 in inits:
        assert np.all(x0 >= 0.0)


def identity_forward(x):
    return x


def test_run_chains_parallel_workers():
    prior = LaplacePositivityPrior(lam=0.5, bg=0.0, floor=-10.0)
    post = Posterior(identity_forward, np.zeros(2), 2.0, prior)
    cfgs = [ChainConfig(steps=4000, burn_in=400, thin=2, proposal_std=1.5, seed=s) for s in (3, 4)]
    inits = [np.zeros(2), np.full(2, 0.5)]
    par = run_chains(cfgs, inits, post, workers=2)
    seq = run_chains(cfgs, inits, post, workers=1)
    for a, b in zip(par, seq):
        assert np.array_equal(a.mean, b.mean)
        assert a.acceptance_rate == b.acceptance_rate


def test_run_chains_starts_no_more_workers_than_chains(monkeypatch):
    # a stand-in pool that records its size and runs each chain inline, so
    # no process is started at the large worker count
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    prior = LaplacePositivityPrior(lam=0.5, bg=0.0, floor=-10.0)
    post = Posterior(identity_forward, np.zeros(2), 2.0, prior)
    cfgs = [ChainConfig(steps=400, burn_in=40, thin=2, proposal_std=1.5, seed=s) for s in (3, 4)]
    inits = [np.zeros(2), np.full(2, 0.5)]
    pooled = run_chains(cfgs, inits, post, workers=64)
    assert sizes == [2]
    for a, b in zip(pooled, run_chains(cfgs, inits, post, workers=1)):
        assert np.array_equal(a.mean, b.mean) and a.acceptance_rate == b.acceptance_rate
