"""Random-walk Metropolis-Hastings baseline with multi-chain diagnostics.

Chains accumulate thinned post-burn-in means and variances in a single
streaming pass (no sample storage), are tuned to the 0.234 acceptance target
by a pilot-phase scalar search that is frozen before the measured run, and
are compared across seeds through the potential-scale-reduction statistic.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import AdaptFailed, NonFiniteResult
from .factors import LaplacePositivityFactor

# adapt_proposal tunes the pilot acceptance into this band around 0.234.
ACCEPTANCE_BAND = (0.18, 0.30)
# Chains count as mixed when their largest R-hat is below this bound.
RHAT_MIXED = 1.05


@dataclass
class ChainConfig:
    steps: int
    burn_in: int
    proposal_std: float | np.ndarray
    seed: int
    thin: int = 10

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("burn_in must lie in [0, steps)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        std = np.asarray(self.proposal_std, dtype=float)
        if not np.all(np.isfinite(std) & (std > 0.0)):
            raise ValueError("proposal_std must be finite and > 0")


@dataclass
class ChainSummary:
    mean: np.ndarray
    std: np.ndarray
    acceptance_rate: float
    samples_kept: int
    seed: int

    @property
    def var(self) -> np.ndarray:
        return self.std**2


def LaplacePositivityPrior(lam: float, bg: float, floor: float) -> LaplacePositivityFactor:
    """The MH prior, which is EP's site factor:
    ``LaplacePositivityFactor(lam, bg, floor)``.  The name is kept for the
    callers that build the prior by keyword: the benchmark's ``eit_mcmc``
    workload and acceptance criterion 6."""
    return LaplacePositivityFactor(lam, bg, floor)


# Bound once: each lookup through the np namespace costs about as much as
# the 12-element reduction it names.
_fmin_reduce = np.fmin.reduce
_add_reduce = np.add.reduce
_absolute = np.absolute
_subtract = np.subtract
_dot = np.dot


def log_posterior(sigma: np.ndarray, forward_fn, data: np.ndarray, alpha: float,
                  prior: LaplacePositivityFactor) -> float:
    """-alpha/2 ||F(sigma) - data||^2 - lam ||sigma - sigma_bg||_1 on the
    admissible set, -inf below the floor (encodes rejection).  The prior
    term is ``prior.log_density(sigma).sum()`` up to roundoff.

    sigma is rejected when its smallest non-NaN entry lies below the floor,
    which is ``np.any(sigma < floor)``; a floor of -inf admits every sigma.  A
    NaN entry is not below the floor, so it is not rejected here and the value
    returned is NaN, which the accept test of ``mh_chain`` never passes.
    """
    sigma = np.asarray(sigma, dtype=float)
    # fmin skips NaN where min would return it
    if _fmin_reduce(sigma) < prior.floor:
        return -math.inf
    r = forward_fn(sigma) - data
    # np.dot is the ddot that r @ r calls, with less dispatch around it; the
    # scalar arithmetic is done on Python floats, with the same bits
    return -0.5 * alpha * float(np.dot(r, r)) - prior.lam * float(_add_reduce(_absolute(sigma - prior._bg)))


class Posterior:
    """Picklable log-posterior callable (chains may run in worker processes).

    ``mh_chain`` scores a Posterior's proposals inline, from its parts, with
    ``log_posterior``'s operations; a call goes through ``log_posterior``.
    """

    def __init__(self, forward_fn, data: np.ndarray, alpha: float, prior: LaplacePositivityFactor):
        self.forward_fn = forward_fn
        self.data = np.asarray(data, dtype=float)
        self.alpha = float(alpha)
        self.prior = prior

    def __call__(self, sigma: np.ndarray) -> float:
        return log_posterior(sigma, self.forward_fn, self.data, self.alpha, self.prior)


def mh_chain(cfg: ChainConfig, init: np.ndarray, log_post, store_samples: bool = False):
    """One random-walk chain with a symmetric Gaussian proposal.

    Burn-in is discarded and the thinned mean/variance accumulate in a single
    Welford pass.  Returns a ChainSummary, plus the thinned samples when
    store_samples is set.

    The proposal noise is drawn in blocks of up to 8192 steps, and each block
    is scaled by the proposal std once, in place, when it is drawn.  Each
    block's log uniforms become Python floats once, and the index of the
    block's first kept step is computed once, so a step that is not kept
    does no arithmetic on the step count.

    ``log_post`` is called at ``init``, and at each proposal unless it is a
    ``Posterior``.  A Posterior's proposals are scored in the loop with
    ``log_posterior``'s operations in its order, so a chain has the same bits
    without a Python call per step; a proposal below the floor gets -inf
    without a call of the forward map.  A proposal is accepted when
    log u < lp_new - lp, so a proposal of log posterior -inf never is.

    Raises
    ------
    NonFiniteResult
        If the log posterior at ``init`` is not finite (zero posterior
        probability, or an overflow).
    """
    x = np.asarray(init, dtype=float).copy()
    n = x.shape[0]
    lp = log_post(x)
    if not math.isfinite(lp):
        raise NonFiniteResult(f"initial state has zero posterior probability (log posterior {lp})")
    std = np.broadcast_to(np.asarray(cfg.proposal_std, dtype=float), (n,))
    rng = np.random.default_rng(cfg.seed)
    inline = isinstance(log_post, Posterior)
    if inline:
        fwd, data = log_post.forward_fn, log_post.data
        # -0.5 * alpha * rr is (-0.5 * alpha) * rr: the same bits
        half_alpha = -0.5 * log_post.alpha
        floor, lam, bg = log_post.prior.floor, log_post.prior.lam, log_post.prior._bg
        buf = np.empty(n)

    kept = 0
    mean = np.zeros(n)
    m2 = np.zeros(n)
    accepted = 0
    samples = [] if store_samples else None

    burn_in, thin = cfg.burn_in, cfg.thin
    block = 8192
    done = 0
    while done < cfg.steps:
        nb = min(block, cfg.steps - done)
        noise = rng.standard_normal((nb, n))
        noise *= std
        logu = np.log(rng.random(nb)).tolist()
        # the block's first kept step: step >= burn_in, (step - burn_in) % thin == 0
        keep = burn_in - done if done < burn_in else -(done - burn_in) % thin
        for j, (dx, lu) in enumerate(zip(noise, logu)):
            prop = x + dx
            if not inline:
                lp_new = log_post(prop)
            elif _fmin_reduce(prop) < floor:
                lp_new = -math.inf
            else:
                r = fwd(prop) - data
                _absolute(_subtract(prop, bg, buf), buf)
                lp_new = half_alpha * float(_dot(r, r)) - lam * float(_add_reduce(buf))
            # u < exp(lp_new - lp); strict, so that a uniform of exactly 0.0
            # (log -inf) never moves the chain to a state of log posterior -inf
            if lu < lp_new - lp:
                x = prop
                lp = lp_new
                accepted += 1
            if j == keep:
                keep += thin
                kept += 1
                delta = x - mean
                mean += delta / kept
                m2 += delta * (x - mean)
                if store_samples:
                    samples.append(x.copy())
        done += nb
        # freed before the next block is drawn, so that two blocks are never
        # held at once: 8192 log uniforms as Python floats take about 260 kB
        del noise, logu

    var = m2 / (kept - 1) if kept > 1 else np.zeros(n)
    summary = ChainSummary(
        mean=mean,
        std=np.sqrt(var),
        acceptance_rate=accepted / cfg.steps,
        samples_kept=kept,
        seed=cfg.seed,
    )
    if store_samples:
        return summary, np.asarray(samples)
    return summary


def adapt_proposal(
    log_post,
    init: np.ndarray,
    initial_std: float,
    *,
    pilot_steps: int = 2000,
    seed: int = 0,
    max_pilots: int = 40,
    on_pilot: Callable[[ChainConfig, ChainSummary], None] | None = None,
) -> float:
    """Scalar proposal scale bringing the pilot acceptance into the band
    around 0.234: doubling/halving to bracket, then bisection on log scale.
    The returned scale is frozen for the measured run.  Each pilot chain's
    config and summary go to ``on_pilot(cfg, summary)`` as it ends; the
    config holds its scale and step count.

    Raises
    ------
    AdaptFailed
        If the band is not reached within max_pilots pilot chains.
    """
    lo, hi = ACCEPTANCE_BAND

    def acc(s: float, k: int) -> float:
        # acceptance counts every step: keep only the last, so the pilot
        # makes one moment update instead of one per step
        cfg = ChainConfig(steps=pilot_steps, burn_in=pilot_steps - 1, thin=1,
                          proposal_std=s, seed=seed * 1000003 + k)
        summary = mh_chain(cfg, init, log_post)
        if on_pilot is not None:
            on_pilot(cfg, summary)
        return summary.acceptance_rate

    s = float(initial_std)
    a = acc(s, 0)
    used = 1
    if lo <= a <= hi:
        return s
    # acceptance decreases as the scale grows; bracket the band
    s_small = s_big = None  # scales with acceptance above hi / below lo
    while used < max_pilots:
        if a > hi:
            s_small = s
            s = s * 2.0 if s_big is None else math.sqrt(s * s_big)
        elif a < lo:
            s_big = s
            s = s / 2.0 if s_small is None else math.sqrt(s * s_small)
        a = acc(s, used)
        used += 1
        if lo <= a <= hi:
            return s
    raise AdaptFailed(f"acceptance {a:.3f} outside [{lo}, {hi}] after {max_pilots} pilots")


def run_chains(
    configs: list[ChainConfig],
    inits: list[np.ndarray],
    log_post,
    workers: int = 1,
) -> list[ChainSummary]:
    """Run independent chains, optionally in parallel processes (log_post must
    be picklable then, e.g. a Posterior instance)."""
    if len(configs) != len(inits):
        raise ValueError("one init per chain config required")
    if workers <= 1 or len(configs) == 1:
        return [mh_chain(cfg, x0, log_post) for cfg, x0 in zip(configs, inits)]
    from concurrent.futures import ProcessPoolExecutor  # deferred: only this branch uses it

    # the pool starts all its workers at the first submit: no more than chains
    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        futures = [pool.submit(mh_chain, cfg, x0, log_post) for cfg, x0 in zip(configs, inits)]
        return [f.result() for f in futures]


def brooks_gelman(chains: list[ChainSummary]) -> np.ndarray:
    """Per-component potential scale reduction from chain means and
    within-chain variances:

        W = mean of within-chain variances
        B/n = variance of the chain means (ddof=1)
        Vhat = (n-1)/n W + (1 + 1/M) B/n
        Rhat = sqrt(max(1, Vhat / W))

    The clamp at 1 makes identical chains report exactly 1; diverged chains
    blow up through B.  Requires equal post-burn-in lengths.
    """
    if len(chains) < 2:
        raise ValueError("at least two chains are required")
    lengths = {c.samples_kept for c in chains}
    if len(lengths) != 1:
        raise ValueError("chains have unequal kept-sample counts")
    n = lengths.pop()
    M = len(chains)
    means = np.stack([c.mean for c in chains])
    within = np.stack([c.var for c in chains])
    W = within.mean(axis=0)
    B_over_n = means.var(axis=0, ddof=1)
    Vhat = (n - 1) / n * W + (1.0 + 1.0 / M) * B_over_n
    rhat = np.ones_like(W)
    pos = W > 0.0
    rhat[pos] = np.sqrt(np.maximum(1.0, Vhat[pos] / W[pos]))
    rhat[(~pos) & (B_over_n > 0.0)] = math.inf
    return rhat


@dataclass
class MultiChainReport:
    mean_err: float  # max over chains of ||mean_c - grand mean|| / ||grand mean||
    std_err: float
    rhat: np.ndarray
    rhat_max: float
    grand_mean: np.ndarray
    grand_std: np.ndarray
    acceptance_rates: list[float] = field(default_factory=list)


def multi_chain_report(chains: list[ChainSummary]) -> MultiChainReport:
    """Cross-chain accuracy metrics: maximum relative 2-norm error of each
    chain's mean and std from the cross-chain mean, plus the PSR statistic."""
    if len(chains) < 2:
        raise ValueError("at least two chains are required")
    means = np.stack([c.mean for c in chains])
    stds = np.stack([c.std for c in chains])
    # shifted-origin mean: exactly the first chain when all chains coincide
    grand_mean = means[0] + (means - means[0]).mean(axis=0)
    grand_std = stds[0] + (stds - stds[0]).mean(axis=0)
    mean_err = float(
        max(np.linalg.norm(m - grand_mean) for m in means) / max(np.linalg.norm(grand_mean), 1e-300)
    )
    std_err = float(
        max(np.linalg.norm(s - grand_std) for s in stds) / max(np.linalg.norm(grand_std), 1e-300)
    )
    rhat = brooks_gelman(chains)
    return MultiChainReport(
        mean_err=mean_err,
        std_err=std_err,
        rhat=rhat,
        rhat_max=float(np.max(rhat)),
        grand_mean=grand_mean,
        grand_std=grand_std,
        acceptance_rates=[c.acceptance_rate for c in chains],
    )


def overdispersed_inits(
    center: np.ndarray, scale: np.ndarray | float, n_chains: int, seed: int,
    floor: float = -math.inf,
) -> list[np.ndarray]:
    """Random overdispersed starting points, clipped to the admissible set."""
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    out = []
    for _ in range(n_chains):
        x0 = center + scale * rng.standard_normal(center.shape)
        if math.isfinite(floor):
            x0 = np.maximum(x0, floor)
        out.append(x0)
    return out
