"""Serial and parallel-sweep expectation propagation for posteriors of
projection type  t0(x) * prod_i t_i(u_i^T x).

Every site acts on one projection row u_i and carries scalar natural
parameters (tau_i, nu_i), held as the site's K_i (1 x 1) and h_i (1,).  A
run reads the sites once into a SiteSet, which holds tau and nu as arrays,
and writes them back when it ends.  Inside a run the global Gaussian
approximation is held in moment form, as one covariance work buffer Sigma
and its mean mu.

A serial sweep visits the sites in turn: with z = Sigma u the cavity reads
the marginal u^T z, u^T mu, and a site refresh is one in-place rank-one
(Sherman-Morrison) update of Sigma plus an update of mu along z.  A parallel
sweep refits every site from the start-of-sweep state in array form: one
read of the marginals (diag Sigma and mu at the sites' coordinates when every
row is a unit vector, else the stacked-row products), one moment call per
factor family and one vectorized site update.

After every sweep of either mode the global is assembled afresh from the
site parameters in natural form, K = K0 + U^T diag(tau) U, and inverted
once; that snapshot feeds the histories and resets the work buffer, so
rounding drift is bounded by one sweep.  Cavities are formed in natural
parameters so that exactly-flat cavities (decoupled factors) stay well
defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from . import chol
from .errors import (
    CavityInvalid,
    DegenerateSupport,
    DowndateFailed,
    GlobalNotPD,
    NotPositiveDefinite,
)
from .factors import FactorFamily, TiltedMoments
from .gaussians import MomentGaussian, NaturalGaussian, moment_from_natural

# |cavity precision| below this fraction of the marginal precision is treated
# as exactly flat; below the negative of it, the cavity is invalid.
CAVITY_RTOL = 1e-12

# Up to this many unknowns a run keeps every sweep's full covariance and the
# CLI writes cov.csv; above it only the diagonals are kept.
FULL_COV_MAX_N = 1000

# The first mode is the CLI's default; the engine's default is serial.
SWEEP_MODES = ("parallel", "serial")
DOWNDATE_POLICIES = ("skip_site", "abort")


@dataclass
class Site:
    """One factor approximation on the projection u^T x: the row U (1 x n)
    and natural parameters K_i (1 x 1) and h_i (1,), initialized to
    K_i = 1, h_i = 0.  The site keeps its own copies of all three; run_ep
    writes its parameters into K_i and h_i in place when it ends.

    Raises
    ------
    ValueError
        If U is not a single row.
    """

    U: np.ndarray
    family: FactorFamily
    K_i: np.ndarray | None = None
    h_i: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.U = np.array(self.U, dtype=float, ndmin=2)
        if self.U.ndim != 2 or self.U.shape[0] != 1:
            raise ValueError(f"a site acts on one projection row, got U of shape {self.U.shape}")
        self.K_i = np.eye(1) if self.K_i is None else np.array(self.K_i, dtype=float, ndmin=2)
        self.h_i = np.zeros(1) if self.h_i is None else np.array(self.h_i, dtype=float, ndmin=1)


@dataclass(frozen=True)
class CavityResult:
    """Cavity in natural parameters: eta = mu_hat / v_hat and
    prec = 1 / v_hat.  A vanishing precision (flat cavity) is legal and is
    stored as exactly zero."""

    eta: float
    prec: float
    is_flat: bool


@dataclass
class EPOptions:
    max_sweeps: int = 50
    site_tol: float = 1e-4
    sweep_mode: str = "serial"  # or "parallel"
    on_downdate_failure: str = "skip_site"  # or "abort"

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.site_tol <= 0.0:
            raise ValueError("site_tol must be > 0")
        if self.sweep_mode not in SWEEP_MODES:
            raise ValueError(f"sweep_mode must be one of {SWEEP_MODES}")
        if self.on_downdate_failure not in DOWNDATE_POLICIES:
            raise ValueError(f"on_downdate_failure must be one of {DOWNDATE_POLICIES}")


@dataclass(frozen=True)
class SweepMetrics:
    sweep: int
    max_site_change: float


@dataclass(frozen=True)
class SkippedSite:
    sweep: int
    index: int
    reason: str


@dataclass
class EPResult:
    mean: np.ndarray
    cov: np.ndarray
    sweeps_used: int
    converged: bool
    metrics: list[SweepMetrics]
    skipped_sites: list[SkippedSite]
    mean_history: list[np.ndarray]
    cov_history: list[np.ndarray]  # per-sweep C (n <= FULL_COV_MAX_N) or diagonals


class SiteSet:
    """The sites of one EP run in array form: the stacked m x n rows ``U``,
    and ``coords``, the coordinate of each row when every row is a unit
    vector (else None); ``groups`` are the sites grouped by (equal)
    ``family``, and ``tau`` and ``nu`` the site parameters."""

    def __init__(self, sites: list[Site], n: int) -> None:
        self.U = np.array([s.U[0] for s in sites]).reshape(len(sites), n)
        self.coords = _coordinates(self.U)
        self.family = [s.family for s in sites]
        self.tau = np.array([s.K_i[0, 0] for s in sites], dtype=float)
        self.nu = np.array([s.h_i[0] for s in sites], dtype=float)
        groups: dict = {}
        for i, f in enumerate(self.family):
            try:
                entry = groups.setdefault(f, (f, []))
            except TypeError:  # an unhashable family is grouped by identity
                entry = groups.setdefault(id(f), (f, []))
            entry[1].append(i)
        self.groups = [(f, np.array(idx)) for f, idx in groups.values()]


def _coordinates(U: np.ndarray) -> np.ndarray | None:
    """The coordinate each row picks out when every row of U is a unit
    vector, else None."""
    nonzero = U != 0.0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    c = np.argmax(nonzero, axis=1)
    return c if np.all(U[np.arange(len(c)), c] == 1.0) else None


def assemble_global(base: NaturalGaussian, sites: SiteSet) -> NaturalGaussian:
    """K = K0 + U^T diag(tau) U and h = h0 + U^T nu, freshly factored.

    Raises
    ------
    GlobalNotPD
        If K is not positive definite.
    """
    if sites.coords is not None:
        # K0 + diag(tau) without the n^3 product; add.at sums repeated coordinates
        K, h = base.K.copy(), base.h.copy()
        np.add.at(K, (sites.coords, sites.coords), sites.tau)
        np.add.at(h, sites.coords, sites.nu)
    else:
        K = sites.U.T @ (sites.tau[:, None] * sites.U)
        K += base.K
        h = base.h + sites.U.T @ sites.nu
    K = 0.5 * (K + K.T)
    try:
        factor = chol.cholesky(K)
    except NotPositiveDefinite as exc:
        raise GlobalNotPD(str(exc)) from exc
    return NaturalGaussian(h, K, factor)


def cavity(work: MomentGaussian, sites: SiteSet, i: int) -> CavityResult:
    """Cavity natural parameters for site i against the moment-form work
    state (mu, Sigma).

    The marginal of u^T x has variance v = u^T Sigma u and mean u^T mu; the
    cavity precision is 1/v - tau_i and the cavity shift is (u^T mu)/v - nu_i.

    Raises
    ------
    CavityInvalid
        If the marginal variance is not positive, or the cavity precision is
        negative beyond roundoff.
    """
    u = sites.U[i]
    v, m = float(u @ (work.C @ u)), float(u @ work.mu)
    if not v > 0.0:
        raise _variance_not_positive(v)
    # formed as (1/sd)^2, as update_site forms the tilted precision
    inv_sd = 1.0 / math.sqrt(v)
    marg_prec = inv_sd * inv_sd
    prec = marg_prec - float(sites.tau[i])
    eta = marg_prec * m - float(sites.nu[i])
    tol = CAVITY_RTOL * marg_prec
    if prec < -tol:
        raise _negative_cavity(prec)
    is_flat = abs(prec) <= tol
    return CavityResult(eta, 0.0 if is_flat else prec, is_flat)


def _variance_not_positive(v: float) -> CavityInvalid:
    return CavityInvalid(f"marginal variance {v:.3e} is not positive")


def _negative_cavity(prec: float) -> CavityInvalid:
    return CavityInvalid(f"cavity precision is {prec:.3e}")


def site_moments(family: FactorFamily, cav: CavityResult) -> TiltedMoments:
    """Tilted moments of a site's factor family against its cavity."""
    if cav.is_flat:
        return family.moments_flat(cav.eta)
    v_hat = 1.0 / cav.prec
    return family.moments(cav.eta * v_hat, v_hat)


def update_site(s, cav: CavityResult, tm: TiltedMoments) -> tuple[float, float]:
    """Moment-matched site parameters (tau_i, nu_i): tau_i = 1/var - 1/v_hat
    and nu_i = mean/var - mu_hat/v_hat.  The sign of tau_i may be negative;
    that is resolved at the global refresh.  ``s`` names the site (run_ep
    passes its index) and is not read: the refit depends only on the cavity
    and the tilted moments.

    Raises
    ------
    NotPositiveDefinite
        If the tilted variance is not positive and finite.
    """
    var = float(tm.var)
    if not 0.0 < var < math.inf:
        raise _tilted_variance_not_pd(var)
    inv_sd = 1.0 / math.sqrt(var)  # rounds as in cavity
    prec_new = inv_sd * inv_sd
    return prec_new - cav.prec, prec_new * float(tm.mean) - cav.eta


def _tilted_variance_not_pd(var: float) -> NotPositiveDefinite:
    return NotPositiveDefinite(f"tilted variance {var:.3e} is not positive and finite")


def refresh_global(
    work: MomentGaussian,
    sites: SiteSet,
    i: int,
    old: tuple[float, float],
    new: tuple[float, float],
) -> None:
    """Move the moment-form work state (mu, Sigma) from the old to the new
    parameters (tau_i, nu_i) of site i, in place.

    With z = Sigma u, v = u^T z, m = u^T mu and the deltas dK, dh of the site
    parameters, Sherman-Morrison gives

        Sigma <- Sigma - dK / (1 + dK v) z z^T
        mu    <- mu + z (dh - dK m) / (1 + dK v),

    the first applied as one BLAS rank-one update of Sigma's own buffer
    (MomentGaussian keeps it C-contiguous, so its transpose is the Fortran
    array BLAS updates in place).  1 + dK v is the ratio of the new to the
    old determinant of the precision.

    Raises
    ------
    DowndateFailed
        If 1 + dK v <= chol.PIVOT_RTOL, i.e. the downdate would lose positive
        definiteness; the work state is then untouched (caller recovers).
    """
    dK = float(new[0] - old[0])
    dh = float(new[1] - old[1])
    if dK == 0.0 and dh == 0.0:
        return
    u = sites.U[i]
    z = work.C @ u
    v, m = float(u @ z), float(u @ work.mu)
    denom = 1.0 + dK * v
    if denom <= chol.PIVOT_RTOL:
        raise DowndateFailed(f"downdate loses positive definiteness: 1 + dK v = {denom:.3e}")
    step = (dh - dK * m) / denom
    if dK != 0.0:
        dger(-dK / denom, z, z, a=work.C.T, overwrite_a=1)
    work.mu += step * z


def project_moments(
    mu: np.ndarray,
    C: np.ndarray,
    U: np.ndarray,
    sbar: np.ndarray,
    Cbar: np.ndarray,
) -> MomentGaussian:
    """Lift tilted moments (sbar, Cbar) on s = U x to full-space moments:

        mu* = mu + C U^T (U C U^T)^{-1} (sbar - U mu)
        C*  = C + C U^T (U C U^T)^{-1} (Cbar - U C U^T) (U C U^T)^{-1} U C
    """
    mu = np.asarray(mu, dtype=float)
    C = np.asarray(C, dtype=float)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    sbar = np.atleast_1d(np.asarray(sbar, dtype=float))
    Cbar = np.atleast_2d(np.asarray(Cbar, dtype=float))
    M = U @ C @ U.T
    G = np.linalg.solve(M, U @ C).T  # C U^T M^{-1}
    mu_star = mu + G @ (sbar - U @ mu)
    C_star = C + G @ (Cbar - M) @ G.T
    return MomentGaussian(mu_star, 0.5 * (C_star + C_star.T))


def _serial_sweep(
    work: MomentGaussian, sites: SiteSet, on_downdate_failure: str
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Refit the sites in turn, refreshing the work state after each.  The
    SiteSet keeps its start-of-sweep parameters: a cavity reads only its own
    site's.  Returns the refit (tau, nu) and the skipped sites' errors."""
    tau, nu = sites.tau.copy(), sites.nu.copy()
    errors: dict[int, Exception] = {}
    for i in range(tau.size):
        try:
            cav = cavity(work, sites, i)
            new = update_site(i, cav, site_moments(sites.family[i], cav))
            refresh_global(work, sites, i, (sites.tau[i], sites.nu[i]), new)
        except (CavityInvalid, DegenerateSupport, NotPositiveDefinite, DowndateFailed) as exc:
            if isinstance(exc, DowndateFailed) and on_downdate_failure == "abort":
                raise
            errors[i] = exc
            continue
        tau[i], nu[i] = new
    return tau, nu, errors


def _parallel_sweep(work: MomentGaussian, sites: SiteSet) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Refit every site from the work state in array form, with the rules of
    cavity, site_moments and update_site applied elementwise.  Returns the
    refit (tau, nu) and the skipped sites' errors."""
    if sites.coords is not None:
        v = np.diagonal(work.C)[sites.coords]
        m = work.mu[sites.coords]
    else:
        v = np.sum(sites.U @ work.C * sites.U, axis=1)
        m = sites.U @ work.mu
    errors: dict[int, Exception] = {}

    # cavities: invalid, flat or proper, as in cavity()
    valid = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_sd = 1.0 / np.sqrt(np.where(valid, v, 1.0))
        marg_prec = inv_sd * inv_sd
        prec = marg_prec - sites.tau
        eta = marg_prec * m - sites.nu
        tol = CAVITY_RTOL * marg_prec
        negative = valid & (prec < -tol)
        flat = valid & ~negative & (np.abs(prec) <= tol)
    proper = valid & ~negative & ~flat
    for i in np.flatnonzero(~valid).tolist():
        errors[i] = _variance_not_positive(float(v[i]))
    for i in np.flatnonzero(negative).tolist():
        errors[i] = _negative_cavity(float(prec[i]))
    cav_prec = np.where(flat, 0.0, prec)

    # tilted moments: flat cavities one by one, the rest one call per family
    mean = np.full(v.size, np.nan)
    var = np.full(v.size, np.nan)
    for i in np.flatnonzero(flat).tolist():
        try:
            tm = sites.family[i].moments_flat(float(eta[i]))
        except DegenerateSupport as exc:
            errors[i] = exc
            continue
        mean[i], var[i] = tm.mean, tm.var
    for family, idx in sites.groups:
        sel = idx[proper[idx]]
        if sel.size:
            v_hat = 1.0 / prec[sel]
            tm = family.moments_many(eta[sel] * v_hat, v_hat)
            mean[sel], var[sel] = tm.mean, tm.var
            for k, exc in tm.errors.items():
                errors[int(sel[k])] = exc

    # site update, as in update_site
    fitted = flat | proper
    fitted[list(errors)] = False
    bad = fitted & ~((var > 0.0) & (var < math.inf))
    for i in np.flatnonzero(bad).tolist():
        errors[i] = _tilted_variance_not_pd(float(var[i]))
    fit = np.flatnonzero(fitted & ~bad)
    inv_sd = 1.0 / np.sqrt(var[fit])  # rounds as in cavity
    prec_new = inv_sd * inv_sd
    tau, nu = sites.tau.copy(), sites.nu.copy()
    tau[fit] = prec_new - cav_prec[fit]
    nu[fit] = prec_new * mean[fit] - eta[fit]
    return tau, nu, errors


def run_ep(base: NaturalGaussian, sites: list[Site], opts: EPOptions | None = None) -> EPResult:
    """Sweep all sites until their parameters stop moving.

    Each sweep refits every site from its cavity.  Serial mode refreshes the
    moment-form work state after every site; parallel mode computes every
    refit from the start-of-sweep state, in array form.  Either mode then
    reassembles the global from the refit parameters and inverts it once;
    that snapshot is the sweep's history entry and the next sweep's work
    state.  A sweep converges when no refit site moved by ``site_tol`` or
    more and no site was skipped.  The sweeps read a SiteSet built on entry;
    its parameters are written into the sites when the run returns or raises
    (callers wanting a cold start should pass fresh sites).

    Raises
    ------
    GlobalNotPD
        If the assembled precision is not positive definite; the sites then
        hold the parameters that were assembled.
    DowndateFailed
        Under ``on_downdate_failure="abort"``; the sites then keep their
        start-of-sweep parameters.
    """
    opts = opts or EPOptions()
    site_set = SiteSet(sites, base.n)
    try:
        snap = moment_from_natural(assemble_global(base, site_set))
        keep_full_cov = snap.n <= FULL_COV_MAX_N
        mean_history = [snap.mu]
        cov_history = [snap.C if keep_full_cov else np.diag(snap.C).copy()]
        # the work state: one buffer for the whole run, reset from every snapshot
        work = MomentGaussian(snap.mu.copy(), snap.C.copy())
        metrics: list[SweepMetrics] = []
        skipped: list[SkippedSite] = []
        converged = False

        for sweep in range(1, opts.max_sweeps + 1):
            if opts.sweep_mode == "serial":
                tau, nu, errors = _serial_sweep(work, site_set, opts.on_downdate_failure)
            else:
                tau, nu, errors = _parallel_sweep(work, site_set)
            skipped += [SkippedSite(sweep, i, f"{type(errors[i]).__name__}: {errors[i]}") for i in sorted(errors)]
            old_tau, old_nu = site_set.tau, site_set.nu
            change = np.hypot(tau - old_tau, nu - old_nu) / np.maximum(np.hypot(old_tau, old_nu), 1e-12)
            change[list(errors)] = 0.0  # skipped sites kept their parameters
            max_change = float(np.max(change, initial=0.0))
            site_set.tau, site_set.nu = tau, nu

            snap = moment_from_natural(assemble_global(base, site_set))
            np.copyto(work.mu, snap.mu)
            np.copyto(work.C, snap.C)
            mean_history.append(snap.mu)
            cov_history.append(snap.C if keep_full_cov else np.diag(snap.C).copy())
            metrics.append(SweepMetrics(sweep, max_change))
            # a sweep that skipped a site did not refit it: no convergence
            if max_change < opts.site_tol and not errors:
                converged = True
                break
    finally:
        for s, K_i, h_i in zip(sites, site_set.tau.tolist(), site_set.nu.tolist()):
            s.K_i[0, 0] = K_i
            s.h_i[0] = h_i

    return EPResult(
        mean=snap.mu,
        cov=snap.C,
        sweeps_used=len(metrics),
        converged=converged,
        metrics=metrics,
        skipped_sites=skipped,
        mean_history=mean_history,
        cov_history=cov_history,
    )
