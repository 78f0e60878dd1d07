"""Serial and parallel-sweep expectation propagation for posteriors of
projection type  t0(x) * prod_i t_i(u_i^T x).

Every site acts on one projection row u_i and carries scalar natural
parameters (tau_i, nu_i).  A run reads the sites once into a SiteSet, which
holds tau and nu as arrays, and writes them back when it ends.

The run's one global state is the sweep snapshot: the global assembled afresh
from the site parameters in natural form, K = K0 + U^T diag(tau) U, factored
and inverted once into moment form (mu, Sigma).  _snapshot makes it, on entry
and after every sweep; it goes to the caller's on_snapshot and is the next
sweep's start, so rounding drift is bounded by one sweep.

A parallel sweep refits every site from the snapshot in array form: one read
of the marginals (diag Sigma and mu at the sites' coordinates when every row
is a unit vector, else the stacked-row products), one moment call per factor
family and one vectorized site update.  A serial sweep visits the sites in
turn on its own copy of the snapshot and forms z = Sigma u once per site: the
cavity reads the marginal u^T z, u^T mu, and a site refresh is one in-place
rank-one (Sherman-Morrison) update of Sigma plus an update of mu along z.
Both sweeps share one cavity and one site-update formula.  Cavities are
formed in natural parameters so that exactly-flat cavities (decoupled
factors) stay well defined.
"""

from __future__ import annotations

from collections.abc import Callable
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
from .gaussians import MomentGaussian, NaturalGaussian

# |cavity precision| below this fraction of the marginal precision is treated
# as exactly flat; below the negative of it, the cavity is invalid.
CAVITY_RTOL = 1e-12

# The first mode is the CLI's default; the engine's default is serial.
SWEEP_MODES = ("parallel", "serial")


@dataclass
class Site:
    """One factor approximation on the projection u^T x: the row U (1 x n)
    and the scalar natural parameters tau and nu, initialized to tau = 1,
    nu = 0.  The site keeps its own copy of U; run_ep writes its parameters
    into tau and nu when it ends.

    Raises
    ------
    ValueError
        If U is not a single row.
    """

    U: np.ndarray
    family: FactorFamily
    tau: float = 1.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        self.U = np.array(self.U, dtype=float, ndmin=2)
        if self.U.ndim != 2 or self.U.shape[0] != 1:
            raise ValueError(f"a site acts on one projection row, got U of shape {self.U.shape}")


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

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.site_tol <= 0.0:
            raise ValueError("site_tol must be > 0")
        if self.sweep_mode not in SWEEP_MODES:
            raise ValueError(f"sweep_mode must be one of {SWEEP_MODES}")


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


class SiteSet:
    """The sites of one EP run in array form: ``coords``, the coordinate of
    each row when every row is a unit vector (else None), and the stacked
    m x n rows ``U``, made only when something reads them: with general
    rows, or with ``stack_rows`` (the serial sweep reads its rows from U).
    ``groups`` are the sites grouped by (equal) ``family``, and ``tau`` and
    ``nu`` the site parameters."""

    def __init__(self, sites: list[Site], n: int, stack_rows: bool = True) -> None:
        rows = [s.U[0] for s in sites]
        self.coords = _coordinates(rows)
        self.U = np.array(rows).reshape(len(sites), n) if stack_rows or self.coords is None else None
        self.family = [s.family for s in sites]
        self.tau = np.array([s.tau for s in sites], dtype=float)
        self.nu = np.array([s.nu for s in sites], dtype=float)
        groups: dict = {}
        for i, f in enumerate(self.family):
            try:
                entry = groups.setdefault(f, (f, []))
            except TypeError:  # an unhashable family is grouped by identity
                entry = groups.setdefault(id(f), (f, []))
            entry[1].append(i)
        self.groups = [(f, np.array(idx)) for f, idx in groups.values()]


# _coordinates reads this many rows at a time, so that it stacks no m x n array
_COORD_BLOCK = 256


def _coordinates(rows: list[np.ndarray]) -> np.ndarray | None:
    """The coordinate each row picks out when every row is a unit vector,
    else None."""
    coords = [np.zeros(0, dtype=np.intp)]
    for k in range(0, len(rows), _COORD_BLOCK):
        U = np.array(rows[k:k + _COORD_BLOCK])
        nonzero = U != 0.0
        if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
            return None
        c = np.argmax(nonzero, axis=1)
        if not np.all(U[np.arange(len(c)), c] == 1.0):
            return None
        coords.append(c)
    return np.concatenate(coords)


def assemble_global(base: NaturalGaussian, sites: SiteSet) -> NaturalGaussian:
    """K = K0 + U^T diag(tau) U and h = h0 + U^T nu.

    With general rows the sum is symmetrized as 0.5 (K + K^T).  With
    coordinate rows only the diagonal changes, so K0 must already be exactly
    symmetric (run_ep makes sure of it once on entry) and K is returned as
    summed: the same bits as symmetrizing the sum.
    """
    if sites.coords is not None:
        # K0 + diag(tau) without the n^3 product; add.at sums repeated coordinates
        K, h = base.K.copy(), base.h.copy()
        np.add.at(K, (sites.coords, sites.coords), sites.tau)
        np.add.at(h, sites.coords, sites.nu)
        return NaturalGaussian(h, K)
    K = sites.U.T @ (sites.tau[:, None] * sites.U)
    K += base.K
    h = base.h + sites.U.T @ sites.nu
    return NaturalGaussian(h, 0.5 * (K + K.T))


def _snapshot(base: NaturalGaussian, sites: SiteSet) -> MomentGaussian:
    """The global in moment form: assembled from the site parameters,
    factored, solved and inverted.

    The factor and the inverse are made in the assembled K's own buffer.  K
    is bitwise symmetric (assemble_global), so its transpose, the Fortran
    array LAPACK works on in place, is the same matrix: the bits are those
    of moment_from_natural, with two n x n arrays fewer (a copy of K to
    factor and a copy of L to invert).

    Raises
    ------
    GlobalNotPD
        If the assembled precision is not positive definite.
    """
    g = assemble_global(base, sites)
    try:
        F = chol.cholesky(g.K.T, overwrite=True)
        return MomentGaussian(chol.solve(F, g.h), chol.inverse(F, overwrite=True))
    except NotPositiveDefinite as exc:
        raise GlobalNotPD(str(exc)) from exc


def _cavity_rule(v, m, tau, nu):
    """(prec, eta) = (1/v - tau, m/v - nu) and the roundoff tolerance on prec,
    for floats and arrays; 1/v is formed as (1/sd)^2, as in _site_rule."""
    inv_sd = 1.0 / np.sqrt(v)
    marg_prec = inv_sd * inv_sd
    return marg_prec - tau, marg_prec * m - nu, CAVITY_RTOL * marg_prec


def cavity(v, m, tau, nu) -> CavityResult:
    """Cavity natural parameters of a site (tau, nu) against the marginal of
    its projection u^T x, with variance v = u^T Sigma u and mean m = u^T mu.

    Raises
    ------
    CavityInvalid
        If the marginal variance is not positive, or the cavity precision is
        negative beyond roundoff.
    """
    if not v > 0.0:
        raise _variance_not_positive(v)
    prec, eta, tol = _cavity_rule(v, m, tau, nu)
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


def _site_rule(var, mean, prec, eta):
    """(tau, nu) = (1/var - prec, mean/var - eta), for floats and arrays;
    1/var is formed as (1/sd)^2, as in _cavity_rule."""
    inv_sd = 1.0 / np.sqrt(var)
    prec_new = inv_sd * inv_sd
    return prec_new - prec, prec_new * mean - eta


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
    if not 0.0 < var < np.inf:
        raise _tilted_variance_not_pd(var)
    return _site_rule(var, float(tm.mean), cav.prec, cav.eta)


def _tilted_variance_not_pd(var: float) -> NotPositiveDefinite:
    return NotPositiveDefinite(f"tilted variance {var:.3e} is not positive and finite")


def refresh_global(state: MomentGaussian, z: np.ndarray, v, m, dK, dh) -> None:
    """Move the moment-form global (mu, Sigma) in place by the change (dK, dh)
    of one site's parameters (tau, nu).

    With z = Sigma u, v = u^T z and m = u^T mu for the site's row u, read
    before the change, Sherman-Morrison gives

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
        definiteness; the state is then untouched (caller recovers).
    """
    if dK == 0.0 and dh == 0.0:
        return
    denom = 1.0 + dK * v
    if denom <= chol.PIVOT_RTOL:
        raise DowndateFailed(f"downdate loses positive definiteness: 1 + dK v = {denom:.3e}")
    step = (dh - dK * m) / denom
    if dK != 0.0:
        dger(-dK / denom, z, z, a=state.C.T, overwrite_a=1)
    state.mu += step * z


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


def _serial_sweep(snap: MomentGaussian, sites: SiteSet) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Refit the sites in turn, refreshing a copy of the snapshot after each;
    the snapshot itself is not touched.  The SiteSet keeps its start-of-sweep
    parameters: a cavity reads only its own site's.  Each site's marginal is
    read here, once.  Returns the refit (tau, nu) and the skipped sites' errors."""
    state = MomentGaussian(snap.mu.copy(), snap.C.copy())
    tau, nu = sites.tau.copy(), sites.nu.copy()
    errors: dict[int, Exception] = {}
    for i in range(tau.size):
        u = sites.U[i]
        z = state.C @ u
        v, m = u @ z, u @ state.mu
        try:
            cav = cavity(v, m, sites.tau[i], sites.nu[i])
            new = update_site(i, cav, site_moments(sites.family[i], cav))
            refresh_global(state, z, v, m, new[0] - sites.tau[i], new[1] - sites.nu[i])
        except (CavityInvalid, DegenerateSupport, NotPositiveDefinite, DowndateFailed) as exc:
            errors[i] = exc
            continue
        tau[i], nu[i] = new
    return tau, nu, errors


def _parallel_sweep(snap: MomentGaussian, sites: SiteSet) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Refit every site from the snapshot in array form, with the rules of
    cavity, site_moments and update_site applied elementwise.  Returns the
    refit (tau, nu) and the skipped sites' errors."""
    if sites.coords is not None:
        v = np.diagonal(snap.C)[sites.coords]
        m = snap.mu[sites.coords]
    else:
        v = np.sum(sites.U @ snap.C * sites.U, axis=1)
        m = sites.U @ snap.mu
    errors: dict[int, Exception] = {}

    # cavities: invalid, flat or proper, as in cavity()
    valid = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prec, eta, tol = _cavity_rule(np.where(valid, v, 1.0), m, sites.tau, sites.nu)
    negative = valid & (prec < -tol)
    flat = valid & (np.abs(prec) <= tol)
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
    bad = fitted & ~((var > 0.0) & (var < np.inf))
    for i in np.flatnonzero(bad).tolist():
        errors[i] = _tilted_variance_not_pd(float(var[i]))
    fit = np.flatnonzero(fitted & ~bad)
    tau, nu = sites.tau.copy(), sites.nu.copy()
    tau[fit], nu[fit] = _site_rule(var[fit], mean[fit], cav_prec[fit], eta[fit])
    return tau, nu, errors


def run_ep(base: NaturalGaussian, sites: list[Site], opts: EPOptions | None = None,
           on_snapshot: Callable[[int, MomentGaussian], None] | None = None) -> EPResult:
    """Sweep all sites until their parameters stop moving.

    Each sweep refits every site from its cavity against the snapshot of
    the previous sweep.  Serial mode refreshes its own copy of the snapshot
    after every site; parallel mode computes every refit from the snapshot
    itself, in array form.  Either mode then makes the next snapshot from
    the refit parameters (_snapshot) and hands it, unchanged thereafter, to
    ``on_snapshot(sweep, snap)``, the entry snapshot as sweep 0; the run
    keeps no history.  A site whose cavity, moments or (serial) downdate
    fails is skipped: it keeps its parameters and is listed in
    ``skipped_sites``.  A sweep converges when no refit site moved by
    ``site_tol`` or more and no site was skipped.  The sweeps read a SiteSet
    built on entry; its parameters are written into the sites when the run
    returns or raises (callers wanting a cold start should pass fresh
    sites).  With coordinate sites and a base K0 not equal to its
    transpose, the run works on a copy of the base whose K is 0.5 (K0 +
    K0^T); the caller's base is not changed.

    Raises
    ------
    GlobalNotPD
        If the assembled precision is not positive definite; the sites then
        hold the parameters that were assembled.
    """
    opts = opts or EPOptions()
    on_snapshot = on_snapshot or (lambda sweep, snap: None)
    site_set = SiteSet(sites, base.n, stack_rows=opts.sweep_mode == "serial")
    if site_set.coords is not None and not np.array_equal(base.K, base.K.T):
        # assemble_global's coordinate path adds only to the diagonal: it
        # needs the base exactly symmetric, made so once per run; an equal
        # transpose gives 0.5 (K0 + K0^T) its own bits, so no copy then
        base = NaturalGaussian(base.h, 0.5 * (base.K + base.K.T))
    try:
        snap = _snapshot(base, site_set)
        on_snapshot(0, snap)
        metrics: list[SweepMetrics] = []
        skipped: list[SkippedSite] = []
        converged = False

        for sweep in range(1, opts.max_sweeps + 1):
            if opts.sweep_mode == "serial":
                tau, nu, errors = _serial_sweep(snap, site_set)
            else:
                tau, nu, errors = _parallel_sweep(snap, site_set)
            skipped += [SkippedSite(sweep, i, f"{type(errors[i]).__name__}: {errors[i]}") for i in sorted(errors)]
            old_tau, old_nu = site_set.tau, site_set.nu
            change = np.hypot(tau - old_tau, nu - old_nu) / np.maximum(np.hypot(old_tau, old_nu), 1e-12)
            change[list(errors)] = 0.0  # skipped sites kept their parameters
            max_change = float(np.max(change, initial=0.0))
            site_set.tau, site_set.nu = tau, nu

            snap = _snapshot(base, site_set)
            on_snapshot(sweep, snap)
            metrics.append(SweepMetrics(sweep, max_change))
            # a sweep that skipped a site did not refit it: no convergence
            if max_change < opts.site_tol and not errors:
                converged = True
                break
    finally:
        for s, tau_i, nu_i in zip(sites, site_set.tau.tolist(), site_set.nu.tolist()):
            s.tau, s.nu = tau_i, nu_i

    return EPResult(
        mean=snap.mu,
        cov=snap.C,
        sweeps_used=len(metrics),
        converged=converged,
        metrics=metrics,
        skipped_sites=skipped,
    )
