"""Serial (and parallel-sweep) expectation propagation for posteriors of
projection type  t0(x) * prod_i t_i(u_i^T x).

Every site acts on one projection row u_i and carries scalar natural
parameters (h_i, K_i).  The global Gaussian approximation is held as its
shift h and a Cholesky factor L of its precision; a site refresh is one
rank-one up/downdate of L plus an additive update of h, and the dense
precision is only formed when the global is assembled from scratch.
Cavities are formed in natural parameters so that exactly-flat cavities
(decoupled factors) stay well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

SWEEP_MODES = ("serial", "parallel")
DOWNDATE_POLICIES = ("skip_site", "abort")


@dataclass
class Site:
    """One factor approximation on the projection u^T x: the row U (1 x n)
    and natural parameters K_i (1 x 1) and h_i (1,), initialized to
    K_i = 1, h_i = 0.  The site keeps its own copies of all three.

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
    """Cavity in natural parameters: eta = mu_hat / v_hat (shape (1,)) and
    prec = 1 / v_hat (shape (1, 1)).  A vanishing precision (flat cavity) is
    legal and is stored as exactly zero."""

    eta: np.ndarray
    prec: np.ndarray
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


def assemble_global(base: NaturalGaussian, sites: list[Site]) -> NaturalGaussian:
    """K = K0 + sum U_i^T K_i U_i, h = h0 + sum U_i^T h_i, freshly factored."""
    K = base.K.copy()
    h = base.h.copy()
    for s in sites:
        K += s.U.T @ s.K_i @ s.U
        h += s.U.T @ s.h_i
    K = 0.5 * (K + K.T)
    try:
        factor = chol.cholesky(K)
    except NotPositiveDefinite as exc:
        raise GlobalNotPD(str(exc)) from exc
    return NaturalGaussian(h, K, factor)


def cavity(global_: NaturalGaussian, s: Site) -> CavityResult:
    """Cavity natural parameters for one site.

    With w = L^{-1} u and y = L^{-1} h against the maintained factor, the
    marginal of u^T x has variance v = w.w and mean w.y; the cavity precision
    is 1/v - K_i and the cavity shift is (w.y)/v - h_i.

    Raises
    ------
    CavityInvalid
        If the marginal variance is not positive, or the cavity precision is
        negative beyond roundoff.
    """
    F = global_.ensure_factor()
    w = chol.solve_lower(F, s.U[0])
    y = chol.solve_lower(F, global_.h)
    v = float(w @ w)
    if not v > 0.0:
        raise CavityInvalid(f"marginal variance {v:.3e} is not positive")
    # (1/sd)^2 rounds exactly as chol.inverse does on a 1x1 matrix, so the
    # scalar algebra reproduces the matrix form bit for bit
    inv_sd = 1.0 / math.sqrt(v)
    marg_prec = inv_sd * inv_sd
    prec = marg_prec - float(s.K_i[0, 0])
    eta = marg_prec * float(w @ y) - float(s.h_i[0])
    tol = CAVITY_RTOL * marg_prec
    if prec < -tol:
        raise CavityInvalid(f"cavity precision is {prec:.3e}")
    is_flat = abs(prec) <= tol
    return CavityResult(np.array([eta]), np.array([[0.0 if is_flat else prec]]), is_flat)


def site_moments(s: Site, cav: CavityResult) -> TiltedMoments:
    """Tilted moments of the site's factor against its cavity."""
    if cav.is_flat:
        return s.family.moments_flat(float(cav.eta[0]))
    v_hat = 1.0 / float(cav.prec[0, 0])
    m_hat = float(cav.eta[0]) * v_hat
    return s.family.moments(m_hat, v_hat)


def update_site(s: Site, cav: CavityResult, tm: TiltedMoments) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched site parameters: K_i = 1/var - 1/v_hat and
    h_i = mean/var - mu_hat/v_hat.  The sign of K_i may be negative; that is
    resolved at the global refresh.

    Raises
    ------
    NotPositiveDefinite
        If the tilted variance is not positive and finite.
    """
    var = float(tm.var)
    if not 0.0 < var < math.inf:
        raise NotPositiveDefinite(f"tilted variance {var:.3e} is not positive and finite")
    inv_sd = 1.0 / math.sqrt(var)  # rounds as in cavity
    prec_new = inv_sd * inv_sd
    return prec_new - cav.prec, prec_new * float(tm.mean) - cav.eta


def refresh_global(
    global_: NaturalGaussian,
    s: Site,
    old: tuple[np.ndarray, np.ndarray],
    new: tuple[np.ndarray, np.ndarray],
) -> NaturalGaussian:
    """Move the global approximation from the old to the new site parameters.

    The precision delta dK u u^T enters the maintained Cholesky factor as one
    rank-one up/downdate, the shift delta dh u enters h additively; the dense
    precision is not carried.  Pure: returns a new global, never touching the
    input.

    Raises
    ------
    DowndateFailed
        If a downdate would lose positive definiteness (caller recovers).
    """
    dK = float(new[0][0, 0] - old[0][0, 0])
    dh = float(new[1][0] - old[1][0])
    if dK == 0.0 and dh == 0.0:
        return global_
    F = global_.ensure_factor()
    u = s.U[0]
    if dK != 0.0:
        F = chol.rank1_update(F, u * math.sqrt(abs(dK)), 1 if dK > 0.0 else -1)
    return NaturalGaussian(global_.h + dh * u, None, F)


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


def _rel_change(s: Site, new: tuple[np.ndarray, np.ndarray]) -> float:
    K, h = float(s.K_i[0, 0]), float(s.h_i[0])
    num = math.hypot(float(new[0][0, 0]) - K, float(new[1][0]) - h)
    return num / max(math.hypot(K, h), 1e-12)


def run_ep(base: NaturalGaussian, sites: list[Site], opts: EPOptions | None = None) -> EPResult:
    """Sweep all sites until their parameters stop moving.

    Each sweep refits every site from its cavity.  Serial mode refreshes the
    global approximation after every site; parallel mode computes every
    refit from the same global and reassembles once.  Refits are written to
    the sites at the end of the sweep, which is exact in serial mode too:
    a cavity reads only its own site's parameters.  Sites are updated in
    place (callers wanting a cold start should pass fresh sites).

    Raises
    ------
    GlobalNotPD
        If the assembled precision is not positive definite.
    DowndateFailed
        Under ``on_downdate_failure="abort"``; the sites then keep their
        start-of-sweep parameters.
    """
    opts = opts or EPOptions()
    global_ = assemble_global(base, sites)
    keep_full_cov = global_.n <= FULL_COV_MAX_N
    snap = moment_from_natural(global_)
    mean_history = [snap.mu]
    cov_history = [snap.C if keep_full_cov else np.diag(snap.C).copy()]
    metrics: list[SweepMetrics] = []
    skipped: list[SkippedSite] = []
    converged = False

    for sweep in range(1, opts.max_sweeps + 1):
        refits: list[tuple[Site, tuple[np.ndarray, np.ndarray]]] = []
        for i, s in enumerate(sites):
            try:
                cav = cavity(global_, s)
                new = update_site(s, cav, site_moments(s, cav))
                if opts.sweep_mode == "serial":
                    global_ = refresh_global(global_, s, (s.K_i, s.h_i), new)
            except (CavityInvalid, DegenerateSupport, NotPositiveDefinite, DowndateFailed) as exc:
                if isinstance(exc, DowndateFailed) and opts.on_downdate_failure == "abort":
                    raise
                skipped.append(SkippedSite(sweep, i, f"{type(exc).__name__}: {exc}"))
                continue
            refits.append((s, new))
        max_change = max([0.0] + [_rel_change(s, new) for s, new in refits])
        for s, (K_i, h_i) in refits:
            s.K_i, s.h_i = K_i, h_i
        if opts.sweep_mode == "parallel":
            global_ = assemble_global(base, sites)

        snap = moment_from_natural(global_)
        mean_history.append(snap.mu)
        cov_history.append(snap.C if keep_full_cov else np.diag(snap.C).copy())
        metrics.append(SweepMetrics(sweep, max_change))
        # a sweep that skipped a site did not refit it: no convergence
        if max_change < opts.site_tol and len(refits) == len(sites):
            converged = True
            break

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
