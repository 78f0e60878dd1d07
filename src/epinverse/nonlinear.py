"""Recursive-linearization EP for nonlinear F(x) = b with Barzilai-Borwein
step control.

Each outer iteration linearizes the forward map around the current mean,
runs the projection EP engine on the linearized Gaussian base plus the prior
sites, and moves the mean along the EP direction with a Barzilai-Borwein step.
Sites are warm-started across outer iterations.  After the first, each
outer iteration solves its EP problem only as accurately as its step can
use: its sweeps stop at a site tolerance set by the previous step (FORCING).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from .ep import EPOptions, Site, SkippedSite, run_ep
from .errors import GlobalNotPD, NonFiniteIterate
from .gaussians import MomentGaussian, NaturalGaussian

# Up to this many unknowns the trace keeps the strict lower triangle of every
# sweep's covariance beside its diagonal, and the CLI writes cov.csv; above
# it the trace keeps diagonals only.
FULL_COV_MAX_N = 1000


class ForwardModel(ABC):
    """A forward map F: R^n -> R^m with a Jacobian."""

    m: int
    n: int

    @abstractmethod
    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """F(x), shape (m,)."""

    @abstractmethod
    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """F'(x), shape (m, n)."""


class LinearModel(ForwardModel):
    """F(x) = A x; its own Jacobian everywhere."""

    def __init__(self, A: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.m, self.n = self.A.shape

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        # np.dot is the dgemv that A @ x calls, with less dispatch around it:
        # each MH step evaluates the model once
        return np.dot(self.A, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.A


@dataclass
class NonlinearOptions:
    alpha: float
    max_outer: int = 10
    outer_tol: float = 1e-3
    inner: EPOptions = field(default_factory=lambda: EPOptions(max_sweeps=5))
    floor: float = -math.inf  # componentwise admissibility floor for iterates

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be > 0")


@dataclass(frozen=True)
class TraceRow:
    outer: int
    inner: int
    e_p_mu: float
    e_f_mu: float
    e_p_C: float
    e_f_C: float


@dataclass(frozen=True)
class OuterRecord:
    outer: int
    tau: float
    rel_mean_change: float
    inner_sweeps: int
    ep_converged: bool
    residual_norm: float
    site_tol: float  # the tolerance the iteration's (last) EP run stopped against


@dataclass
class NonlinearResult:
    mean: np.ndarray
    cov: np.ndarray
    outer_iters: int
    converged: bool
    trace: list[TraceRow]
    outer_records: list[OuterRecord]
    skipped_sites: list[tuple[int, SkippedSite]]  # (outer, site skipped in that outer's EP run)


def linearize(model: ForwardModel, mu_k: np.ndarray, data: np.ndarray, alpha: float) -> NaturalGaussian:
    """Gaussian base of the linearized likelihood around mu_k:

        K0 = alpha J^T J  (PSD, possibly singular)
        h0 = alpha J^T (b - F(mu_k) + J mu_k)
    """
    J = model.jacobian(mu_k)
    r = data - model.evaluate(mu_k) + J @ mu_k
    return NaturalGaussian(alpha * (J.T @ r), alpha * (J.T @ J))


def _effective_tau(mu_k, mu_km1, d_k, d_km1) -> float:
    """Driver step policy, the Barzilai-Borwein magnitude min(1, 1/|raw|)
    from successive iterates and EP directions, where raw = s.(d_k - d_km1)
    / s.s is the local slope of the d-map along s = mu_k - mu_km1.  It is 1
    for linear problems, dead-beat damps a linear oscillation, and shortens
    the step wherever the d-map is steeper than 1.  Coincident iterates and
    a zero raw value fall back to tau = 1."""
    s = mu_k - mu_km1
    ss = float(s @ s)
    raw = float(s @ (d_k - d_km1)) / ss if ss else 0.0
    return min(1.0, 1.0 / abs(raw)) if raw else 1.0


# The forcing term of the inexact inner solve (Dembo, Eisenstat and Steihaug
# 1982; Eisenstat and Walker 1996): outer iteration k >= 2 stops its EP sweeps
# once no site moves by FORCING times the relative mean change of iteration
# k - 1, or by site_tol if that is larger.  The change is capped at 1, which
# bounds the tolerance by FORCING: from mu0 = 0 the first change is about
# 1e299 (_rel's floor).
FORCING = 0.3


def _inner_site_tol(site_tol: float, rel_mean_change: float) -> float:
    """The site tolerance of an outer iteration after the first."""
    return max(site_tol, FORCING * min(rel_mean_change, 1.0))


def run_nonlinear(
    model: ForwardModel,
    data: np.ndarray,
    sites: list[Site],
    opts: NonlinearOptions,
    mu0: np.ndarray,
) -> NonlinearResult:
    """Outer loop: linearize -> run_ep -> BB step -> mean update.

    The first outer step uses tau = 1.  Iterates are projected onto the
    admissibility floor before each linearization.  Sites are warm-started
    from the previous outer iteration (updated in place by run_ep).  The
    first outer iteration's EP run stops at ``opts.inner.site_tol``; each
    later one at the looser _inner_site_tol of the previous iteration's
    mean change.  The run converges when the mean moves by less than
    ``outer_tol``, the last EP sweep of that outer iteration refit every
    site, and its EP run did not stop on a loosened tolerance: when the
    step passes the test on such a run, the run is finished at
    ``opts.inner.site_tol`` within the iteration's ``max_sweeps`` and the
    step is taken again from its mean.

    Raises
    ------
    NonFiniteIterate
        If the mean leaves the admissible set irrecoverably (non-finite), or
        the linearization at an iterate is not finite (the forward map or
        its Jacobian overflows there).
    GlobalNotPD
        From run_ep, its message led by the outer iteration.
    """
    mu = np.maximum(np.asarray(mu0, dtype=float), opts.floor)
    site_tol, max_sweeps = opts.inner.site_tol, opts.inner.max_sweeps

    prev_mu = None
    prev_d = None
    outer_records: list[OuterRecord] = []
    skipped: list[tuple[int, SkippedSite]] = []
    trace = _Trace()
    converged = False
    outer_iters = 0
    rel_change = 0.0  # so that the first outer iteration stops at site_tol
    done = 0  # sweeps of this outer iteration before the current EP run

    def on_snapshot(sweep: int, snap: MomentGaussian) -> None:
        trace.add(done + sweep, snap)

    for k in range(1, opts.max_outer + 1):
        outer_iters = k
        base = linearize(model, mu, data, opts.alpha)
        if not (np.isfinite(base.h).all() and np.isfinite(base.K).all()):
            raise NonFiniteIterate(f"the linearization at outer iterate {k} is not finite")
        inner = replace(opts.inner, site_tol=_inner_site_tol(site_tol, rel_change))
        done = 0
        while True:
            try:
                # a finishing run starts from the loosened run's last snapshot
                ep_result = run_ep(base, sites, inner, on_snapshot, trace.last if done else None)
            except GlobalNotPD as exc:
                raise GlobalNotPD(f"outer iteration {k}, {exc}") from exc
            skipped.extend((k, replace(s, sweep=done + s.sweep)) for s in ep_result.skipped_sites)
            # as in run_ep: a step whose last sweep skipped a site is not converged
            refit_all = all(s.sweep < ep_result.sweeps_used for s in ep_result.skipped_sites)
            done += ep_result.sweeps_used
            ep_converged = ep_result.converged
            # stopped on a loosened tolerance, with sweeps left to finish at site_tol
            loose = ep_converged and ep_result.metrics[-1].max_site_change >= site_tol and done < max_sweeps
            d = ep_result.mean - mu
            # its covariance is the trace's last snapshot until the next run
            # makes one: held past that, it would be one n x n array more
            del ep_result

            tau = 1.0 if prev_mu is None else _effective_tau(mu, prev_mu, d, prev_d)
            mu_new = mu + tau * d
            if not np.all(np.isfinite(mu_new)):
                raise NonFiniteIterate(f"outer iterate {k} is not finite")
            mu_new = np.maximum(mu_new, opts.floor)
            rel_change = float(np.linalg.norm(mu_new - mu)) / max(float(np.linalg.norm(mu)), 1e-300)
            passed = rel_change < opts.outer_tol and refit_all
            if not (passed and loose):
                break
            inner = replace(opts.inner, max_sweeps=max_sweeps - done)
        prev_mu, prev_d = mu, d
        residual = float(np.linalg.norm(model.evaluate(mu_new) - data))
        mu = mu_new
        outer_records.append(OuterRecord(k, tau, rel_change, done, ep_converged, residual, inner.site_tol))
        if passed and not loose:
            converged = True
            break

    return NonlinearResult(
        mean=mu,
        cov=trace.last.C,
        outer_iters=outer_iters,
        converged=converged,
        trace=trace.rows(),
        outer_records=outer_records,
        skipped_sites=skipped,
    )


class _Trace:
    """The Table-4 style convergence trace of a run, made from the EP
    snapshots as run_ep hands them over: the first outer iteration's entry
    snapshot (1, 0), then every sweep's.  Each sweep gets a row: e_p against
    the snapshot before it, ``last``, the one snapshot held in full (at the
    end, the run's final one), and e_f against the final snapshot.

    A covariance is compared through two parts, its strict lower triangle
    and its diagonal: chol.inverse makes every covariance bitwise symmetric,
    so ||C||_F^2 = 2 ||strict||^2 + ||diag||^2.  For e_f each sweep keeps its
    mean and both parts, n (n + 1) / 2 floats.  Above FULL_COV_MAX_N
    unknowns the strict part is empty, and the rows compare diagonals.
    """

    def __init__(self) -> None:
        # (outer, inner, e_p_mu, e_p_C, mean, strict lower triangle, diagonal)
        self._kept: list[tuple[int, int, float, float, np.ndarray, np.ndarray, np.ndarray]] = []
        self._outer = 0
        self.last: MomentGaussian | None = None
        self._parts: tuple[np.ndarray, np.ndarray] | None = None  # last's strict lower triangle and diagonal
        self._strict: np.ndarray | None = None  # the mask of the strict lower triangle kept

    def add(self, sweep: int, snap: MomentGaussian) -> None:
        """One EP snapshot; an entry snapshot (sweep 0) starts the next
        outer iteration, and has no row after the first."""
        if sweep == 0:
            self._outer += 1
            if self.last is not None:
                return
            n = snap.n
            self._strict = np.tri(n, k=-1 if n <= FULL_COV_MAX_N else -n, dtype=bool)  # -n: none of it
        parts = snap.C[self._strict], snap.C.diagonal().copy()
        if sweep:
            self._kept.append((self._outer, sweep, _rel(snap.mu, self.last.mu), _rel_sym(parts, self._parts),
                               snap.mu, *parts))
        self.last, self._parts = snap, parts

    def rows(self) -> list[TraceRow]:
        mu_fin, parts_fin = self.last.mu, self._parts
        return [
            TraceRow(outer, inner, e_p_mu, _rel(mu, mu_fin), e_p_C, _rel_sym(parts, parts_fin))
            for outer, inner, e_p_mu, e_p_C, mu, *parts in self._kept
        ]


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def _rel_sym(a, b) -> float:
    """_rel of two symmetric matrices, each given as (strict lower triangle,
    diagonal)."""
    (s, d), (s_b, d_b) = a, b
    return _frobenius(s - s_b, d - d_b) / max(_frobenius(s_b, d_b), 1e-300)


def _frobenius(strict: np.ndarray, diag: np.ndarray) -> float:
    # x.dot(x), as np.linalg.norm takes it: with no strict part, np.linalg.norm(diag) bit for bit
    return math.sqrt(2.0 * float(strict.dot(strict)) + float(diag.dot(diag)))
