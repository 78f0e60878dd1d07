"""Recursive-linearization EP for nonlinear F(x) = b with Barzilai-Borwein
step control.

Each outer iteration linearizes the forward map around the current mean,
runs the projection EP engine on the linearized Gaussian base plus the prior
sites, and moves the mean along the EP direction with a Barzilai-Borwein step.
Sites are warm-started across outer iterations.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .ep import EPOptions, Site, SkippedSite, run_ep
from .errors import NonFiniteIterate
from .gaussians import MomentGaussian, NaturalGaussian

# Up to this many unknowns the trace keeps every sweep's full covariance (as
# its packed lower triangle) and the CLI writes cov.csv; above it the trace
# keeps diagonals.
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
        if self.alpha <= 0.0:
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
    """Driver step policy, a Barzilai-Borwein step from successive iterates
    and EP directions.  The raw BB value, clamped to 1, is used when
    positive.  A negative raw value means the local d-map slope is negative
    (the relinearized iteration is contracting or oscillating), where a zero
    step would stall convergence; there the classical BB magnitude -1/raw,
    clamped to 1, is used instead: it is 1 for linear problems and dead-beat
    damps a linear oscillation.  Coincident iterates and a zero raw value
    fall back to tau = 1."""
    s = mu_k - mu_km1
    ss = float(s @ s)
    if ss == 0.0:
        return 1.0
    raw = float(s @ (d_k - d_km1)) / ss
    if raw > 0.0:
        return min(raw, 1.0)
    if raw < 0.0:
        return min(1.0, -1.0 / raw)
    return 1.0


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
    from the previous outer iteration (updated in place by run_ep).  The run
    converges when the mean moves by less than ``outer_tol`` and the last EP
    sweep of that outer iteration refit every site.

    Raises
    ------
    NonFiniteIterate
        If the mean leaves the admissible set irrecoverably (non-finite), or
        the linearization at an iterate is not finite (the forward map or
        its Jacobian overflows there).
    """
    mu = np.maximum(np.asarray(mu0, dtype=float), opts.floor)

    prev_mu = None
    prev_d = None
    outer_records: list[OuterRecord] = []
    skipped: list[tuple[int, SkippedSite]] = []
    trace = _Trace()
    converged = False
    outer_iters = 0

    for k in range(1, opts.max_outer + 1):
        outer_iters = k
        base = linearize(model, mu, data, opts.alpha)
        if not (np.isfinite(base.h).all() and np.isfinite(base.K).all()):
            raise NonFiniteIterate(f"the linearization at outer iterate {k} is not finite")
        ep_result = run_ep(base, sites, opts.inner, trace.add)
        skipped.extend((k, s) for s in ep_result.skipped_sites)

        mu_star = ep_result.mean
        d = mu_star - mu
        tau = 1.0 if prev_mu is None else _effective_tau(mu, prev_mu, d, prev_d)
        prev_mu, prev_d = mu.copy(), d
        mu_new = mu + tau * d
        if not np.all(np.isfinite(mu_new)):
            raise NonFiniteIterate(f"outer iterate {k} is not finite")
        mu_new = np.maximum(mu_new, opts.floor)
        rel_change = float(np.linalg.norm(mu_new - mu)) / max(float(np.linalg.norm(mu)), 1e-300)
        residual = float(np.linalg.norm(model.evaluate(mu_new) - data))
        mu = mu_new
        outer_records.append(
            OuterRecord(k, tau, rel_change, ep_result.sweeps_used, ep_result.converged, residual)
        )
        # as in run_ep: a step whose last sweep skipped a site is not converged
        refit_all = all(sk.sweep < ep_result.sweeps_used for sk in ep_result.skipped_sites)
        # its covariance is the trace's last snapshot until the next run
        # makes one: held past that, it would be one n x n array more
        del ep_result
        if rel_change < opts.outer_tol and refit_all:
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

    For e_f each sweep keeps its mean and, up to FULL_COV_MAX_N unknowns,
    its covariance as the packed lower triangle, n (n + 1) / 2 floats;
    chol.inverse makes every covariance bitwise symmetric, so mirroring the
    triangle back restores every bit.  Above FULL_COV_MAX_N the rows
    compare diagonals, and each sweep keeps its diagonal.
    """

    def __init__(self) -> None:
        # (outer, inner, e_p_mu, e_p_C, mean, packed covariance or diagonal)
        self._kept: list[tuple[int, int, float, float, np.ndarray, np.ndarray]] = []
        self._outer = 0
        self.last: MomentGaussian | None = None
        self._lower: np.ndarray | None = None  # the lower triangle's mask

    def _compared(self, C: np.ndarray) -> np.ndarray:
        """The covariance as the rows compare it: whole, or its diagonal."""
        return C if self._lower is not None else np.diag(C)

    def add(self, sweep: int, snap: MomentGaussian) -> None:
        """One EP snapshot; an entry snapshot (sweep 0) starts the next
        outer iteration, and has no row after the first."""
        if sweep == 0:
            self._outer += 1
            if self.last is not None:
                return
            self._lower = np.tri(snap.n, dtype=bool) if snap.n <= FULL_COV_MAX_N else None
        else:
            C, C_p = self._compared(snap.C), self._compared(self.last.C)
            kept = C[self._lower] if self._lower is not None else C.copy()
            self._kept.append((self._outer, sweep, _rel(snap.mu, self.last.mu), _rel(C, C_p), snap.mu, kept))
        self.last = snap

    def rows(self) -> list[TraceRow]:
        """The rows, each covariance unpacked into one reused buffer."""
        mu_fin, C_fin = self.last.mu, self._compared(self.last.C)
        full = np.empty_like(C_fin)
        rows = []
        for outer, inner, e_p_mu, e_p_C, mu, C in self._kept:
            if self._lower is not None:
                full[self._lower] = C
                full.T[self._lower] = C
                C = full
            rows.append(TraceRow(outer, inner, e_p_mu, _rel(mu, mu_fin), e_p_C, _rel(C, C_fin)))
        return rows


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)
