"""Tilted-Gaussian moment kernels: (log Z, mean, variance) of
Z^{-1} t(s) N(s; m, v) for the supported factor families.

The Laplace-with-positivity family is computed semi-analytically by splitting
at the background value into two exponentially tilted truncated-Gaussian
pieces, using e^{+-lam*s} N(s; m, v) = e^{lam^2 v/2 +- lam*m} N(s; m +- lam*v, v)
and log-domain tail evaluation.  A purely numerical quadrature of the same
integrand suffers cancellation and underflow once lam*sqrt(v) is large; it is
kept only as an oracle and as a fallback for unsupported families.
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import erfcx, log_ndtr

from .errors import DegenerateSupport, QuadratureNotConverged
from .gaussians import MomentGaussian, log_density_1d

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
# log Z below the double-precision floor of exp(): no reachable mass.
LOGZ_FLOOR = -745.0


@dataclass(frozen=True)
class TiltedMoments:
    """Normalizer, mean and variance of a one-dimensional tilted Gaussian."""

    logZ: float
    mean: float
    var: float


# ---------------------------------------------------------------------------
# standardized truncated-normal kernel
# ---------------------------------------------------------------------------

def _mills_tail(alpha: float) -> tuple[float, float, float]:
    """(logZ, mean - alpha, var) of the standard normal on [alpha, inf) for
    alpha >= 10, via the Mills-ratio asymptotic series in t = 1/alpha^2.

    With S = 1 - alpha*R (R the Mills ratio) and W = 1 - S/t, the variance is
    (W - S)/(1 - S) - delta^2, which avoids the 1 + alpha*h - h^2 cancellation
    entirely; every quantity is accumulated from an alternating series whose
    terms decrease to below machine precision for alpha >= 10.
    """
    t = 1.0 / (alpha * alpha)
    s_over_t = 0.0
    w = 0.0
    term = 1.0  # (2k-1)!! t^(k-1), k = 1
    k = 1
    while True:
        s_over_t += term if k % 2 == 1 else -term
        nxt = term * (2 * k + 1) * t
        w += nxt if k % 2 == 1 else -nxt
        if nxt < 1e-19:
            break
        term = nxt
        k += 1
        if k > 500:  # unreachable for alpha >= 10
            break
    s_val = s_over_t * t
    delta = alpha * s_val / (1.0 - s_val)
    var = (w - s_val) / (1.0 - s_val) - delta * delta
    logz = -0.5 * alpha * alpha - math.log(alpha) - _LOG_SQRT_2PI + math.log1p(-s_val)
    return logz, delta, var


def _hazard(alpha: float) -> float:
    """phi(alpha) / Phi_c(alpha) without under/overflow."""
    return math.sqrt(2.0 / math.pi) / erfcx(alpha / _SQRT2)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _far_tail_two_sided(a: float, b: float) -> tuple[float, float, float, float, float]:
    """Moments on [a, b] with a >= 10 and b finite, via the conditioned
    integrals I_k = int_0^w u^k e^{-a u - u^2/2} du (u = s - a).

    Every integrand is positive, so no cancellation occurs no matter how
    narrow the interval; the integration range is capped where the
    exponential has decayed below 1e-19 relative.
    """
    w = b - a
    umax = min(w, 45.0 / a)
    u = 0.5 * umax * (_GL_NODES + 1.0)
    wt = 0.5 * umax * _GL_WEIGHTS
    f = np.exp(-a * u - 0.5 * u * u) * wt
    i0 = float(np.sum(f))
    i1 = float(np.sum(u * f))
    i2 = float(np.sum(u * u * f))
    mma = i1 / i0
    var = i2 / i0 - mma * mma
    logz = -0.5 * a * a - _LOG_SQRT_2PI + math.log(i0)
    mean = a + mma
    return logz, mean, var, mma, mean - b


def trunc_gauss_std(a: float, b: float) -> tuple[float, float, float, float, float]:
    """Moments of the standard normal truncated to [a, b].

    Returns (logZ, mean, var, mean - a, mean - b).  The bound offsets are
    computed stably so that callers anchoring a piece at its mass-side bound
    do not lose precision in the far tail.  Intervals buried deep in one tail
    route through a conditioned Gauss-Legendre rule whose integrands are all
    positive, so accuracy holds no matter how narrow the interval.
    """
    if not a < b:
        raise ValueError("empty truncation interval")
    if a == -math.inf and b == math.inf:
        return 0.0, 0.0, 1.0, math.inf, -math.inf

    mirrored = False
    if a == -math.inf or (b != math.inf and a + b < 0.0):
        a, b = -b, -a
        mirrored = True
    # now a is finite and the mass hugs a from above
    if b == math.inf:
        if a >= 10.0:
            logz, delta, var = _mills_tail(a)
            mean = a + delta
            mma, mmb = delta, -math.inf
        else:
            logz = float(log_ndtr(-a))
            h = _hazard(a)
            mean = h
            var = 1.0 + a * h - h * h
            mma, mmb = mean - a, -math.inf
    else:
        if a >= 10.0:
            logz, mean, var, mma, mmb = _far_tail_two_sided(a, b)
        else:
            la = float(log_ndtr(-a))
            lb = float(log_ndtr(-b))
            logz = la + math.log1p(-math.exp(lb - la))
            ra = math.exp(-0.5 * a * a - _LOG_SQRT_2PI - logz)
            rb = math.exp(-0.5 * b * b - _LOG_SQRT_2PI - logz)
            mean = ra - rb
            var = 1.0 + a * ra - b * rb - mean * mean
            mma, mmb = mean - a, mean - b
    if mirrored:
        mean, mma, mmb = -mean, -mmb, -mma
    return logz, mean, var, mma, mmb


def _trunc_exp_moments(c: float, big_d: float) -> tuple[float, float]:
    """Mean and variance of u ~ Exp(c) truncated to (0, D]; D may be inf."""
    if big_d == math.inf:
        return 1.0 / c, 1.0 / (c * c)
    z = c * big_d
    if abs(z) < 1e-2:
        # uniform limit; series in z avoids 1/c^2 cancellation
        mean = big_d * (0.5 - z / 12.0 + z**3 / 720.0)
        var = big_d * big_d * (1.0 / 12.0 - z * z / 240.0 + z**4 / 6048.0)
        return mean, var
    em1 = math.expm1(z)
    mean = 1.0 / c - big_d / em1
    var = 1.0 / (c * c) - big_d * big_d * math.exp(z) / (em1 * em1)
    return mean, var


# ---------------------------------------------------------------------------
# factor families
# ---------------------------------------------------------------------------

class FactorFamily(ABC):
    """A nongaussian factor t(s) on a scalar projection s = u^T x, able to
    report the moments of its tilted Gaussian Z^{-1} t(s) N(s; m, v)."""

    support: tuple[float, float] = (-math.inf, math.inf)

    @abstractmethod
    def moments(self, m, v) -> TiltedMoments:
        """Tilted moments against the Gaussian N(s; m, v)."""

    def moments_flat(self, eta: float = 0.0) -> TiltedMoments:
        """Tilted moments against an improper flat cavity e^{eta s}.

        Needed when a site's cavity precision vanishes (decoupled factors);
        logZ is then taken against the Lebesgue base measure.
        """
        raise NotImplementedError(f"{type(self).__name__} has no flat-cavity moments")

    @abstractmethod
    def log_density(self, s):
        """Pointwise log t(s), -inf outside the support.  Vectorized."""

    def kinks(self) -> list[float]:
        """Interior points where t is not smooth (quadrature breakpoints)."""
        return []


@dataclass(frozen=True)
class LaplacePositivityFactor(FactorFamily):
    """t(s) = exp(-lam |s - sigma_bg|) * indicator[s >= floor].

    lam = 0 and floor = -inf are accepted as limits (factor identically one).
    """

    lam: float
    sigma_bg: float
    floor: float = -math.inf

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.floor == math.inf:
            raise ValueError("floor must be < +inf")
        object.__setattr__(self, "support", (self.floor, math.inf))

    def moments(self, m: float, v: float) -> TiltedMoments:
        return moments_laplace_positivity(self, m, v)

    def moments_flat(self, eta: float = 0.0) -> TiltedMoments:
        lam, b, lo = self.lam, self.sigma_bg, self.floor
        pieces = []  # (log weight, mean offset from b, var)
        a1 = max(lo, b)
        rate = lam - eta
        if rate <= 0.0:
            # the factor's upper tail e^{(eta-lam)s} does not decay
            raise DegenerateSupport("flat tilt is not integrable on the upper tail")
        # right piece: shifted exponential with rate lam - eta on [a1, inf)
        logw = lam * (b - a1) + eta * a1 - math.log(rate)
        pieces.append((logw, (a1 - b) + 1.0 / rate, 1.0 / (rate * rate)))
        if lo < b:
            c = lam + eta
            if c <= 0.0 and lo == -math.inf:
                raise DegenerateSupport("flat tilt is not integrable on the lower tail")
            big_d = b - lo
            if abs(c) * min(big_d, 1.0) < 1e-300:
                logw = eta * b + math.log(big_d)
                mu, vu = 0.5 * big_d, big_d * big_d / 12.0
            else:
                # integral of e^{c s - lam b} over [lo, b), u = b - s ~ TruncExp(c)
                if big_d == math.inf:
                    logw = eta * b - math.log(c)
                elif c > 0.0:
                    logw = eta * b + math.log(-math.expm1(-c * big_d)) - math.log(c)
                else:
                    logw = eta * b + math.log(math.expm1(-c * big_d)) - math.log(-c)
                mu, vu = _trunc_exp_moments(c, big_d)
            pieces.append((logw, -mu, vu))
        return _combine_pieces(pieces, b)

    def log_density(self, s):
        s = np.asarray(s, dtype=float)
        out = -self.lam * np.abs(s - self.sigma_bg)
        return np.where(s >= self.floor, out, -np.inf)

    def kinks(self) -> list[float]:
        ks = [self.sigma_bg]
        if math.isfinite(self.floor):
            ks.append(self.floor)
        return ks


@dataclass(frozen=True)
class GaussianFactor1D(FactorFamily):
    """A univariate Gaussian factor N(s; mean, var), as a density in s."""

    t_mean: float
    t_var: float

    def moments(self, m: float, v: float) -> TiltedMoments:
        return moments_gaussian_factor(MomentGaussian(np.array([self.t_mean]), np.array([[self.t_var]])), m, v)

    def moments_flat(self, eta: float = 0.0) -> TiltedMoments:
        logz = eta * self.t_mean + 0.5 * eta * eta * self.t_var
        return TiltedMoments(logz, self.t_mean + eta * self.t_var, self.t_var)

    def log_density(self, s):
        return log_density_1d(np.asarray(s, dtype=float), self.t_mean, self.t_var)


# ---------------------------------------------------------------------------
# moment operations
# ---------------------------------------------------------------------------

def _combine_pieces(pieces: list[tuple[float, float, float]], ref: float) -> TiltedMoments:
    """Mixture moments from per-piece (log weight, mean - ref, var)."""
    logws = np.array([p[0] for p in pieces])
    offs = np.array([p[1] for p in pieces])
    vars_ = np.array([p[2] for p in pieces])
    logz = float(np.logaddexp.reduce(logws))
    if logz < LOGZ_FLOOR or not math.isfinite(logz):
        raise DegenerateSupport(f"no numerically reachable mass (logZ = {logz:.1f})")
    pis = np.exp(logws - logz)
    off_bar = float(pis @ offs)
    var = float(pis @ (vars_ + (offs - off_bar) ** 2))
    return TiltedMoments(logz, ref + off_bar, var)


def moments_laplace_positivity(f: LaplacePositivityFactor, m: float, v: float) -> TiltedMoments:
    """Exact-up-to-roundoff moments of Z^{-1} e^{-lam|s-bg|} 1[s>=floor] N(s; m, v).

    Split at the background value into two exponentially tilted truncated
    Gaussians; each piece is evaluated through the log-domain truncated-normal
    kernel, and the mixture is recombined in coordinates centered at the
    cavity mean so no large-scale cancellation occurs.

    Raises
    ------
    DegenerateSupport
        If logZ < -745 (mass numerically unreachable; the caller may pin the
        site at the floor).
    """
    if v <= 0.0:
        raise ValueError("cavity variance must be positive")
    lam, b, lo = f.lam, f.sigma_bg, f.floor
    if lam == 0.0 and lo == -math.inf:
        return TiltedMoments(0.0, m, v)
    sd = math.sqrt(v)
    half = 0.5 * lam * lam * v
    pieces = []  # (log weight, mean offset from m, var)

    a1 = max(lo, b)
    alpha1 = (a1 - m + lam * v) / sd
    logz1, _, var1, mma1, _ = trunc_gauss_std(alpha1, math.inf)
    logw1 = half + lam * (b - m) + logz1
    pieces.append((logw1, (a1 - m) + sd * mma1, v * var1))

    if lo < b:
        alpha2 = (lo - m - lam * v) / sd if lo != -math.inf else -math.inf
        beta2 = (b - m - lam * v) / sd
        logz2, _, var2, _, mmb2 = trunc_gauss_std(alpha2, beta2)
        logw2 = half + lam * (m - b) + logz2
        pieces.append((logw2, (b - m) + sd * mmb2, v * var2))

    return _combine_pieces(pieces, m)


def moments_gaussian_factor(t: MomentGaussian, m: float, v: float) -> TiltedMoments:
    """Product-of-Gaussians closed form for a 1-D Gaussian factor."""
    mt = float(np.ravel(t.mu)[0])
    vt = float(np.ravel(t.C)[0])
    if v <= 0.0 or vt <= 0.0:
        raise ValueError("variances must be positive")
    var = 1.0 / (1.0 / v + 1.0 / vt)
    mean = var * (m / v + mt / vt)
    logz = float(log_density_1d(m, mt, v + vt))
    return TiltedMoments(logz, mean, var)


def moments_quadrature(
    factor: FactorFamily,
    m: float,
    v: float,
    *,
    rtol: float = 1e-12,
    limit: int = 400,
) -> TiltedMoments:
    """Adaptive-quadrature moments of Z^{-1} t(s) N(s; m, v), the oracle path.

    Integrates on m +- 12 sqrt(v) intersected with the factor support.  The
    integrand is rescaled by its scanned log-peak so the adaptive rule works
    entirely below exp overflow, and the second moment is accumulated around
    the computed mean.

    Raises
    ------
    QuadratureNotConverged
        If the adaptive rule cannot reach the target relative error.
    DegenerateSupport
        If the integration window carries no numerically reachable mass.
    """
    if v <= 0.0:
        raise ValueError("cavity variance must be positive")
    sd = math.sqrt(v)
    lo = max(m - 12.0 * sd, factor.support[0])
    hi = min(m + 12.0 * sd, factor.support[1])
    if not lo < hi:
        raise DegenerateSupport("integration window is empty")

    grid = np.linspace(lo, hi, 8193)
    logg = factor.log_density(grid) + log_density_1d(grid, m, v)
    gmax = float(np.max(logg))
    if not math.isfinite(gmax):
        raise DegenerateSupport("integrand underflows everywhere in the window")

    def f0(x: float) -> float:
        val = float(factor.log_density(x)) + float(log_density_1d(x, m, v)) - gmax
        return math.exp(val) if val > -745.0 else 0.0

    pts = sorted(k for k in factor.kinks() if lo < k < hi) or None

    def _quad(fun, scale: float) -> float:
        # QUADPACK's roundoff warning fires well before its error estimate is
        # actually bad; accept on the reported certificate against a scale
        # appropriate for the integrand instead.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            y, err = integrate.quad(
                fun, lo, hi, points=pts, epsabs=0.0, epsrel=rtol, limit=limit
            )
            if err > 1e-10 * max(abs(y), scale):
                y, err = integrate.quad(
                    fun, lo, hi, points=pts, epsabs=0.0, epsrel=1e-10, limit=2 * limit
                )
        if err > 1e-10 * max(abs(y), scale):
            raise QuadratureNotConverged(
                f"estimated error {err:.2e} exceeds tolerance for value {y:.6e}"
            )
        return y

    i0 = _quad(f0, 0.0)
    if i0 <= 0.0:
        raise DegenerateSupport("zero mass in the integration window")
    ref = float(grid[int(np.argmax(logg))])
    mean = ref + _quad(lambda x: (x - ref) * f0(x), sd * i0) / i0
    var = _quad(lambda x: (x - mean) ** 2 * f0(x), 0.0) / i0
    logz = gmax + math.log(i0)
    if logz < LOGZ_FLOOR:
        raise DegenerateSupport(f"no numerically reachable mass (logZ = {logz:.1f})")
    return TiltedMoments(logz, mean, var)
