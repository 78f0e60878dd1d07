"""Tilted-Gaussian moment kernels: (log Z, mean, variance) of
Z^{-1} t(s) N(s; m, v) for the supported factor families.

The Laplace-with-positivity family is computed semi-analytically by splitting
at the background value into two exponentially tilted truncated-Gaussian
pieces, using e^{+-lam*s} N(s; m, v) = e^{lam^2 v/2 +- lam*m} N(s; m +- lam*v, v)
and log-domain tail evaluation.  A purely numerical quadrature of the same
integrand suffers cancellation and underflow once lam*sqrt(v) is large; it is
kept only as an oracle that the tests check the kernels against.

The split, the two-piece mixture and the truncated-normal core formulas are
written once, with ufuncs, and run on Python floats (serial EP sweeps) and on
1-D arrays (parallel sweeps) alike.  Three parts keep a scalar and an array
form, because a one-element array call costs far more than the scalar form
(2-core VM, one BLAS thread): the regime dispatch of the truncated-normal
kernel (66 us against 1.6 us), the Mills-ratio tail (83 us against 6 us) and
the two-sided far tail (40 us against 17 us; a float-or-array far tail took
30 us).
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr

from .errors import DegenerateSupport, QuadratureNotConverged
from .gaussians import log_density_1d

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
# log Z below the double-precision floor of exp(): no reachable mass.
LOGZ_FLOOR = -745.0
# The quadrature oracle's window ends where the integrand lies this far below
# its peak (e^-60 ~ 1e-26); each side is widened by the window's width at most
# this many times to get there.
_QUAD_TAIL_DROP = 60.0
_QUAD_MAX_WIDENINGS = 20


@dataclass(frozen=True)
class TiltedMoments:
    """Normalizer, mean and variance of a one-dimensional tilted Gaussian."""

    logZ: float
    mean: float
    var: float


@dataclass(frozen=True)
class TiltedMomentsMany:
    """Elementwise tilted moments.  ``errors`` maps the position of every
    element without reachable mass to its DegenerateSupport; logZ, mean and
    var are NaN there."""

    logZ: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    errors: dict[int, DegenerateSupport]


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Two-sided intervals narrower than this (standardized) take the
# Gauss-Legendre rule at any lower bound: 1 + x ra - y rb in _two_sided_core
# cancels like 1/w^3, so its worst relative variance error over x in [0, 10)
# is 1.7e-10 at w = 0.5 (its level on wide intervals) but 3e-10 at 0.2, 1e-6
# at 1e-2 and no digit at 1e-4, while the rule holds 4e-15 down to w = 1e-12.
# The desk-scale EIT run's narrowest two-sided interval is 1.16 wide.
_NARROW = 0.5


def _far_tail_two_sided(a: float, b: float) -> tuple[float, float, float, float, float]:
    """Moments on [a, b] with b finite and either a >= 10 or b - a < _NARROW
    (and a + b >= 0), via the conditioned integrals
    I_k = int_0^w u^k e^{-a u - u^2/2} du (u = s - a).

    Every integrand is positive, so no cancellation occurs no matter how
    narrow the interval; for a > 0 the integration range is capped where the
    exponential has decayed below 1e-19 relative, which a narrow interval
    never reaches.
    """
    w = b - a
    umax = min(w, 45.0 / a) if a > 0.0 else w
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


def _one_sided_core(x):
    """(logZ, mean, var) of the standard normal on [x, inf) for x < 10."""
    h = math.sqrt(2.0 / math.pi) / erfcx(x / _SQRT2)  # phi(x) / Phi_c(x)
    return log_ndtr(-x), h, 1.0 + x * h - h * h


def _two_sided_core(x, y):
    """(logZ, mean, var) of the standard normal on [x, y] for x < 10,
    y - x >= _NARROW and x + y >= 0, so that the mass hugs x."""
    la = log_ndtr(-x)
    logz = la + np.log1p(-np.exp(log_ndtr(-y) - la))
    ra = np.exp(-0.5 * x * x - _LOG_SQRT_2PI - logz)
    rb = np.exp(-0.5 * y * y - _LOG_SQRT_2PI - logz)
    mean = ra - rb
    return logz, mean, 1.0 + x * ra - y * rb - mean * mean


def trunc_gauss_std(a: float, b: float) -> tuple[float, float, float, float, float]:
    """Moments of the standard normal truncated to [a, b].

    Returns (logZ, mean, var, mean - a, mean - b).  The bound offsets are
    computed stably so that callers anchoring a piece at its mass-side bound
    do not lose precision in the far tail.  Intervals buried deep in one tail,
    and two-sided intervals narrower than _NARROW, route through a
    conditioned Gauss-Legendre rule whose integrands are all positive, so
    accuracy holds no matter how narrow the interval.
    """
    a, b = float(a), float(b)  # the tail loops run several times faster on floats
    if not a < b:
        raise ValueError("empty truncation interval")
    if a == -math.inf and b == math.inf:
        return 0.0, 0.0, 1.0, math.inf, -math.inf

    mirrored = a == -math.inf or (b != math.inf and a + b < 0.0)
    if mirrored:
        a, b = -b, -a
    # now a is finite and the mass hugs a from above
    if b == math.inf:
        if a >= 10.0:
            logz, mma, var = _mills_tail(a)
            mean = a + mma
        else:
            logz, mean, var = _one_sided_core(a)
            mma = mean - a
        mmb = -math.inf
    elif a >= 10.0 or b - a < _NARROW:
        logz, mean, var, mma, mmb = _far_tail_two_sided(a, b)
    else:
        logz, mean, var = _two_sided_core(a, b)
        mma, mmb = mean - a, mean - b
    if mirrored:
        return logz, -mean, var, -mmb, -mma
    return logz, mean, var, mma, mmb


# Array forms of the dispatch and the tails above: the same regimes and the
# same arithmetic, selected by masks, so each element agrees with the scalar
# kernel to roundoff.

def _mills_tail_many(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_mills_tail elementwise.  The terms nxt_k = (2k+1)!! t^k of every
    element are one cumulative product over k, and each element's two
    alternating sums are read off their cumulative sums where its series
    stops (the first nxt_k < 1e-19, or k = 500), as in the scalar loop."""
    t = 1.0 / (alpha * alpha)
    odd = 2.0 * np.arange(1, 501) + 1.0
    # the largest t runs longest; no series needs more terms than it
    small = np.cumprod(odd * np.max(t)) < 1e-19
    n_terms = int(np.argmax(small)) + 1 if small.any() else 500
    nxt = np.cumprod(odd[:n_terms] * t[:, None], axis=1)
    small = nxt < 1e-19
    stop = np.where(small.any(axis=1), np.argmax(small, axis=1), n_terms - 1)
    term = np.hstack([np.ones((len(t), 1)), nxt[:, :-1]])
    sign = np.where(np.arange(n_terms) % 2 == 0, 1.0, -1.0)
    rows = np.arange(len(t))
    s_over_t = np.cumsum(sign * term, axis=1)[rows, stop]
    w = np.cumsum(sign * nxt, axis=1)[rows, stop]
    s_val = s_over_t * t
    delta = alpha * s_val / (1.0 - s_val)
    var = (w - s_val) / (1.0 - s_val) - delta * delta
    logz = -0.5 * alpha * alpha - np.log(alpha) - _LOG_SQRT_2PI + np.log1p(-s_val)
    return logz, delta, var


def _far_tail_many(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """_far_tail_two_sided elementwise, as one (k, 64) Gauss-Legendre product."""
    w = b - a
    umax = np.where(a > 0.0, np.minimum(w, 45.0 / a), w)[:, None]
    u = 0.5 * umax * (_GL_NODES + 1.0)
    wt = 0.5 * umax * _GL_WEIGHTS
    f = np.exp(-a[:, None] * u - 0.5 * u * u) * wt
    i0 = np.sum(f, axis=1)
    mma = np.sum(u * f, axis=1) / i0
    var = np.sum(u * u * f, axis=1) / i0 - mma * mma
    logz = -0.5 * a * a - _LOG_SQRT_2PI + np.log(i0)
    mean = a + mma
    return logz, mean, var, mma, mean - b


def trunc_gauss_std_many(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """trunc_gauss_std elementwise over 1-D arrays of bounds; either bound
    may be a scalar, broadcast against the other.

    Raises
    ------
    ValueError
        If any interval is empty (or a bound is NaN).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(a < b):
        raise ValueError("empty truncation interval")
    shape = np.broadcast(a, b).shape
    logz = np.zeros(shape)
    mean = np.zeros(shape)
    var = np.ones(shape)
    mma = np.full(shape, math.inf)
    mmb = np.full(shape, -math.inf)

    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        proper = ~((a == -math.inf) & (b == math.inf))
        mirrored = proper & ((a == -math.inf) | ((b != math.inf) & (a + b < 0.0)))
        lo = np.where(mirrored, -b, a)  # now lo is finite and the mass hugs it
        hi = np.where(mirrored, -a, b)
        one_sided = proper & (hi == math.inf)
        two_sided = proper & ~one_sided
        i = np.flatnonzero(one_sided & (lo >= 10.0))
        if i.size:
            logz[i], mma[i], var[i] = _mills_tail_many(lo[i])
            mean[i] = lo[i] + mma[i]
        i = np.flatnonzero(one_sided & (lo < 10.0))
        if i.size:
            x = lo[i]
            logz[i], h, var[i] = _one_sided_core(x)
            mean[i], mma[i] = h, h - x
        far = two_sided & ((lo >= 10.0) | (hi - lo < _NARROW))
        i = np.flatnonzero(far)
        if i.size:
            logz[i], mean[i], var[i], mma[i], mmb[i] = _far_tail_many(lo[i], hi[i])
        i = np.flatnonzero(two_sided & ~far)
        if i.size:
            x, y = lo[i], hi[i]
            logz[i], mn, var[i] = _two_sided_core(x, y)
            mean[i], mma[i], mmb[i] = mn, mn - x, mn - y
    return (
        logz,
        np.where(mirrored, -mean, mean),
        var,
        np.where(mirrored, -mmb, mma),
        np.where(mirrored, -mma, mmb),
    )


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

    def moments_many(self, m: np.ndarray, v: np.ndarray) -> TiltedMomentsMany:
        """Tilted moments against N(s; m[k], v[k]) for every k.

        An element without reachable mass (DegenerateSupport) is reported in
        ``errors``; any other exception propagates.  This default calls
        ``moments`` once per element.
        """
        out = np.full((3, len(m)), np.nan)
        errors: dict[int, DegenerateSupport] = {}
        for k, (mk, vk) in enumerate(zip(np.asarray(m).tolist(), np.asarray(v).tolist())):
            try:
                tm = self.moments(mk, vk)
            except DegenerateSupport as exc:
                errors[k] = exc
                continue
            out[:, k] = tm.logZ, tm.mean, tm.var
        return TiltedMomentsMany(out[0], out[1], out[2], errors)

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

    def moments_many(self, m: np.ndarray, v: np.ndarray) -> TiltedMomentsMany:
        return moments_laplace_positivity_many(self, m, v)

    def moments_flat(self, eta: float = 0.0) -> TiltedMoments:
        lam, b, lo = self.lam, self.sigma_bg, self.floor
        a1 = max(lo, b)
        rate = lam - eta
        if rate <= 0.0:
            # the factor's upper tail e^{(eta-lam)s} does not decay
            raise DegenerateSupport("flat tilt is not integrable on the upper tail")
        # right piece: shifted exponential with rate lam - eta on [a1, inf);
        # (log weight, mean offset from b, var)
        logz = lam * (b - a1) + eta * a1 - math.log(rate)
        off, var = (a1 - b) + 1.0 / rate, 1.0 / (rate * rate)
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
            logz, off, var = _mix(logz, off, var, logw, -mu, vu)
        return _reachable(logz, b + off, var)

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
        """Product-of-Gaussians closed form."""
        mt, vt = self.t_mean, self.t_var
        if v <= 0.0 or vt <= 0.0:
            raise ValueError("variances must be positive")
        var = 1.0 / (1.0 / v + 1.0 / vt)
        mean = var * (m / v + mt / vt)
        return TiltedMoments(float(log_density_1d(m, mt, v + vt)), mean, var)

    def moments_flat(self, eta: float = 0.0) -> TiltedMoments:
        logz = eta * self.t_mean + 0.5 * eta * eta * self.t_var
        return TiltedMoments(logz, self.t_mean + eta * self.t_var, self.t_var)

    def log_density(self, s):
        return log_density_1d(np.asarray(s, dtype=float), self.t_mean, self.t_var)


# ---------------------------------------------------------------------------
# moment operations
# ---------------------------------------------------------------------------

def _mix(logw1, off1, var1, logw2, off2, var2):
    """(logZ, mean offset, var) of a two-piece mixture from each piece's log
    weight, mean offset and variance; floats or arrays alike."""
    logz = np.logaddexp(logw1, logw2)
    p1 = np.exp(logw1 - logz)
    p2 = np.exp(logw2 - logz)
    off = p1 * off1 + p2 * off2
    return logz, off, p1 * (var1 + (off1 - off) ** 2) + p2 * (var2 + (off2 - off) ** 2)


def _unreachable(logz: float) -> DegenerateSupport:
    return DegenerateSupport(f"no numerically reachable mass (logZ = {logz:.1f})")


def _reachable(logz, mean, var) -> TiltedMoments:
    """TiltedMoments in floats, or DegenerateSupport if logZ is not finite or
    is below LOGZ_FLOOR."""
    logz = float(logz)
    if logz < LOGZ_FLOOR or not math.isfinite(logz):
        raise _unreachable(logz)
    return TiltedMoments(logz, float(mean), float(var))


def _pick(cond: bool, x, y):
    """np.where for one element."""
    return x if cond else y


def _laplace_pieces(f: LaplacePositivityFactor, m, v, trunc, where):
    """(logZ, mean, var) of Z^{-1} e^{-lam|s-bg|} 1[s>=floor] N(s; m, v), for
    floats or 1-D arrays (m, v); ``trunc`` is the truncated-normal kernel and
    ``where`` the elementwise selection (_pick or np.where) of the same form.

    Split at the background value into two exponentially tilted truncated
    Gaussians.  Each piece's mean is taken as an offset from m, anchored at
    its mass-side bound, so the mixture is recombined in coordinates centered
    at the cavity mean and no large-scale cancellation occurs.
    """
    lam, b, lo = f.lam, f.sigma_bg, f.floor
    sd = np.sqrt(v)
    half = 0.5 * lam * lam * v
    # upper piece on [max(floor, bg), inf), centered at m - lam*v; dropped
    # (log mass -inf; the moments of a stand-in bound 0 keep the offsets
    # finite) where its standardized bound overflows to +inf, as for a floor
    # or lam near the largest float
    a1 = max(lo, b)
    alpha1 = (a1 - m + lam * v) / sd
    live = alpha1 != math.inf
    logz1, _, var1, mma1, _ = trunc(where(live, alpha1, 0.0), math.inf)
    logz = where(live, half + lam * (b - m) + logz1, -math.inf)
    off, var = (a1 - m) + sd * mma1, v * var1
    if lo < b:
        # lower piece on [floor, bg), centered at m + lam*v; dropped likewise
        # where its interval is empty in floating point, as when floor is
        # within rounding of bg or both bounds overflow to -inf, or its log
        # mass is not finite
        alpha2 = (lo - m - lam * v) / sd if lo != -math.inf else -math.inf
        beta2 = (b - m - lam * v) / sd
        live = alpha2 < beta2
        logz2, _, var2, _, mmb2 = trunc(where(live, alpha2, -math.inf), where(live, beta2, math.inf))
        live = live & (abs(logz2) < math.inf)
        logw2 = where(live, half + lam * (m - b) + logz2, -math.inf)
        off2 = where(live, (b - m) + sd * mmb2, 0.0)
        logz, off, var = _mix(logz, off, var, logw2, off2, where(live, v * var2, 0.0))
    return logz, m + off, var


def moments_laplace_positivity(f: LaplacePositivityFactor, m: float, v: float) -> TiltedMoments:
    """Exact-up-to-roundoff moments of Z^{-1} e^{-lam|s-bg|} 1[s>=floor] N(s; m, v).

    Raises
    ------
    DegenerateSupport
        If logZ < -745 (mass numerically unreachable; the caller may pin the
        site at the floor).
    """
    if v <= 0.0:
        raise ValueError("cavity variance must be positive")
    if f.lam == 0.0 and f.floor == -math.inf:
        return TiltedMoments(0.0, m, v)
    # a dropped lower piece may pass through inf - inf on its way out
    with np.errstate(divide="ignore", invalid="ignore"):
        pieces = _laplace_pieces(f, float(m), float(v), trunc_gauss_std, _pick)
    return _reachable(*pieces)


def moments_laplace_positivity_many(
    f: LaplacePositivityFactor, m: np.ndarray, v: np.ndarray
) -> TiltedMomentsMany:
    """moments_laplace_positivity elementwise over 1-D arrays (m, v), through
    trunc_gauss_std_many.  Elements with logZ < LOGZ_FLOOR or a non-finite
    logZ are reported in ``errors`` with the scalar kernel's
    DegenerateSupport."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError("cavity variance must be positive")
    if f.lam == 0.0 and f.floor == -math.inf:
        return TiltedMomentsMany(np.zeros_like(m), m.copy(), v.copy(), {})
    # elements without reachable mass may pass through inf - inf on their way
    # to the flag below, and a dropped lower piece on its way out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logz, mean, var = _laplace_pieces(f, m, v, trunc_gauss_std_many, np.where)
    bad = ~np.isfinite(logz) | (logz < LOGZ_FLOOR)
    errors = {k: _unreachable(float(logz[k])) for k in np.flatnonzero(bad).tolist()}
    if errors:
        logz, mean, var = (np.where(bad, np.nan, x) for x in (logz, mean, var))
    return TiltedMomentsMany(logz, mean, var, errors)


def moments_quadrature(
    factor: FactorFamily,
    m: float,
    v: float,
    *,
    rtol: float = 1e-12,
    limit: int = 400,
) -> TiltedMoments:
    """Adaptive-quadrature moments of Z^{-1} t(s) N(s; m, v), the oracle path.

    Integrates on m +- 12 sqrt(v) intersected with the factor support,
    widened on each side whose end still lies within ``_QUAD_TAIL_DROP`` of the
    scanned log-peak, so that a tilted mass near the cavity's 12 sd edge is
    not cut off.  The integrand is rescaled by that log-peak so the adaptive
    rule works entirely below exp overflow, and the second moment is
    accumulated around the computed mean.

    Raises
    ------
    QuadratureNotConverged
        If the adaptive rule cannot reach the target relative error, or the
        window still ends within ``_QUAD_TAIL_DROP`` of the peak after
        ``_QUAD_MAX_WIDENINGS`` widenings (a tilted mass too heavy-tailed to
        integrate).
    DegenerateSupport
        If the integration window carries no numerically reachable mass.
    """
    from scipy import integrate  # deferred: only this oracle uses it

    if v <= 0.0:
        raise ValueError("cavity variance must be positive")
    sd = math.sqrt(v)
    lo = max(m - 12.0 * sd, factor.support[0])
    hi = min(m + 12.0 * sd, factor.support[1])
    if not lo < hi:
        raise DegenerateSupport("integration window is empty")

    for widenings in range(_QUAD_MAX_WIDENINGS + 1):
        grid = np.linspace(lo, hi, 8193)
        logg = factor.log_density(grid) + log_density_1d(grid, m, v)
        gmax = float(np.max(logg))
        if not math.isfinite(gmax):
            raise DegenerateSupport("integrand underflows everywhere in the window")
        # an end within _QUAD_TAIL_DROP of the peak cuts off mass: widen that side by the window's width
        width = hi - lo
        new_lo = max(lo - width, factor.support[0]) if logg[0] > gmax - _QUAD_TAIL_DROP else lo
        new_hi = min(hi + width, factor.support[1]) if logg[-1] > gmax - _QUAD_TAIL_DROP else hi
        if (new_lo, new_hi) == (lo, hi):
            break
        if widenings == _QUAD_MAX_WIDENINGS:
            raise QuadratureNotConverged(
                f"integrand still within {_QUAD_TAIL_DROP:g} of its peak at the window's "
                f"ends after {_QUAD_MAX_WIDENINGS} widenings"
            )
        lo, hi = new_lo, new_hi

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
