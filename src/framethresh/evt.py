"""Extreme-value machinery: Gumbel law, normalizing constants, thresholds.

All rules are closed-form in 64-bit arithmetic.  Quantile/cdf round trips are
self-consistent to 1e-12.  Threshold values scale linearly in sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FrameError


class ThresholdError(ValueError):
    pass


def gumbel_cdf(z):
    """exp(-e^{-z})."""
    return np.exp(-np.exp(-np.asarray(z, dtype=float)))


def gumbel_quantile(alpha):
    """z(alpha) = -log log(1/(1-alpha)): the point with exceedance
    probability alpha under the Gumbel law, i.e. gumbel_cdf(z) = 1 - alpha."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ThresholdError(f"significance level alpha={alpha} outside (0, 1)")
    return -math.log(-math.log1p(-alpha))


@dataclass(frozen=True)
class GumbelNorms:
    """Location/scale pair (a, b) normalizing a maximum of m coefficients.

    flavor 'chi' is for the maximum of absolute values, 'normal' for the
    maximum without absolute values; they differ by log(4pi) vs log(pi) in
    the location constant.
    """

    a: float
    b: float
    flavor: str
    m: int

    def rescale(self, value, sigma=1.0):
        return (np.asarray(value, dtype=float) / sigma - self.b) / self.a

    def threshold_at(self, z, sigma=1.0):
        return sigma * (self.a * float(z) + self.b)


def _check_count(m):
    if m < 2:
        raise ThresholdError(f"coefficient count m={m} must be >= 2")
    return float(m)


def norms_chi(m):
    """a = 1/sqrt(2 log m), b = sqrt(2 log m) - (log log m + log pi)/(2 sqrt(2 log m))."""
    mf = _check_count(m)
    s = math.sqrt(2.0 * math.log(mf))
    b = s - (math.log(math.log(mf)) + math.log(math.pi)) / (2.0 * s)
    return GumbelNorms(a=1.0 / s, b=b, flavor="chi", m=int(m))


def norms_normal(m):
    """Same as norms_chi but with log(4 pi): maxima without absolute values."""
    mf = _check_count(m)
    s = math.sqrt(2.0 * math.log(mf))
    b = s - (math.log(math.log(mf)) + math.log(4.0 * math.pi)) / (2.0 * s)
    return GumbelNorms(a=1.0 / s, b=b, flavor="normal", m=int(m))


def universal_threshold(sigma, m):
    """Donoho-Johnstone universal threshold sigma*sqrt(2 log m)."""
    _check_sigma(sigma)
    mf = _check_count(m)
    return sigma * math.sqrt(2.0 * math.log(mf))


def threshold_from_zn(sigma, m, z):
    """sigma*sqrt(2 log m) + sigma*(2z - log log m - log pi)/(2 sqrt(2 log m)).

    The family of thresholds with the asymptotic denoising property when
    z = z_n -> infinity; z fixed gives the sharp confidence radius.
    """
    _check_sigma(sigma)
    mf = _check_count(m)
    s = math.sqrt(2.0 * math.log(mf))
    return sigma * (s + (2.0 * float(z) - math.log(math.log(mf))
                         - math.log(math.pi)) / (2.0 * s))


def evt_threshold(sigma, alpha, m):
    """Extreme value threshold at significance alpha: threshold_from_zn with
    z = gumbel_quantile(alpha); equivalently sigma*(a*z(alpha) + b) in chi norms."""
    return threshold_from_zn(sigma, m, gumbel_quantile(alpha))


def cyclespin_location(n, M):
    """b_M(chi, n): cycle-spinning location constant with the additive
    2 log log2(M) correction."""
    _check_shift_count(n, M)
    nf = _check_count(n)
    s = math.sqrt(2.0 * math.log(nf))
    return s + (-math.log(math.log(nf)) - math.log(math.pi)
                + 2.0 * math.log(math.log2(M))) / (2.0 * s)


def cyclespin_threshold(sigma, alpha, n, M):
    """-sigma*a(chi,n)*log log(1/(1-alpha)) + sigma*b_M(chi,n).

    Exceeds the basis threshold by sigma*log(log2 M)/sqrt(2 log n).
    """
    _check_sigma(sigma)
    z = gumbel_quantile(alpha)
    a = 1.0 / math.sqrt(2.0 * math.log(_check_count(n)))
    return sigma * (a * z + cyclespin_location(n, M))


def _check_shift_count(n, M):
    M = int(M)
    if M < 2:
        raise ThresholdError(
            "cycle-spin threshold needs M >= 2 (use evt_threshold for a basis)")
    if M & (M - 1):
        raise ThresholdError(f"shift count M={M} must be a power of two")
    if M > n:
        raise ThresholdError(f"shift count M={M} exceeds n={n}")


def ti_threshold(sigma, alpha, n, c):
    """Translation-invariant threshold
    sigma*[sqrt(2 log n) + (z(alpha) + log(c/pi))/sqrt(2 log n)],
    c the curvature constant of the mother wavelet autocorrelation."""
    _check_sigma(sigma)
    if c <= 0:
        raise ThresholdError(f"autocorrelation curvature constant c={c} must be > 0")
    if n < 4:
        raise ThresholdError("ti threshold needs n >= 4")
    return ti_threshold_at_z(sigma, gumbel_quantile(alpha), n, c)


def ti_threshold_at_z(sigma, z, n, c):
    """As ti_threshold but at a raw Gumbel argument z instead of a level."""
    _check_sigma(sigma)
    if c <= 0:
        raise ThresholdError(f"autocorrelation curvature constant c={c} must be > 0")
    s = math.sqrt(2.0 * math.log(float(n)))
    return sigma * (s + (float(z) + math.log(c / math.pi)) / s)


def _check_sigma(sigma):
    if not sigma > 0:
        raise ThresholdError(f"noise level sigma={sigma} must be > 0")


def ti_constant_c(filters, grid_size=2 ** 14, scale=6):
    """Curvature constant c = sqrt(-kappa''(0)) of the autocorrelation of the
    (unit-norm) analysis mother wavelet, by central differences on a cascade
    refinement of the wavelet to a fine grid.

    The wavelet is materialized as the unit-norm discrete analysis atom at a
    mid scale of a grid_size-point basis; successive samples are then
    kappa-values at spacing dt = 2^scale / grid_size, and
    -kappa''(0) ~ 2(1 - kappa(dt))/dt^2.  The estimate is validated by grid
    refinement (relative change < 1e-2 from grid_size/4 to grid_size) and the
    result carries the grid step used.

    Raises for filter pairs whose mother wavelet is not continuously
    differentiable (Haar, D4) or when the curvature estimate fails to
    stabilize or is nonpositive.
    """
    from .transforms import get_filters

    if isinstance(filters, str):
        filters = get_filters(filters)
    if not filters.differentiable:
        raise ThresholdError(
            f"wavelet '{filters.name}' is not continuously differentiable; "
            "the autocorrelation has no curvature at 0")
    if grid_size < 2 ** 12:
        raise ThresholdError("grid_size must be at least 2^12")
    estimates = []
    for g in (grid_size // 4, grid_size // 2, grid_size):
        estimates.append(_curvature_estimate(filters, g, scale))
    c_prev, _, c_fin = estimates
    if abs(c_fin - c_prev) > 1e-2 * c_fin:
        raise ThresholdError(
            f"curvature estimate did not stabilize across grids: {estimates}")
    return CurvatureEstimate(c=c_fin, grid_step=2.0 ** scale / grid_size,
                             refinement=tuple(estimates))


@dataclass(frozen=True)
class CurvatureEstimate:
    c: float
    grid_step: float
    refinement: tuple

    def __float__(self):
        return self.c


def _curvature_estimate(filters, grid_size, scale):
    from .transforms import WaveletBasis

    wb = WaveletBasis(grid_size, filters)
    v = wb.atom(2 ** scale - 1)  # flat position of detail atom (j=scale, k=0)
    dt = 2.0 ** scale / grid_size
    rho1 = float(np.dot(v, np.roll(v, 1)))
    curv = 2.0 * (1.0 - rho1) / dt ** 2
    if curv <= 0:
        raise ThresholdError("nonpositive curvature estimate -kappa''(0)")
    return math.sqrt(curv)


# --- threshold rule selection -------------------------------------------------

@dataclass(frozen=True)
class ThresholdSpec:
    """Which threshold rule plus its parameters.

    rule: 'universal' | 'evt' | 'from_zn' | 'cyclespin' | 'ti' | 'fixed'.
    m (count) and M (shifts) may be omitted when resolving against a frame
    that supplies them.
    """

    rule: str
    sigma: float
    alpha: float | None = None
    z: float | None = None
    m: int | None = None
    M: int | None = None
    c: float | None = None
    value: float | None = None

    def resolve(self, frame=None):
        """Numeric threshold; frame-dependent counts come from frame.evt_count."""
        _check_sigma(self.sigma)
        value = self._resolve_raw(frame)
        if not (math.isfinite(value) and value > 0) and self.rule != "fixed":
            raise ThresholdError(
                f"rule {self.rule!r} resolved to a non-positive threshold {value}")
        return value

    def _resolve_raw(self, frame):
        if self.rule == "fixed":
            if self.value is None or not self.value >= 0:
                raise ThresholdError("fixed rule needs a nonnegative value")
            return float(self.value)
        m = self.m
        if m is None and frame is not None:
            m = frame.evt_count
        if self.rule == "universal":
            return universal_threshold(self.sigma, m)
        if self.rule == "evt":
            return evt_threshold(self.sigma, self._alpha(), m)
        if self.rule == "from_zn":
            if self.z is None:
                raise ThresholdError("from_zn rule needs z")
            return threshold_from_zn(self.sigma, m, self.z)
        if self.rule == "cyclespin":
            n, M = self._frame_nM(frame)
            return cyclespin_threshold(self.sigma, self._alpha(), n, M)
        if self.rule == "ti":
            n = frame.n if frame is not None else m
            if self.c is None:
                raise ThresholdError("ti rule needs the curvature constant c")
            return ti_threshold(self.sigma, self._alpha(), n, self.c)
        raise ThresholdError(f"unknown threshold rule {self.rule!r}")

    def _alpha(self):
        if self.alpha is None:
            raise ThresholdError(f"rule {self.rule!r} needs alpha")
        return self.alpha

    def _frame_nM(self, frame):
        M = self.M if self.M is not None else getattr(frame, "M", None)
        if M is None:
            raise ThresholdError("cyclespin rule needs the shift count M")
        n = frame.n if frame is not None else self.m
        if n is None:
            raise ThresholdError("cyclespin rule needs n")
        return n, M
