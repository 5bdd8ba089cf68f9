"""Extreme-value machinery: Gumbel law, normalizing constants, thresholds.

All rules are closed-form in 64-bit arithmetic.  Quantile/cdf round trips are
self-consistent to 1e-12.  Threshold values scale linearly in sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ThresholdError(ValueError):
    """A threshold that cannot be formed.  param names the input at fault:
    a ThresholdSpec field (sigma, alpha, z, value, rule) or what the rule
    reads from the frame (m, n, M, c, filters)."""

    def __init__(self, message, param):
        super().__init__(message)
        self.param = param


def gumbel_cdf(z):
    """exp(-e^{-z})."""
    return np.exp(-np.exp(-np.asarray(z, dtype=float)))


def gumbel_quantile(alpha):
    """z(alpha) = -log log(1/(1-alpha)): the point with exceedance
    probability alpha under the Gumbel law, i.e. gumbel_cdf(z) = 1 - alpha."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ThresholdError(f"significance level alpha={alpha} outside (0, 1)", "alpha")
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


def _log_count(m):
    """log m of a count m >= 2; math.log takes an int of any size, which
    float(m) would overflow past 10^308."""
    if m < 2:
        raise ThresholdError(f"coefficient count m={m} must be >= 2", "m")
    return math.log(m)


def norms_chi(m):
    """a = 1/sqrt(2 log m), b = sqrt(2 log m) - (log log m + log pi)/(2 sqrt(2 log m))."""
    log_m = _log_count(m)
    s = math.sqrt(2.0 * log_m)
    b = s - (math.log(log_m) + math.log(math.pi)) / (2.0 * s)
    return GumbelNorms(a=1.0 / s, b=b, flavor="chi", m=int(m))


def norms_normal(m):
    """Same as norms_chi but with log(4 pi): maxima without absolute values."""
    log_m = _log_count(m)
    s = math.sqrt(2.0 * log_m)
    b = s - (math.log(log_m) + math.log(4.0 * math.pi)) / (2.0 * s)
    return GumbelNorms(a=1.0 / s, b=b, flavor="normal", m=int(m))


def universal_threshold(sigma, m):
    """Donoho-Johnstone universal threshold sigma*sqrt(2 log m)."""
    _check_sigma(sigma)
    return sigma * math.sqrt(2.0 * _log_count(m))


def threshold_from_zn(sigma, m, z):
    """sigma*sqrt(2 log m) + sigma*(2z - log log m - log pi)/(2 sqrt(2 log m)).

    The family of thresholds with the asymptotic denoising property when
    z = z_n -> infinity; z fixed gives the sharp confidence radius.
    """
    _check_sigma(sigma)
    log_m = _log_count(m)
    s = math.sqrt(2.0 * log_m)
    return sigma * (s + (2.0 * float(z) - math.log(log_m) - math.log(math.pi)) / (2.0 * s))


def evt_threshold(sigma, alpha, m):
    """Extreme value threshold at significance alpha: threshold_from_zn with
    z = gumbel_quantile(alpha); equivalently sigma*(a*z(alpha) + b) in chi norms."""
    return threshold_from_zn(sigma, m, gumbel_quantile(alpha))


def cyclespin_location(n, M):
    """b_M(chi, n): cycle-spinning location constant with the additive
    2 log log2(M) correction."""
    _check_shift_count(n, M)
    log_n = _log_count(n)
    s = math.sqrt(2.0 * log_n)
    return s + (-math.log(log_n) - math.log(math.pi)
                + 2.0 * math.log(math.log2(M))) / (2.0 * s)


def cyclespin_threshold(sigma, alpha, n, M):
    """-sigma*a(chi,n)*log log(1/(1-alpha)) + sigma*b_M(chi,n).

    Exceeds the basis threshold by sigma*log(log2 M)/sqrt(2 log n).
    """
    _check_sigma(sigma)
    z = gumbel_quantile(alpha)
    a = 1.0 / math.sqrt(2.0 * _log_count(n))
    return sigma * (a * z + cyclespin_location(n, M))


def _check_shift_count(n, M):
    M = int(M)
    if M < 2:
        raise ThresholdError(
            "cycle-spin threshold needs M >= 2 (use evt_threshold for a basis)", "M")
    if M & (M - 1):
        raise ThresholdError(f"shift count M={M} must be a power of two", "M")
    if M > n:
        raise ThresholdError(f"shift count M={M} exceeds n={n}", "M")


def ti_threshold(sigma, alpha, n, c):
    """Translation-invariant threshold
    sigma*[sqrt(2 log n) + (z(alpha) + log(c/pi))/sqrt(2 log n)],
    c the curvature constant of the mother wavelet autocorrelation."""
    if n < 4:
        raise ThresholdError("ti threshold needs n >= 4", "n")
    return ti_threshold_at_z(sigma, gumbel_quantile(alpha), n, c)


def ti_threshold_at_z(sigma, z, n, c):
    """As ti_threshold but at a raw Gumbel argument z instead of a level."""
    _check_sigma(sigma)
    if c <= 0:
        raise ThresholdError(f"autocorrelation curvature constant c={c} must be > 0", "c")
    s = math.sqrt(2.0 * math.log(n))
    return sigma * (s + (float(z) + math.log(c / math.pi)) / s)


def _check_sigma(sigma):
    if not sigma > 0:
        raise ThresholdError(f"noise level sigma={sigma} must be > 0", "sigma")


#: how near an eigenvalue counts as 1, 1/2 or 1/4 (d4's double 1/4 splits by 1e-8)
_SPECTRUM_TOL = 1e-6


def ti_constant_c(filters):
    """Curvature constant c = sqrt(-kappa''(0)) of the autocorrelation kappa
    of the analysis mother wavelet of a WaveletFilterPair, exactly from the
    taps by connection coefficients (Beylkin, "On the representation of
    operators in bases of compactly supported wavelets", SIAM J. Numer. Anal.
    1992).  The scaling autocorrelation A(x) = int phi(t) phi(t - x) dt is
    refinable with filter a, the autocorrelation of the analysis low-pass, so
    at the integers A is the eigenvector of T[k, l] = a[2k - l] for
    eigenvalue 1 (scaled to sum A(k) = 1) and A'' the one for 1/4 (scaled to
    sum k^2 A''(k) = 2).  With b the autocorrelation of the analysis
    high-pass, Psi(0) = sum_l b_l A(-l), Psi''(0) = 4 sum_l b_l A''(-l) and
    c = sqrt(-Psi''(0) / Psi(0)).

    The same spectrum decides whether c exists (Villemoes, SIAM J. Math.
    Anal. 1994): with one copy each of 1, 1/2 and 1/4 set aside, the largest
    remaining |eigenvalue| rho gives the Sobolev exponent s = -log4(rho),
    and kappa''(0) exists when s > 1.  Raises ThresholdError otherwise
    (Haar s = 1/2, D4 s = 1).
    """
    lo, hi = filters.analysis_lowpass, filters.analysis_highpass
    a, b = np.correlate(lo, lo, "full"), np.correlate(hi, hi, "full")
    half = len(a) // 2
    k = np.arange(-half, half + 1)
    taps = 2 * k[:, None] - k + half  # the index of a[2k - l], -1 outside a
    taps[(taps < 0) | (taps >= len(a))] = -1
    eigvals, eigvecs = np.linalg.eig(np.append(a, 0.0)[taps])
    rest, found = list(range(len(eigvals))), {}
    for target in (1.0, 0.5, 0.25):
        i = min(rest, key=lambda j: abs(eigvals[j] - target))
        if abs(eigvals[i] - target) < _SPECTRUM_TOL:
            rest.remove(i)
            found[target] = eigvecs[:, i].real
    rho = np.max(np.abs(eigvals[rest]), initial=0.0)
    if len(found) < 3 or rho >= 0.25 - _SPECTRUM_TOL:
        raise ThresholdError(
            f"wavelet '{filters.name}' has Sobolev exponent {-math.log(rho, 4):.3g}, "
            "not above 1: its autocorrelation has no curvature at 0", "filters")
    at_zero = len(b) // 2 + half  # sum_l b_l f(-l) is this entry of b * f
    psi0 = np.convolve(b, found[1.0] / found[1.0].sum())[at_zero]
    psi2 = 4.0 * np.convolve(b, found[0.25] * 2.0 / np.dot(k ** 2, found[0.25]))[at_zero]
    return math.sqrt(-psi2 / psi0)


# --- threshold rule selection -------------------------------------------------

@dataclass(frozen=True)
class ThresholdSpec:
    """Which threshold rule plus its parameters.

    rule: 'universal' | 'evt' | 'from_zn' | 'cyclespin' | 'ti' | 'fixed'.
    The rest of what a rule but 'fixed' needs are counts: n and what
    frame_inputs reads from a frame, or the arguments of resolve_counts.
    """

    rule: str
    sigma: float
    alpha: float | None = None
    z: float | None = None
    value: float | None = None

    def resolve(self, frame=None):
        """resolve_counts of frame.n and frame_inputs(frame); only 'fixed' needs no frame."""
        if frame is None and self.rule != "fixed":
            raise ThresholdError(f"rule {self.rule!r} resolves against a frame", "m")
        return self.resolve_counts(getattr(frame, "n", None), **self.frame_inputs(frame))

    def resolve_counts(self, n=None, m=None, M=None, c=None):
        """Numeric threshold: the fixed rule's value, or sigma times the
        rule's unit threshold (its value at sigma = 1) of the counts n, m,
        M ('cyclespin') and c ('ti').  Raises ThresholdError naming the
        input at fault: a unit threshold that is not finite and > 0 blames z
        for 'from_zn' and the count m for the other rules, and a product
        that is not (sigma past the float range) blames sigma."""
        _check_sigma(self.sigma)
        if self.rule == "fixed":
            if self.value is None or not self.value >= 0:
                raise ThresholdError("fixed rule needs a nonnegative value", "value")
            return float(self.value)
        unit = self._unit(n, m, M, c)
        if not 0 < unit < math.inf:
            raise ThresholdError(f"rule {self.rule!r} at sigma 1 resolved to {unit}, not a "
                                 "finite threshold > 0", "z" if self.rule == "from_zn" else "m")
        value = self.sigma * unit
        if not 0 < value < math.inf:
            raise ThresholdError(f"sigma={self.sigma} times the unit threshold {unit} of rule "
                                 f"{self.rule!r} is {value}, not a finite threshold > 0", "sigma")
        return value

    def _unit(self, n, m, M, c):
        """The rule's threshold at sigma = 1; each rule's function is sigma
        times it, so resolve_counts' product has the same bits."""
        if self.rule == "universal":
            return universal_threshold(1.0, m)
        if self.rule == "evt":
            return evt_threshold(1.0, self._alpha(), m)
        if self.rule == "from_zn":
            if self.z is None:
                raise ThresholdError("from_zn rule needs z", "z")
            return threshold_from_zn(1.0, m, self.z)
        if self.rule == "cyclespin":
            return cyclespin_threshold(1.0, self._alpha(), n, M)
        if self.rule == "ti":
            return ti_threshold(1.0, self._alpha(), n, c)
        raise ThresholdError(f"unknown threshold rule {self.rule!r}", "rule")

    def frame_inputs(self, frame):
        """What the rule reads from the frame beside n: m = frame.evt_count
        for every rule but 'fixed', the shift count M of a cycle-spinning
        frame for 'cyclespin', and c = ti_constant_c(frame.filters) of a
        WaveletBasis or TIWaveletFrame for 'ti'."""
        if self.rule == "fixed":
            return {}
        inputs = {"m": frame.evt_count}
        if self.rule == "cyclespin":
            inputs["M"] = getattr(frame, "M", None)
            if inputs["M"] is None:
                raise ThresholdError("cyclespin rule needs the shift count M", "M")
        if self.rule == "ti":
            if getattr(frame, "filters", None) is None:
                raise ThresholdError(
                    f"ti rule needs a wavelet basis or ti frame, not {frame.name}", "filters")
            inputs["c"] = ti_constant_c(frame.filters)
        return inputs

    def _alpha(self):
        if self.alpha is None:
            raise ThresholdError(f"rule {self.rule!r} needs alpha", "alpha")
        return self.alpha
