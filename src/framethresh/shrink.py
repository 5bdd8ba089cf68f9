"""Shrinkage rules and the frame denoising estimator.

The estimator is analysis -> coefficient-wise shrinkage -> dual synthesis.
Carried (scaling) coefficients pass through untouched.  Only the soft rule
satisfies the shrinkage property |F(y +/- T, T)| <= |y| that the smoothness
claim rests on; hard (which maps y + T to itself once past the threshold) and
the nonnegative garrote both violate it, so the smoothness experiment
soft-thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoefficientVector, DimensionMismatch
from .evt import ThresholdError

SHRINKAGE_RULES = ("soft", "hard", "garrote")


def shrink_value(y, threshold, rule="soft"):
    """Apply a shrinkage rule coefficient-wise.

    soft:    sign(y) (|y| - T)_+          (soft(T, T) = 0)
    hard:    y 1{|y| >= T}                (hard(T, T) = T: boundary kept)
    garrote: y max(1 - T^2/y^2, 0), 0 at y = 0
    """
    if not threshold >= 0:  # also refuses NaN
        raise ThresholdError(f"threshold {threshold} must be >= 0", "value")
    y = np.asarray(y, dtype=float)
    if rule == "soft":
        # in place on one fresh array; [()] gives a 0-d input its scalar
        a = np.abs(y, out=np.empty_like(y))
        a -= threshold
        np.maximum(a, 0.0, out=a)
        return np.copysign(a, y, out=a)[()]
    a = np.abs(y)
    if rule == "hard":
        return np.where(a >= threshold, y, 0.0)
    if rule == "garrote":
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(y != 0.0, 1.0 - (threshold / np.where(y != 0.0, a, 1.0)) ** 2, 0.0)
        return y * np.maximum(factor, 0.0)
    raise ValueError(f"unknown shrinkage rule {rule!r}")


@dataclass
class DenoiseResult:
    estimate: np.ndarray
    thresholded_coeffs: CoefficientVector
    threshold_used: float
    kept_count: int
    rule: str


def denoise(frame, data, spec, rule="soft"):
    """Frame soft/hard/garrote thresholding estimator.

    spec is a ThresholdSpec (a fixed threshold T is
    ThresholdSpec("fixed", sigma, value=T)); the resolved threshold applies
    to all indexed coefficients, never to the carry.  kept_count counts
    coefficients with |Y(omega)| > T.
    """
    if rule not in SHRINKAGE_RULES:
        raise ValueError(f"unknown shrinkage rule {rule!r}")
    threshold = spec.resolve(frame)
    coeffs = frame.analyze(data)
    shrunk = coeffs.replace_values(shrink_value(coeffs.values, threshold, rule))
    estimate = frame.dual_synthesize(shrunk)
    # one count for every rule: soft's |y| - T > 0 exactly when |y| > T, and
    # a NaN y, or |y| = T = inf, is kept by neither
    kept = int(np.count_nonzero(np.abs(coeffs.values) > threshold))
    return DenoiseResult(estimate=estimate, thresholded_coeffs=shrunk,
                         threshold_used=threshold, kept_count=kept, rule=rule)


def confidence_region_contains(center, threshold, candidate):
    """Membership in the sup-norm ball of radius T around the data
    coefficients: true iff ||candidate - center||_inf <= T.  Both are
    CoefficientVectors over the same index set (same length and labels)."""
    if center.count != candidate.count:
        raise DimensionMismatch("coefficient index sets differ in length")
    for a, b in zip(center.labels, candidate.labels):
        if not np.array_equal(a, b):
            raise DimensionMismatch("coefficient index sets differ")
    return bool(center.count == 0
                or np.max(np.abs(candidate.values - center.values)) <= threshold)
