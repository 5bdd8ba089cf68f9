"""Smoothness functionals on coefficient vectors.

Weighted l2 norms and scale-weighted l^{p,q} (Besov-style) mixed norms for
scale-labelled coefficients.  All shipped functionals are monotone under
coordinatewise domination of magnitudes, the exact hypothesis behind the
smoothness claim for soft thresholding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .io import read_signal

KINDS = ("weighted_l2", "pqr_wavelet")
#: the keys of a JSON norm spec
_JSON_KEYS = ("kind", "p", "q", "r", "weights", "weights_path")


class NormSpecError(ValueError):
    pass


@dataclass(frozen=True)
class NormSpec:
    """kind 'weighted_l2' uses per-coefficient weights c(omega) > 0
    (default all ones); 'pqr_wavelet' uses p, q >= 1 and r >= 0 with scale
    exponent s = r + 1/2 - 1/p."""

    kind: str
    p: float = 2.0
    q: float = 2.0
    r: float = 0.0
    weights: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise NormSpecError(f"unknown norm kind {self.kind!r}")
        if self.kind == "pqr_wavelet":
            if self.p < 1 or self.q < 1:
                raise NormSpecError("norm parameters p, q must be >= 1")
            if self.r < 0:
                raise NormSpecError("smoothness parameter r must be >= 0")
        if self.weights is not None and np.any(np.asarray(self.weights) <= 0):
            raise NormSpecError("weights must be strictly positive")

    @property
    def scale_exponent(self):
        if self.kind == "pqr_wavelet":
            return self.r + 0.5 - 1.0 / self.p
        raise NormSpecError("weighted_l2 has no scale exponent")

    @staticmethod
    def from_json(text):
        """Parse the JSON text {"kind": ..., "p": ..., "q": ..., "r": ...,
        "weights": [...]} or with a "weights_path" pointing at a signal file
        (io.read_signal).
        Raises NormSpecError for a malformed spec or one with any other key,
        and OSError or io.FileFormatError for a weights file that cannot be
        read."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise NormSpecError("norm spec must be a JSON object")
        unknown = sorted(set(obj) - set(_JSON_KEYS))
        if unknown:
            raise NormSpecError(f"norm spec takes no key {unknown[0]!r}; it takes "
                                f"{', '.join(_JSON_KEYS)}")
        weights = obj.get("weights")
        if weights is None and "weights_path" in obj:
            weights = read_signal(str(obj["weights_path"])).tolist()
        p, q, r = obj.get("p", 2.0), obj.get("q", 2.0), obj.get("r", 0.0)
        if not isinstance(weights, (list, type(None))) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in [p, q, r, *(weights or ())]):
            raise NormSpecError("norm spec p, q, r and weights must be finite numbers, "
                                "weights a list of them")
        return NormSpec(kind=obj.get("kind"), p=p, q=q, r=r,
                        weights=None if weights is None else tuple(weights))


def evaluate(spec, coeffs):
    """Evaluate the functional on a core.CoefficientVector.

    weighted_l2: sqrt(sum c(w) |x(w)|^2)
    pqr_wavelet: (sum_j 2^{jsq} ||x(j,.)||_p^q)^{1/q} over the scale label j
    Carried scaling coefficients are not part of the index set and hence are
    excluded, matching the detail-space estimator.  A (B, m) block of values
    gives an array of B values, one per row; 1-D values give a float.  A
    scale weight 2^{jsq} past the float range raises NormSpecError.
    """
    x = coeffs.values
    if spec.kind == "weighted_l2":
        if spec.weights is None:
            w = np.ones_like(x)
        else:
            w = np.asarray(spec.weights, dtype=float)
            if len(w) != coeffs.count:
                raise NormSpecError(
                    f"weight vector length {len(w)} does not match "
                    f"{coeffs.count} coefficients")
        return _per_row(np.sqrt(np.sum(w * x ** 2, axis=-1)))
    groups = _scale_groups(spec, coeffs)
    s = spec.scale_exponent
    total = 0.0
    for j, idx in groups:
        a = np.abs(x[..., idx] if isinstance(idx, slice) else x.take(idx, axis=-1))
        if spec.p != 1.0:
            a **= spec.p
        block_p = _scalar_pow(np.sum(a, axis=-1), 1.0 / spec.p)
        try:
            weight = 2.0 ** (j * s * spec.q)
        except OverflowError:
            raise NormSpecError(f"pqr_wavelet scale weight 2^(j s q) overflows at scale "
                                f"j={j}, s={s}, q={spec.q}") from None
        total += weight * _scalar_pow(block_p, spec.q)
    return _per_row(_scalar_pow(total, 1.0 / spec.q))


def _scalar_pow(values, exponent):
    """values ** exponent by numpy's scalar power, one value at a time.
    numpy's vectorized pow can differ from it in the last ulp, so this keeps
    each row of a block equal to the evaluation of that row alone.  The
    exponent 1.0 returns the values as they are (v ** 1.0 is v)."""
    if exponent == 1.0:
        return values
    values = np.asarray(values)
    return np.array([v ** exponent for v in values.flat]).reshape(values.shape)


def _per_row(value):
    """A float for one coefficient vector, the array for a block."""
    return float(value) if np.ndim(value) == 0 else value


#: id(j column) -> (j column, groups); the entry holds its column, so its
#: id is not reused while it lives
_GROUP_CACHE = {}


def _scale_groups(spec, coeffs):
    """The (j, positions) groups of the scale labels, in ascending j.
    Cached per label column object: frames hand the same (unchanging)
    columns to every coefficient vector they make, so a hit costs one
    lookup; a new column, equal or not, is grouped afresh."""
    names = coeffs.label_names
    if "j" not in names:
        raise NormSpecError(
            f"{spec.kind} needs scale-labelled coefficients, got labels {names}")
    jcol = coeffs.labels[names.index("j")]
    hit = _GROUP_CACHE.get(id(jcol))
    if hit is not None:
        return hit[1]
    order = {}
    for i, j in enumerate(jcol.tolist()):
        order.setdefault(j, []).append(i)
    groups = [(j, _run_or_index(idx)) for j, idx in sorted(order.items())]
    if len(_GROUP_CACHE) > 64:
        _GROUP_CACHE.clear()
    _GROUP_CACHE[id(jcol)] = (jcol, groups)
    return groups


def _run_or_index(idx):
    """The ascending positions idx as a slice when they are one contiguous
    run (each scale of a wavelet basis), so that indexing gives a view, not
    a copy; else as an index array for take (the M runs of a cycle-spinning
    scale).  take copies a block C-ordered, so each row sums as that row
    alone; fancy indexing would give an F-ordered copy, summed otherwise."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx)
