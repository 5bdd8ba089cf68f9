"""Concrete frame constructions.

Periodic wavelet bases via multiresolution filter banks (Haar, Daubechies-4,
CDF 9/7), cycle-spinning frames stacking M circular shifts of a wavelet basis,
the fully translation-invariant wavelet frame of all n shifts of a wavelet
basis, and oversampled sine frames.  Every wavelet-family atom is a circular
shift of a unit base atom per scale, materialized once by the basis.

Conventions.  One analysis level computes
    a[k] = sum_m dec_lo[m] x[(2k+m) mod n],   d[k] = sum_m dec_hi[m] x[(2k+m) mod n]
and one synthesis level places rec_lo / rec_hi starting at position 2k.  The
highpass filter arrays are stored pre-shifted so that decompose-then-
reconstruct is the identity with no extra offsets.  Detail coefficients are
labelled (j, k) with scale j in {coarsest_level, ..., J-1} and location
k in {0, ..., 2^j - 1}; the 2^coarsest_level scaling coefficients are carried
through analysis untouched and are never thresholded.

Analysis atoms are renormalized per scale to unit Euclidean norm (exact for
orthonormal filters, a genuine correction for CDF 9/7), so noise coefficients
have variance sigma^2 in every coordinate.

Every frame's analyze and dual_synthesize act along the last axis, so a
(B, n) block of signals is one call.  The filter banks read each tap as a
strided view of the wrap-padded block and follow a plan cached per filter
pair, looked up once per transform.  An analysis level pads its input once
for both filters and computes one product per distinct (offset, |tap|),
which Haar's two filters share.  A synthesis level pads each source (the
approximation and the detail) once, computes one product per distinct
(source, offset, |tap|), computes once a phase sum that both output phases
share (Haar's low-pass), and adds each phase's low- and high-pass sums
straight into the strided halves of one output.  Cycle spinning copies its
M shifts into one (B*M, n) basis call and adds them back by slices, and the
TI and sine analyses are one FFT of the block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import CoefficientVector, ExplicitFrame, Frame, FrameError, IterationError
from .io import read_matrix

SQRT2 = np.sqrt(2.0)


def _qmf(lo):
    l = len(lo)
    return np.array([(-1.0) ** m * lo[l - 1 - m] for m in range(l)])


@dataclass(frozen=True)
class WaveletFilterPair:
    """Analysis/synthesis filter quadruple for one biorthogonal system."""

    name: str
    analysis_lowpass: tuple
    analysis_highpass: tuple
    synthesis_lowpass: tuple
    synthesis_highpass: tuple


_HAAR_LO = (1 / SQRT2, 1 / SQRT2)
_D4_LO = tuple(np.array([1 + np.sqrt(3), 3 + np.sqrt(3),
                         3 - np.sqrt(3), 1 - np.sqrt(3)]) / (4 * SQRT2))

# CDF 9/7 lowpass pair (sqrt(2) DC gain); highpass arrays carry one leading
# zero so that the +1 relative offset needed for perfect reconstruction is
# baked into the stored taps.
_CDF97_DEC_LO = (0.03782845550699535, -0.02384946501937986, -0.11062440441842342,
                 0.37740285561265380, 0.85269867900940344, 0.37740285561265380,
                 -0.11062440441842342, -0.02384946501937986, 0.03782845550699535)
_CDF97_REC_LO = (0.0, -0.06453888262893856, -0.04068941760955867,
                 0.41809227322221221, 0.78848561640566439, 0.41809227322221221,
                 -0.04068941760955867, -0.06453888262893856, 0.0)
_CDF97_DEC_HI = (0.0, 0.0, 0.06453888262893856, -0.04068941760955867,
                 -0.41809227322221221, 0.78848561640566439, -0.41809227322221221,
                 -0.04068941760955867, 0.06453888262893856)
_CDF97_REC_HI = (0.0, 0.03782845550699535, 0.02384946501937986,
                 -0.11062440441842342, -0.37740285561265380, 0.85269867900940344,
                 -0.37740285561265380, -0.11062440441842342, 0.02384946501937986,
                 0.03782845550699535)

HAAR = WaveletFilterPair("haar", _HAAR_LO, tuple(_qmf(np.array(_HAAR_LO))),
                         _HAAR_LO, tuple(_qmf(np.array(_HAAR_LO))))
D4 = WaveletFilterPair("d4", _D4_LO, tuple(_qmf(np.array(_D4_LO))),
                       _D4_LO, tuple(_qmf(np.array(_D4_LO))))
CDF97 = WaveletFilterPair("cdf97", _CDF97_DEC_LO, _CDF97_DEC_HI,
                          _CDF97_REC_LO, _CDF97_REC_HI)
# reversed orientation: analysis on the 7-tap side, whose mother wavelet is
# the smoother one of the pair (the natural choice for translation-invariant
# analysis, which needs a C^1 generator)
CDF97R = WaveletFilterPair("cdf97r", _CDF97_REC_LO, _CDF97_REC_HI,
                           _CDF97_DEC_LO, _CDF97_DEC_HI)

FILTERS = {"haar": HAAR, "d4": D4, "db2": D4, "cdf97": CDF97, "cdf97r": CDF97R}


def get_filters(name):
    try:
        return FILTERS[name.lower()]
    except KeyError:
        raise FrameError(f"unknown wavelet filter family '{name}'") from None


# --- periodic filtering primitives -----------------------------------------
# All act along the last axis; leading axes are a batch of signals.  Each
# wrap-pads each input once and reads every filter tap as a strided view of
# the padded array (polyphase form).  Taps are added in increasing order onto
# a +0.0 start, skipping zero taps, so every output entry sums the same
# nonzero terms in the same order as the circular-shift formulas.

def _wrap_pad(x, before, after):
    """x extended periodically along the last axis: entry i of the result
    is x[(i - before) mod n], for i in [0, before + n + after).  A pad
    longer than x (a 9- or 10-tap CDF 9/7 filter at n = 2) wraps more than
    once, through an index taken mod n.  With no pad, x itself."""
    n = x.shape[-1]
    if before == after == 0:
        return x
    if before > n or after > n:
        return x[..., np.arange(-before, n + after) % n]
    return np.concatenate([x[..., n - before:], x, x[..., :after]], axis=-1)


def _accumulate(sums, p, uses):
    """Add the product p to each sum it enters: onto +0.0 as the first term,
    subtracted for a negative tap.  f x is -(|f| x) and y - p is y + (-p)
    exactly, so every sum has the bits of its own tap-by-tap sum."""
    for k, negative in uses:
        if sums[k] is None:
            sums[k] = np.subtract(0.0, p) if negative else np.add(p, 0.0)
        elif negative:
            sums[k] -= p
        else:
            sums[k] += p


@lru_cache(maxsize=64)
def _product_plan(filters):
    """Analysis plan of several filters read at the same offsets: the wrap
    pad after x, the filter count, and the taps grouped by product, one
    (m, |f[m]|, ((filter index, negative), ...)) per distinct (offset,
    magnitude), in increasing m, skipping zero taps."""
    steps = []
    for m in range(max(len(f) for f in filters)):
        uses = {}
        for i, f in enumerate(filters):
            if m < len(f) and f[m] != 0.0:
                uses.setdefault(abs(f[m]), []).append((i, f[m] < 0.0))
        steps.extend((m, c, tuple(u)) for c, u in uses.items())
    return max(max(len(f) for f in filters) - 2, 0), len(filters), tuple(steps)


def _correlate_down(x, plan):
    """y_i[k] = sum_m f_i[m] x[(2k+m) mod n] for each filter f_i of
    plan = _product_plan(filters), from one wrap pad of x.  Each distinct
    product |f[m]| x[2k+m] is computed once into one buffer and added to
    every output it enters."""
    after, count, steps = plan
    n = x.shape[-1]
    xp = _wrap_pad(x, 0, after)
    ys = [None] * count
    p = np.empty(x.shape[:-1] + (n // 2,))
    for m, c, uses in steps:
        np.multiply(c, xp[..., m:m + n - 1:2], out=p)
        _accumulate(ys, p, uses)
    return [np.zeros_like(p) if y is None else y for y in ys]


@lru_cache(maxsize=64)
def _synthesis_plan(lo, hi):
    """Synthesis plan of one level, x = up(a) * lo + up(d) * hi with
    up(a)[2k] = a[k]: output phase p (i = 2q + p) of a filter f takes the
    taps m = 2t + p, tap m reading a[(q - t) mod n/2], so the source a is
    wrap-padded once by before = (len(f) - 1) // 2 and tap m reads it at
    offset before - t.

    Returns (befores, steps, outputs, sum count).  befores holds one pad
    per source (a for lo, d for hi).  Each (filter, phase) has one sum of
    its nonzero terms in increasing t; two phases with the same terms share
    one sum (Haar's low-pass).  steps holds one (source, offset, |tap|,
    uses) per distinct product in increasing t, uses its ((sum index,
    negative), ...), so every sum receives its terms in order.  outputs
    holds (lo sum index, hi sum index) per phase; a sum with no term stays
    +0.0."""
    befores = tuple((len(f) - 1) // 2 for f in (lo, hi))
    sums = {}
    outputs = []
    products = {}
    for p in (0, 1):
        phase = []
        for i, f in enumerate((lo, hi)):
            terms = tuple(((m - p) // 2, abs(f[m]), f[m] < 0.0)
                          for m in range(p, len(f), 2) if f[m] != 0.0)
            k = sums.setdefault((i, terms), len(sums))
            phase.append(k)
            for t, c, negative in terms:
                uses = products.setdefault((t, i, c), [])
                if (k, negative) not in uses:
                    uses.append((k, negative))
        outputs.append(tuple(phase))
    steps = tuple((i, befores[i] - t, c, tuple(uses))
                  for (t, i, c), uses in sorted(products.items(), key=lambda e: e[0][0]))
    return befores, steps, tuple(outputs), len(sums)


def _up_conv(a, d, plan):
    """x[i] = sum_k a[k] lo[(i-2k) mod n] + sum_k d[k] hi[(i-2k) mod n] for
    plan = _synthesis_plan(lo, hi), n = 2 a.shape[-1]: one wrap pad per
    source, each distinct product computed once into one buffer, and each
    phase's lo and hi sums added into x[..., p::2] of one fresh output."""
    befores, steps, outputs, count = plan
    h = a.shape[-1]
    sources = (_wrap_pad(a, befores[0], 0), _wrap_pad(d, befores[1], 0))
    sums = [None] * count
    p = np.empty(a.shape[:-1] + (h,))
    out = np.empty(a.shape[:-1] + (2 * h,))
    for i, s, c, uses in steps:
        np.multiply(c, sources[i][..., s:s + h], out=p)
        _accumulate(sums, p, uses)
    sums = [0.0 if y is None else y for y in sums]
    for phase, (k_lo, k_hi) in enumerate(outputs):
        np.add(sums[k_lo], sums[k_hi], out=out[..., phase::2])
    return out


def _shift_windows(bases):
    """Read-only (rows, n, n) view of the stack doubled along the shift
    axis: window s of row r is bases[r] rolled by -s."""
    n = bases.shape[1]
    return sliding_window_view(np.concatenate([bases, bases], axis=1), n, axis=1)


def _shifted_atoms(windows, rows, shifts):
    """Circular shifts of unit base atoms: np.roll(bases[rows], shifts),
    gathered from windows = _shift_windows(bases).  Scalar rows/shifts give
    one (n,) atom, index arrays give one atom per row."""
    atoms = windows[rows, -np.asarray(shifts) % windows.shape[-1]]
    # scalar indices select a read-only window view; give the caller its own
    return atoms.copy() if atoms.ndim == 1 else atoms


def _check_dyadic(n):
    if n < 2 or n & (n - 1):
        raise FrameError(f"signal length {n} is not a power of two")
    return int(np.round(np.log2(n)))


# --- decimated multiresolution transform ------------------------------------

def _dwt_raw(x, filt, levels):
    """Detail coefficients per level (finest first) and final approximation;
    each level pads its input once for both analysis filters."""
    plan = _product_plan((filt.analysis_lowpass, filt.analysis_highpass))
    details = []
    a = np.asarray(x, dtype=float)
    for _ in range(levels):
        a, d = _correlate_down(a, plan)
        details.append(d)
    return details, a


def _idwt_raw(details, approx, lo, hi):
    """One synthesis loop, coarsest level first, with the filter pair (lo, hi)
    (sequences of floats).

    The synthesis filters invert _dwt_raw; the analysis filters give the
    adjoint of the analysis map (the same map for orthonormal pairs), which
    materializes analysis atoms in the biorthogonal case.
    """
    plan = _synthesis_plan(tuple(lo), tuple(hi))
    a = np.asarray(approx, dtype=float)
    for d in reversed(details):
        a = _up_conv(a, d, plan)
    return a


class WaveletBasis(Frame):
    """Periodic (bi)orthogonal wavelet basis frame on R^n, n = 2^J.

    The frame's index set holds the detail atoms, scale-major from coarsest
    (paper scale j = coarsest_level) to finest (j = J-1); atom_count equals
    n - 2^coarsest_level.  Scaling coefficients are carried, not indexed.
    """

    def __init__(self, n, filters=HAAR, coarsest_level=0):
        J = _check_dyadic(n)
        if isinstance(filters, str):
            filters = get_filters(filters)
        if not 0 <= coarsest_level < J:
            raise FrameError(f"coarsest_level {coarsest_level} outside [0, {J})")
        self.n = int(n)
        self.J = J
        self.filters = filters
        self.coarsest_level = int(coarsest_level)
        self.levels = J - coarsest_level
        self.atom_count = n - 2 ** coarsest_level
        self.carry_dim = 2 ** coarsest_level
        self.span_dim = self.atom_count
        self.name = f"wavelet[{filters.name},n={n},c={coarsest_level}]"
        js = []
        ks = []
        for j in range(self.coarsest_level, J):
            js.append(np.full(2 ** j, j, dtype=int))
            ks.append(np.arange(2 ** j, dtype=int))
        self._labels = (np.concatenate(js), np.concatenate(ks))
        self._scale_slices = {}
        off = 0
        for j in range(self.coarsest_level, J):
            self._scale_slices[j] = slice(off, off + 2 ** j)
            off += 2 ** j
        # every scale-j atom is a shift of the k = 0 atom by multiples of n/2^j
        raw = self._unit_responses()[:-1]
        self._norms = np.array([np.linalg.norm(row) for row in raw])
        if np.any(self._norms == 0):
            raise FrameError("degenerate wavelet filter: zero atom")
        self._bases = raw / self._norms[:, None]
        self._scale = self._norms[self._labels[0] - self.coarsest_level]
        if filters.analysis_lowpass == filters.synthesis_lowpass:
            self.bounds = (1.0, 1.0)  # orthonormal: the atoms are a basis of their span

    # raw detail list index l (finest first, l=0) corresponds to scale
    # j = J - 1 - l; the stacked layout is coarsest first.

    def _details_to_values(self, details):
        # details is finest-first; the stacked layout is coarsest-first
        return np.concatenate(details[::-1], axis=-1)

    def _values_to_details(self, values):
        return [values[..., self._scale_slices[j]]
                for j in range(self.J - 1, self.coarsest_level - 1, -1)]

    def _unit_responses(self, synthesis=False):
        """Raw (unnormalized) atoms at location 0, one row per unit
        coefficient run through the synthesis loop: the detail atom of each
        scale, coarsest first, then the coarsest scaling atom.  The analysis
        filters give the analysis atoms, the synthesis filters the synthesis
        atoms."""
        rows = self.levels + 1
        details = [np.zeros((rows, 2 ** j)) for j in range(self.J - 1, self.coarsest_level - 1, -1)]
        for row, d in enumerate(details[::-1]):
            d[row, 0] = 1.0
        approx = np.zeros((rows, self.carry_dim))
        approx[-1, 0] = 1.0
        f = self.filters
        pair = ((f.synthesis_lowpass, f.synthesis_highpass) if synthesis
                else (f.analysis_lowpass, f.analysis_highpass))
        return _idwt_raw(details, approx, *pair)

    def analyze(self, signal):
        signal = self._check_signal(signal)
        details, approx = _dwt_raw(signal, self.filters, self.levels)
        values = self._details_to_values(details)
        values /= self._scale  # in the concatenation's fresh array
        return CoefficientVector(values, ("j", "k"), self._labels, carry=approx)

    def dual_synthesize(self, coeffs):
        self._check_coeffs(coeffs)
        details = self._values_to_details(coeffs.values * self._scale)
        approx = coeffs.carry if coeffs.carry is not None \
            else np.zeros(coeffs.values.shape[:-1] + (self.carry_dim,))
        return _idwt_raw(details, approx, self.filters.synthesis_lowpass,
                         self.filters.synthesis_highpass)

    def shift_structure(self, positions):
        # psi_{j,k} is psi_{j,0} shifted by k n/2^j
        j = self._labels[0][positions]
        return (self._bases, j - self.coarsest_level,
                self._labels[1][positions] * (self.n >> j))

    @cached_property
    def _windows(self):
        """_shift_windows of the bases, built on the first atom() of this
        basis or of a cycle-spinning or TI frame built on it, and kept for
        every later one; frames that never materialize atoms never hold the
        doubled stack."""
        return _shift_windows(self._bases)

    def atom(self, position):
        _, rows, shifts = self.shift_structure(position)
        return _shifted_atoms(self._windows, rows, shifts)

    def label_arrays(self):
        return self._labels


# --- cycle spinning ----------------------------------------------------------

def cs_distinct_count(n, M):
    """Number of different atoms among the M-shift copies of the basis
    wavelets at coarsest level 0: n*floor(log2 M) + M*(2^ceil(log2(n/M)) - 1).
    CycleSpinFrame.evt_count gives the count at every coarsest level."""
    if M > n:
        raise FrameError(f"shift count M={M} exceeds n={n}")
    if M < 1:
        raise FrameError("M must be >= 1")
    n, M = int(n), int(M)
    fl = M.bit_length() - 1  # floor(log2 M)
    cl = (-(-n // M) - 1).bit_length()  # ceil(log2(n/M)) = ceil(log2(ceil(n/M)))
    return n * fl + M * (2 ** cl - 1)


class CycleSpinFrame(Frame):
    """M-fold cycle-spinning frame: all atoms T_{-m} psi_{j,k}, m = 0..M-1.

    Index layout is shift-major: block m holds the wavelet atoms of the basis
    shifted by m, in the basis ordering.  Restricted to orthonormal filter
    pairs, for which the dual synthesis is adjoint/M.  At coarsest_level 0
    every shifted basis has the same detail space (the complement of the
    constants), so the frame is tight there with bounds (M, M).  At coarser
    levels the shifted detail spaces differ and a_n < M (haar, n = 64, M = 4,
    coarsest_level 1: a_n = 0.311); bounds then come from the dense
    eigensolve.
    """

    def __init__(self, n, M, filters=HAAR, coarsest_level=0):
        basis = WaveletBasis(n, filters, coarsest_level)
        if basis.filters.analysis_lowpass != basis.filters.synthesis_lowpass:
            raise FrameError("cycle spinning requires an orthonormal wavelet basis")
        M = int(M)
        if M < 1 or (M & (M - 1)):
            raise FrameError(f"shift count M={M} must be a power of two")
        if M > basis.n:
            raise FrameError(f"M={M} exceeds n={basis.n}")
        self.basis = basis
        self.M = M
        self.n = basis.n
        self.atom_count = M * basis.atom_count
        self.carry_dim = M * basis.carry_dim  # one basis carry per shift
        self.span_dim = None  # determined numerically when needed
        if basis.coarsest_level == 0:
            self.bounds = (float(M), float(M))
        self.name = f"cyclespin[{basis.filters.name},n={self.n},M={M}]"
        bj, bk = basis.label_arrays()
        self._labels = (np.tile(bj, M), np.tile(bk, M),
                        np.repeat(np.arange(M), basis.atom_count))

    def analyze(self, signal):
        """The M shifted signals go through one basis analysis as a
        (B*M, n) block; row m of a signal's stack is the signal rolled by -m
        (two slice copies into the stack)."""
        signal = self._check_signal(signal)
        lead = signal.shape[:-1]
        n = self.n
        shifted = np.empty(lead + (self.M, n))
        for m in range(self.M):
            shifted[..., m, :n - m] = signal[..., m:]
            shifted[..., m, n - m:] = signal[..., :m]
        cv = self.basis.analyze(shifted.reshape(-1, n))
        return CoefficientVector(cv.values.reshape(lead + (self.atom_count,)),
                                 ("j", "k", "m"), self._labels,
                                 carry=cv.carry.reshape(lead + (self.carry_dim,)))

    def dual_synthesize(self, coeffs):
        """One basis synthesis of the (B*M, atoms) block of per-shift
        coefficients, then the average of the reconstructions rolled back
        by their shifts, each added in place."""
        self._check_coeffs(coeffs)
        lead = coeffs.values.shape[:-1]
        carry = coeffs.carry
        if carry is not None:
            carry = carry.reshape(-1, self.basis.carry_dim)
        rec = self.basis.dual_synthesize(CoefficientVector(
            coeffs.values.reshape(-1, self.basis.atom_count), ("j", "k"),
            self.basis.label_arrays(), carry=carry))
        rec = rec.reshape(lead + (self.M, self.n))
        out = rec[..., 0, :] + 0.0  # the first shift onto +0.0
        n = self.n
        for m in range(1, self.M):
            # out += np.roll(rec[..., m, :], m, axis=-1), as two slice adds
            out[..., m:] += rec[..., m, :n - m]
            out[..., :m] += rec[..., m, n - m:]
        out /= self.M
        return out

    def shift_structure(self, positions):
        # T_m psi_{j,k} is psi_{j,0} shifted by m + k*n/2^j
        j, k, m = (col[positions] for col in self._labels)
        return (self.basis._bases, j - self.basis.coarsest_level,
                (m + k * (self.n >> j)) % self.n)

    def atom(self, position):
        _, rows, shifts = self.shift_structure(position)
        return _shifted_atoms(self.basis._windows, rows, shifts)

    @property
    def evt_count(self):
        """The atoms of scale j are the 2^j basis atoms, spaced n/2^j
        apart, each shifted by m < M: min(M 2^j, n) distinct shifts of the
        scale's base atom."""
        return sum(min(self.M << j, self.n)
                   for j in range(self.basis.coarsest_level, self.basis.J))

    def distinct_positions(self):
        """One representative per distinct shifted atom: distinctness is
        decided by (row, shift) of the shift structure; the first position
        of each key is kept."""
        _, rows, shifts = self.shift_structure(np.arange(self.atom_count))
        key = rows * self.n + shifts
        return np.sort(np.unique(key, return_index=True)[1])


# --- translation invariant frame ---------------------------------------------

class TIWaveletFrame(Frame):
    """Fully translation-invariant wavelet frame (M = n shifts).

    The union of all n circular shifts of the periodic wavelet basis built
    with the same arguments, held as `basis`.  Coefficients are n shifts at
    every scale, scale-major (coarsest first), shift-minor; entry (j, s) is
    the coefficient of the basis's unit-norm scale-j analysis atom shifted
    by s samples, computed as one FFT cross-correlation of the signal with
    every base atom.  These are the distinct atoms of the multiset
    Omega_n x {0..n-1}; the multiset multiplicity 2^j of each scale-j atom
    enters the frame operator and the dual synthesis, so frame bounds report
    the tight multiset value b_n = n for orthonormal filters.

    The multiset frame operator sum_j 2^j C_j is circulant: its spectrum is
    the FFT symbol computed once at construction, which gives the exact
    frame bounds and the pseudoinverse.  Dual synthesis works on the half
    spectrum of its real inputs: one rfft of the coefficient block, a
    multiply by per-scale kernels 2^j fft(base_j) rest / symbol (0 off the
    span) cached at construction, a sum over scales plus the scaling part,
    and one inverse FFT.  rest is the share of each bin that the scaling
    part leaves to the details: 1 on every detail bin at coarsest level 0,
    where the scaling atom is constant, and below 1 on the low bins above
    it, which the coarser scaling atom also reconstructs.  So
    dual_synthesize(analyze(u)) == u at every coarsest level.
    """

    def __init__(self, n, filters=HAAR, coarsest_level=0):
        basis = WaveletBasis(n, filters, coarsest_level)
        self.basis = basis
        self.n = basis.n
        self.J = basis.J
        self.filters = basis.filters
        self.coarsest_level = basis.coarsest_level
        self.levels = basis.levels
        self.atom_count = self.levels * self.n
        self.carry_dim = self.n  # the undecimated coarsest scaling sequence
        self.name = f"ti[{self.filters.name},n={n},c={coarsest_level}]"
        js = np.repeat(np.arange(self.coarsest_level, self.J), self.n)
        ss = np.tile(np.arange(self.n), self.levels)
        self._labels = (js, ss)
        # analysis = circular cross-correlation with each unit base atom and
        # with the raw scaling atom, done in the Fourier domain: one rfft of
        # the signal, one irfft per scale
        raw = basis._unit_responses()
        self._analysis_mult = np.conj(np.fft.rfft(raw[:-1])) / basis._norms[:, None]
        self._scaling_mult = np.conj(np.fft.rfft(raw[-1]))
        # multiset weights 2^j
        weights = 2.0 ** np.arange(self.coarsest_level, self.J)[:, None]
        ah = np.fft.fft(basis._bases)
        # FFT symbol of the multiset frame operator sum_j 2^j C_j, summed
        # finest first
        sym = (weights * np.abs(ah) ** 2)[::-1].sum(axis=0)
        self._fft_symbol = sym
        self._good = sym > self.n * 1e-12 * sym.max()
        self.span_dim = int(np.count_nonzero(self._good))
        self.bounds = (float(sym[self._good].min()), float(sym.max()))
        # dual synthesis acts on real data, so it needs only the half
        # spectrum (the symbol and the good mask are real and even): per
        # scale 2^j fft(base_j) / symbol on the good bins, 0 elsewhere, and
        # the synthesis scaling atom's spectrum with its 2^c / n shift
        # average folded in
        h = self.n // 2 + 1
        good = self._good[:h]
        self._scaling_synthesis = (np.fft.rfft(basis._unit_responses(synthesis=True)[-1])
                                   * (2 ** self.coarsest_level / self.n))
        # the share of each bin that the scaling part leaves to the details
        rest = 1.0 - self._scaling_synthesis * self._scaling_mult
        self._synthesis_kernel = np.zeros((self.levels, h), dtype=complex)
        self._synthesis_kernel[:, good] = ((weights * ah[:, :h])[:, good] / sym[:h][good]
                                           * rest[good])

    def atom_multiplicity(self, position):
        return 2.0 ** self._labels[0][position]

    def analyze(self, signal):
        signal = self._check_signal(signal)
        spec = np.fft.rfft(signal)
        vals = np.fft.irfft(spec[..., None, :] * self._analysis_mult, self.n)
        vals = vals.reshape(signal.shape[:-1] + (self.atom_count,))
        carry = np.fft.irfft(spec * self._scaling_mult, self.n)
        return CoefficientVector(vals, ("j", "s"), self._labels, carry=carry)

    def dual_synthesize(self, coeffs):
        """The shift-averaged scaling reconstruction
        (1/n) sum_s carry[s] T_s phi_synth, the average over all shifted
        bases of their scaling-space reconstructions, plus the multiset
        pseudoinverse of the details on the share of each bin the scaling
        part leaves to them.  Both parts are summed on the half spectrum and
        leave through one inverse FFT."""
        self._check_coeffs(coeffs)
        values = coeffs.values
        spec = np.fft.rfft(values.reshape(values.shape[:-1] + (self.levels, self.n)))
        spec *= self._synthesis_kernel
        y = spec.sum(axis=-2)  # coarsest first
        if coeffs.carry is not None:
            y += np.fft.rfft(coeffs.carry) * self._scaling_synthesis
        return np.fft.irfft(y, self.n)

    def shift_structure(self, positions):
        j, s = (col[positions] for col in self._labels)
        return self.basis._bases, j - self.coarsest_level, s

    def atom(self, position):
        _, rows, shifts = self.shift_structure(position)
        return _shifted_atoms(self.basis._windows, rows, shifts)


# --- sine frames --------------------------------------------------------------

#: conjugate-gradient stopping rule of the sine dual synthesis: relative
#: (recursive) residual and iteration cap
_CG_RTOL = 1e-14
_CG_MAX_ITER = 100


class SineFrame(Frame):
    """Oversampled sine frame: unit-norm atoms sin(pi w k / n) for w on the
    grid {1/r, 2/r, ..., n} without w = n, the one grid point whose raw atom
    vanishes identically.  The atoms span the subspace {u : u(0) = 0};
    r = 1 gives an orthonormal basis of it.

    Analysis and its adjoint are zero-padded FFTs of length 2rn, one per
    (B, n) or (B, m) block; the grid point w = m/r sits at FFT bin m, so
    both address the contiguous bins 1..rn-1.  For r <= 2 the frame is tight
    with exact bounds a_n = b_n = (rn - 1)/(n - 1): the r = 1 atoms are an
    orthonormal basis of the span, and for r = 2 the odd-bin atoms have
    squared norm (n - 1)/2 and sum to (n/2) P_span.  Its dual synthesis is
    then the adjoint divided by a_n, one FFT per block (the frame algorithm
    converges in one step).  For r >= 3 the frame is not tight: dual
    synthesis solves the frame-operator equation row by row by conjugate
    gradients on the two FFT maps (the accelerated frame algorithm), which
    takes 6-7 iterations since b_n/a_n stays below 1.18 for r <= 8
    (measured at n = 64 and 1024), and the frame bounds come from the dense
    eigensolve of core.frame_bounds.  No n x n matrix is built.
    """

    def __init__(self, n, oversample=1):
        if oversample < 1 or int(oversample) != oversample:
            raise FrameError("oversample must be a positive integer")
        if n < 2:
            raise FrameError(f"sine frame needs n >= 2, got {n}")
        self.n = int(n)
        self.oversample = int(oversample)
        r = self.oversample
        # the grid {1/r, ..., n}; w = n is the one point whose atom vanishes
        w = np.arange(1, r * self.n) / r
        self.frequencies = w
        # ||sin(pi w k / n)||^2 over k < n, by summing the cosine series
        self._raw_norms = np.sqrt(self.n / 2 - 0.5 * np.sin(np.pi * w)
                                  * np.cos(np.pi * w * (self.n - 1) / self.n)
                                  / np.sin(np.pi * w / self.n))
        self.atom_count = len(w)
        self.span_dim = self.n - 1
        if r <= 2:
            self.bounds = ((r * self.n - 1) / (self.n - 1),) * 2
        self.name = f"sine[n={n},r={oversample}]"
        self._labels = (np.arange(self.atom_count),)
        # the raw coefficient at w = m/r is -Im(FFT_{2rn}(x))[m], m = 1..rn-1;
        # -a / b is a / (-b) exactly, so the negation rides on the division
        self._fft_len = 2 * self.oversample * self.n
        self._negated_norms = -self._raw_norms

    def project_span(self, u):
        u = self._check_signal(u).copy()
        u[..., 0] = 0.0
        return u

    def _analysis(self, x):
        """Unit-atom coefficients <phi_w, x> of a signal block."""
        spec = np.fft.rfft(x, self._fft_len)
        return spec.imag[..., 1:self.atom_count + 1] / self._negated_norms

    def _adjoint(self, values, scale=1.0):
        """Phi^T c / scale = sum_w c_w phi_w / scale for a coefficient block,
        by one FFT of the coefficients placed at bins 1..rn-1 (the zero
        padding supplies the rest).  The FFT gives -Phi^T c, and one division
        by -scale both negates and scales it."""
        d = np.empty(values.shape[:-1] + (self.atom_count + 1,))
        d[..., 0] = 0.0
        np.divide(values, self._raw_norms, out=d[..., 1:])
        return np.divide(np.fft.rfft(d, self._fft_len).imag[..., :self.n], -scale)

    def analyze(self, signal):
        signal = self._check_signal(signal)
        return CoefficientVector(self._analysis(signal), ("omega",), self._labels)

    def dual_synthesize(self, coeffs):
        """The pseudoinverse Phi^+ c.  A tight frame (r <= 2) gives it in one
        step, Phi^T c / a_n, for the whole block.  Otherwise conjugate
        gradients solve Phi^T Phi x = Phi^T c from 0, row by row since each
        row stops at its own iteration count: the iterates stay in the atom
        span, so the limit is the minimum-norm solution."""
        self._check_coeffs(coeffs)
        values = coeffs.values
        if self.bounds is not None and self.bounds[0] == self.bounds[1]:
            out = self._adjoint(values, self.bounds[0])
            out[..., 0] = 0.0  # the span's zero coordinate, +0.0 rather than -0.0
            return out
        out = np.empty(values.shape[:-1] + (self.n,))
        for row in np.ndindex(values.shape[:-1]):
            out[row] = self._solve(values[row])
        return out

    def _solve(self, values):
        """Conjugate gradients for one coefficient vector.  An overflowed
        input stops the iteration at its first non-finite residual and gives
        an all-NaN row: there is no finite solution to converge to."""
        r = self._adjoint(values)
        x = np.zeros(self.n)
        p = r.copy()
        rr = r @ r
        tol = _CG_RTOL ** 2 * rr
        it = 0
        while math.isfinite(rr) and not rr <= tol:
            if it == _CG_MAX_ITER:
                raise IterationError(
                    f"sine dual synthesis did not reach residual {_CG_RTOL}", it)
            it += 1
            q = self._adjoint(self._analysis(p))
            step = rr / (p @ q)
            x += step * p
            r -= step * q
            rr, rr_old = r @ r, rr
            p = r + (rr / rr_old) * p
        if not math.isfinite(rr):
            x.fill(np.nan)
        return x

    def atom(self, position):
        k = np.arange(self.n)
        w = self.frequencies[position][..., None]
        return np.sin(np.pi * w * k / self.n) / self._raw_norms[position][..., None]


# --- frame construction from JSON specs ---------------------------------------

_WAVELET_SPEC_KEYS = ("n", "filters", "coarsest_level")
#: the keys each frame type takes besides type, named as its constructor's
#: parameters
_SPEC_KEYS = {"wavelet": _WAVELET_SPEC_KEYS, "ti": _WAVELET_SPEC_KEYS,
              "cyclespin": (*_WAVELET_SPEC_KEYS, "M"), "sine": ("n", "oversample"),
              "explicit": ("matrix_path", "name")}
#: the keys besides n that a type needs (an explicit frame takes no n)
_NEEDED_SPEC_KEYS = {"cyclespin": ("M",), "explicit": ("matrix_path",)}
_SPEC_FRAMES = {"wavelet": WaveletBasis, "cyclespin": CycleSpinFrame, "ti": TIWaveletFrame,
                "sine": SineFrame}
_INTEGER_SPEC_KEYS = ("n", "M", "oversample", "coarsest_level")
_STRING_SPEC_KEYS = ("type", "filters", "matrix_path", "name")


def load_frame_spec(spec):
    """A frame spec as a dict, from a JSON string, a dict, or a file path,
    with every field checked that does not depend on n.

    Raises OSError for an unreadable file, json.JSONDecodeError for bad
    JSON and FrameError for a spec that is not a JSON object, names an
    unknown type or filter family, lacks a key its type needs, holds a key
    its type does not take or holds a field of the wrong JSON type.
    """
    if isinstance(spec, str):
        if spec.strip().startswith("{"):
            spec = json.loads(spec)
        else:
            with open(spec) as fh:
                spec = json.load(fh)
    if not isinstance(spec, dict):
        raise FrameError("frame spec must be a JSON object")
    for key in _STRING_SPEC_KEYS:
        if key in spec and not isinstance(spec[key], str):
            raise FrameError(f"frame spec {key!r} must be a string, got {spec[key]!r}")
    kind = spec.get("type")
    for key in _NEEDED_SPEC_KEYS.get(kind, ()):
        if spec.get(key) is None:
            raise FrameError(f"{kind} frame spec needs {key!r}")
    for key in _INTEGER_SPEC_KEYS:
        value = spec.get(key)
        if key in spec and (isinstance(value, bool)
                            or not isinstance(value, (int, np.integer))):
            raise FrameError(f"frame spec {key!r} must be an integer, got {value!r}")
    if kind not in _SPEC_KEYS:
        raise FrameError(f"unknown frame type {kind!r}")
    unknown = sorted(set(spec) - {"type", *_SPEC_KEYS[kind]})
    if unknown:
        raise FrameError(f"{kind} frame spec takes no key {unknown[0]!r}; it takes "
                         f"{', '.join(_SPEC_KEYS[kind])}")
    if "filters" in spec:
        get_filters(spec["filters"])
    return spec


def frame_from_spec(spec):
    """Build a frame from a JSON spec string, dict, or file path.

    {"type": "wavelet"|"ti", "n": ..., "filters": "haar"|"d4"|"cdf97"|"cdf97r",
     "coarsest_level": ...}, cyclespin the same plus "M",
    {"type": "sine", "n": ..., "oversample": ...} or
    {"type": "explicit", "matrix_path": ..., "name": ...}

    Any other key raises FrameError.  n, M, oversample and coarsest_level
    must be JSON integers; type, filters, matrix_path and name JSON
    strings.  A key left out takes the constructor's default.  An explicit
    frame's matrix is read with io.read_matrix: OSError for an unreadable
    file, io.FileFormatError for one that does not parse.
    """
    args = dict(load_frame_spec(spec))
    kind = args.pop("type")
    if kind == "explicit":
        return ExplicitFrame(read_matrix(args.pop("matrix_path")), **args)
    if "n" not in args:
        raise FrameError(f"{kind} frame spec needs 'n'")
    return _SPEC_FRAMES[kind](**args)
