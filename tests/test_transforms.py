import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framethresh.core import CoefficientVector, DimensionMismatch, ExplicitFrame, FrameError
from framethresh.shrink import shrink_value
from framethresh.transforms import (CDF97, CDF97R, D4, FILTERS, HAAR, CycleSpinFrame,
                                    SineFrame, TIWaveletFrame, WaveletBasis, WaveletFilterPair,
                                    _analysis_plan, _dwt_raw, _idwt_raw, _shift_windows,
                                    _shifted_atoms, _synthesis_plan,
                                    cs_distinct_count, frame_from_spec, get_filters,
                                    load_frame_spec)

SQ2 = np.sqrt(2.0)


def _arrays(filt):
    """The analysis low/high and synthesis low/high taps as arrays."""
    return tuple(np.array(f) for f in (filt.analysis_lowpass, filt.analysis_highpass,
                                       filt.synthesis_lowpass, filt.synthesis_highpass))


# --- filter pairs -------------------------------------------------------------

@pytest.mark.parametrize("filt,min_len", [(HAAR, 2), (D4, 4), (CDF97, 10)])
def test_one_level_perfect_reconstruction_even_lengths(filt, min_len, rng):
    for n in range(min_len, min_len + 12, 2):
        x = rng.standard_normal(n)
        details, approx = _dwt_raw(x, filt, 1)
        rec = _idwt_raw(details, approx, *_arrays(filt)[2:])
        assert np.max(np.abs(rec - x)) < 1e-10


# --- periodic filtering primitives against the circular-shift formulas ---------
# The oracles add f[m] * (x circularly shifted by m) in increasing m onto a
# +0.0 start; the up-convolution shifts the zero-stuffed coefficients.

def _roll_correlate_down(x, f):
    y = np.zeros(x.shape[:-1] + (x.shape[-1] // 2,))
    for m, fm in enumerate(f):
        if fm != 0.0:
            y += fm * np.roll(x, -m, axis=-1)[..., ::2]
    return y


def _roll_up_conv(a, f, n):
    up = np.zeros(a.shape[:-1] + (n,))
    up[..., ::2] = a
    y = np.zeros_like(up)
    for m, fm in enumerate(f):
        if fm != 0.0:
            y += fm * np.roll(up, m, axis=-1)
    return y


def _signed_zero_inputs(shape, rng):
    x = rng.standard_normal(shape)
    x[..., ::3] = 0.0
    x[..., 1::4] = -0.0
    return [x, np.zeros(shape), -np.zeros(shape)]


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("n", [2, 4, 6, 16, 1024])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["1d", "block"])
def test_filter_primitives_equal_roll_formulas_bytewise(name, n, lead, rng):
    # the down-correlation of one filter, as one analysis level with that
    # filter on both outputs, and its up-convolution, as one synthesis level
    # with that filter on both sources
    for f in _arrays(FILTERS[name]):
        pair = WaveletFilterPair("f", tuple(f), tuple(f), (), ())
        for x in _signed_zero_inputs(lead + (n,), rng):
            (d,), a = _dwt_raw(x, pair, 1)
            assert a.tobytes() == d.tobytes() == _roll_correlate_down(x, f).tobytes()
            a, d = x[..., : n // 2], x[..., n // 2:]
            assert (_idwt_raw([d], a, f, f).tobytes()
                    == (_roll_up_conv(a, f, n) + _roll_up_conv(d, f, n)).tobytes())


#: tap magnitudes: zero, a dyadic one, Haar's, and any float in [0, 2]
_MAGNITUDES = st.sampled_from([0.0, 0.5, 2 ** -0.5]) | st.floats(0.0, 2.0)


@st.composite
def _filter_pairs(draw):
    """A (lo, hi) pair of lengths 1-10.  Each tap is either the magnitude
    drawn for its offset, which both filters share (and, when drawn so, taps
    2t and 2t + 1 too), with a drawn sign, or an independent signed draw."""
    mags = draw(st.lists(_MAGNITUDES, min_size=10, max_size=10))
    if draw(st.booleans()):
        mags = [mags[m - m % 2] for m in range(10)]

    def taps():
        return tuple((draw(st.sampled_from([1.0, -1.0])) * mag if draw(st.booleans())
                      else draw(_MAGNITUDES) * draw(st.sampled_from([1.0, -1.0])))
                     for mag in mags[:draw(st.integers(1, 10))])
    return taps(), taps()


@settings(deadline=None)
@given(pair=_filter_pairs(), n=st.sampled_from([2, 4, 8, 64]),
       lead=st.sampled_from([(), (3,)]), seed=st.integers(0, 2 ** 32 - 1))
def test_filter_levels_of_drawn_pairs_equal_roll_formulas_bytewise(pair, n, lead, seed):
    # products shared between the filters, between the phases, and a phase
    # sum shared by both phases keep every sum's terms in tap order
    lo, hi = pair
    x = _signed_zero_inputs(lead + (n,), np.random.default_rng(seed))[0]
    (d,), a = _dwt_raw(x, WaveletFilterPair("drawn", lo, hi, (), ()), 1)
    assert d.tobytes() == _roll_correlate_down(x, hi).tobytes()
    assert a.tobytes() == _roll_correlate_down(x, lo).tobytes()
    a, d = x[..., : n // 2], x[..., n // 2:]
    assert (_idwt_raw([d], a, lo, hi).tobytes()
            == (_roll_up_conv(a, lo, n) + _roll_up_conv(d, hi, n)).tobytes())


def test_filter_plans_share_products_and_sums():
    # the plans exist for this sharing: Haar's analysis filters read x with
    # one |tap| at each of their two offsets, and its two synthesis phases
    # share each source's product and the low-pass sum; the longer filters
    # have no two taps to share, so one product per nonzero tap
    _, (steps, count, _) = _analysis_plan(HAAR.analysis_lowpass, HAAR.analysis_highpass)
    assert (len(steps), count) == (2, 2)
    _, (steps, count, index) = _synthesis_plan(HAAR.synthesis_lowpass, HAAR.synthesis_highpass)
    assert (len(steps), count, len(index)) == (2, 3, 4)
    for f in (D4, CDF97, CDF97R):
        for plan, lo, hi, sums in ((_analysis_plan, *_arrays(f)[:2], 2),
                                   (_synthesis_plan, *_arrays(f)[2:], 4)):
            _, (steps, count, _) = plan(tuple(lo), tuple(hi))
            assert (len(steps), count) == (np.count_nonzero(lo) + np.count_nonzero(hi), sums)


# --- decimated transform --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("n", [2, 4, 16, 1024])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["1d", "block"])
def test_analyze_equals_roll_cascade_bytewise(name, n, lead, rng):
    # one wrap pad and one product per (offset, |tap|) per level give the
    # bits of the per-filter circular-shift cascade; at n = 2 the cdf97
    # filters wrap their shared pad more than once
    lo, hi = _arrays(FILTERS[name])[:2]
    for c in range(min(3, int(np.log2(n)))):
        basis = WaveletBasis(n, name, c)
        for x in _signed_zero_inputs(lead + (n,), rng):
            a, details = x, []
            for _ in range(basis.levels):
                details.append(_roll_correlate_down(a, hi))
                a = _roll_correlate_down(a, lo)
            cv = basis.analyze(x)
            values = np.concatenate(details[::-1], axis=-1) / basis._scale
            assert cv.values.tobytes() == values.tobytes()
            assert cv.carry.tobytes() == a.tobytes()


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("n", [2, 4, 16, 1024])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["1d", "block"])
def test_synthesis_equals_roll_cascade_bytewise(name, n, lead, rng):
    # one pad per source, one product per (source, offset, |tap|), a sum two
    # phases share computed once and the lo and hi sums added into the
    # strided halves of one output give the bits of the per-level
    # circular-shift cascade, with either filter pair; at n = 2 the cdf97
    # filters wrap their pads more than once
    arrays = _arrays(FILTERS[name])
    for c in range(min(3, int(np.log2(n)))):
        basis = WaveletBasis(n, name, c)
        m = basis.atom_count
        for x in _signed_zero_inputs(lead + (n,), rng):
            values, carry = x[..., :m], x[..., m:]

            def cascade(details, lo, hi):
                a = carry
                for d in reversed(details):
                    size = 2 * a.shape[-1]
                    a = _roll_up_conv(a, lo, size) + _roll_up_conv(d, hi, size)
                return a

            details = basis._values_to_details(values)
            for lo, hi in (arrays[:2], arrays[2:]):
                assert (_idwt_raw(details, carry, lo, hi).tobytes()
                        == cascade(details, lo, hi).tobytes())
            expected = cascade(basis._values_to_details(values * basis._scale), *arrays[2:])
            cv = CoefficientVector(values, ("j", "k"), basis.label_arrays(), carry)
            assert basis.dual_synthesize(cv).tobytes() == expected.tobytes()


def test_haar_n2_constant_signal():
    wb = WaveletBasis(2, "haar")
    cv = wb.analyze(np.array([1.0, 1.0]))
    assert cv.values[0] == pytest.approx(0.0, abs=1e-14)      # detail dies
    assert cv.carry[0] == pytest.approx(SQ2, abs=1e-14)       # scaling sqrt(2)


def test_haar_n4_matches_dense_matrix_oracle():
    wb = WaveletBasis(4, "haar")
    # rows: scale-0 wavelet, scale-1 wavelets; all unit norm
    H = np.array([
        [0.5, 0.5, -0.5, -0.5],
        [1 / SQ2, -1 / SQ2, 0.0, 0.0],
        [0.0, 0.0, 1 / SQ2, -1 / SQ2],
    ])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    cv = wb.analyze(x)
    assert np.allclose(np.abs(cv.values), np.abs(H @ x), atol=1e-12)
    # scaling coefficient: <const/2, x>
    assert cv.carry[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name", ["haar", "d4", "cdf97"])
def test_forward_inverse_identity(name, rng):
    wb = WaveletBasis(64, name)
    x = rng.standard_normal(64)
    rec = wb.dual_synthesize(wb.analyze(x))
    assert np.max(np.abs(rec - x)) < 1e-10


def test_non_power_of_two_rejected():
    with pytest.raises(FrameError):
        WaveletBasis(48, "haar")


def test_atom_counts_and_labels():
    wb = WaveletBasis(32, "haar", coarsest_level=2)
    assert wb.atom_count == 32 - 4
    assert wb.carry_dim == 4
    js = wb.label_arrays()[0]
    assert js.min() == 2 and js.max() == 4


def test_shifted_atoms_equal_rolled_bases(rng):
    n = 16
    bases = rng.standard_normal((3, n))
    windows = _shift_windows(bases)
    shifts = np.arange(-2 * n, 2 * n + 1)
    for row in range(3):
        for shift in shifts:
            atom = _shifted_atoms(windows, row, shift)
            assert np.array_equal(atom, np.roll(bases[row], shift))
        # one row, an array of shifts
        assert np.array_equal(_shifted_atoms(windows, row, shifts),
                              np.stack([np.roll(bases[row], s) for s in shifts]))
    rows = np.repeat(np.arange(3), len(shifts))
    block = _shifted_atoms(windows, rows, np.tile(shifts, 3))
    assert np.array_equal(block, np.stack(
        [np.roll(bases[r], s) for r, s in zip(rows, np.tile(shifts, 3))]))
    # a single atom is the caller's own array, not a view into the stack
    atom = _shifted_atoms(windows, np.int64(1), np.int64(-5))
    atom[:] = 0.0
    assert np.array_equal(_shifted_atoms(windows, 1, -5), np.roll(bases[1], -5))


def test_wavelet_atoms_unit_norm_all_scales():
    for name in ("haar", "d4", "cdf97"):
        wb = WaveletBasis(64, name)
        for pos in range(wb.atom_count):
            assert abs(np.linalg.norm(wb.atom(pos)) - 1.0) < 1e-10


# --- cycle spinning --------------------------------------------------------------

def test_cs_m1_equals_basis(rng):
    wb = WaveletBasis(32, "haar")
    cs = CycleSpinFrame(32, 1, "haar")
    x = rng.standard_normal(32)
    assert np.allclose(cs.analyze(x).values, wb.analyze(x).values, atol=1e-13)


@pytest.mark.parametrize("filters", ["haar", "d4"])
@pytest.mark.parametrize("M", [2, 4, 8])
def test_cs_energy_identity_on_wavelet_subspace(filters, M, rng):
    frame = CycleSpinFrame(64, M, filters)
    scaling = frame.basis._unit_responses()[-1]
    scaling /= np.linalg.norm(scaling)
    u = rng.standard_normal(64)
    u -= (scaling @ u) * scaling  # wavelet-subspace component
    energy = float(np.sum(frame.analyze(u).values ** 2))
    assert energy == pytest.approx(M * float(u @ u), rel=1e-12)


@pytest.mark.parametrize("M", [1, 2, 4, 8])
def test_cs_equals_per_shift_basis_calls_bytewise(M, rng):
    for filters, coarsest_level in (("d4", 2), ("haar", 0)):
        frame = CycleSpinFrame(64, M, filters, coarsest_level=coarsest_level)
        basis = frame.basis
        a, c = basis.atom_count, basis.carry_dim
        for x in (rng.standard_normal(64), rng.standard_normal((3, 64))):
            cv = frame.analyze(x)
            shifted = [basis.analyze(np.roll(x, -m, axis=-1)) for m in range(M)]
            assert cv.values.tobytes() == np.concatenate(
                [s.values for s in shifted], axis=-1).tobytes()
            assert cv.carry.tobytes() == np.concatenate(
                [s.carry for s in shifted], axis=-1).tobytes()
            # soft thresholding leaves -0.0 where a negative coefficient dies
            shrunk = cv.replace_values(shrink_value(cv.values, 0.5))
            assert np.any((shrunk.values == 0.0) & np.signbit(shrunk.values))
            for coeffs in (cv, shrunk):
                out = np.zeros(x.shape)
                for m in range(M):
                    part = CoefficientVector(coeffs.values[..., m * a:(m + 1) * a], ("j", "k"),
                                             basis.label_arrays(),
                                             coeffs.carry[..., m * c:(m + 1) * c])
                    out += np.roll(basis.dual_synthesize(part), m, axis=-1)
                assert frame.dual_synthesize(coeffs).tobytes() == (out / M).tobytes()


@pytest.mark.parametrize("frame", [WaveletBasis(64, "haar", coarsest_level=2),
                                   CycleSpinFrame(64, 4, "haar", coarsest_level=2),
                                   TIWaveletFrame(64, "haar", coarsest_level=2)],
                         ids=lambda frame: frame.name)
def test_carry_of_wrong_length_is_rejected(frame):
    cv = frame.analyze(np.ones((2, 64)))
    for carry in (cv.carry[:, :-1], np.ones((2, cv.carry.shape[-1] + 1)), np.ones((2, 5))):
        with pytest.raises(DimensionMismatch):
            frame.dual_synthesize(CoefficientVector(cv.values, cv.label_names, cv.labels,
                                                    carry))


def test_cs_rejects_biorthogonal_and_bad_M():
    with pytest.raises(FrameError):
        CycleSpinFrame(32, 2, "cdf97")
    with pytest.raises(FrameError):
        CycleSpinFrame(32, 3, "haar")
    with pytest.raises(FrameError):
        CycleSpinFrame(32, 64, "haar")


def cycle_spin_denoise_loop(basis, data, threshold, shrink_fn, M):
    """Averaging form of cycle spinning: mean over shifts of unshifted basis
    estimates.  Equals the frame pipeline on CycleSpinFrame (tight-frame
    identity); kept as the independent second route for that check."""
    out = np.zeros(basis.n)
    for m in range(M):
        cv = basis.analyze(np.roll(np.asarray(data, dtype=float), -m))
        shrunk = cv.replace_values(shrink_fn(cv.values, threshold))
        out += np.roll(basis.dual_synthesize(shrunk), m)
    return out / M


def test_est_cs_loop_equals_frame_pipeline(rng):
    basis = WaveletBasis(64, "haar")
    data = rng.standard_normal(64) + np.repeat(rng.uniform(-2, 2, 8), 8)
    for M in (2, 4):
        frame = CycleSpinFrame(64, M, "haar")
        cv = frame.analyze(data)
        shrunk = cv.replace_values(shrink_value(cv.values, 0.7, "soft"))
        pipeline = frame.dual_synthesize(shrunk)
        loop = cycle_spin_denoise_loop(basis, data, 0.7,
                                       lambda v, T: shrink_value(v, T, "soft"), M)
        assert np.max(np.abs(pipeline - loop)) < 1e-10


def test_cs_distinct_count_examples():
    assert cs_distinct_count(8, 1) == 7
    assert cs_distinct_count(8, 2) == 14
    assert cs_distinct_count(1024, 1024) == 10240  # n log2 n


def test_cs_distinct_count_matches_enumeration():
    for n in (8, 16, 32):
        M = 1
        while M <= n:
            frame = CycleSpinFrame(n, M, "haar")
            atoms = {frame.atom(p).round(12).tobytes()
                     for p in range(frame.atom_count)}
            assert len(atoms) == cs_distinct_count(n, M)
            # representatives: first position of each (j, shift mod n) key
            bj, bk, bm = frame._labels
            seen, first = set(), []
            for pos in range(frame.atom_count):
                j = int(bj[pos])
                key = (j, (int(bm[pos]) + int(bk[pos]) * (n >> j)) % n)
                if key not in seen:
                    seen.add(key)
                    first.append(pos)
            assert np.array_equal(frame.distinct_positions(), first)
            # no duplicates yet at M <= 2 (count = M(n-1)); strictly fewer beyond
            if M >= 4:
                assert cs_distinct_count(n, M) < M * (n - 1)
            else:
                assert cs_distinct_count(n, M) == M * (n - 1)
            M *= 2


def test_cyclespin_distinct_count_at_level_0_is_the_closed_form():
    for n in (2 ** J for J in range(1, 13)):
        for M in (2 ** a for a in range(n.bit_length())):
            assert CycleSpinFrame(n, M, "haar").evt_count == cs_distinct_count(n, M)


def test_cs_distinct_count_rejects_M_above_n():
    with pytest.raises(FrameError):
        cs_distinct_count(8, 16)


# --- translation invariant --------------------------------------------------------
# The a-trous scheme, kept here as an oracle independent of the decimated
# basis the frame is built on: level l correlates (analysis) or convolves
# (synthesis) with a filter whose taps sit 2^(l-1) samples apart, each tap
# added as a circular shift in increasing order onto a +0.0 start.

def _atrous_step(x, f, step, sign):
    y = np.zeros_like(x)
    for m, fm in enumerate(f):
        if fm != 0.0:
            y += fm * np.roll(x, sign * m * step)
    return y


def _atrous_atoms(n, filt, c):
    """Raw TI atoms at shift 0: the detail atoms coarsest first and the
    analysis scaling atom (a delta correlated with the dilated analysis
    filters, each sequence time-reversed), and the synthesis scaling atom
    (a delta convolved with the dilated synthesis lowpass filters)."""
    dec_lo, dec_hi, rec_lo, _ = _arrays(filt)
    levels = n.bit_length() - 1 - c
    reverse = -np.arange(n) % n
    delta = np.zeros(n)
    delta[0] = 1.0
    a, details = delta, []
    for lev in range(levels):
        details.insert(0, _atrous_step(a, dec_hi, 2 ** lev, -1)[reverse])
        a = _atrous_step(a, dec_lo, 2 ** lev, -1)
    synth = delta
    for lev in range(levels - 1, -1, -1):
        synth = _atrous_step(synth, rec_lo, 2 ** lev, 1)
    return np.stack(details), a[reverse], synth


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_ti_base_atoms_equal_atrous_oracle(name):
    """The frame built on its basis has the a-trous atoms; at coarsest level
    0 Haar reproduces their bytes: each row normalized by its own norm, the
    bounds read off the FFT symbol summed finest first."""
    for J in range(1, 13):
        n = 2 ** J
        for c in range(min(3, J)):
            frame = TIWaveletFrame(n, name, coarsest_level=c)
            details, scaling, _ = _atrous_atoms(n, FILTERS[name], c)
            unit = np.stack([row / float(np.linalg.norm(row)) for row in details])
            assert np.max(np.abs(frame.basis._bases - unit)) <= 1e-15
            # the carry of a delta at 0 is the analysis scaling atom reversed
            delta = np.zeros(n)
            delta[0] = 1.0
            carry = frame.analyze(delta).carry[-np.arange(n) % n]
            assert np.max(np.abs(carry - scaling)) <= 1e-15
            if name == "haar" and c == 0:
                assert frame.basis._bases.tobytes() == unit.tobytes()
                weights = 2.0 ** np.arange(J)[:, None]
                sym = (weights * np.abs(np.fft.fft(unit)) ** 2)[::-1].sum(axis=0)
                good = sym > n * 1e-12 * sym.max()
                assert frame.bounds == (float(sym[good].min()), float(sym.max()))


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("c", [0, 1, 2])
def test_ti_agrees_with_decimated_basis(name, c, rng):
    """TI coefficient (j, k n/2^j) is basis coefficient (j, k), and the TI
    carry at shift k n/2^c the basis carry k, for biorthogonal filters too
    (cycle spinning rejects those)."""
    for n in (8, 64, 1024):
        ti = TIWaveletFrame(n, name, coarsest_level=c)
        basis = WaveletBasis(n, name, coarsest_level=c)
        x = rng.standard_normal((3, n))
        cti, cb = ti.analyze(x), basis.analyze(x)
        bj, bk = basis.label_arrays()
        pos = (bj - c) * n + bk * (n >> bj)
        assert np.array_equal(cti.labels[0][pos], bj)
        assert np.array_equal(cti.labels[1][pos], bk * (n >> bj))
        scale = np.max(np.abs(cb.values))
        assert np.max(np.abs(cti.values[:, pos] - cb.values)) <= 1e-13 * scale
        carry = cti.carry[:, np.arange(2 ** c) * (n >> c)]
        assert np.max(np.abs(carry - cb.carry)) <= 1e-13 * np.max(np.abs(cb.carry))


def test_ti_agrees_with_cs_full_shift(rng):
    n = 32
    ti = TIWaveletFrame(n, "haar")
    cs = CycleSpinFrame(n, n, "haar")
    x = rng.standard_normal(n)
    cti = ti.analyze(x)
    ccs = cs.analyze(x)
    lookup = {(int(j), int(s)): v for j, s, v in
              zip(cti.labels[0], cti.labels[1], cti.values)}
    bj, bk, bm = ccs.labels
    for pos in range(ccs.count):
        j, k, m = int(bj[pos]), int(bk[pos]), int(bm[pos])
        s = (m + k * (n >> j)) % n
        assert ccs.values[pos] == pytest.approx(lookup[(j, s)], abs=1e-10)


def test_ti_constant_signal_zero_details():
    ti = TIWaveletFrame(64, "haar")
    cv = ti.analyze(np.full(64, 3.7))
    assert np.max(np.abs(cv.values)) < 1e-12


def test_ti_shift_equivariance():
    ti = TIWaveletFrame(32, "haar")
    spike_a = np.zeros(32); spike_a[5] = 1.0
    spike_b = np.zeros(32); spike_b[6] = 1.0
    ca = ti.analyze(spike_a).values.reshape(ti.levels, 32)
    cb = ti.analyze(spike_b).values.reshape(ti.levels, 32)
    assert np.max(np.abs(np.roll(ca, 1, axis=1) - cb)) < 1e-12


def test_ti_distinct_count():
    ti = TIWaveletFrame(64, "haar")
    assert ti.atom_count == 64 * 6  # n log2 n
    assert ti.evt_count == ti.atom_count


def _ti_full_fft_synthesis(frame, values, carry):
    """Full-spectrum TI dual synthesis: fft of the coefficient block, the
    per-scale kernels 2^j fft(base_j) summed coarsest first, a masked
    division by the symbol times the share 1 - fft(synthesis scaling atom)
    2^c/n conj(fft(analysis scaling atom)) of each bin that the scaling part
    leaves to the details, one ifft, and a second fft/ifft pair for the
    carry with the a-trous synthesis scaling atom."""
    _, scaling, synth = _atrous_atoms(frame.n, frame.filters, frame.coarsest_level)
    shift_average = 2 ** frame.coarsest_level / frame.n
    rest = 1.0 - np.fft.fft(synth) * shift_average * np.conj(np.fft.fft(scaling))
    weights = 2.0 ** np.arange(frame.coarsest_level, frame.J)[:, None]
    synthesis_mult = weights * np.fft.fft(frame.basis._bases)
    spec = np.fft.fft(values.reshape(values.shape[:-1] + (frame.levels, frame.n)))
    y = (synthesis_mult * spec).sum(axis=-2)
    y[..., frame._good] *= rest[frame._good] / frame._fft_symbol[frame._good]
    y[..., ~frame._good] = 0.0
    out = np.fft.ifft(y).real
    if carry is not None:
        spec = np.fft.fft(carry) * np.fft.fft(synth)
        out += np.fft.ifft(spec).real * shift_average
    return out


@pytest.mark.parametrize("name,n,c", [
    (name, n, c) for name in FILTERS for n in (2, 4, 16, 256, 4096)
    for c in range(3) if 2 ** c < n])
def test_ti_half_spectrum_synthesis_matches_full_fft(name, n, c, rng):
    frame = TIWaveletFrame(n, name, coarsest_level=c)
    for lead in ((), (3,)):
        values = rng.standard_normal(lead + (frame.atom_count,))
        for carry in (None, rng.standard_normal(lead + (n,))):
            out = frame.dual_synthesize(CoefficientVector(values, carry=carry))
            oracle = _ti_full_fft_synthesis(frame, values, carry)
            assert np.max(np.abs(out - oracle)) <= 1e-14 * np.max(np.abs(oracle))
            if lead:
                rows = [frame.dual_synthesize(CoefficientVector(
                    values[b], carry=None if carry is None else carry[b]))
                    for b in range(3)]
                assert out.tobytes() == np.stack(rows).tobytes()


def test_ti_multiplicities():
    ti = TIWaveletFrame(16, "haar")
    js = ti._labels[0]
    for pos in (0, 16, 32, 48):
        assert ti.atom_multiplicity(pos) == 2.0 ** int(js[pos])


# --- sine frames ------------------------------------------------------------------

def test_sine_basis_gram_identity():
    sf = SineFrame(64, 1)
    atoms = np.stack([sf.atom(p) for p in range(sf.atom_count)])
    gram = atoms @ atoms.T
    assert np.max(np.abs(gram - np.eye(sf.atom_count))) < 1e-9


def test_sine_excludes_zero_frequency_atom():
    for r in (1, 2):
        sf = SineFrame(1024, r)
        assert sf.atom_count == r * 1024 - 1


@pytest.mark.parametrize("n", [64, 1000, 1024])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sine_closed_form_norms_match_per_frequency_norm(n, r):
    sf = SineFrame(n, r)
    k = np.arange(n)
    norms = np.array([np.linalg.norm(np.sin(np.pi * w * k / n)) for w in sf.frequencies])
    assert np.max(np.abs(sf._raw_norms / norms - 1)) < 1e-12
    assert np.array_equal(sf.frequencies, np.arange(1, r * n) / r)


def test_sine_rejects_length_below_two():
    with pytest.raises(FrameError):
        SineFrame(1, 2)


def test_sine_on_grid_signal_two_dominant_coefficients():
    n = 1024
    k = np.arange(n)
    amp = 5 * np.sqrt(2) / 16
    u = amp * np.sin(np.pi * 150 * k / n) + amp * np.sin(np.pi * 380 * k / n)
    sf = SineFrame(n, 1)
    vals = np.abs(sf.analyze(u).values)
    top = np.argsort(vals)[-2:]
    freqs = sorted(float(sf.frequencies[p]) for p in top)
    assert freqs == [150.0, 380.0]
    assert vals[top].min() > 20 * np.partition(vals, -3)[-3]


def test_sine_off_grid_frequency_appears_at_half_integer():
    n = 1024
    k = np.arange(n)
    u = np.sin(np.pi * 150.5 * k / n)
    sf = SineFrame(n, 2)
    vals = np.abs(sf.analyze(u).values)
    assert float(sf.frequencies[int(np.argmax(vals))]) == 150.5


def test_sine_analyze_matches_brute_force(rng):
    sf = SineFrame(64, 2)
    x = rng.standard_normal(64)
    brute = np.array([sf.atom(p) @ x for p in range(sf.atom_count)])
    assert np.allclose(sf.analyze(x).values, brute, atol=1e-12)


# --- JSON frame specs --------------------------------------------------------------

def test_frame_from_spec_roundtrip(tmp_path):
    specs = [
        {"type": "wavelet", "n": 32, "filters": "d4"},
        {"type": "cyclespin", "n": 32, "M": 4},
        {"type": "ti", "n": 32},
        {"type": "sine", "n": 32, "oversample": 2},
    ]
    for spec in specs:
        frame = frame_from_spec(json.dumps(spec))
        assert frame.n == 32
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(specs[0]))
    assert frame_from_spec(str(path)).name.startswith("wavelet[d4")


def test_frame_from_spec_explicit(tmp_path, rng):
    mat = rng.standard_normal((12, 8))
    mpath = tmp_path / "atoms.csv"
    np.savetxt(mpath, mat, delimiter=",")
    frame = frame_from_spec({"type": "explicit", "matrix_path": str(mpath)})
    assert isinstance(frame, ExplicitFrame)
    assert frame.atom_count == 12 and frame.n == 8


def test_frame_from_spec_unknown_type():
    with pytest.raises(FrameError):
        frame_from_spec({"type": "curvelet", "n": 32})


@pytest.mark.parametrize("spec", [
    {"type": ["ti"]}, {"type": "ti", "filters": 5}, {"type": "ti", "filters": "bogus"},
    {"type": "cyclespin"}, {"type": "explicit", "matrix_path": 5},
    {"type": "explicit", "matrix_path": "m.csv", "name": 5}])
def test_load_frame_spec_checks_every_field_but_n(spec):
    # a spec without n (the diagnose template) is checked field by field
    assert load_frame_spec({"type": "ti"}) == {"type": "ti"}
    with pytest.raises(FrameError, match="type|filter|matrix_path|name|'M'"):
        load_frame_spec(spec)


def test_get_filters_unknown():
    with pytest.raises(FrameError):
        get_filters("sym8")


# --- shift structure -------------------------------------------------------------

def _structured_frames():
    for filters in ("haar", "d4", "cdf97", "cdf97r"):
        for n, c in ((2, 0), (8, 0), (8, 2), (64, 1), (256, 0)):
            yield WaveletBasis(n, filters, c)
            yield TIWaveletFrame(n, filters, c)
            if filters in ("haar", "d4"):
                yield CycleSpinFrame(n, min(n, 4), filters, c)


def test_shift_structure_rebuilds_atoms_bytewise():
    for frame in _structured_frames():
        positions = np.arange(frame.atom_count)
        bases, rows, shifts = frame.shift_structure(positions)
        assert shifts.min() >= 0 and shifts.max() < frame.n
        rolled = np.stack([np.roll(bases[r], s) for r, s in zip(rows, shifts)])
        assert rolled.tobytes() == frame.atom(positions).tobytes(), frame.name
        p = frame.atom_count - 1
        assert np.roll(bases[rows[p]], shifts[p]).tobytes() == frame.atom(p).tobytes()
    assert SineFrame(16, 2).shift_structure(np.arange(3)) is None
    assert ExplicitFrame(np.eye(3)).shift_structure(np.arange(3)) is None


def test_atom_block_allocates_only_its_output():
    # the basis keeps the doubled base stack its atoms are windows of, so a
    # block of atoms allocates its output and index arrays only
    import tracemalloc
    frame = CycleSpinFrame(4096, 4, "haar")
    positions = frame.distinct_positions()[:256]
    frame.atom(positions[:2])  # lazy set-up settles unmeasured
    tracemalloc.start()
    try:
        atoms = frame.atom(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert atoms.shape == (256, 4096)
    assert peak <= 1.01 * atoms.nbytes, (peak, atoms.nbytes)


def _enumerated_lag_pairs(rows, shifts, n, r, r2):
    """Ordered pairs (a, b), a != b, at rows (r, r2) per lag shift(b) -
    shift(a) mod n, by np.bincount over every pair; doubled for r2 > r."""
    sa, sb = shifts[rows == r], shifts[rows == r2]
    counts = np.zeros(n, np.int64)
    for start in range(0, len(sa), 512):
        lags = (sb[None, :] - sa[start:start + 512, None]) % n
        counts += np.bincount(lags.ravel(), minlength=n)
    if r == r2:
        counts[0] -= len(sa)
    return counts * (2 if r2 > r else 1)


@pytest.mark.parametrize("n, Ms", [(2, (1, 2)), (8, (1, 2, 4, 8)), (64, (1, 2, 4, 8)),
                                   (512, (1, 2, 4, 8)), (4096, (1, 2))])
def test_lag_pair_counts_equal_pair_enumeration(n, Ms):
    from framethresh.core import _lag_tables
    for M in Ms:
        frame = CycleSpinFrame(n, M, "haar")
        distinct = frame.distinct_positions()
        # no duplicates at M <= 2: both position sets are the same
        for positions in ((distinct,) if M <= 2 else (distinct, np.arange(frame.atom_count))):
            bases, rows, shifts = frame.shift_structure(positions)
            tables = list(_lag_tables(frame.name, bases, rows * n + shifts))
            assert len(tables) == len(bases)
            for r, values, pairs in tables:
                assert values.shape == pairs.shape == (len(bases) - r, n)
                for k in range(len(bases) - r):
                    assert np.array_equal(
                        pairs[k], _enumerated_lag_pairs(rows, shifts, n, r, r + k)), (M, r, k)
            # the lag values are the |Gram| entries: atom 0 (row 0) against
            # atom b at row r and lag d is values[r, d] of row 0's table
            atoms = frame.atom(positions)
            values = tables[0][1]
            assert rows[0] == 0
            for b in range(0, len(positions), max(1, len(positions) // 7)):
                d = (shifts[b] - shifts[0]) % n
                assert abs(values[rows[b], d] - abs(atoms[0] @ atoms[b])) < 1e-13
