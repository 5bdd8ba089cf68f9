import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framethresh import evt
from framethresh.evt import ThresholdError, ThresholdSpec
from framethresh.core import ExplicitFrame
from framethresh.transforms import CDF97, CDF97R, D4, HAAR, CycleSpinFrame, WaveletBasis

# frozen from a 50-digit mpmath evaluation of the closed forms
ORACLE = {
    "norms_chi_1024_a": 0.26857913553447924,
    "norms_chi_1024_b": 3.3095778342786373,
    "norms_normal_1024_b": 3.1234129637256856,
    "gumbel_quantile_0.1": 2.2503673273124453,
    "universal_1_1024": 3.7232974110590341,
    "evt_1_0.1_1024": 3.9139795456832504,
    "from_zn_1_1024_0": 3.3095778342786373,
    "from_zn_1_1024_10": 5.9953691896234297,
    "bM_1024_4": 3.495742704831589,
}


def test_gumbel_cdf_at_zero():
    assert evt.gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_gumbel_quantile_special_point():
    assert evt.gumbel_quantile(1 - math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)


def test_gumbel_quantile_frozen():
    assert evt.gumbel_quantile(0.1) == pytest.approx(
        ORACLE["gumbel_quantile_0.1"], abs=1e-12)


@given(st.floats(min_value=-2.0, max_value=8.0))
def test_gumbel_roundtrip(z):
    # 1 - cdf(z) underflows below z ~ -2, so restrict to representable levels
    alpha = 1.0 - float(evt.gumbel_cdf(z))
    if 0.0 < alpha < 1.0:
        assert evt.gumbel_quantile(alpha) == pytest.approx(z, abs=1e-12)


def test_gumbel_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ThresholdError):
            evt.gumbel_quantile(bad)


def test_norms_chi_frozen():
    n = evt.norms_chi(1024)
    assert n.a == pytest.approx(ORACLE["norms_chi_1024_a"], abs=1e-12)
    assert n.b == pytest.approx(ORACLE["norms_chi_1024_b"], abs=1e-12)
    assert n.flavor == "chi" and n.m == 1024


def test_norms_normal_frozen():
    n = evt.norms_normal(1024)
    assert n.b == pytest.approx(ORACLE["norms_normal_1024_b"], abs=1e-12)


def test_norms_reject_small_m():
    with pytest.raises(ThresholdError):
        evt.norms_chi(1)
    with pytest.raises(ThresholdError):
        evt.norms_normal(0)


def test_normal_vs_chi_location_ordering():
    # log(4 pi) > log(pi), so b(normal, m) < b(chi, m)
    for m in (8, 1024, 10 ** 6):
        assert evt.norms_normal(m).b < evt.norms_chi(m).b


def test_chi_normal_gap_identity():
    # b(chi, m) - b(normal, m) = log(4)/(2 sqrt(2 log m)) exactly
    for m in (16, 1024, 99991):
        gap = evt.norms_chi(m).b - evt.norms_normal(m).b
        assert gap == pytest.approx(
            math.log(4.0) / (2.0 * math.sqrt(2.0 * math.log(m))), abs=1e-12)


def test_doubling_relation():
    # b(normal, 2m) -> b(chi, m): absolute values behave like twice the count
    assert abs(evt.norms_normal(2 * 10 ** 6).b - evt.norms_chi(10 ** 6).b) < 0.01


def test_universal_threshold_frozen_and_scaling():
    assert evt.universal_threshold(1.0, 1024) == pytest.approx(
        ORACLE["universal_1_1024"], abs=1e-12)
    assert evt.universal_threshold(2.0, 1024) == pytest.approx(
        2 * ORACLE["universal_1_1024"], abs=1e-12)


def test_universal_equals_from_zn_at_cancellation_point():
    for m in (64, 1024, 5000):
        z = 0.5 * (math.log(math.log(m)) + math.log(math.pi))
        assert evt.threshold_from_zn(1.0, m, z) == pytest.approx(
            evt.universal_threshold(1.0, m), abs=1e-12)


def test_evt_threshold_frozen():
    assert evt.evt_threshold(1.0, 0.1, 1024) == pytest.approx(
        ORACLE["evt_1_0.1_1024"], abs=1e-12)


def test_evt_threshold_equals_norms_form():
    n = evt.norms_chi(1024)
    z = evt.gumbel_quantile(0.1)
    assert evt.evt_threshold(1.0, 0.1, 1024) == pytest.approx(
        n.threshold_at(z), abs=1e-12)


def test_evt_threshold_monotone_in_alpha():
    vals = [evt.evt_threshold(1.0, a, 1024) for a in (0.01, 0.1, 0.5)]
    assert vals[0] > vals[1] > vals[2]


def test_evt_threshold_blows_up_as_alpha_to_zero():
    assert evt.evt_threshold(1.0, 1e-12, 1024) > evt.evt_threshold(1.0, 1e-4, 1024) > 0


def test_threshold_from_zn_frozen():
    assert evt.threshold_from_zn(1.0, 1024, 0.0) == pytest.approx(
        ORACLE["from_zn_1_1024_0"], abs=1e-12)
    assert evt.threshold_from_zn(1.0, 1024, 10.0) == pytest.approx(
        ORACLE["from_zn_1_1024_10"], abs=1e-12)
    # z = 0 recovers the location constant; large z exceeds universal
    assert evt.threshold_from_zn(1.0, 1024, 0.0) == pytest.approx(
        evt.norms_chi(1024).b, abs=1e-12)
    assert evt.threshold_from_zn(1.0, 1024, 10.0) > evt.universal_threshold(1.0, 1024)


def test_divergent_zn_dominates_bounded():
    for m in range(16, 4097, 240):
        assert evt.threshold_from_zn(1.0, m, 10.0) > evt.threshold_from_zn(1.0, m, 0.0)


def test_cyclespin_location_frozen():
    assert evt.cyclespin_location(1024, 4) == pytest.approx(
        ORACLE["bM_1024_4"], abs=1e-12)


def test_cyclespin_location_correction_identity():
    # b_M(chi, n) - b(chi, n) = log(log2 M)/sqrt(2 log n) exactly
    for n, M in ((1024, 4), (256, 8), (512, 16)):
        gap = evt.cyclespin_location(n, M) - evt.norms_chi(n).b
        assert gap == pytest.approx(
            math.log(math.log2(M)) / math.sqrt(2.0 * math.log(n)), abs=1e-12)


def test_cyclespin_m2_equals_basis_location():
    # log log2(2) = 0: no correction
    assert evt.cyclespin_location(1024, 2) == pytest.approx(
        evt.norms_chi(1024).b, abs=1e-14)


def test_cyclespin_rejects_m1_and_nonpowers():
    with pytest.raises(ThresholdError):
        evt.cyclespin_threshold(1.0, 0.1, 1024, 1)
    with pytest.raises(ThresholdError):
        evt.cyclespin_threshold(1.0, 0.1, 1024, 6)
    with pytest.raises(ThresholdError):
        evt.cyclespin_threshold(1.0, 0.1, 64, 128)


def test_ti_threshold_special_cases():
    # c = pi: correction is exactly z(alpha)/sqrt(2 log n)
    n = 1024
    s = math.sqrt(2 * math.log(n))
    z = evt.gumbel_quantile(0.1)
    assert evt.ti_threshold(1.0, 0.1, n, math.pi) == pytest.approx(
        s + z / s, abs=1e-12)
    # z(alpha) = 0 at alpha = 1 - exp(-1)
    a0 = 1 - math.exp(-1.0)
    assert evt.ti_threshold(1.0, a0, n, 2.0) == pytest.approx(
        s + math.log(2.0 / math.pi) / s, abs=1e-12)


def test_ti_threshold_smaller_than_stable_frame_threshold_small_c():
    # versus the EVT threshold of an asymptotically stable frame with
    # n log2 n atoms; holds for c below the finite-n crossover (~4.74 at
    # alpha = 0.1, n = 1024), which covers smooth wide wavelets
    n, alpha = 1024, 0.1
    ref = evt.evt_threshold(1.0, alpha, n * 10)
    for c in (0.5, 1.0, 2.0, 4.0):
        assert evt.ti_threshold(1.0, alpha, n, c) < ref


def test_ti_threshold_rejects_bad_c():
    with pytest.raises(ThresholdError):
        evt.ti_threshold(1.0, 0.1, 1024, 0.0)
    with pytest.raises(ThresholdError):
        evt.ti_threshold(1.0, 0.1, 1024, -1.0)


@given(st.floats(min_value=0.05, max_value=8.0),
       st.sampled_from([16, 257, 1024, 60000]))
def test_thresholds_linear_in_sigma(sigma, m):
    for fn in (lambda s: evt.universal_threshold(s, m),
               lambda s: evt.evt_threshold(s, 0.1, m),
               lambda s: evt.threshold_from_zn(s, m, 1.3)):
        assert fn(sigma) == pytest.approx(sigma * fn(1.0), rel=1e-12)


def test_evt_threshold_continuous_in_alpha():
    alphas = np.linspace(0.01, 0.99, 197)
    vals = np.array([evt.evt_threshold(1.0, a, 1024) for a in alphas])
    assert np.all(np.diff(vals) < 0)
    assert np.max(np.abs(np.diff(vals))) < 0.5


# --- autocorrelation constant -------------------------------------------------

def test_ti_constant_rejects_nondifferentiable():
    for filt, s in ((HAAR, "0.5"), (D4, "1")):
        with pytest.raises(ThresholdError, match=f"Sobolev exponent {s}, not above 1"):
            evt.ti_constant_c(filt)


def test_ti_constant_exact_values():
    c = evt.ti_constant_c(CDF97R)
    assert type(c) is float
    assert c == pytest.approx(4.8707596, abs=1e-7)
    assert evt.ti_constant_c(CDF97) == pytest.approx(6.46687, abs=1e-5)


def _power(taps, w):
    """|H(w)|^2 of H(w) = 2^(-1/2) sum_k h_k e^{-ikw}, as the cosine series
    of the taps' autocorrelation."""
    taps = np.asarray(taps)
    a = np.correlate(taps, taps, "full")
    return np.cos(np.multiply.outer(w, np.arange(len(a)) - len(a) // 2)) @ a / 2


def test_ti_constant_matches_the_fourier_integral():
    # c^2 = int w^2 |psi_hat|^2 / int |psi_hat|^2 with psi_hat(w) =
    # G(w/2) prod_{j>=2} H(w/2^j), the product truncated where w/2^j < 1e-9,
    # by the trapezoid rule on [0, 2 pi 512] (the integrand is even)
    step = 2 * np.pi / 32
    w = np.arange(0.0, 2 * np.pi * 512 + step / 2, step)
    density = _power(CDF97R.analysis_highpass, w / 2)
    j = 2
    while w[-1] / 2 ** j > 1e-9:
        density *= _power(CDF97R.analysis_lowpass, w / 2 ** j)
        j += 1
    weights = np.full(len(w), step)
    weights[[0, -1]] = step / 2
    c_fourier = math.sqrt((weights * w ** 2) @ density / (weights @ density))
    assert evt.ti_constant_c(CDF97R) == pytest.approx(c_fourier, rel=1e-6)


def _finite_difference_c(grid_size, scale=6):
    # the unit-norm detail atom (j=scale, k=0) of a grid_size-point basis
    # samples the mother wavelet at spacing dt = 2^scale / grid_size, so
    # -kappa''(0) ~ 2(1 - kappa(dt)) / dt^2
    v = WaveletBasis(grid_size, CDF97R).atom(2 ** scale - 1)
    dt = 2.0 ** scale / grid_size
    return math.sqrt(2.0 * (1.0 - float(np.dot(v, np.roll(v, 1)))) / dt ** 2)


def test_finite_differences_approach_the_exact_ti_constant():
    c = evt.ti_constant_c(CDF97R)
    coarse, fine = _finite_difference_c(2 ** 12), _finite_difference_c(2 ** 14)
    assert abs(fine - c) < abs(coarse - c)


def test_autocorrelation_peak_and_symmetry():
    # sampled autocorrelation kappa(l dt) of the unit-norm analysis mother
    # wavelet: its detail atom at scale 6 on a 2^12 grid, lags up to 64
    grid_size, scale = 2 ** 12, 6
    v = WaveletBasis(grid_size, CDF97).atom(2 ** scale - 1)
    steps = np.arange(-64, 65)
    lags = steps * 2.0 ** scale / grid_size
    kappa = np.array([float(np.dot(v, np.roll(v, int(l)))) for l in steps])
    mid = len(lags) // 2
    assert lags[mid] == 0.0
    assert kappa[mid] == pytest.approx(1.0, abs=1e-6)   # unit-norm wavelet
    assert np.max(np.abs(kappa - kappa[::-1])) < 1e-10  # kappa is even


# --- threshold spec -------------------------------------------------------------

def test_threshold_spec_resolution():
    wb = WaveletBasis(1024, "haar")
    cs = CycleSpinFrame(1024, 4, "haar")
    assert ThresholdSpec("universal", 1.0).resolve(wb) == pytest.approx(
        evt.universal_threshold(1.0, wb.evt_count))
    assert ThresholdSpec("evt", 1.0, alpha=0.1).resolve(wb) == pytest.approx(
        evt.evt_threshold(1.0, 0.1, wb.evt_count))
    assert ThresholdSpec("cyclespin", 1.0, alpha=0.1).resolve(cs) == pytest.approx(
        evt.cyclespin_threshold(1.0, 0.1, 1024, 4))
    assert ThresholdSpec("fixed", 1.0, value=2.5).resolve() == 2.5
    assert ThresholdSpec("from_zn", 2.0, z=0.0).resolve(
        ExplicitFrame(np.eye(1024))) == pytest.approx(
        2 * evt.norms_chi(1024).b)


def test_threshold_spec_validation():
    eye64, eye1024 = ExplicitFrame(np.eye(64)), ExplicitFrame(np.eye(1024))
    with pytest.raises(ThresholdError):
        ThresholdSpec("evt", 0.0, alpha=0.1).resolve(eye64)
    with pytest.raises(ThresholdError):
        ThresholdSpec("evt", 1.0).resolve(eye64)  # missing alpha
    with pytest.raises(ThresholdError):
        ThresholdSpec("banana", 1.0).resolve(eye64)
    with pytest.raises(ThresholdError):
        ThresholdSpec("fixed", 1.0, value=-1.0).resolve()
    with pytest.raises(ThresholdError):
        ThresholdSpec("ti", 1.0, alpha=0.1).resolve(eye1024)  # missing c
    with pytest.raises(ThresholdError):
        ThresholdSpec("evt", 1.0, alpha=0.1).resolve()  # no frame to count
