import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framethresh.core import CoefficientVector, DimensionMismatch, ExplicitFrame
from framethresh.evt import ThresholdSpec
from framethresh.shrink import (DenoiseResult, confidence_region_contains,
                                denoise, shrink_value)
from framethresh.transforms import SineFrame, WaveletBasis

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)
thresholds = st.floats(min_value=0.0, max_value=1e3)


def test_soft_rule_cases():
    assert shrink_value(3.0, 1.0, "soft") == 2.0
    assert shrink_value(-3.0, 1.0, "soft") == -2.0
    assert shrink_value(0.5, 1.0, "soft") == 0.0


def _soft_reference(y, T):
    return np.sign(y) * np.maximum(np.abs(y) - T, 0.0)


def _hard_garrote_reference(y, T):
    a = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(y != 0.0, 1.0 - (T / np.where(y != 0.0, a, 1.0)) ** 2, 0.0)
    return np.where(a >= T, y, 0.0), y * np.maximum(factor, 0.0)


@pytest.mark.parametrize("T", [0.0, 0.7, 2.5])
def test_soft_rule_equals_sign_times_positive_part_bytewise(T, rng):
    # the in-place soft rule gives the bytes of sign(y) (|y| - T)_+ on every
    # input except -0.0, whose sign it keeps
    specials = np.array([T, -T, np.inf, -np.inf, 1e-300, -1e-300, 0.0])
    specials = specials[~np.signbit(specials) | (specials != 0.0)]  # -T = -0.0 at T = 0
    for y in (rng.standard_normal((4, 33)) * 3, np.concatenate(
            [specials, rng.standard_normal(9)]), specials):
        assert shrink_value(y, T, "soft").tobytes() == _soft_reference(y, T).tobytes()
        with np.errstate(over="ignore"):  # garrote's (T/y)^2 at y = 1e-300
            hard, garrote = _hard_garrote_reference(y, T)
            assert shrink_value(y, T, "hard").tobytes() == hard.tobytes()
            assert shrink_value(y, T, "garrote").tobytes() == garrote.tobytes()
    neg_zero = shrink_value(np.array([-0.0]), T, "soft")
    assert neg_zero[0] == 0.0 and np.signbit(neg_zero[0])
    for y in (-3.0, np.asarray(-3.0)):
        out = shrink_value(y, T, "soft")
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
        assert out == _soft_reference(-3.0, T)


def test_boundary_conventions():
    assert shrink_value(2.0, 2.0, "soft") == 0.0   # soft(T, T) = 0
    assert shrink_value(2.0, 2.0, "hard") == 2.0   # hard keeps |y| = T
    assert shrink_value(-2.0, 2.0, "hard") == -2.0


def test_garrote_values():
    assert shrink_value(2.0, 1.0, "garrote") == pytest.approx(1.5)
    assert shrink_value(0.0, 1.0, "garrote") == 0.0
    assert shrink_value(0.5, 1.0, "garrote") == 0.0


def test_unknown_rule_and_negative_threshold():
    with pytest.raises(ValueError):
        shrink_value(1.0, 1.0, "firm")
    with pytest.raises(ValueError):
        shrink_value(1.0, -0.5, "soft")


@pytest.mark.parametrize("rule", ["soft", "hard", "garrote"])
def test_nan_threshold_is_rejected(rule):
    # NaN < 0 is false, so a bare `threshold < 0` check let NaN through
    with pytest.raises(ValueError, match="must be >= 0"):
        shrink_value(np.arange(4.0), float("nan"), rule)


def test_denoise_rejects_nan_threshold():
    frame = WaveletBasis(8, "haar")
    with pytest.raises(ValueError, match="nonnegative"):
        denoise(frame, np.arange(8.0), ThresholdSpec("fixed", sigma=1.0, value=float("nan")))


@given(finite, thresholds)
def test_soft_shrinkage_property(y, T):
    # |S(y +/- T, T)| <= |y|: the property behind the smoothness claim
    for s in (+1.0, -1.0):
        assert abs(shrink_value(y + s * T, T, "soft")) <= abs(y) + 1e-12


def test_hard_and_garrote_violate_shrinkage_property():
    # hard(y + T, T) = y + T > y once past the threshold; same shape for the
    # garrote.  Only soft feeds the smoothness experiments.
    assert abs(shrink_value(1.0 + 1.0, 1.0, "hard")) > 1.0
    assert abs(shrink_value(1.0 + 1.0, 1.0, "garrote")) > 1.0


@given(finite, finite, thresholds)
def test_soft_dominates_any_sup_ball_center(x, y, T):
    # if |y - x| <= T then |S(y, T)| <= |x|
    if abs(y - x) <= T:
        assert abs(shrink_value(y, T, "soft")) <= abs(x) + 1e-12


@given(finite, finite, thresholds)
def test_soft_nonexpansive(y1, y2, T):
    d = abs(shrink_value(y1, T, "soft") - shrink_value(y2, T, "soft"))
    assert d <= abs(y1 - y2) + 1e-9 * max(1.0, abs(y1 - y2))


def _fixed(T):
    return ThresholdSpec("fixed", 1.0, value=T)


def test_denoise_two_sparse_haar_closed_form():
    wb = WaveletBasis(16, "haar")
    positions, amps = (2, 9), (4.0, -3.0)
    values = np.zeros(wb.atom_count)
    values[list(positions)] = amps
    u = wb.dual_synthesize(wb.analyze(np.zeros(wb.n)).replace_values(values))
    T = 1.25  # below min |coefficient|
    result = denoise(wb, u, _fixed(T), rule="soft")
    expected = sum((a - np.sign(a) * T) * wb.atom(p)
                   for p, a in zip(positions, amps))
    assert np.max(np.abs(result.estimate - expected)) < 1e-10
    assert result.kept_count == 2


def test_denoise_zero_threshold_is_identity(rng):
    for frame in (WaveletBasis(32, "cdf97"), ExplicitFrame(rng.standard_normal((48, 32)))):
        data = rng.standard_normal(32)
        result = denoise(frame, data, _fixed(0.0), rule="soft")
        assert np.max(np.abs(result.estimate - data)) < 1e-9


def test_denoise_huge_threshold_zeroes_thresholded_subspace(rng):
    wb = WaveletBasis(32, "haar")
    data = rng.standard_normal(32)
    result = denoise(wb, data, _fixed(1e9), rule="soft")
    # estimate collapses to the carried scaling part: the mean
    assert np.max(np.abs(result.estimate - data.mean())) < 1e-9
    assert result.kept_count == 0


def test_denoise_kept_count(rng):
    frame = ExplicitFrame(np.eye(8))
    data = np.array([3.0, -2.5, 0.1, 0.0, 1.1, -0.2, 5.0, -1.0])
    result = denoise(frame, data, _fixed(1.0), rule="hard")
    assert result.kept_count == int(np.sum(np.abs(data) > 1.0))


def test_denoise_sign_equivariance(rng):
    frame = SineFrame(64, 2)
    spec = ThresholdSpec("universal", sigma=1.0)
    data = frame.project_span(rng.standard_normal(64))
    plus = denoise(frame, data, spec).estimate
    minus = denoise(frame, -data, spec).estimate
    assert np.max(np.abs(plus + minus)) < 1e-10


def test_denoise_with_threshold_spec(rng):
    wb = WaveletBasis(64, "haar")
    data = rng.standard_normal(64)
    spec = ThresholdSpec("evt", sigma=1.0, alpha=0.1)
    result = denoise(wb, data, spec)
    from framethresh.evt import evt_threshold
    assert result.threshold_used == pytest.approx(
        evt_threshold(1.0, 0.1, wb.evt_count))


def test_confidence_region_membership(rng):
    center = CoefficientVector(rng.standard_normal(20))
    assert confidence_region_contains(center, 0.0, center)
    shrunk = center.replace_values(shrink_value(center.values, 0.5, "soft"))
    assert confidence_region_contains(center, 0.5, shrunk)
    bumped = center.values.copy()
    bumped[7] += 0.5 + 1e-9
    assert not confidence_region_contains(center, 0.5, center.replace_values(bumped))


def test_confidence_region_index_mismatch():
    a = CoefficientVector(np.zeros(4))
    b = CoefficientVector(np.zeros(5))
    with pytest.raises(DimensionMismatch):
        confidence_region_contains(a, 1.0, b)
    c = CoefficientVector(np.zeros(4), ("j",), (np.array([0, 0, 1, 1]),))
    d = CoefficientVector(np.zeros(4), ("j",), (np.array([0, 1, 1, 1]),))
    with pytest.raises(DimensionMismatch):
        confidence_region_contains(c, 1.0, d)


@given(st.lists(finite, min_size=1, max_size=30), thresholds)
def test_soft_estimate_inside_confidence_ball(values, T):
    cv = CoefficientVector(np.array(values))
    shrunk = cv.replace_values(shrink_value(cv.values, T, "soft"))
    assert confidence_region_contains(cv, T * (1 + 1e-12) + 1e-12, shrunk)


@pytest.mark.parametrize("rule", ["soft", "hard", "garrote"])
@pytest.mark.parametrize("T", [0.0, 1.5, np.inf])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["1d", "block"])
def test_kept_count_is_count_above_threshold(rule, T, lead):
    # the identity frame's coefficients are the data (-0.0 becomes +0.0);
    # |y| == T, signed zeros, infinities (inf - inf is NaN under soft at
    # T = inf), NaN and subnormals
    y = np.array([0.0, -0.0, 1.5, -1.5, 2.0, -2.0, 0.5, np.inf, -np.inf,
                  np.nan, -np.nan, 1e-300, -5e-324])
    data = np.broadcast_to(y, lead + y.shape).copy()
    if lead:
        data[1] *= -1.0
    frame = ExplicitFrame(np.eye(len(y)))
    with np.errstate(invalid="ignore", over="ignore"):
        res = denoise(frame, data, _fixed(T), rule)
        expected = np.count_nonzero(np.abs(frame.analyze(data).values) > T)
    assert res.kept_count == expected
    if rule == "soft":
        # NaN shrinks to NaN: nonzero, yet |y| > T is false
        assert np.count_nonzero(res.thresholded_coeffs.values) > res.kept_count
