import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framethresh.diagnostics import (ComparisonBound, _weighted_fsum,
                                     comparison_bound, frame_gram, rest_split,
                                     rest_sum, stability_check)
from framethresh.transforms import (CycleSpinFrame, SineFrame, TIWaveletFrame,
                                    WaveletBasis)


def test_rest_sum_identity_gram():
    assert rest_sum(np.eye(6), 6) == 0.0


def test_rest_sum_2x2_hand_value():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    # R = 2 * (log 2 / 4)^(1/2)
    assert rest_sum(gram, 2) == pytest.approx(2 * math.sqrt(math.log(2) / 4),
                                              abs=1e-12)


def test_rest_sum_haar_basis_exactly_zero():
    gram = frame_gram(WaveletBasis(256, "haar"))
    gram[np.abs(gram) < 1e-12] = 0.0  # orthonormal: clean fp dust
    assert rest_sum(gram, gram.shape[0]) == 0.0


def test_rest_sum_sine_frame_decreasing_in_n():
    values = []
    for n in (64, 128, 256):
        frame = SineFrame(n, 2)
        gram = frame_gram(frame)
        values.append(rest_sum(gram, frame.atom_count))
    assert values[0] > values[1] > values[2]


def test_rest_sum_validates_gram():
    with pytest.raises(ValueError):
        rest_sum(np.array([[0.9, 0.0], [0.0, 1.0]]), 2)  # diagonal not 1
    with pytest.raises(ValueError):
        rest_sum(np.array([[1.0, 1.2], [1.2, 1.0]]), 2)  # entry outside [-1,1]
    with pytest.raises(ValueError):
        rest_sum(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)  # off-diagonal NaN
    with pytest.raises(ValueError):
        rest_sum(np.array([[np.nan, 0.5], [0.5, 1.0]]), 2)  # diagonal NaN


def _reference_sums(gram, m, rho, delta, threshold, flavor):
    """The three formulas as plain double loops over the ordered
    off-diagonal pairs, in row-major order."""
    k = gram.shape[0]
    base = math.log(m) / m ** 2
    parts = ([], [], [])
    terms = []
    max_term, argmax = 0.0, (0, 0)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            a = abs(float(gram[i, j]))
            r = a * base ** (1.0 / (1.0 + a))
            parts[0 if a >= rho else 1 if a >= delta else 2].append(r)
            c = a * math.exp(-threshold ** 2 / (1.0 + a))
            terms.append(c)
            if c > max_term:
                max_term, argmax = c, (i, j)
    factor = 0.25 if flavor == "abs" else 0.125
    return (math.fsum(parts[0] + parts[1] + parts[2]),
            tuple(math.fsum(p) for p in parts),
            (factor * math.fsum(terms), factor * max_term, argmax))


def test_offdiag_sums_match_elementwise_reference(rng):
    a = rng.uniform(-1, 1, (40, 40))
    random = np.clip((a + a.T) / 2, -0.999, 0.999)
    np.fill_diagonal(random, 1.0)
    # non-symmetric: the first maximal pair, (1, 0), lies below the diagonal
    lower = np.array([[1.0, 0.1, 0.2], [0.7, 1.0, 0.3], [0.2, -0.7, 1.0]])
    # at T=1, |kappa| = 0.1004 and the next smaller float give equal terms:
    # the first maximal pair, (0, 1), holds the larger of the two
    tie = np.eye(3)
    tie[0, 1], tie[1, 2] = 0.1004, np.nextafter(0.1004, 0.0)
    # numpy's vectorized exp and pow (on AVX-512 hosts) move some TI cdf97r
    # n=32 sums by one ulp against the C library's scalar functions
    # TI haar n=64: 384 x 384 with few distinct values whose counts have
    # many set bits
    grams = [frame_gram(TIWaveletFrame(16, "haar")), frame_gram(SineFrame(32, 2)),
             frame_gram(TIWaveletFrame(32, "cdf97r")), frame_gram(TIWaveletFrame(64, "haar")),
             random, lower, tie, np.eye(5)]
    assert comparison_bound(lower, 1.0).argmax_pair == (1, 0)
    assert comparison_bound(tie, 1.0).argmax_pair == (0, 1)
    for gram in grams:
        m = gram.shape[0]
        for threshold in (1.0, 3.0):
            for flavor in ("abs", "normal"):
                r, parts, (value, max_term, argmax) = _reference_sums(
                    gram, m, 0.5, 0.2, threshold, flavor)
                assert rest_sum(gram, m) == r
                assert rest_split(gram, m, 0.5, 0.2) == parts
                cb = comparison_bound(gram, threshold, flavor)
                assert (cb.value, cb.max_term, cb.argmax_pair) == (value, max_term, argmax)


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(0, 2 ** 20)), max_size=4))
def test_weighted_fsum_equals_fsum_of_repeated_terms(pairs):
    terms = np.array([t for t, _ in pairs], dtype=float)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    assert _weighted_fsum(terms, counts) == math.fsum(np.repeat(terms, counts).tolist())


def test_rest_sum_monotone_in_coherence(rng):
    # increasing any |kappa| does not decrease R (log m / m^2 < 1 for m >= 3)
    m = 12
    a = rng.uniform(-0.6, 0.6, (m, m))
    gram = (a + a.T) / 2
    np.fill_diagonal(gram, 1.0)
    base = rest_sum(gram, m)
    for (i, j) in ((0, 1), (3, 7), (9, 2)):
        bumped = gram.copy()
        bumped[i, j] = bumped[j, i] = np.sign(gram[i, j] or 1.0) * min(
            1.0, abs(gram[i, j]) + 0.2)
        assert rest_sum(bumped, m) >= base - 1e-15


def test_rest_split_identity():
    assert rest_split(np.eye(5), 5, rho=0.5, delta=0.2) == (0.0, 0.0, 0.0)


def test_rest_split_additivity(rng):
    m = 10
    a = rng.uniform(-1, 1, (m, m))
    gram = np.clip((a + a.T) / 2, -0.999, 0.999)
    np.fill_diagonal(gram, 1.0)
    for rho, delta in ((0.9, 0.2), (0.5, 0.3), (0.35, 0.05)):
        parts = rest_split(gram, m, rho, delta)
        assert math.fsum(parts) == pytest.approx(rest_sum(gram, m), abs=1e-12)


def test_rest_split_partition_counts_match_classification():
    frame = SineFrame(128, 2)
    gram = frame_gram(frame)
    m = frame.atom_count
    rho, delta = 0.9, 0.2
    off = np.abs(gram[~np.eye(m, dtype=bool)])
    n1 = int(np.count_nonzero(off >= rho))
    n2 = int(np.count_nonzero((off >= delta) & (off < rho)))
    n3 = int(np.count_nonzero(off < delta))
    r1, r2, r3 = rest_split(gram, m, rho, delta)
    # zero partial sums exactly where the class is empty
    assert (r1 > 0) == (n1 > 0)
    assert (r2 > 0) == (n2 > 0)
    assert (r3 > 0) == (n3 > 0)
    assert n1 + n2 + n3 == m * (m - 1)


def test_rest_split_validates_ranges():
    gram = np.eye(4)
    with pytest.raises(ValueError):
        rest_split(gram, 4, rho=0.5, delta=0.4)   # delta >= 1/3
    with pytest.raises(ValueError):
        rest_split(gram, 4, rho=0.1, delta=0.2)   # rho < delta
    with pytest.raises(ValueError):
        rest_split(gram, 4, rho=1.0, delta=0.2)


def test_comparison_bound_identity_gram():
    for flavor in ("abs", "normal"):
        assert comparison_bound(np.eye(8), 2.0, flavor).value == 0.0


def test_comparison_bound_flavor_ratio(rng):
    a = rng.uniform(-0.5, 0.5, (6, 6))
    gram = (a + a.T) / 2
    np.fill_diagonal(gram, 1.0)
    for T in (1.0, 2.5):
        b_abs = comparison_bound(gram, T, "abs").value
        b_norm = comparison_bound(gram, T, "normal").value
        assert b_abs == pytest.approx(2.0 * b_norm, rel=1e-12)


def test_comparison_bound_vanishes_as_T_grows():
    gram = np.full((4, 4), 0.5)
    np.fill_diagonal(gram, 1.0)
    vals = [comparison_bound(gram, T, "abs").value for T in (1, 3, 6, 10)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 1e-20


def test_comparison_bound_equicorrelated_monte_carlo(rng):
    # 8 atoms, off-diagonal 0.5, T = 2: bound >= observed two-sample gap
    dim, roh = 8, 0.5
    gram = np.full((dim, dim), roh)
    np.fill_diagonal(gram, 1.0)
    chol = np.linalg.cholesky(gram)
    draws = 200_000
    dep = np.max(np.abs(rng.standard_normal((draws, dim)) @ chol.T), axis=1)
    ind = np.max(np.abs(rng.standard_normal((draws, dim))), axis=1)
    T = 2.0
    gap = abs(np.mean(dep <= T) - np.mean(ind <= T))
    bound = comparison_bound(gram, T, "abs").value
    se = math.sqrt(2 * 0.25 / draws)
    assert gap <= bound + 3 * se


def test_comparison_bound_reports_max_term():
    gram = np.eye(3)
    gram[0, 1] = gram[1, 0] = 0.8
    gram[0, 2] = gram[2, 0] = 0.1
    cb = comparison_bound(gram, 1.5, "abs")
    assert cb.argmax_pair in ((0, 1), (1, 0))
    assert 0 < cb.max_term < cb.value


def test_stability_orthonormal_family_stable():
    frames = [WaveletBasis(n, "haar") for n in (64, 128, 256)]
    report = stability_check(frames, rho=0.5)
    assert report.verdict == "stable"
    assert all(r.count_geq_rho == 0 for r in report.rows)
    assert all(abs(r.upper_frame_bound - 1) < 1e-9 for r in report.rows)


def test_stability_ti_family_flags_growing_bounds():
    frames = [TIWaveletFrame(n, "haar") for n in (64, 128, 256)]
    report = stability_check(frames, rho=0.5)
    assert not report.frame_bounds_bounded
    assert "unstable" in report.verdict
    assert [round(r.upper_frame_bound) for r in report.rows] == [64, 128, 256]


def test_stability_cyclespin_fixed_M_stable():
    frames = [CycleSpinFrame(n, 4, "haar") for n in (64, 128, 256)]
    report = stability_check(frames, rho=0.5)
    assert report.verdict == "stable"
    assert report.sup_frame_bound == pytest.approx(4.0, rel=1e-6)


def test_stability_counts_even_and_diagonal_variant():
    frames = [SineFrame(n, 2) for n in (32, 64, 128)]
    report = stability_check(frames, rho=0.3)
    for row in report.rows:
        assert row.count_geq_rho % 2 == 0
        assert row.count_with_diagonal == row.count_geq_rho + row.omega_count


def test_stability_needs_three_frames():
    with pytest.raises(ValueError):
        stability_check([WaveletBasis(64, "haar")], rho=0.5)


@pytest.mark.parametrize("ns", [(64, 32, 16), (16, 32, 32), (32, 16, 64)])
def test_stability_needs_strictly_increasing_n(ns):
    with pytest.raises(ValueError, match="strictly increase"):
        stability_check([TIWaveletFrame(n, "haar") for n in ns], rho=0.5)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_comparison_bound_rejects_non_finite_threshold(threshold):
    gram = np.full((3, 3), 0.5)
    np.fill_diagonal(gram, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        comparison_bound(gram, threshold)
