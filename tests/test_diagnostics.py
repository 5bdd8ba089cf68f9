import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framethresh import diagnostics
from framethresh.core import FrameError
from framethresh.diagnostics import (ComparisonBound, GramMatrix, _weighted_fsum,
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
    gram = frame_gram(WaveletBasis(256, "haar")).copy()
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


def _whole_matrix_check(gram):
    """The Gram checks as whole-array reductions, in their reporting order."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be a square matrix")
    hi, lo = float(gram.max()), float(gram.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("gram entries must be finite")
    if np.max(np.abs(np.diag(gram) - 1.0)) > 1e-9:
        raise ValueError("gram diagonal must be 1 within 1e-9")
    if max(hi, -lo) > 1 + 1e-9:
        raise ValueError("gram entries must lie in [-1, 1]")


def _whole_matrix_sums(gram, thresholds, rho=0.5, delta=0.2):
    """rest_sum, rest_split and comparison_bound's (value, max_term,
    argmax_pair) at each threshold from one m x m array: np.unique over |G|
    with the diagonal zeroed, and np.isin over the whole array for the
    argmax."""
    m = gram.shape[0]
    a = np.abs(gram)
    np.fill_diagonal(a, 0.0)
    v, c = np.unique(a, return_counts=True)

    def terms(term):
        return np.fromiter(map(term, v.tolist()), float, len(v))

    base = math.log(m) / m ** 2
    rest = terms(lambda x: x * base ** (1.0 / (1.0 + x)))
    split = tuple(_weighted_fsum(rest[mask], c[mask])
                  for mask in (v >= rho, (v >= delta) & (v < rho), v < delta))
    bounds = []
    for threshold in thresholds:
        t = terms(lambda x: x * math.exp(-threshold ** 2 / (1.0 + x)))
        top = t.max()
        i, j = np.unravel_index(np.argmax(np.isin(a, v[t == top])), a.shape)
        bounds.append((0.25 * _weighted_fsum(t, c), 0.25 * float(top), (int(i), int(j))))
    return _weighted_fsum(rest, c), split, bounds


def _random_correlation(rng, m, asymmetric=False):
    a = rng.standard_normal((m, m + 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    gram = a @ a.T
    np.fill_diagonal(gram, 1.0)
    if asymmetric:
        gram[m - 1, 0] = -0.97
    return gram


def _block_grams():
    yield from (frame_gram(TIWaveletFrame(n, f)) for f in ("haar", "cdf97r")
                for n in (16, 64, 256))
    yield from (frame_gram(CycleSpinFrame(n, 4, "haar")) for n in (64, 1024))
    rng = np.random.default_rng(11)
    for m in (2, 3, 127, 129, 300):
        yield _random_correlation(rng, m)
        yield _random_correlation(rng, m, asymmetric=True)
    yield np.eye(5)


_THRESHOLDS = (0.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def block_oracles():
    """_whole_matrix_sums of each _block_grams() entry at _THRESHOLDS,
    computed once for the tests that compare fresh Grams against them."""
    return [_whole_matrix_sums(np.array(gram), _THRESHOLDS) for gram in _block_grams()]


def _assert_sums_equal_whole_matrix(gram, thresholds=_THRESHOLDS, oracle=None):
    m = gram.shape[0]
    r, split, bounds = oracle or _whole_matrix_sums(gram, thresholds)
    # bytes, not ==: a sum may not move by any amount, nor turn -0.0
    assert rest_sum(gram, m).hex() == r.hex()
    assert [x.hex() for x in rest_split(gram, m, 0.5, 0.2)] == [x.hex() for x in split]
    for threshold, (value, max_term, argmax) in zip(thresholds, bounds):
        cb = comparison_bound(gram, threshold)
        assert (cb.value.hex(), cb.max_term.hex(), cb.argmax_pair) == (
            value.hex(), max_term.hex(), argmax)


def test_row_block_sums_equal_whole_matrix_route(block_oracles):
    # TI and cyclespin Grams of up to 3068 atoms (up to 24 row blocks),
    # random correlation matrices within one block, the identity
    for gram, oracle in zip(_block_grams(), block_oracles, strict=True):
        _assert_sums_equal_whole_matrix(gram, oracle=oracle)


@pytest.mark.parametrize("m, rows", [(129, 10), (300, 7), (127, 1), (64, 64)])
def test_row_block_sums_at_small_blocks(monkeypatch, rng, m, rows):
    # m rows in blocks of `rows`: a last block shorter than the others, one
    # row per block, and one block holding every row; random entries are
    # all distinct, so block histograms are merged before the pass ends
    monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", rows * m)
    _assert_sums_equal_whole_matrix(_random_correlation(rng, m))
    _assert_sums_equal_whole_matrix(_random_correlation(rng, m, asymmetric=True))


@pytest.mark.parametrize("budget", [None, 7 * 600])
def test_argmax_pair_first_found_in_later_block(monkeypatch, rng, budget):
    # 600 rows make two blocks of 436 and 164 rows by default (86 blocks of
    # 7 at the small budget); the largest |kappa| sits only at (500, 550)
    # and (550, 500), so the scan reaches it in a later block.  Entries on a
    # 1/64 grid keep the histogram small.
    if budget is not None:
        monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", budget)
    gram = np.round(_random_correlation(rng, 600) * 32) / 64
    np.fill_diagonal(gram, 1.0)
    gram[500, 550] = gram[550, 500] = -0.99
    assert comparison_bound(gram, 2.0).argmax_pair == (500, 550)
    _assert_sums_equal_whole_matrix(gram)


def _sums_hex(gram, thresholds, bound_first=False):
    """rest_sum, rest_split and comparison_bound's (value, max_term,
    argmax_pair) at each threshold, floats as hex, called in either order."""
    m = gram.shape[0]

    def rest():
        return rest_sum(gram, m).hex(), [x.hex() for x in rest_split(gram, m, 0.5, 0.2)]

    def bounds():
        return [(cb.value.hex(), cb.max_term.hex(), cb.argmax_pair)
                for cb in (comparison_bound(gram, t) for t in thresholds)]

    if bound_first:
        b = bounds()
        return (*rest(), b)
    return (*rest(), bounds())


def _oracle_hex(gram, thresholds, oracle=None):
    r, split, bounds = oracle or _whole_matrix_sums(np.array(gram), thresholds)
    return (r.hex(), [x.hex() for x in split],
            [(v.hex(), t.hex(), pair) for v, t, pair in bounds])


@pytest.mark.parametrize("bound_first", [False, True], ids=["rest-first", "bound-first"])
def test_kept_histogram_sums_equal_whole_matrix_in_either_order(bound_first, block_oracles):
    # the frame_gram results hold the histogram frame_gram made
    for gram, oracle in zip(_block_grams(), block_oracles, strict=True):
        assert _sums_hex(gram, _THRESHOLDS, bound_first) == _oracle_hex(gram, _THRESHOLDS, oracle)
        if isinstance(gram, GramMatrix):
            assert gram._histogram is not None


def _count_passes(monkeypatch):
    """Counts of _abs_row_blocks calls and of _first_pair calls (each of
    which scans row blocks too): their difference is the histogram passes."""
    calls = {"blocks": 0, "first_pair": 0}
    blocks, first_pair = diagnostics._abs_row_blocks, diagnostics._first_pair

    def spy_blocks(gram):
        calls["blocks"] += 1
        return blocks(gram)

    def spy_first_pair(gram, maxima):
        calls["first_pair"] += 1
        return first_pair(gram, maxima)

    monkeypatch.setattr(diagnostics, "_abs_row_blocks", spy_blocks)
    monkeypatch.setattr(diagnostics, "_first_pair", spy_first_pair)
    return lambda: calls["blocks"] - calls["first_pair"]


def test_one_histogram_pass_per_frame_gram(monkeypatch):
    # frame_gram runs the one pass; no sum on its result runs another
    passes = _count_passes(monkeypatch)
    gram = frame_gram(TIWaveletFrame(64, "haar"))
    assert passes() == 1
    sums = _sums_hex(gram, (2.0, 3.0))
    assert _sums_hex(gram, (2.0, 3.0)) == sums
    assert passes() == 1
    # views, copies and plain arrays pay the pass on every call (4 calls)
    for other in (np.asarray(gram), gram.copy(), gram[:, :], np.abs(gram) * np.sign(gram)):
        before = passes()
        assert _sums_hex(other, (2.0, 3.0)) == sums
        assert passes() - before == 4


def test_frame_gram_is_read_only():
    gram = frame_gram(TIWaveletFrame(16, "haar"))
    with pytest.raises(ValueError, match="read-only"):
        gram[0, 1] = 0.5
    # the base sits on a read-only buffer, so no array over it turns writable
    assert memoryview(gram.base).readonly
    for array in (gram, gram.base, gram[1:], gram.T, np.asarray(gram)):
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.flags.writeable = True
    copy = gram.copy()
    copy[0, 1] = 0.5
    assert gram[0, 1] != 0.5


def test_changed_copy_and_slice_give_their_own_sums():
    thresholds = (2.0, 3.0)
    gram = frame_gram(TIWaveletFrame(64, "haar"))
    own = _sums_hex(gram, thresholds)
    changed = gram.copy()
    changed[0, 5] = changed[5, 0] = -0.9
    assert _sums_hex(changed, thresholds) == _oracle_hex(changed, thresholds) != own
    corner = gram[:100, :100]  # a leading principal block is a Gram matrix
    assert _sums_hex(corner, thresholds) == _oracle_hex(corner, thresholds) != own
    assert _sums_hex(gram, thresholds) == own


class _Atoms:
    """A frame given by its atom rows, for frame_gram."""

    def __init__(self, atoms):
        self.atoms = atoms
        self.atom_count = len(atoms)

    def distinct_positions(self):
        return np.arange(self.atom_count)

    def atom(self, positions):
        return self.atoms[positions]


def test_rejected_frame_gram_keeps_nothing():
    # frame_gram checks the Gram matrix as it makes the histogram
    with pytest.raises(ValueError, match="diagonal must be 1"):
        frame_gram(_Atoms(2.0 * np.eye(3)))


def _bad_grams():
    gram = _random_correlation(np.random.default_rng(3), 600)  # two row blocks
    for (i, j), value in (((590, 3), np.nan), ((0, 0), np.nan), ((599, 599), np.inf),
                          ((420, 421), -np.inf), ((500, 500), 0.9), ((590, 3), 1.2),
                          ((2, 3), -1.0 - 2e-9)):
        bad = gram.copy()
        bad[i, j] = value
        yield bad
    for first, second in ((((5, 5), 0.9), ((590, 3), np.nan)),   # finite before diagonal
                          (((590, 590), 0.9), ((1, 2), 1.5))):  # diagonal before range
        bad = gram.copy()
        for (i, j), value in (first, second):
            bad[i, j] = value
        yield bad
    yield np.ones((3, 4))


@pytest.mark.parametrize("bad", list(_bad_grams()))
def test_rejected_grams_raise_the_whole_matrix_message(bad):
    with pytest.raises(ValueError) as expected:
        _whole_matrix_check(bad)
    for call in (lambda: rest_sum(bad, 600), lambda: rest_split(bad, 600, 0.5, 0.2),
                 lambda: comparison_bound(bad, 2.0)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == str(expected.value)


def test_rest_sum_memory_is_bounded_by_the_block_budget():
    # the n=256 TI haar Gram is 2048 x 2048 (32 MiB); the pass holds one
    # 2 MiB block, its sorted copy and the histograms
    gram = frame_gram(TIWaveletFrame(256, "haar"))
    m = gram.shape[0]
    tracemalloc.start()
    try:
        rest_sum(gram, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gram.nbytes / 4


# at 4 x 2^20 counts the fsum(np.repeat(...)) oracle alone can outlast
# hypothesis's default 200 ms deadline
@settings(deadline=None)
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


def test_stability_fails_fast_without_frame_bounds(monkeypatch):
    """Bounds come first, largest n first: a family whose largest frame
    has none (cyclespin above coarsest level 0, n = 8192 past the dense
    eigensolve) raises before any bounds or census of the smaller ones, so
    no atom is materialized."""
    calls = []
    original = CycleSpinFrame.atom
    monkeypatch.setattr(CycleSpinFrame, "atom",
                        lambda self, position: calls.append(position) or original(self, position))
    frames = [CycleSpinFrame(n, 4, "haar", coarsest_level=1) for n in (1024, 2048, 8192)]
    with pytest.raises(FrameError, match="n=8192 exceeds the dense eigensolve limit"):
        stability_check(frames, rho=0.5)
    assert calls == []


def test_stability_needs_three_frames():
    with pytest.raises(ValueError):
        stability_check([WaveletBasis(64, "haar")], rho=0.5)


@pytest.mark.parametrize("ns", [(64, 32, 16), (16, 32, 32), (32, 16, 64)])
def test_stability_needs_strictly_increasing_n(ns):
    with pytest.raises(ValueError, match="strictly increase"):
        stability_check([TIWaveletFrame(n, "haar") for n in ns], rho=0.5)


@pytest.mark.parametrize("gram", [np.eye(4), frame_gram(TIWaveletFrame(16, "haar"))],
                         ids=["identity", "ti-haar-16"])
@pytest.mark.parametrize("threshold", [1e200, -1e200, 1e308])
def test_comparison_bound_past_the_square_range_is_zero(gram, threshold):
    # T * T is inf past 1.34e154, so every term a exp(-inf) is 0.0
    for flavor in ("abs", "normal"):
        bound = comparison_bound(gram, threshold, flavor)
        assert (bound.value, bound.max_term, bound.argmax_pair) == (0.0, 0.0, (0, 0))
        assert bound.threshold == threshold


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_comparison_bound_rejects_non_finite_threshold(threshold):
    gram = np.full((3, 3), 0.5)
    np.fill_diagonal(gram, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        comparison_bound(gram, threshold)
