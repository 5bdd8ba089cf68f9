import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framethresh import core, transforms
from framethresh.core import (CoefficientVector, DimensionMismatch, ExplicitFrame,
                              FrameError, IterationError, frame_bounds,
                              gram_coherence_counts)
from framethresh.diagnostics import frame_gram
from framethresh.transforms import (CycleSpinFrame, SineFrame, TIWaveletFrame,
                                    WaveletBasis)

ALL_SMALL_FRAMES = [
    WaveletBasis(64, "haar"),
    WaveletBasis(64, "d4"),
    WaveletBasis(64, "cdf97"),
    CycleSpinFrame(64, 4, "haar"),
    CycleSpinFrame(64, 4, "d4", coarsest_level=2),
    TIWaveletFrame(64, "haar"),
    SineFrame(64, 2),
]


def test_analyze_haar_atom_gives_unit_coefficient(haar16):
    atom = haar16.atom(0)
    cv = haar16.analyze(atom)
    expected = np.zeros(haar16.atom_count)
    expected[0] = 1.0
    assert np.allclose(cv.values, expected, atol=1e-12)


def test_analyze_zero_signal(haar16):
    cv = haar16.analyze(np.zeros(16))
    assert np.all(cv.values == 0.0)
    assert cv.count == haar16.atom_count


def test_explicit_frame_matches_naive_dot_products():
    mat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fr = ExplicitFrame(mat)
    signal = np.array([1.0, 0.0])
    cv = fr.analyze(signal)
    naive = np.array([fr.atom(i) @ signal for i in range(3)])
    assert np.allclose(cv.values, naive, atol=1e-14)
    # first atom is e1, so its coefficient is signal[0]
    assert cv.values[0] == pytest.approx(1.0)


def test_analyze_rejects_dimension_mismatch(haar16):
    with pytest.raises(DimensionMismatch):
        haar16.analyze(np.zeros(17))


def test_dual_synthesize_rejects_count_mismatch(haar16):
    cv = CoefficientVector(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        haar16.dual_synthesize(cv)


def test_roundtrip_random_signal(rng):
    # above coarsest level 0 the TI scaling atom also reconstructs low
    # frequencies, which the detail kernels must not count a second time
    ti_coarse = [TIWaveletFrame(64, "haar", 2), TIWaveletFrame(64, "cdf97r", 1),
                 TIWaveletFrame(64, "d4", 1), TIWaveletFrame(64, "cdf97", 3)]
    for frame in ALL_SMALL_FRAMES + ti_coarse:
        u = frame.project_span(rng.standard_normal((3, frame.n)))
        rec = frame.dual_synthesize(frame.analyze(u))
        assert np.max(np.abs(rec - u)) < 1e-9 * max(1.0, np.linalg.norm(u))
        rows = [frame.dual_synthesize(frame.analyze(row)) for row in u]
        assert rec.tobytes() == np.stack(rows).tobytes()


def test_tight_frame_dual_is_scaled_adjoint(rng):
    # cycle-spin frame: Phi+ = Phi*/M on detail coefficients
    frame = CycleSpinFrame(32, 4, "haar")
    values = rng.standard_normal(frame.atom_count)
    cv = CoefficientVector(values, ("j", "k", "m"), frame._labels)
    atoms = np.stack([frame.atom(p) for p in range(frame.atom_count)])
    adjoint = atoms.T @ values
    assert np.allclose(frame.dual_synthesize(cv), adjoint / frame.M, atol=1e-10)


def test_explicit_pseudoinverse_matches_dense_oracle(rng):
    mat = rng.standard_normal((3, 2))
    fr = ExplicitFrame(mat)
    values = rng.standard_normal(3)
    cv = CoefficientVector(values)
    atoms = np.stack([fr.atom(i) for i in range(3)])
    oracle = np.linalg.pinv(atoms) @ values
    assert np.max(np.abs(fr.dual_synthesize(cv) - oracle)) < 1e-10


def _dense_operators(mat):
    """The unit-row atom matrix and its Cholesky pseudoinverse, as the
    matrix-product route of ExplicitFrame builds them."""
    from scipy.linalg import cho_factor, cho_solve
    atoms = mat / np.linalg.norm(mat, axis=1)[:, None]
    return atoms, cho_solve(cho_factor(atoms.T @ atoms), atoms.T)


def _signed_permutations():
    for n in (1, 2, 7, 1024):
        yield f"identity-{n}", np.eye(n)
        gen = np.random.default_rng(n)
        mat = np.zeros((n, n))
        mat[np.arange(n), gen.permutation(n)] = gen.choice([-1.0, 1.0], n)
        yield f"signed-{n}", mat
    # rows are renormalized first, so any nonzero magnitudes qualify
    yield "scaled-3", np.array([[0.0, 0.5, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    # -0.0 off the diagonal: the unit rows keep it, atom() gives +0.0
    yield "negated-identity-7", -np.eye(7)


def _signed_zero_inputs(n):
    block = np.random.default_rng(n + 1).standard_normal((5, n))
    block[0] = 0.0
    block[1] = -0.0
    block[2, ::2] = -0.0
    block[3, 1::2] = 0.0
    return [block] + list(block)


def _assert_dense_products(frame, atoms, pinv):
    for x in _signed_zero_inputs(frame.n):
        got, want = frame.analyze(x).values, x @ atoms.T
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for c in _signed_zero_inputs(frame.atom_count):
        got, want = frame.dual_synthesize(CoefficientVector(c)), c @ pinv.T
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mat", [pytest.param(m, id=name) for name, m in _signed_permutations()])
def test_signed_permutation_equals_dense_products_bytewise(mat):
    frame = ExplicitFrame(mat)
    assert frame.is_signed_permutation
    atoms, pinv = _dense_operators(mat)
    _assert_dense_products(frame, atoms, pinv)
    eigvals = np.linalg.eigvalsh(atoms.T @ atoms)
    assert frame.bounds == (eigvals[0], eigvals[-1]) == (1.0, 1.0)


@pytest.mark.parametrize("mat", [
    np.vstack([np.eye(4), np.eye(4)[[2]]]),   # duplicated row
    np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.vstack([np.eye(3), np.ones((1, 3))]),  # m != n
    # a second nonzero entry that the division by its row norm rounds to 0
    np.array([[1e10, 5e-324], [0.0, 1.0]]),
], ids=["duplicated-row", "half-entry", "tall", "vanishing-second-entry"])
def test_non_permutation_keeps_matrix_products(mat):
    frame = ExplicitFrame(mat)
    assert not frame.is_signed_permutation
    _assert_dense_products(frame, *_dense_operators(mat))


class _UnitRows(core.Frame):
    """The unit rows of a matrix, kept densely: the reference for the atoms
    a signed permutation builds on demand."""

    name = "unit-rows"

    def __init__(self, mat):
        self._atoms = mat / np.linalg.norm(mat, axis=1)[:, None]
        self.atom_count, self.n = self._atoms.shape

    def atom(self, position):
        return self._atoms[position].copy()


@pytest.mark.parametrize("mat", [pytest.param(m, id=name) for name, m in _signed_permutations()])
def test_signed_permutation_atoms_equal_unit_rows_bytewise(mat):
    frame, dense = ExplicitFrame(mat), _UnitRows(mat)
    n = frame.n
    # the dense unit rows keep a -0.0 input entry; atom() gives +0.0 there
    want = dense.atom(np.arange(n)) + 0.0
    assert frame.atom(np.arange(n)).tobytes() == want.tobytes()
    for p in (0, n - 1, -1, np.int64(n // 2)):
        assert frame.atom(p).tobytes() == want[p].tobytes()
    assert frame.atom([n - 1, 0]).tobytes() == want[[n - 1, 0]].tobytes()
    assert np.count_nonzero(np.signbit(frame.atom(np.arange(n)))) == np.count_nonzero(mat < 0)
    assert frame_bounds(frame) == frame_bounds(dense) == (1.0, 1.0)
    assert np.asarray(frame_gram(frame)).tobytes() == np.asarray(frame_gram(dense)).tobytes()
    levels = [0.5, 1.0]
    assert (gram_coherence_counts(frame, levels).coherence_counts
            == gram_coherence_counts(dense, levels).coherence_counts == {0.5: 0, 1.0: 0})


def test_signed_permutation_holds_no_dense_copy():
    """The identity at n = 1024 is held as four length-n vectors and the
    distinct positions: no unit-row copy of its 8 MB matrix is retained or
    made while it is built."""
    import tracemalloc

    mat = np.eye(1024)
    ExplicitFrame(np.eye(8))  # lazy imports settle unmeasured
    tracemalloc.start()
    try:
        frame = ExplicitFrame(mat)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.is_signed_permutation
    assert retained <= 64 * 1024 and peak < 3 * 2 ** 20, (retained, peak)


def test_signed_permutation_loads_no_scipy_linalg():
    # the Cholesky pseudoinverse is the only user of scipy.linalg
    code = ("import sys, numpy as np; from framethresh.core import ExplicitFrame; "
            "f = ExplicitFrame(-np.eye(8)[::-1]); f.dual_synthesize(f.analyze(np.ones(8))); "
            "print(f.is_signed_permutation, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "True False"


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_explicit_frame_rejects_empty_matrix(shape):
    with pytest.raises(FrameError, match="empty"):
        ExplicitFrame(np.zeros(shape))


def test_signed_permutation_rejects_repeated_column():
    assert core._signed_permutation(np.array([[1.0, 0.0], [-1.0, 0.0]])) is None
    with pytest.raises(FrameError, match="singular"):
        ExplicitFrame(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_signed_permutation_keeps_non_finite_in_its_coordinate():
    # the declared difference from the matrix product, which spreads NaN
    # through 0 * inf across the whole row
    mat = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([np.inf, 2.0, np.nan])
    got = ExplicitFrame(mat).analyze(x).values
    assert got[0] == -2.0 and got[1] == np.inf and np.isnan(got[2])
    with np.errstate(invalid="ignore"):
        assert np.all(np.isnan(x @ mat.T))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sine_pseudoinverse_matches_dense_oracle(r, rng):
    # conjugate gradients against the SVD pseudoinverse of the atom matrix,
    # on coefficients that are not the analysis of any signal
    fr = SineFrame(64, r)
    values = rng.standard_normal(fr.atom_count)
    oracle = np.linalg.pinv(fr.atom(np.arange(fr.atom_count))) @ values
    got = fr.dual_synthesize(CoefficientVector(values))
    assert np.linalg.norm(got - oracle) <= 1e-11 * np.linalg.norm(oracle)


def test_sine_dual_synthesis_iteration_cap_carries_count(monkeypatch, rng):
    fr = SineFrame(64, 3)  # not tight: needs several iterations
    monkeypatch.setattr(transforms, "_CG_MAX_ITER", 1)
    with pytest.raises(IterationError) as exc:
        fr.dual_synthesize(CoefficientVector(rng.standard_normal(fr.atom_count)))
    assert exc.value.iterations == 1


def _cg_pseudoinverse(frame, values):
    """Conjugate gradients on Phi^T Phi x = Phi^T c from 0, one coefficient
    vector at a time: the solver the tight sine frames used before their
    one-step synthesis, kept as its oracle."""
    r = frame._adjoint(values)
    x = np.zeros(frame.n)
    p = r.copy()
    rr = r @ r
    tol = transforms._CG_RTOL ** 2 * rr
    while not rr <= tol:
        q = frame._adjoint(frame._analysis(p))
        step = rr / (p @ q)
        x += step * p
        r -= step * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return x


@pytest.mark.parametrize("n", [2, 3, 5, 64, 1024, 4096])
@pytest.mark.parametrize("r", [1, 2])
def test_tight_sine_synthesis_is_scaled_adjoint(n, r, rng):
    # coefficients that are not the analysis of any signal, one row and a block
    fr = SineFrame(n, r)
    block = rng.standard_normal((4, fr.atom_count))
    got = fr.dual_synthesize(CoefficientVector(block))
    for row, values in zip(got, block):
        oracle = _cg_pseudoinverse(fr, values)
        assert np.max(np.abs(row - oracle)) <= 2e-15 * np.max(np.abs(oracle))
        single = fr.dual_synthesize(CoefficientVector(values))
        assert single.tobytes() == row.tobytes()
    assert not np.signbit(got[:, 0]).any()  # +0.0 on the span's zero coordinate


@pytest.mark.parametrize("n", [2, 5, 64, 1024])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sine_analysis_equals_bin_gather(n, r, rng):
    fr = SineFrame(n, r)
    x = rng.standard_normal((3, n))
    bins = np.round(fr.frequencies * r).astype(int)
    gather = -np.fft.rfft(x, 2 * r * n).imag[..., bins] / fr._raw_norms
    assert fr.analyze(x).values.tobytes() == gather.tobytes()


def test_dual_synthesize_singular_frame_rejected():
    with pytest.raises(FrameError):
        ExplicitFrame(np.array([[1.0, 0.0], [2.0, 0.0]]))  # rank 1, no span


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_explicit_frame_rejects_non_finite_entry(bad):
    # a signed permutation would skip the eigensolve, a general matrix would
    # reach the Cholesky factorization: both are rejected first
    for mat in ([[1.0, 0.0], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
        with pytest.raises(FrameError, match="NaN or infinite"):
            ExplicitFrame(np.array(mat))


def test_frame_bounds_orthonormal(haar64):
    a, b = frame_bounds(haar64)
    assert abs(a - 1) < 1e-9 and abs(b - 1) < 1e-9


@pytest.mark.parametrize("M", [2, 4])
def test_frame_bounds_cyclespin_tight(M):
    a, b = frame_bounds(CycleSpinFrame(64, M, "haar"))
    assert a == pytest.approx(M, rel=1e-6)
    assert b == pytest.approx(M, rel=1e-6)


@pytest.mark.parametrize("n", [64, 128])
def test_frame_bounds_ti_equals_n(n):
    a, b = frame_bounds(TIWaveletFrame(n, "haar"))
    assert b == pytest.approx(n, rel=1e-6)
    assert a == pytest.approx(n, rel=1e-6)


@pytest.mark.parametrize("frame", [
    TIWaveletFrame(64, "haar"), TIWaveletFrame(64, "haar", 2),
    TIWaveletFrame(64, "cdf97r"), TIWaveletFrame(64, "cdf97r", 2),
    ExplicitFrame(np.random.default_rng(1729).standard_normal((24, 12)), "random"),
    WaveletBasis(64, "haar"), WaveletBasis(64, "d4"), CycleSpinFrame(64, 4, "haar"),
    SineFrame(64, 1), SineFrame(64, 2), SineFrame(256, 2)],
    ids=lambda frame: frame.name)
def test_constructor_bounds_match_dense_eigensolve(frame):
    eigvals = np.linalg.eigvalsh(core._dense_frame_operator(frame))
    # cyclespin leaves span_dim unset: count the span numerically
    rank = frame.span_dim or int(np.count_nonzero(
        eigvals > frame.n * np.finfo(float).eps * max(eigvals[-1], 1.0)))
    dense = (eigvals[frame.n - rank], eigvals[-1])
    assert frame.bounds == pytest.approx(dense, rel=1e-10)
    assert frame_bounds(frame) == frame.bounds


@pytest.mark.parametrize("filters", ["haar", "d4"])
def test_cyclespin_above_coarsest_level_0_is_not_tight(filters):
    # the shifted bases' detail spaces differ once scaling atoms are carried
    frame = CycleSpinFrame(64, 4, filters, coarsest_level=1)
    assert frame.bounds is None
    a, b = frame_bounds(frame)
    assert a < 0.5
    assert b == pytest.approx(4.0, rel=1e-10)


def test_no_constructor_bounds_without_closed_form():
    assert WaveletBasis(64, "cdf97").bounds is None
    assert SineFrame(64, 3).bounds is None


def test_frame_bounds_ti_above_dense_limit():
    a, b = frame_bounds(TIWaveletFrame(8192, "haar"))
    assert a == pytest.approx(8192, rel=1e-9)
    assert b == pytest.approx(8192, rel=1e-9)


@pytest.mark.parametrize("frame, bound", [
    (WaveletBasis(8192, "haar"), 1.0), (CycleSpinFrame(8192, 4, "d4"), 4.0),
    (SineFrame(8192, 2), 16383 / 8191)], ids=["wavelet", "cyclespin", "sine"])
def test_frame_bounds_from_structure_above_dense_limit(frame, bound):
    assert frame_bounds(frame) == (bound, bound)


def test_frame_bounds_without_structure_above_dense_limit_raises():
    with pytest.raises(FrameError):
        frame_bounds(WaveletBasis(8192, "cdf97"))


def test_parseval_bound(rng):
    for frame in ALL_SMALL_FRAMES:
        a, b = frame_bounds(frame)
        weights = np.array([frame.atom_multiplicity(p)
                            for p in range(frame.atom_count)])
        atoms = np.stack([frame.atom(p) for p in range(frame.atom_count)])
        for _ in range(5):
            # u in the atom span by construction (bounds live there)
            u = atoms.T @ rng.standard_normal(frame.atom_count)
            energy = float(weights @ (atoms @ u) ** 2)
            nu = float(u @ u)
            assert a * nu - 1e-8 * nu <= energy <= b * nu + 1e-8 * nu


def test_atom_normalization():
    for frame in ALL_SMALL_FRAMES:
        for p in range(0, frame.atom_count, max(1, frame.atom_count // 17)):
            assert abs(np.linalg.norm(frame.atom(p)) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "frame",
    ALL_SMALL_FRAMES + [ExplicitFrame(np.random.default_rng(7).standard_normal((20, 8)))],
    ids=lambda frame: frame.name)
def test_atom_index_array_matches_per_atom_and_analysis(frame, rng):
    positions = np.arange(frame.atom_count)
    atoms = frame.atom(positions)
    assert np.array_equal(atoms, np.stack([frame.atom(int(p)) for p in positions]))
    assert np.array_equal(frame.atom_multiplicity(positions),
                          [frame.atom_multiplicity(int(p)) for p in positions])
    # filter banks / FFTs are the independent reference for the atom rows
    u = rng.standard_normal(frame.n)
    assert np.allclose(atoms @ u, frame.analyze(u).values, rtol=0, atol=1e-12)


def test_gram_counts_orthonormal_zero(haar64):
    summary = gram_coherence_counts(haar64, [0.1, 0.5, 1.0])
    assert all(c == 0 for c in summary.coherence_counts.values())


def test_gram_counts_duplicated_atom():
    # a repeated row is one distinct atom, so it forms no pair with itself
    fr = ExplicitFrame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert fr.evt_count == 2 and fr.distinct_positions().tolist() == [0, 2]
    summary = gram_coherence_counts(fr, [1.0])
    assert summary.coherence_counts[1.0] == 0 and summary.distinct_count == 2


def test_gram_counts_match_exhaustive_enumeration():
    frame = CycleSpinFrame(8, 2, "haar")
    positions = frame.distinct_positions()
    atoms = np.stack([frame.atom(p) for p in positions])
    gram = atoms @ atoms.T
    delta = 0.5
    exhaustive = int(np.count_nonzero(
        np.abs(gram - np.diag(np.diag(gram))) >= delta))
    summary = gram_coherence_counts(frame, [delta])
    assert summary.coherence_counts[delta] == exhaustive


_DISTINCT_FRAMES = {"wavelet": WaveletBasis, "ti": TIWaveletFrame, "cyclespin": CycleSpinFrame,
                    "sine": SineFrame,
                    "explicit": lambda *shape: ExplicitFrame(
                        np.random.default_rng(7).standard_normal(shape)),
                    # rows 2 and 4 repeat rows 0 and 3 after normalization,
                    # row 4 with a -0.0
                    "explicit-repeated": lambda: ExplicitFrame(
                        [[1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 1], [-0.0, 0, 3]])}


@pytest.mark.parametrize("kind, args", [
    *((kind, (32, f, c)) for kind in ("wavelet", "ti")
      for f in ("haar", "d4", "cdf97", "cdf97r") for c in (0, 1, 2)),
    *(("cyclespin", (32, M, f, c)) for f in ("haar", "d4") for M in (1, 2, 4, 8)
      for c in (0, 1, 2)),
    *(("sine", (16, r)) for r in (1, 2, 3)),
    ("explicit", (24, 16)), ("explicit-repeated", ())],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
def test_one_distinct_count_per_frame(kind, args):
    """The threshold rules' |Omega|, the frame's representatives and the
    census agree, and count the different atoms."""
    frame = _DISTINCT_FRAMES[kind](*args)
    count = frame.evt_count
    assert count == len(frame.distinct_positions())
    assert gram_coherence_counts(frame, [0.5]).distinct_count == count
    atoms = frame.atom(np.arange(frame.atom_count)).round(12) + 0.0  # -0.0 to 0.0
    assert len(np.unique(atoms, axis=0)) == count


def test_gram_counts_are_even():
    for frame in (ALL_SMALL_FRAMES[2], ALL_SMALL_FRAMES[5]):
        summary = gram_coherence_counts(frame, [0.2, 0.5])
        assert all(c % 2 == 0 for c in summary.coherence_counts.values())


def test_gram_counts_nonincreasing_in_delta():
    summary = gram_coherence_counts(SineFrame(64, 2), [0.1, 0.3, 0.6, 0.9])
    counts = [summary.coherence_counts[d] for d in (0.1, 0.3, 0.6, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_gram_rejects_bad_delta(haar16):
    with pytest.raises(ValueError):
        gram_coherence_counts(haar16, [0.0])
    with pytest.raises(ValueError):
        gram_coherence_counts(haar16, [1.5])


def test_coefficient_vector_index_map(haar16):
    cv = haar16.analyze(np.zeros(16))
    seen = set()
    for pos in range(cv.count):
        idx = tuple(int(col[pos]) for col in cv.labels)
        assert idx not in seen
        seen.add(idx)
    assert len(seen) == cv.count  # total and injective


@given(st.integers(min_value=0, max_value=62))
def test_atom_materialization_consistent_with_analysis(position):
    frame = WaveletBasis(64, "cdf97")
    e = frame.atom(position)
    cv = frame.analyze(e)
    assert cv.values[position] == pytest.approx(1.0, abs=1e-9)


BATCH_FRAMES = [
    WaveletBasis(64, "haar"),
    WaveletBasis(64, "cdf97"),
    CycleSpinFrame(64, 4, "haar"),
    CycleSpinFrame(64, 4, "d4", coarsest_level=2),
    TIWaveletFrame(64, "haar"),
    TIWaveletFrame(64, "cdf97r"),
    SineFrame(64, 1),
    SineFrame(64, 2),
    SineFrame(64, 3),
    ExplicitFrame(np.eye(48), name="identity"),
    ExplicitFrame(np.random.default_rng(11).standard_normal((70, 32)), name="random"),
]


def _assert_rows_equal(block, rows, frame):
    if frame.name == "random":
        # BLAS sums a matrix-matrix product in another order than the
        # matrix-vector products
        assert np.allclose(block, rows, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(block, rows)


@pytest.mark.parametrize("frame", BATCH_FRAMES, ids=lambda frame: frame.name)
def test_batched_operators_equal_stacked_rows(frame, rng):
    signals = rng.standard_normal((5, frame.n))
    block = frame.analyze(signals)
    rows = [frame.analyze(x) for x in signals]
    assert block.values.shape == (5, frame.atom_count)
    assert block.count == frame.atom_count
    _assert_rows_equal(block.values, np.stack([cv.values for cv in rows]), frame)
    if block.carry is None:
        assert all(cv.carry is None for cv in rows)
    else:
        _assert_rows_equal(block.carry, np.stack([cv.carry for cv in rows]), frame)
    values = rng.standard_normal(block.values.shape)
    carry = None if block.carry is None else rng.standard_normal(block.carry.shape)
    coeffs = CoefficientVector(values, block.label_names, block.labels, carry)
    per_row = [frame.dual_synthesize(CoefficientVector(
        values[b], block.label_names, block.labels,
        None if carry is None else carry[b])) for b in range(5)]
    _assert_rows_equal(frame.dual_synthesize(coeffs), np.stack(per_row), frame)


@pytest.mark.parametrize("frame", [frame for frame in BATCH_FRAMES if frame.carry_dim],
                         ids=lambda frame: frame.name)
def test_carry_dim_is_the_analysis_carry_length(frame):
    assert frame.carry_dim == frame.analyze(np.zeros(frame.n)).carry.shape[-1]


@pytest.mark.parametrize("frame", BATCH_FRAMES, ids=lambda frame: frame.name)
def test_batched_operators_reject_bad_shapes(frame):
    for shape in [(3, frame.n + 1), (2, 3, frame.n)]:
        with pytest.raises(DimensionMismatch):
            frame.analyze(np.zeros(shape))
    for shape in [(3, frame.atom_count + 1), (2, 3, frame.atom_count)]:
        with pytest.raises(DimensionMismatch):
            frame.dual_synthesize(CoefficientVector(np.zeros(shape)))


# --- the census's structure route against the dense tile loop -----------------
# Wavelet bases, cycle spinning and TI count through their shift structure
# (lag tables, ties read from gemm tiles); core._dense_census is the tile loop
# that explicit and sine frames run, and the oracle here.

CENSUS_LEVELS = [0.1, 0.5, 2 ** -0.5, 1.0]


def _dense_route(frame, levels):
    return core._dense_census(frame, frame.distinct_positions(), levels)


def _assert_census_equals_dense(frame, levels=CENSUS_LEVELS):
    counts = _dense_route(frame, levels)
    summary = gram_coherence_counts(frame, levels)
    assert summary.coherence_counts == dict(zip(levels, counts.tolist())), frame.name


def _census_frames(kind, filters):
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        for c in (0, 1):
            if 2 ** c >= n:
                continue
            if kind == "wavelet":
                yield WaveletBasis(n, filters, c)
            elif kind == "ti":
                yield TIWaveletFrame(n, filters, c)
            else:
                yield CycleSpinFrame(n, min(4, n), filters, c)


@pytest.mark.parametrize("kind, filters", [
    (kind, f) for kind in ("wavelet", "cyclespin", "ti")
    for f in ("haar", "d4", "cdf97", "cdf97r") if kind != "cyclespin" or f in ("haar", "d4")])
def test_structure_census_equals_dense_tiles(kind, filters):
    for frame in _census_frames(kind, filters):
        assert frame.shift_structure(np.arange(frame.atom_count)) is not None
        _assert_census_equals_dense(frame)


@pytest.mark.parametrize("block", [7, 64])
def test_structure_census_equals_dense_tiles_at_small_blocks(monkeypatch, block):
    """Ties straddle tiles and the last tile is short; at 7-atom tiles the
    TI haar n=256 count at 0.5 moves (114944 against 115200 at 256), and
    the structure route moves with it."""
    monkeypatch.setattr(core, "_BLOCK", block)
    n = 32 if block == 7 else 128
    for frame in (TIWaveletFrame(n, "haar"), TIWaveletFrame(n // 2, "cdf97r", 1),
                  CycleSpinFrame(2 * n, 4, "haar"), CycleSpinFrame(n, 8, "d4"),
                  CycleSpinFrame(n, 4, "haar", 1), WaveletBasis(n, "haar")):
        _assert_census_equals_dense(frame)
    if block == 7:  # the dense route's count, measured once (it takes 1.5 s)
        ti = TIWaveletFrame(256, "haar")
        assert gram_coherence_counts(ti, [0.5]).coherence_counts == {0.5: 114944}


def test_census_reproduces_the_pinned_workload_counts():
    """The six census counts the benchmark reference pins at rho = 0.5,
    from both routes."""
    pinned = [(TIWaveletFrame(64, "haar"), 7872), (TIWaveletFrame(128, "haar"), 30336),
              (TIWaveletFrame(256, "haar"), 115200),
              (CycleSpinFrame(256, 4, "haar"), 2772), (CycleSpinFrame(512, 4, "haar"), 5556),
              (CycleSpinFrame(1024, 4, "haar"), 11124)]
    for frame, count in pinned:
        assert gram_coherence_counts(frame, [0.5]).coherence_counts == {0.5: count}
        assert _dense_route(frame, [0.5]).tolist() == [count]
    # a repeated level is counted once, not once per repetition
    assert gram_coherence_counts(pinned[0][0], [0.5, 0.5]).coherence_counts == {0.5: 7872}


def _spy(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


def test_structure_census_without_ties_materializes_no_atom(monkeypatch):
    calls = _spy(monkeypatch, CycleSpinFrame, "atom")
    summary = gram_coherence_counts(CycleSpinFrame(256, 4, "d4"), [0.1, 0.5])
    assert calls == []
    assert summary.coherence_counts == dict(zip([0.1, 0.5], _dense_route(
        CycleSpinFrame(256, 4, "d4"), [0.1, 0.5]).tolist()))


@pytest.mark.parametrize("frame, level, tied", [
    (TIWaveletFrame(128, "haar"), 0.5, True), (CycleSpinFrame(512, 4, "haar"), 0.5, True),
    (WaveletBasis(64, "haar"), 1.0, False)], ids=["ti", "cyclespin", "wavelet-diagonal"])
def test_structure_census_touches_only_tie_tiles(monkeypatch, frame, level, tied):
    """The tiles the structure route computes are exactly the dense tiles
    holding an off-diagonal entry within the tie band of the level, and
    each costs one atom block past its row's.  A basis at level 1.0 ties
    only on its diagonal (each atom with itself), so it computes none."""
    band = 8 * frame.n * np.finfo(float).eps
    expected = set()
    positions = frame.distinct_positions()
    blocks = -(-len(positions) // core._BLOCK)
    for i, j, tile in core._gram_tiles(
            frame, positions, [(i, j) for i in range(blocks) for j in range(i, blocks)]):
        if i == j:
            np.fill_diagonal(tile, np.inf)
        if np.any(np.abs(tile - level) <= band):
            expected.add((i, j))
    tiles = []
    original = core._gram_tiles

    def tile_spy(frame, positions, wanted):
        for i, j, tile in original(frame, positions, wanted):
            tiles.append((i, j))
            yield i, j, tile
    monkeypatch.setattr(core, "_gram_tiles", tile_spy)
    atoms = _spy(monkeypatch, type(frame), "atom")
    gram_coherence_counts(frame, [level])
    assert bool(expected) == tied
    assert set(tiles) == expected and len(tiles) == len(expected)
    rows = {i for i, _ in tiles}
    assert len(atoms) == len(rows) + sum(i != j for i, j in tiles)


def test_structure_census_memory_within_dense_route(monkeypatch):
    """tracemalloc peak of bounds and census on cyclespin haar n=4096
    against the same steps on the dense route: bounds, positions and the
    tile loop.
    The dense loop holds two atom blocks and a tile from its second tile on,
    so its first three tiles reach its peak (the whole loop takes 1176)."""
    import itertools
    import tracemalloc

    original = core._gram_tiles
    first_tiles = lambda frame, positions, tiles: original(
        frame, positions, itertools.islice(tiles, 3))

    def dense(frame):
        frame_bounds(frame)
        with monkeypatch.context() as patch:
            patch.setattr(core, "_gram_tiles", first_tiles)
            _dense_route(frame, [0.5])

    def structure(frame):
        frame_bounds(frame)
        return gram_coherence_counts(frame, [0.5]).coherence_counts[0.5]

    results, peaks = {}, {}
    for route in (structure, dense):
        route(CycleSpinFrame(256, 4, "haar"))  # lazy imports settle unmeasured
        frame = CycleSpinFrame(4096, 4, "haar")
        tracemalloc.start()
        try:
            results[route.__name__] = route(frame)
            peaks[route.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert results["structure"] == 44532
    assert peaks["structure"] <= peaks["dense"], peaks
