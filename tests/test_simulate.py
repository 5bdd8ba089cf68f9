import math

import numpy as np
import pytest
from scipy.special import ndtr

from framethresh import evt, simulate
from framethresh.core import CoefficientVector, ExplicitFrame
from framethresh.norms import NormSpec, evaluate
from framethresh.rng import normal as rng_normal
from framethresh import rng as _rng
from framethresh.rng import count_max_abs_within, open_uniform, stream_normal, trial_generator
from framethresh.shrink import shrink_value
from framethresh.signals import piecewise_constant
from framethresh.simulate import (EmpiricalDistribution, McConfig,
                                  comparison_bound_experiment,
                                  coverage_experiment, exact_independent_coverage,
                                  ks_distance, mc_se, oracle_risk_experiment,
                                  qq_data, rescale_to_gumbel, risk_1d_check,
                                  sample_max_abs, sidak_experiment,
                                  smoothness_experiment, ti_bound_experiment)
from framethresh.transforms import (CDF97R, CycleSpinFrame, TIWaveletFrame,
                                    WaveletBasis)


def test_determinism_serial_vs_parallel():
    frame = WaveletBasis(64, "haar")
    a = sample_max_abs(frame, McConfig(trials=200, seed=42))
    c = sample_max_abs(frame, McConfig(trials=200, seed=42))
    assert np.array_equal(a.samples, c.samples)
    d = sample_max_abs(frame, McConfig(trials=200, seed=43))
    assert not np.array_equal(a.samples, d.samples)


def test_sample_max_abs_zero_sigma():
    frame = WaveletBasis(16, "haar")
    dist = sample_max_abs(frame, McConfig(trials=20, seed=1, sigma=0.0))
    assert np.all(dist.samples == 0.0)


def test_sample_max_abs_sorted_and_counted():
    frame = WaveletBasis(16, "haar")
    dist = sample_max_abs(frame, McConfig(trials=57, seed=3))
    assert len(dist.samples) == 57
    assert np.all(np.diff(dist.samples) >= 0)


def test_orthonormal_max_matches_exact_cdf():
    # empirical CDF at five T values against (2 Phi(T) - 1)^m, 3 MC s.e.
    m = 256
    frame = ExplicitFrame(np.eye(m), "iid")
    cfg = McConfig(trials=4000, seed=7)
    dist = sample_max_abs(frame, cfg)
    for T in (2.6, 2.9, 3.2, 3.5, 3.9):
        emp = float(np.mean(dist.samples <= T))
        exact = exact_independent_coverage(T, m)
        se = mc_se(max(emp, 1e-3), cfg.trials)
        assert abs(emp - exact) <= 3 * se + 1e-9


def test_duplicated_atoms_do_not_change_max():
    base = np.eye(12)
    dup = np.vstack([base, base[:5]])
    cfg = McConfig(trials=100, seed=5)
    a = sample_max_abs(ExplicitFrame(base), cfg)
    b = sample_max_abs(ExplicitFrame(dup), cfg)
    assert np.allclose(a.samples, b.samples)


def test_rescale_constant_samples():
    norms = evt.norms_chi(1024)
    samples = np.full(50, 2.0 * norms.b)
    resc = rescale_to_gumbel(samples, norms, sigma=2.0)
    assert np.max(np.abs(resc.samples)) < 1e-12


def test_rescale_affine_equivalence(rng):
    # KS after rescale equals KS of raw samples against the location-scale law
    norms = evt.norms_chi(128)
    raw = norms.b + norms.a * rng.gumbel(size=500)
    resc = rescale_to_gumbel(raw, norms)
    ks1 = ks_distance(resc)
    z = np.sort((raw - norms.b) / norms.a)
    ks2 = ks_distance(EmpiricalDistribution.from_samples(z))
    assert ks1 == pytest.approx(ks2, abs=1e-15)


def test_ks_exact_gumbel_draws():
    # inverse-CDF draws from the Gumbel itself: KS < 0.01 at 1e5 samples
    rng = np.random.default_rng(11)
    u = (rng.integers(0, 2 ** 53, 100_000) + 0.5) / 2 ** 53
    z = -np.log(-np.log(u))
    assert ks_distance(EmpiricalDistribution.from_samples(z)) < 0.01


def test_ks_single_mass_at_median():
    samples = np.full(10, -math.log(math.log(2.0)))  # Gumbel median
    assert ks_distance(EmpiricalDistribution.from_samples(samples)) == pytest.approx(
        0.5, abs=1e-12)


def test_ks_needs_ten_samples():
    with pytest.raises(ValueError):
        ks_distance(EmpiricalDistribution.from_samples(np.zeros(5)))


def test_qq_diagonal_for_plotting_positions():
    count = 200
    p = (np.arange(1, count + 1) - 0.5) / count
    samples = -np.log(-np.log(p))
    pairs = qq_data(EmpiricalDistribution.from_samples(samples))
    assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-12


def test_coverage_orthonormal_exact_oracle():
    m = 512
    frame = ExplicitFrame(np.eye(m), "iid")
    cfg = McConfig(trials=3000, seed=9)
    rep = coverage_experiment(frame, 0.1, cfg)
    assert rep.exact is not None
    assert rep.exact == pytest.approx(
        exact_independent_coverage(rep.threshold, m), abs=1e-12)
    assert abs(rep.empirical - rep.exact) <= 3.0 * rep.se


def test_coverage_alpha_to_zero():
    frame = WaveletBasis(256, "haar")
    rep = coverage_experiment(frame, 1e-4, McConfig(trials=2000, seed=13))
    assert rep.empirical >= 0.999


def test_coverage_dependent_frame_skips_exact():
    frame = CycleSpinFrame(64, 4, "haar")
    rep = coverage_experiment(frame, 0.1, McConfig(trials=50, seed=2))
    assert rep.exact is None


def test_sidak_orthonormal_self_equality():
    m = 128
    frame = ExplicitFrame(np.eye(m), "iid")
    rows = sidak_experiment(frame, (2.5, 3.0, 3.5), McConfig(trials=3000, seed=21))
    for row in rows:
        assert abs(row.empirical_dependent - row.exact_independent) <= 3 * row.se + 1e-9
        assert row.dominates


def test_sidak_equicorrelated_strict_domination():
    dim = 8
    gram = np.full((dim, dim), 0.9)
    np.fill_diagonal(gram, 1.0)
    chol = np.linalg.cholesky(gram)
    frame = ExplicitFrame(chol, "equicorrelated")  # rows have unit norm
    rows = sidak_experiment(frame, (2.0,), McConfig(trials=4000, seed=23))
    row = rows[0]
    assert row.empirical_dependent > row.exact_independent + 10 * row.se


def test_ti_bound_large_z_trivial():
    frame = TIWaveletFrame(128, CDF97R)
    rows = ti_bound_experiment(frame, [10.0], McConfig(trials=300, seed=31))
    assert rows[0].empirical >= rows[0].gumbel - 3 * rows[0].se
    assert rows[0].empirical > 0.99


def test_ti_bound_rejects_nondifferentiable():
    # the wavelet's Sobolev exponent is not above 1, so it has no constant c
    for filters in ("haar", "d4"):
        with pytest.raises(evt.ThresholdError, match="Sobolev exponent"):
            ti_bound_experiment(TIWaveletFrame(64, filters), [0.0],
                                McConfig(trials=10, seed=1))


def test_smoothness_zero_signal_matches_coverage():
    # J(x_hat) = 0 exactly when every coefficient is killed, so the
    # frequency equals the coverage of the EVT threshold
    frame = WaveletBasis(128, "haar")
    cfg = McConfig(trials=1500, seed=37)
    spec = NormSpec("pqr_wavelet", p=1, q=1, r=0)
    rep = smoothness_experiment(frame, np.zeros(128), 0.1, spec, cfg)
    cov = coverage_experiment(frame, 0.1, cfg,
                              threshold=evt.evt_threshold(1.0, 0.1, frame.evt_count))
    assert rep.frequency == pytest.approx(cov.empirical, abs=1e-12)
    assert rep.one_sided_ok()


def test_oracle_risk_zero_signal_orthonormal():
    m = 256
    frame = ExplicitFrame(np.eye(m), "iid")
    cfg = McConfig(trials=2000, seed=41)
    rep = oracle_risk_experiment(frame, np.zeros(m), 0.1, cfg)
    assert rep.within_bound
    assert rep.second_summand == 0.0
    assert rep.first_summand == pytest.approx(
        math.log(1 / 0.9) * math.sqrt(math.pi * math.log(m)), rel=1e-12)
    assert not rep.assumption_ok  # z(0.1) too large at this m; flagged


def test_oracle_risk_assumption_flag():
    m = 256
    frame = ExplicitFrame(np.eye(m), "iid")
    rep = oracle_risk_experiment(frame, np.zeros(m), 0.6,
                                 McConfig(trials=200, seed=43))
    assert rep.assumption_ok  # alpha large enough: T(alpha) < universal


def test_risk_1d_zero_threshold_identity():
    rows = risk_1d_check([0.0, 2.0], [0.0], McConfig(trials=20000, seed=47))
    for row in rows:
        assert row.empirical == pytest.approx(1.0, abs=4 * row.se + 0.02)
        assert row.bound >= 1.0
        assert row.within_bound


def test_risk_1d_mu0_T3():
    rows = risk_1d_check([0.0], [3.0], McConfig(trials=10000, seed=49))
    row = rows[0]
    assert row.bound == pytest.approx(math.exp(-4.5), abs=1e-12)
    assert row.within_bound


def test_comparison_bound_experiment_small():
    cfg = McConfig(trials=1, seed=53)
    rows = comparison_bound_experiment(cfg, n_matrices=3, dim=5,
                                       thresholds=(1.0, 2.0), draws=40000)
    assert len(rows) == 6
    for row in rows:
        assert row.within_bound


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("n", [1, 3, 1024])
def test_block_normal_equals_stacked_trial_draws(seed, sigma, n):
    # the oracle draws each trial's own fresh generator through
    # Generator.integers, the block path re-keys one generator and uses
    # Generator.random and a half-step shift: an independent byte-level
    # oracle (sigma 1 skips the multiply, 0 gives signed zeros)
    block = rng_normal(seed, range(3, 9), n, sigma)
    stacked = np.stack([_oracle_normal(seed, t, n, sigma) for t in range(3, 9)])
    assert block.shape == (6, n)
    assert block.tobytes() == stacked.tobytes()
    single = rng_normal(seed, 5, n, sigma)
    assert single.shape == (n,)
    assert single.tobytes() == stacked[2].tobytes()


def _oracle_normal(seed, trial, size, sigma):
    from scipy.special import ndtri
    return sigma * ndtri(open_uniform(trial_generator(seed, trial), size))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.0])
def test_block_normal_extreme_trial_indices(seed, sigma):
    trials = [2 ** 63, 0, 2 ** 64 - 1, 1]
    block = rng_normal(seed, trials, 257, sigma)
    stacked = np.stack([_oracle_normal(seed, t, 257, sigma) for t in trials])
    assert block.tobytes() == stacked.tobytes()


def test_top_word_maps_below_one():
    # (2^53 - 1 + 0.5) / 2^53 rounds to 1.0, where ndtri is +inf; the top
    # word takes the largest double below 1 and every other word its bits
    from scipy.special import ndtri
    from framethresh.rng import _normal_in_place, _to_open_uniform
    top = 1.0 - 2.0 ** -53
    ks = np.array([2 ** 53 - 1, 0, 2 ** 53 - 2, 2 ** 52], dtype=np.uint64)
    u = _to_open_uniform(ks)
    assert u[0] == top < 1.0
    assert u[1:].tobytes() == ((ks[1:].astype(float) + 0.5) / 2.0 ** 53).tobytes()
    z = _normal_in_place(ks.astype(float) * 2.0 ** -53, 1.0)
    assert z[0] == ndtri(top) and 8.2 < z[0] < 8.21
    assert z[1:].tobytes() == ndtri(u[1:]).tobytes()
    assert np.array_equal(_normal_in_place(ks.astype(float)[:1] * 2.0 ** -53, 0.5),
                          [0.5 * ndtri(top)])
    assert _normal_in_place(np.empty(0), 1.0).shape == (0,)


@pytest.mark.parametrize("k", [0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1, None])
def test_half_step_shift_equals_open_uniform_map(k):
    # the block and stream draws make (k + 0.5) / 2^53 as k * 2^-53 + 2^-54:
    # from k = 2^52 on, 2k + 1 needs 54 bits and both forms round it alike
    ks = (np.array([k], dtype=np.uint64) if k is not None else
          np.random.default_rng(53).integers(0, 2 ** 53, 10 ** 6, dtype=np.uint64))
    fast = ks.astype(float) * 2.0 ** -53 + 2.0 ** -54
    assert fast.tobytes() == ((ks.astype(float) + 0.5) / 2.0 ** 53).tobytes()


def test_generator_random_is_the_integer_word_over_2_53():
    gen, oracle = trial_generator(7, 3), trial_generator(7, 3)
    u = gen.random(1000)
    k = oracle.integers(0, 2 ** 53, 1000)
    assert u.tobytes() == (k.astype(float) * 2.0 ** -53).tobytes()


def _mid_stream_generators(seed, lead):
    """Two generators of one (seed, trial) stream, both advanced by lead."""
    gens = (trial_generator(seed, 4), trial_generator(seed, 4))
    for gen in gens:
        lead(gen)
    return gens


@pytest.mark.parametrize("lead", [
    lambda gen: None,
    lambda gen: gen.integers(0, 1000, size=3, dtype=np.uint32),  # a buffered half word
    lambda gen: gen.random(5),
    lambda gen: stream_normal(gen, 11)],
    ids=["fresh", "uint32", "random", "stream_normal"])
@pytest.mark.parametrize("size", [1, 7, 1023, (3, 5), (64, 8), 2 ** 14 + 3])
@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.0])
def test_stream_normal_equals_inverse_cdf_of_open_uniforms(lead, size, sigma):
    # stream_normal fills its output with Generator.random; the oracle draws
    # through Generator.integers, so both must leave the stream in the same
    # place
    from scipy.special import ndtri
    gen, oracle = _mid_stream_generators(2 ** 64 - 3, lead)
    for _ in range(2):
        z = stream_normal(gen, size, sigma)
        expected = sigma * ndtri(open_uniform(oracle, size))
        assert z.shape == np.shape(expected)
        assert z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("draw", [
    lambda: stream_normal(trial_generator(5, 1), (2 ** 15, 8)),
    lambda: rng_normal(5, range(8), 2 ** 15)],
    ids=["stream_normal", "normal"])
def test_normal_draw_peaks_near_its_output(draw):
    # the uniforms are drawn into the float output and transformed there,
    # so no second output-sized buffer is allocated
    import tracemalloc
    draw()  # scipy.special loads unmeasured
    tracemalloc.start()
    try:
        z = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.nbytes == 2 ** 21
    assert peak <= 1.2 * z.nbytes, (peak, z.nbytes)


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (2 ** 12, 8)])
def test_count_max_abs_within_equals_the_normal_block(shape):
    # the same counts as the stream_normal block, and the stream goes on
    # from the same place
    thresholds = (0.0, 0.5, 1.0, 2.0, 3.0, np.inf)
    gen, oracle = _mid_stream_generators(7, lambda gen: gen.random(3))
    counts = count_max_abs_within(gen, shape, thresholds)
    block_max = np.max(np.abs(stream_normal(oracle, shape)), axis=1)
    assert list(counts) == [np.count_nonzero(block_max <= T) for T in thresholds]
    assert gen.random() == oracle.random()


def test_count_within_runs_ndtri_on_rows_near_a_crossing():
    # each crafted row has one word within 2^-41 of Phi(+-T), T = 1 or 2, on
    # either side of the crossing, and words of 1/2 (normal ~0) elsewhere;
    # the last row holds the top word, clipped to 1 - 2^-53 (normal 8.2),
    # whose uniform rounds to Phi(9) = 1.0.  Only the ndtri fallback
    # decides these rows.
    from scipy.special import ndtr
    rows = []
    for T in (1.0, 2.0):
        for sign in (1, -1):
            k0 = round(ndtr(sign * T) * 2 ** 53 - 0.5)
            for d in range(-2 ** 12, 2 ** 12 + 1, 2 ** 9):
                row = np.full(8, 2.0 ** 52)
                row[d % 8] = k0 + d
                rows.append(row)
    rows.append(np.full(8, 2.0 ** 52))
    rows[-1][3] = 2 ** 53 - 1
    u = np.array(rows) * 2.0 ** -53
    thresholds = (1.0, 2.0, 9.0)
    block_max = np.max(np.abs(_rng._normal_in_place(u.copy(), 1.0)), axis=1)
    expected = [np.count_nonzero(block_max <= T) for T in thresholds]
    assert list(_rng._count_within(u, thresholds)) == expected
    # rows on both sides of the crossings at T = 1 and at T = 2
    assert 0 < expected[0] < 34 < expected[1] < 68 and expected[2] == 69


def _reference_maxima(frame, cfg):
    """The per-trial loop the block harness replaces."""
    return np.sort([np.max(np.abs(frame.analyze(
        rng_normal(cfg.seed, t, frame.n, cfg.sigma)).values)) for t in range(cfg.trials)])


def _reference_smoothness_hits(frame, clean, threshold, spec, j_clean, cfg):
    hits = []
    for t in range(cfg.trials):
        cv = frame.analyze(clean + rng_normal(cfg.seed, t, frame.n, cfg.sigma))
        shrunk = cv.replace_values(shrink_value(cv.values, threshold, "soft"))
        hits.append(evaluate(spec, shrunk) <= j_clean * (1 + 1e-12))
    return np.mean(hits)


def _reference_risks(frame, clean, threshold, cfg):
    def zero_carry(cv):
        return cv if cv.carry is None else CoefficientVector(
            cv.values, cv.label_names, cv.labels, np.zeros_like(cv.carry))
    target = frame.dual_synthesize(zero_carry(frame.analyze(clean)))
    risks = []
    for t in range(cfg.trials):
        cv = frame.analyze(clean + rng_normal(cfg.seed, t, frame.n, cfg.sigma))
        est = frame.dual_synthesize(zero_carry(
            cv.replace_values(shrink_value(cv.values, threshold, "soft"))))
        risks.append(np.sum((est - target) ** 2))
    return np.array(risks)


@pytest.mark.parametrize("frame", [
    WaveletBasis(64, "haar"), CycleSpinFrame(32, 4, "haar"),
    TIWaveletFrame(32, "haar"), ExplicitFrame(np.eye(40), name="identity")],
    ids=lambda frame: frame.name)
@pytest.mark.parametrize("per_block", [7, 4, 3, 1])
def test_blocks_match_per_trial_reference(frame, per_block, monkeypatch):
    # 7 trials in 1 block, 4 + 3, 3 + 3 + 1 and seven blocks of one
    monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", per_block * frame.atom_count)
    cfg = McConfig(trials=7, seed=2024)
    assert np.array_equal(sample_max_abs(frame, cfg).samples,
                          _reference_maxima(frame, cfg))
    clean = piecewise_constant(frame.n, n_pieces=4, seed=5)
    spec = (NormSpec("weighted_l2") if isinstance(frame, ExplicitFrame)
            else NormSpec("pqr_wavelet", p=1, q=1, r=0))
    # a small alpha keeps some trials below J(clean) and some above
    rep = smoothness_experiment(frame, clean, 0.999, spec, cfg)
    j_clean = evaluate(spec, frame.analyze(clean))
    assert rep.frequency == _reference_smoothness_hits(
        frame, clean, rep.threshold, spec, j_clean, cfg)
    risk = oracle_risk_experiment(frame, clean, 0.1, cfg)
    risks = _reference_risks(frame, clean, risk.threshold, cfg)
    assert risk.empirical_risk == float(np.mean(risks))
    assert risk.se == float(np.std(risks, ddof=1) / math.sqrt(cfg.trials))


def test_risk_experiments_need_two_trials():
    cfg = McConfig(trials=1, seed=1)
    with pytest.raises(ValueError, match="2 trials"):
        oracle_risk_experiment(WaveletBasis(16, "haar"), np.zeros(16), 0.1, cfg)
    with pytest.raises(ValueError, match="2 trials"):
        risk_1d_check([0.0], [3.0], cfg)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_mc_config_rejects_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match=f"seed {seed!r}"):
        McConfig(trials=2, seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_mc_config_accepts_uint64_seed_end_points(seed):
    dist = sample_max_abs(WaveletBasis(16, "haar", 2), McConfig(trials=2, seed=seed))
    assert len(dist.samples) == 2 and np.all(np.isfinite(dist.samples))


# --- maxima on signed-permutation frames from the extreme uniforms -------------

def _permutation_frames():
    for n in (1, 2, 8, 1024):
        yield pytest.param(ExplicitFrame(np.eye(n)), id=f"identity-{n}")
        gen = np.random.default_rng(n + 17)
        mat = np.zeros((n, n))
        mat[np.arange(n), gen.permutation(n)] = 1.0
        mat[::2] *= -1.0  # rows 0, 2, 4, ... negative
        yield pytest.param(ExplicitFrame(mat), id=f"signed-{n}")


def _analysis_route(monkeypatch):
    """Makes sample_max_abs analyze every frame, as it does a general one;
    the frame's own signed gather equals the matrix product byte for byte."""
    monkeypatch.setattr(ExplicitFrame, "is_signed_permutation", False)


def _no_analysis(monkeypatch):
    def analyze(self, signal):
        raise AssertionError("a signed permutation frame was analyzed")
    monkeypatch.setattr(ExplicitFrame, "analyze", analyze)


@pytest.mark.parametrize("frame", _permutation_frames())
@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
def test_permutation_maxima_equal_analysis_route(frame, sigma, monkeypatch):
    # 2^18 entries make blocks of 256 trials at n = 1024, so 300 trials end
    # in a short block; the small frames get 3-trial blocks and 7 trials
    assert frame.is_signed_permutation
    if frame.n < 1024:
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 3 * frame.atom_count)
    cfg = McConfig(trials=300 if frame.n == 1024 else 7, seed=2 ** 64 - 5, sigma=sigma)
    with monkeypatch.context() as m:
        _analysis_route(m)
        want = sample_max_abs(frame, cfg).samples
    with monkeypatch.context() as m:
        _no_analysis(m)
        got = sample_max_abs(frame, cfg).samples
    assert got.shape == want.shape == (cfg.trials,)
    assert got.tobytes() == want.tobytes()


def _words(*rows):
    """A block of k * 2^-53 uniforms, the words Generator.random makes."""
    return np.array(rows, dtype=np.uint64).astype(float) * 2.0 ** -53


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
def test_window_step_on_crafted_uniforms(sigma):
    from framethresh.rng import _max_abs_in_place, _normal_in_place
    top = 2 ** 53 - 1  # its uniform rounds to 1.0 and is clipped below 1
    u = _words(
        [2 ** 53 - 3, 2 ** 53 - 2, 12345, 2 ** 52],  # adjacent words at the top
        [0, 1, 2 ** 52, 2 ** 51],                    # adjacent words at the bottom
        [2 ** 52, 2 ** 52 + 1, 2 ** 52 - 1, 2 ** 52 + 2],  # around 0.5, ties
        [top, 5, 2 ** 52, 7],
        [top, top - 1, top - 2, 3],
        [top, top, top, top],
        [17, 2 ** 53 - 18, 2 ** 52, 2 ** 50])         # a symmetric pair of extremes
    want = np.max(np.abs(_normal_in_place(u.copy(), sigma)), axis=-1)
    got = _max_abs_in_place(u.copy(), sigma)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()
    one = _words([top])
    assert _max_abs_in_place(one.copy(), sigma).tobytes() == np.abs(
        _normal_in_place(one.copy(), sigma)).tobytes()


def test_window_runs_ndtri_on_the_extremes_only(monkeypatch):
    import scipy.special
    from framethresh.rng import max_abs_normal
    ndtri = scipy.special.ndtri
    seen = []

    def counted(u, *args, **kwargs):
        seen.append(np.size(u))
        return ndtri(u, *args, **kwargs)
    monkeypatch.setattr(scipy.special, "ndtri", counted)
    got = max_abs_normal(9, range(64), 1024, 1.0)
    assert seen == [2 * 64]
    monkeypatch.setattr(scipy.special, "ndtri", ndtri)
    assert got.tobytes() == np.max(np.abs(rng_normal(9, range(64), 1024)), axis=-1).tobytes()


def test_ndtri_within_1e13_of_the_exact_inverse_on_the_grid():
    """The window's premise: scipy's ndtri on the uniforms (k + 0.5)/2^53
    lies within 1e-13 of the exact inverse normal CDF.  Checked as the
    equivalent bracket Phi(x - 1e-13) < u < Phi(x + 1e-13) at x = ndtri(u),
    with mpmath's normal CDF at 120 bits (the upper tail needs ~95 to tell
    1 - 2^-53 from its neighbours' images)."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import ndtri
    tail = np.unique(np.geomspace(1, 2 ** 51, 700).astype(np.uint64))
    tail = np.concatenate([np.arange(8, dtype=np.uint64), tail])
    centre = np.random.default_rng(40).integers(0, 2 ** 53, 600, dtype=np.uint64)
    middle = np.arange(2 ** 52 - 50, 2 ** 52 + 50, dtype=np.uint64)
    ks = np.concatenate([tail, np.uint64(2 ** 53 - 1) - tail, centre, middle])
    u = np.minimum((ks.astype(float) + 0.5) / 2.0 ** 53, 1.0 - 2.0 ** -53)
    x = ndtri(u)
    assert len(ks) > 2000 and np.all(np.isfinite(x))
    step = mpmath.mpf(1e-13)
    with mpmath.workprec(120):
        for ui, xi in zip(u.tolist(), x.tolist()):
            assert mpmath.ncdf(xi - step) < ui < mpmath.ncdf(xi + step), (ui, xi)


def test_identity_reports_equal_analysis_route(monkeypatch):
    frame = ExplicitFrame(np.eye(256), "orthonormal-basis")
    cfg = McConfig(trials=1500, seed=31)
    fast = (coverage_experiment(frame, 0.1, cfg),
            sidak_experiment(frame, (2.5, 3.0, 3.5), cfg))
    _analysis_route(monkeypatch)
    assert fast == (coverage_experiment(frame, 0.1, cfg),
                    sidak_experiment(frame, (2.5, 3.0, 3.5), cfg))


def test_zero_sigma_refused_before_any_draw(monkeypatch):
    def boom(*args):
        raise AssertionError("drew noise")
    monkeypatch.setattr(simulate, "sample_max_abs", boom)
    cfg = McConfig(trials=20, seed=1, sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        sidak_experiment(ExplicitFrame(np.eye(8)), (2.0,), cfg)
    with pytest.raises(ValueError, match="sigma"):
        rescale_to_gumbel(np.ones(20), evt.norms_chi(8), sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        rescale_to_gumbel(np.ones(20), evt.norms_chi(8), sigma=-1.0)
