"""Seeded Monte Carlo harness for the distributional claims.

Every experiment draws trial t of a run from an independent Philox stream
keyed by (seed, t), so reports are bit-identical for identical (seed, config)
regardless of trial scheduling.  Trials run in blocks: a block's noise is
one rng.normal call, which re-keys one Philox generator per row so that each
row is its trial's own draw, and each block goes through one batched
analyze, shrink and reduce (and one dual_synthesize for the risk).  A block
holds at most _BLOCK_ENTRIES coefficients, so memory stays bounded at every
n, and the layout depends only on the frame's atom count and the trial
count.  sample_max_abs on a signed-permutation explicit frame (the identity
among them) skips the analysis: its coefficients are the noise coordinates
times +-1, so each block's maxima come from rng.max_abs_normal, which runs
the inverse CDF only on each row's extreme uniforms and returns the floats
the analysis route would, bit for bit.

One-sided distributional checks use 3 Monte Carlo standard errors of slack;
two-sided exact-oracle checks use 3 s.e. around the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import CoefficientVector, ExplicitFrame, frame_bounds
from .diagnostics import comparison_bound
from .evt import (evt_threshold, gumbel_cdf, norms_chi, ti_constant_c,
                  ti_threshold_at_z, universal_threshold)
from .norms import evaluate as norm_evaluate
from .shrink import shrink_value


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    sigma: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the seed is the first Philox key word, a uint64
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed {self.seed!r} must be an integer in [0, 2^64)")
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")


#: coefficient entries per trial block (2^18 doubles, 2 MB): 256 trials of a
#: Haar basis at n = 1024, 25 of a TI frame with 10 levels
_BLOCK_ENTRIES = 1 << 18


def _trial_blocks(frame, cfg):
    """Consecutive ranges of trial indices, one per block."""
    per_block = max(1, _BLOCK_ENTRIES // frame.atom_count)
    for start in range(0, cfg.trials, per_block):
        yield range(start, min(start + per_block, cfg.trials))


def _noise_blocks(frame, cfg):
    """The noise of consecutive trial blocks, as (B, n) arrays in trial
    order; row t is trial t's own draw."""
    for trials in _trial_blocks(frame, cfg):
        yield _rng.normal(cfg.seed, trials, frame.n, cfg.sigma)


@dataclass
class EmpiricalDistribution:
    samples: np.ndarray  # sorted ascending

    @staticmethod
    def from_samples(values):
        return EmpiricalDistribution(np.sort(np.asarray(values, dtype=float)))


def mc_se(p_hat, trials):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


# --- max statistics -----------------------------------------------------------

def sample_max_abs(frame, cfg):
    """Per trial: draw white noise, return max_w |<phi_w, eps>|.

    On an ExplicitFrame whose atoms form a signed permutation (the identity
    among them) the coefficients are the noise's coordinates, reordered
    and sign-flipped, so a trial's maximum is its noise's max |eps_i|, which
    rng.max_abs_normal returns without the analysis and with the inverse
    CDF run on a few values per trial; the floats are the ones the analysis
    route gives, bit for bit."""
    if isinstance(frame, ExplicitFrame) and frame.is_signed_permutation:
        maxima = [_rng.max_abs_normal(cfg.seed, trials, frame.n, cfg.sigma)
                  for trials in _trial_blocks(frame, cfg)]
    else:
        maxima = [np.max(np.abs(frame.analyze(eps).values), axis=-1)
                  for eps in _noise_blocks(frame, cfg)]
    return EmpiricalDistribution.from_samples(np.concatenate(maxima))


def rescale_to_gumbel(samples, norms, sigma=1.0):
    """M -> (M/sigma - b)/a, of an EmpiricalDistribution or an array of
    maxima; sigma must be positive."""
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0 to rescale maxima, got {sigma}")
    if norms.a <= 0:
        raise ValueError("scale constant a must be positive")
    if isinstance(samples, EmpiricalDistribution):
        samples = samples.samples
    return EmpiricalDistribution.from_samples(norms.rescale(samples, sigma))


def ks_distance(dist):
    """Sup-norm distance of an EmpiricalDistribution's CDF to the Gumbel
    CDF."""
    count = len(dist.samples)
    if count < 10:
        raise ValueError("need at least 10 samples for a KS distance")
    g = gumbel_cdf(dist.samples)
    i = np.arange(1, count + 1)
    upper = np.max(i / count - g)
    lower = np.max(g - (i - 1) / count)
    return float(max(upper, lower))


def qq_data(dist):
    """(empirical quantile, Gumbel quantile) pairs of an
    EmpiricalDistribution at plotting positions (i - 0.5)/count."""
    count = len(dist.samples)
    if count < 10:
        raise ValueError("need at least 10 samples for a Q-Q table")
    p = (np.arange(1, count + 1) - 0.5) / count
    gq = -np.log(-np.log(p))
    return np.column_stack([dist.samples, gq])


# --- coverage -----------------------------------------------------------------

@dataclass
class CoverageReport:
    alpha: float
    threshold: float
    empirical: float
    se: float
    exact: float | None
    trials: int
    frame_name: str

    def one_sided_ok(self):
        return self.empirical >= (1.0 - self.alpha) - 3.0 * self.se


def exact_independent_coverage(threshold, m, sigma=1.0):
    """(2 Phi(T/sigma) - 1)^m: max of m iid |N(0, sigma^2)| below T."""
    from scipy.special import ndtr
    return float((2.0 * ndtr(threshold / sigma) - 1.0) ** m)


def _is_orthonormal(frame):
    """Decided from the constructor's exact bounds; frames without them
    (biorthogonal wavelets among others) count as not orthonormal."""
    if frame.atom_count != frame.span_dim or frame.bounds is None:
        return False
    a, b = frame.bounds
    return abs(a - 1) < 1e-9 and abs(b - 1) < 1e-9


def coverage_experiment(frame, alpha, cfg, threshold=None):
    """Empirical P{ ||Phi eps||_inf <= T } against the 1-alpha target.

    threshold defaults to the EVT threshold at the frame's count; for
    orthonormal frames (decided by _is_orthonormal) the exact finite-m value
    (2 Phi(T)-1)^m with m = atom_count is included.
    """
    if threshold is None:
        threshold = evt_threshold(cfg.sigma, alpha, frame.evt_count)
    maxima = sample_max_abs(frame, cfg)
    emp = float(np.mean(maxima.samples <= threshold))
    exact = None
    if _is_orthonormal(frame):
        exact = exact_independent_coverage(threshold, frame.atom_count, cfg.sigma)
    return CoverageReport(alpha=alpha, threshold=float(threshold), empirical=emp,
                          se=mc_se(emp, cfg.trials), exact=exact,
                          trials=cfg.trials, frame_name=frame.name)


# --- Sidak domination -----------------------------------------------------------

@dataclass
class SidakRow:
    threshold: float
    empirical_dependent: float
    exact_independent: float
    se: float
    dominates: bool


def sidak_experiment(dependent_frame, thresholds, cfg):
    """Dependent max-abs coverage vs the exact independent reference with
    the frame's evt_count coefficients; asserts dependent >= independent - 3 se.
    The reference needs sigma > 0; sigma = 0 raises ValueError before any
    draw."""
    if not cfg.sigma > 0:
        raise ValueError(f"sidak reference needs sigma > 0, got sigma={cfg.sigma}")
    maxima = sample_max_abs(dependent_frame, cfg)
    rows = []
    for T in thresholds:
        emp = float(np.mean(maxima.samples <= T))
        exact = exact_independent_coverage(T, dependent_frame.evt_count, cfg.sigma)
        se = mc_se(emp, cfg.trials)
        rows.append(SidakRow(threshold=float(T), empirical_dependent=emp,
                             exact_independent=exact, se=se,
                             dominates=emp >= exact - 3.0 * se))
    return rows


# --- translation invariant bound ------------------------------------------------

@dataclass
class TiBoundRow:
    z: float
    threshold: float
    stable_threshold: float  # the chi threshold of a stable frame of equal count
    empirical: float
    gumbel: float
    se: float
    holds: bool


def ti_bound_experiment(ti_frame, z_list, cfg):
    """Empirical P{ ||W_{n,n} eps||_inf <= T(z) } with c the frame's
    ti_constant_c and T(z) = sigma [sqrt(2 log n) + (z + log(c/pi))/sqrt(2 log n)],
    compared one-sidedly against exp(-e^{-z}).  Each row also holds the threshold
    at z that the chi norms of the frame's count would give, which a stable
    frame of that many atoms needs (at coarsest level 0, n log2 n atoms)."""
    c = ti_constant_c(ti_frame.filters)  # ThresholdError when the wavelet has no c
    maxima = sample_max_abs(ti_frame, cfg)
    stable = norms_chi(ti_frame.evt_count)
    rows = []
    for z in z_list:
        T = ti_threshold_at_z(cfg.sigma, z, ti_frame.n, c)
        emp = float(np.mean(maxima.samples <= T))
        target = float(gumbel_cdf(z))
        se = mc_se(emp, cfg.trials)
        rows.append(TiBoundRow(z=float(z), threshold=T,
                               stable_threshold=stable.threshold_at(z, cfg.sigma),
                               empirical=emp, gumbel=target, se=se,
                               holds=emp >= target - 3.0 * se))
    return rows


# --- smoothness -----------------------------------------------------------------

@dataclass
class SmoothnessReport:
    alpha: float
    threshold: float
    frequency: float
    se: float
    trials: int
    clean_value: float

    def one_sided_ok(self):
        return self.frequency >= (1.0 - self.alpha) - 3.0 * self.se


def smoothness_experiment(frame, clean_signal, alpha, norm_spec, cfg):
    """Frequency of J(soft-thresholded coefficients) <= J(clean coefficients).

    The experiment soft-thresholds: soft is the rule with
    |F(y +/- T, T)| <= |y|, so a clean coefficient y plus noise of size at
    most T shrinks to magnitude at most |y|, and a norm monotone in the
    magnitudes stays at or below its clean value whenever all the noise
    lies below the threshold (hard thresholding and the garrote map y + T
    above |y|).
    """
    clean = np.asarray(clean_signal, dtype=float)
    x_clean = frame.analyze(clean)
    j_clean = norm_evaluate(norm_spec, x_clean)
    threshold = evt_threshold(cfg.sigma, alpha, frame.evt_count)
    hits = []
    for eps in _noise_blocks(frame, cfg):
        eps += clean  # the fresh noise block becomes the data block
        cv = frame.analyze(eps)
        shrunk = cv.replace_values(shrink_value(cv.values, threshold, "soft"))
        hits.append(norm_evaluate(norm_spec, shrunk) <= j_clean * (1 + 1e-12))
    freq = float(np.mean(np.concatenate(hits)))
    return SmoothnessReport(alpha=alpha, threshold=threshold, frequency=freq,
                            se=mc_se(freq, cfg.trials), trials=cfg.trials,
                            clean_value=j_clean)


# --- oracle risk ----------------------------------------------------------------

@dataclass
class RiskReport:
    empirical_risk: float
    se: float
    bound: float
    first_summand: float
    second_summand: float
    lower_frame_bound: float
    threshold: float
    assumption_ok: bool  # T(alpha, m) <= universal threshold
    trials: int

    @property
    def within_bound(self):
        return self.empirical_risk <= self.bound + 3.0 * self.se


def oracle_risk_experiment(frame, clean_signal, alpha, cfg):
    """Empirical E||u - u_hat||^2 for the pure frame estimator
    Phi^+ S(Phi V, T(alpha, m)) against the oracle bound
    (sigma^2/a_n) [ log(1/(1-alpha)) sqrt(pi log m)
                    + (1 + 2 log m) sum_w min(1, x_w^2/sigma^2) ].

    The carry (scaling part) is left out of both the estimator and the
    target, and every frame synthesizes a missing carry as zero, so the
    comparison is exactly the thresholded-subspace risk the bound controls;
    for whole-space frames this changes nothing.  The bound's
    assumption T <= sigma sqrt(2 log m) is checked and reported; the
    experiment still runs when it fails.  The standard error needs at least
    2 trials; fewer raise ValueError.
    """
    if cfg.trials < 2:
        raise ValueError("the risk standard error needs at least 2 trials")
    clean = np.asarray(clean_signal, dtype=float)
    m = frame.evt_count
    threshold = evt_threshold(cfg.sigma, alpha, m)
    assumption_ok = threshold <= universal_threshold(cfg.sigma, m) + 1e-12
    a_n, _ = frame_bounds(frame)
    x_clean = frame.analyze(clean)
    first = math.log(1.0 / (1.0 - alpha)) * math.sqrt(math.pi * math.log(m))
    second = (1.0 + 2.0 * math.log(m)) * float(
        np.sum(np.minimum(1.0, (x_clean.values / cfg.sigma) ** 2)))
    bound = (cfg.sigma ** 2 / a_n) * (first + second)
    target = frame.dual_synthesize(
        CoefficientVector(x_clean.values, x_clean.label_names, x_clean.labels))
    risks = []
    for eps in _noise_blocks(frame, cfg):
        eps += clean  # the fresh noise block becomes the data block
        cv = frame.analyze(eps)
        est = frame.dual_synthesize(CoefficientVector(
            shrink_value(cv.values, threshold, "soft"), cv.label_names, cv.labels))
        risks.append(np.sum((est - target) ** 2, axis=-1))
    risks = np.concatenate(risks)
    emp = float(np.mean(risks))
    se = float(np.std(risks, ddof=1) / math.sqrt(cfg.trials))
    return RiskReport(empirical_risk=emp, se=se, bound=bound,
                      first_summand=first, second_summand=second,
                      lower_frame_bound=a_n, threshold=threshold,
                      assumption_ok=assumption_ok, trials=cfg.trials)


@dataclass
class Risk1dRow:
    mu: float
    threshold: float
    empirical: float
    se: float
    bound: float

    @property
    def within_bound(self):
        return self.empirical <= self.bound + 3.0 * self.se


def risk_1d_check(mu_list, threshold_list, cfg):
    """E|mu - S(y, T)|^2 for y ~ N(mu, 1) against e^{-T^2/2} + min(1+T^2, mu^2),
    by Monte Carlo with one stream per (mu, T) cell; cfg.sigma is not read.
    The standard error needs at least 2 trials; fewer raise ValueError."""
    if cfg.trials < 2:
        raise ValueError("the risk standard error needs at least 2 trials")
    rows = []
    cell = 0
    for mu in mu_list:
        for T in threshold_list:
            gen = _rng.trial_generator(cfg.seed, cell)
            cell += 1
            vals = np.empty(cfg.trials)
            done = 0
            while done < cfg.trials:
                block = min(cfg.trials - done, 1 << 16)
                y = _rng.stream_normal(gen, block)
                y += mu
                vals[done:done + block] = (mu - shrink_value(y, T, "soft")) ** 2
                done += block
            emp = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(cfg.trials))
            # squares by multiplication: inf past 1.34e154, where ** raises
            bound = math.exp(-T * T / 2.0) + min(1.0 + T * T, mu * mu)
            rows.append(Risk1dRow(mu=float(mu), threshold=float(T),
                                  empirical=emp, se=se, bound=bound))
    return rows


# --- normal comparison bound -----------------------------------------------------

@dataclass
class ComparisonRow:
    matrix_index: int
    threshold: float
    empirical_dependent: float
    empirical_independent: float
    observed_gap: float
    bound: float
    joint_se: float

    @property
    def within_bound(self):
        return self.observed_gap <= self.bound + 3.0 * self.joint_se


def random_correlation_matrix(gen, dim):
    """Normalized Wishart draw: C = D^(-1/2) A A^T D^(-1/2)."""
    a = _rng.stream_normal(gen, (dim, dim))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


def _row_max_abs(x):
    """max |x| along each row of a (B, dim) block with few columns, as
    np.maximum over the column slices: the same bits as np.max(np.abs(x),
    axis=1) (max is exact), without a reduction over dim-wide rows."""
    x = np.abs(x)
    out = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        np.maximum(out, x[:, k], out=out)
    return out


def comparison_bound_experiment(cfg, n_matrices=20, dim=8, thresholds=(1.0, 2.0, 3.0),
                                draws=10 ** 6):
    """Monte Carlo validation of the normal comparison bound for maxima of
    absolute values: per matrix and threshold,
    |P_hat{||eta||_inf <= T} - P_hat{||xi||_inf <= T}| <= bound + 3 joint s.e.
    eta iid, xi ~ N(0, C), against the 1/4 (absolute-value) flavor of the
    bound.  One Philox stream per matrix.  The draws have unit variance and
    cfg.sigma is not read: the bound does not depend on the scale."""
    rows = []
    for idx in range(n_matrices):
        gen = _rng.trial_generator(cfg.seed, idx)
        corr = random_correlation_matrix(gen, dim)
        chol = np.linalg.cholesky(corr)
        dep_counts = np.zeros(len(thresholds))
        ind_counts = np.zeros(len(thresholds))
        done = 0
        while done < draws:
            block = min(draws - done, 1 << 15)
            z = _rng.stream_normal(gen, (block, dim))
            dep_max = _row_max_abs(z @ chol.T)
            ind_counts += _rng.count_max_abs_within(gen, (block, dim), thresholds)
            for k, T in enumerate(thresholds):
                dep_counts[k] += np.count_nonzero(dep_max <= T)
            done += block
        for k, T in enumerate(thresholds):
            p_dep = dep_counts[k] / draws
            p_ind = ind_counts[k] / draws
            se = math.sqrt(mc_se(p_dep, draws) ** 2 + mc_se(p_ind, draws) ** 2)
            bnd = comparison_bound(corr, T).value
            rows.append(ComparisonRow(matrix_index=idx, threshold=float(T),
                                      empirical_dependent=p_dep,
                                      empirical_independent=p_ind,
                                      observed_gap=abs(p_dep - p_ind),
                                      bound=bnd, joint_se=se))
    return rows
