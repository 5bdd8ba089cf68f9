"""The four benchmark workloads.

A workload builds its frames and constants in ``setup`` (ending with one
untimed warm-up call that fills lazy caches), lists the timed calls of each
round (``calls``), checks every output of the timed phase (``check``) and
computes a fixed-seed reference output (``reference``) that is compared
with the one recorded in ``reference.json``.  The same code drives the
frozen copy of the program in ``baseline/``: a call is identified by its
round and its position in the round, so both processes make the same call
on the same inputs.

Every call into the package goes through a module attribute
(``simulate.coverage_experiment``, never a name imported from it), so the
tracer's wrappers see it.  All runs are serial (``McConfig.parallel`` keeps
its default, False): one caller, closed loop, no queues.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from framethresh import (core, diagnostics, evt, norms, rng, shrink, signals,
                         simulate, transforms)

#: seed of the reference computations recorded in reference.json
REF_SEED = 20120510
ALPHA = 0.1
#: exact (2 Phi(T) - 1)^m coverage of the identity frame at m=1024, alpha=0.1
IDENTITY_EXACT = 0.91122043028986311
#: Kolmogorov 1% critical value: KS of N samples exceeds the true distance
#: by more than KS_CRIT/sqrt(N) with probability 0.01
KS_CRIT = 1.628
#: float tolerance of the reference comparison (relative, with a 1e-12 floor)
REF_RTOL = 1e-9
#: standard errors allowed by two-sided Monte Carlo gates; 3 s.e. would
#: fail a correct program in 0.27% of calls, and the benchmark makes
#: hundreds of calls with fresh seeds
TWO_SIDED_SE = 4.0


def sub_seed(seed, *keys):
    """Independent 64-bit seed for one (seed, keys...) combination."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def digest_json(obj):
    """Digest of a float, an array or a JSON-able summary."""
    if isinstance(obj, (float, np.ndarray)):
        return digest(obj)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Unit:
    """One timed call: `count` units of work (trials, calls or jobs) done
    in `seconds` of wall time."""

    label: str
    count: int
    seconds: float
    output: object
    error: str | None = None
    digest: str = ""


@dataclass
class Check:
    name: str
    ok: bool
    layer: str
    detail: str = ""


def timed_call(label, count, fn, digest_of):
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed unit is counted, the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Unit(label, count, seconds, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Unit(label, count, seconds, out, None, digest_of(out))


def close(a, b):
    return abs(a - b) <= REF_RTOL * abs(b) + 1e-12


def compare(got, want, path=""):
    """Mismatches between two nested summaries: exact for ints, strings and
    bools, REF_RTOL for floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def corrupt(summary):
    """Copy of a reference summary with its first float scaled by 1 + 1e-6:
    the deliberately wrong output the smoke check feeds to the gate."""
    if isinstance(summary, dict):
        out = dict(summary)
        for k, v in out.items():
            changed = corrupt(v)
            if changed is not v:
                out[k] = changed
                return out
        return summary
    if isinstance(summary, list):
        out = list(summary)
        for i, v in enumerate(out):
            changed = corrupt(v)
            if changed is not v:
                out[i] = changed
                return out
        return summary
    if isinstance(summary, float) and summary != 0.0:
        return summary * (1.0 + 1e-6)
    return summary


class Workload:
    name = ""
    setup_repeats = {"full": 3, "tiny": 2}

    #: layer charged with a reference mismatch
    layer = "simulate"
    #: whether the reference computation depends on the size
    sized_reference = True

    def __init__(self, size, seed, recorded):
        self.size = size
        self.seed = seed
        self.recorded = recorded

    def release(self):
        """Drop the state of the previous set-up before building the next."""
        for key in list(vars(self)):
            if key not in ("size", "seed", "recorded"):
                delattr(self, key)

    def setup(self, rep):
        raise NotImplementedError

    def calls(self, index):
        """The timed calls of round `index`, in order: (label, count, fn,
        digest_of) tuples for `timed_call`.  Inputs are made here, outside
        the timed calls."""
        raise NotImplementedError

    def check(self, units):
        raise NotImplementedError

    def reference(self, units):
        """Summary of a fixed-seed computation, compared with reference.json."""
        raise NotImplementedError

    def reference_key(self):
        """The key of this workload's entry in reference.json."""
        return f"{self.name}/{self.size}" if self.sized_reference else self.name


# --- Monte Carlo workloads -----------------------------------------------------

class Experiment:
    """One seeded MC experiment: label, trials per call and calls per round
    for each size, the call, the gates over a run's outputs and the summary
    compared with the reference."""

    label = ""
    trials = {"full": 0, "tiny": 0}
    calls = {"full": 1, "tiny": 1}
    ref_trials = 0

    def run(self, state, cfg):
        raise NotImplementedError

    def gates(self, outs, state):
        """Checks on the outputs of all of a run's calls (pooled where the
        statistic pools, so short calls still give a sharp gate)."""
        return []

    def summary(self, out):
        raise NotImplementedError

    def digest(self, out):
        return digest(*[v for v in self.summary(out).values()])


def _pooled(reports, field):
    """Trial-weighted mean of a per-call proportion, and the pooled trials."""
    n = sum(rep.trials for rep in reports)
    return sum(getattr(rep, field) * rep.trials for rep in reports) / n, n


def _finite_check(label, values):
    bad = int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))
    return Check(f"{label}.finite", bad == 0, "simulate", f"{bad} non-finite values")


class Gumbel(Experiment):
    """Criterion 5: maxima of Haar coefficients, KS distance to Gumbel."""

    label = "gumbel-haar"
    trials = {"full": 40, "tiny": 20}
    calls = {"full": 6, "tiny": 2}
    ref_trials = 200

    def run(self, state, cfg):
        frame = state["haar"]
        dist = simulate.sample_max_abs(frame, cfg)
        resc = simulate.rescale_to_gumbel(dist, evt.norms_chi(frame.evt_count), cfg.sigma)
        return {"samples": dist.samples, "ks": simulate.ks_distance(resc)}

    def gates(self, outs, state):
        samples = np.concatenate([out["samples"] for out in outs])
        resc = simulate.rescale_to_gumbel(samples, evt.norms_chi(state["haar"].evt_count))
        ks, n = simulate.ks_distance(resc), len(samples)
        limit = 0.05 + KS_CRIT / math.sqrt(n)
        return [_finite_check(self.label, samples),
                Check(f"{self.label}.ks", ks < limit, "simulate",
                      f"KS {ks:.4f} vs {limit:.4f} at {n} pooled trials")]

    def summary(self, out):
        s = out["samples"]
        return {"trials": int(len(s)), "ks": float(out["ks"]), "mean": float(np.mean(s)),
                "min": float(s[0]), "max": float(s[-1]), "sumsq": float(np.sum(s * s))}

    def digest(self, out):
        return digest(out["samples"])


class IdentityCoverage(Experiment):
    """Criterion 6a: coverage on the identity frame against the exact value."""

    label = "coverage-identity"
    trials = {"full": 400, "tiny": 100}
    ref_trials = 400

    def run(self, state, cfg):
        return simulate.coverage_experiment(state["identity"], ALPHA, cfg)

    def gates(self, outs, state):
        emp, n = _pooled(outs, "empirical")
        limit = TWO_SIDED_SE * simulate.mc_se(emp, n)
        exact = [rep.exact for rep in outs]
        return [Check(f"{self.label}.exact", all(e is not None
                      and abs(e - IDENTITY_EXACT) <= 1e-9 for e in exact), "simulate",
                      f"exact {exact[0]}"),
                Check(f"{self.label}.within", abs(emp - IDENTITY_EXACT) <= limit, "simulate",
                      f"{emp:.4f} vs exact {IDENTITY_EXACT:.4f} +- {limit:.4f} at {n} trials")]

    def summary(self, rep):
        return {"trials": rep.trials, "empirical": rep.empirical,
                "threshold": rep.threshold, "exact": rep.exact}


class CycleSpinCoverage(Experiment):
    """Criterion 6b: coverage of cycle spinning M=4 with the cyclespin rule.

    The gate compares with the finite-n coverage measured at REF_SEED with
    20000 trials (recorded in reference.json), two-sided: at n=1024 that
    coverage is about 0.890, below the nominal 0.9, so the one-sided gate
    emp >= 0.9 - 3 s.e. fails a correct program on a few percent of seeds.
    The one-sided verdict is still reported in the check's detail."""

    label = "coverage-cyclespin"
    trials = {"full": 10, "tiny": 10}
    calls = {"full": 6, "tiny": 2}
    ref_trials = 100
    population_trials = 20000

    def run(self, state, cfg):
        return simulate.coverage_experiment(state["cyclespin"], ALPHA, cfg,
                                            threshold=state["T_cs"])

    def gates(self, outs, state):
        pop = state["cs_population"]
        emp, n = _pooled(outs, "empirical")
        se = simulate.mc_se(emp, n)
        limit = TWO_SIDED_SE * math.hypot(se, pop["se"])
        nominal = emp >= 1.0 - ALPHA - 3.0 * se
        return [Check(f"{self.label}.within", abs(emp - pop["empirical"]) <= limit,
                      "simulate",
                      f"{emp:.4f} vs {pop['empirical']:.4f} +- {limit:.4f} at {n} trials; "
                      f"nominal one-sided >= 0.9 - 3se: {nominal}")]

    def summary(self, rep):
        return {"trials": rep.trials, "empirical": rep.empirical, "threshold": rep.threshold}


def cyclespin_population():
    """Coverage of CycleSpinCoverage's frame and threshold over 20000
    trials at REF_SEED: the finite-n value its gate compares with."""
    exp = CycleSpinCoverage()
    state = {"cyclespin": transforms.CycleSpinFrame(1024, 4, "haar"),
             "T_cs": evt.cyclespin_threshold(1.0, ALPHA, 1024, 4)}
    cfg = simulate.McConfig(trials=exp.population_trials, seed=sub_seed(REF_SEED, 1000))
    rep = exp.run(state, cfg)
    return {"trials": rep.trials, "seed": cfg.seed, "empirical": rep.empirical, "se": rep.se}


class Smoothness(Experiment):
    """Criterion 11: frequency of J(shrunk) <= J(clean), pqr p=q=1, r=0."""

    label = "smoothness-haar"
    trials = {"full": 40, "tiny": 20}
    calls = {"full": 6, "tiny": 2}
    ref_trials = 200
    spec = norms.NormSpec("pqr_wavelet", p=1, q=1, r=0)

    def run(self, state, cfg):
        clean = signals.piecewise_constant(1024, n_pieces=8, seed=cfg.seed % 2 ** 32)
        return simulate.smoothness_experiment(state["haar"], clean, ALPHA, self.spec, cfg)

    def gates(self, outs, state):
        freq, n = _pooled(outs, "frequency")
        return [Check(f"{self.label}.frequency", freq >= 0.88, "simulate",
                      f"{freq:.4f} >= 0.88 at {n} trials")]

    def summary(self, rep):
        return {"trials": rep.trials, "frequency": rep.frequency,
                "clean_value": rep.clean_value, "threshold": rep.threshold}


class OracleRisk(Experiment):
    """Criterion 10 style oracle-risk experiment (soft, alpha=0.1)."""

    trials = {"full": 0, "tiny": 0}
    frame_key = ""
    gated = False

    def clean(self, state, cfg):
        raise NotImplementedError

    def run(self, state, cfg):
        return simulate.oracle_risk_experiment(state[self.frame_key],
                                               self.clean(state, cfg), ALPHA, cfg)

    def gates(self, outs, state):
        """Per call: each call's bound depends on its clean signal."""
        checks = []
        for rep in outs:
            checks.append(_finite_check(self.label, [rep.empirical_risk, rep.se, rep.bound]))
            detail = (f"risk {rep.empirical_risk:.4g} vs bound {rep.bound:.4g}"
                      f" + 3se {3 * rep.se:.3g}")
            if self.gated:
                checks.append(Check(f"{self.label}.bound", rep.within_bound, "simulate",
                                    detail))
            else:
                checks[-1].detail += f"; not gated: {detail} (within: {rep.within_bound})"
        return checks

    def summary(self, rep):
        return {"trials": rep.trials, "empirical_risk": rep.empirical_risk, "se": rep.se,
                "bound": rep.bound, "threshold": rep.threshold,
                "lower_frame_bound": rep.lower_frame_bound}


class RiskTI(OracleRisk):
    """TI cdf97r on a seeded piecewise-constant signal.  The oracle bound is
    criterion 10's claim for orthonormal bases; it is reported, not gated."""

    label = "risk-ti"
    frame_key = "ti"
    trials = {"full": 50, "tiny": 10}
    ref_trials = 20

    def clean(self, state, cfg):
        return signals.piecewise_constant(1024, n_pieces=8, seed=cfg.seed % 2 ** 32)


class RiskSine(OracleRisk):
    """Sine r=2 on the paper's off-grid two-wave signal (bound reported)."""

    label = "risk-sine"
    frame_key = "sine"
    trials = {"full": 140, "tiny": 40}
    ref_trials = 100

    def clean(self, state, cfg):
        return state["two_wave"]


class RiskIdentityZero(OracleRisk):
    """Criterion 10: identity frame, zero signal, gated against the bound."""

    label = "risk-identity-zero"
    frame_key = "identity"
    trials = {"full": 40, "tiny": 10}
    ref_trials = 20
    gated = True

    def clean(self, state, cfg):
        return np.zeros(1024)


class RiskIdentitySparse(RiskIdentityZero):
    """Criterion 10: identity frame, 10-sparse signal of amplitude 3."""

    label = "risk-identity-sparse"

    def clean(self, state, cfg):
        return state["sparse"]


class MonteCarlo(Workload):
    experiments = ()
    #: the references run fixed trial counts (`ref_trials`) at every size
    sized_reference = False

    def setup(self, rep):
        state = self.build()
        for k, exp in enumerate(self.experiments):
            exp.run(state, simulate.McConfig(trials=10, seed=sub_seed(self.seed, 99, rep, k)))
        self.state = state

    def build(self):
        raise NotImplementedError

    def calls(self, index):
        """Each experiment's calls of the round, interleaved."""
        out = []
        for call in range(max(exp.calls[self.size] for exp in self.experiments)):
            for k, exp in enumerate(self.experiments):
                if call < exp.calls[self.size]:
                    cfg = simulate.McConfig(trials=exp.trials[self.size],
                                            seed=sub_seed(self.seed, index, k, call))
                    out.append((exp.label, cfg.trials,
                                lambda exp=exp, cfg=cfg: exp.run(self.state, cfg), exp.digest))
        return out

    def check(self, units):
        checks = []
        for exp in self.experiments:
            outs = [u.output for u in units if u.label == exp.label and u.output is not None]
            if outs:
                checks.extend(exp.gates(outs, self.state))
        return checks

    def reference(self, units):
        out = {}
        for k, exp in enumerate(self.experiments):
            cfg = simulate.McConfig(trials=exp.ref_trials, seed=sub_seed(REF_SEED, k))
            out[exp.label] = exp.summary(exp.run(self.state, cfg))
        return out


class McAnalysis(MonteCarlo):
    """Draw -> analyze -> reduce; dual_synthesize is never called."""

    name = "mc-analysis"
    experiments = (Gumbel(), IdentityCoverage(), CycleSpinCoverage(), Smoothness())

    def build(self):
        return {"haar": transforms.WaveletBasis(1024, "haar"),
                "identity": core.ExplicitFrame(np.eye(1024), "orthonormal-basis"),
                "cyclespin": transforms.CycleSpinFrame(1024, 4, "haar"),
                "T_cs": evt.cyclespin_threshold(1.0, ALPHA, 1024, 4),
                "cs_population": self.recorded["cyclespin_population"]}


class McRisk(MonteCarlo):
    """Oracle risk: dual_synthesize dominates, no DWT analysis."""

    name = "mc-risk"
    experiments = (RiskTI(), RiskSine(), RiskIdentityZero(), RiskIdentitySparse())

    def build(self):
        m = 1024
        sparse = np.zeros(m)
        sparse[np.arange(0, m, m // 10)[:10]] = 3.0
        return {"ti": transforms.TIWaveletFrame(m, transforms.CDF97R),
                "sine": transforms.SineFrame(m, 2),
                "identity": core.ExplicitFrame(np.eye(m), "orthonormal-basis"),
                "two_wave": signals.sine_superposition(m, (150.5, 380)),
                "sparse": sparse}


# --- single-signal denoising -----------------------------------------------------

class Denoise(Workload):
    """shrink.denoise (evt rule, alpha=0.1, soft) on one fresh noisy
    piecewise-constant signal per call, round-robin over three frames."""

    name = "denoise-4096"
    layer = "shrink"
    sizes = {"full": 4096, "tiny": 256}
    #: a set-up takes about 10 s (the sine pseudoinverse), so two, to keep
    #: a run well inside the time budget
    setup_repeats = {"full": 2, "tiny": 2}

    def setup(self, rep):
        n = self.sizes[self.size]
        frames = {"cyclespin": transforms.CycleSpinFrame(n, 4, "haar"),
                  "ti": transforms.TIWaveletFrame(n, transforms.CDF97R),
                  "sine": transforms.SineFrame(n, 2)}
        spec = evt.ThresholdSpec("evt", 1.0, alpha=ALPHA)
        expected = {k: evt.evt_threshold(1.0, ALPHA, f.evt_count) for k, f in frames.items()}
        for k, frame in enumerate(frames.values()):
            shrink.denoise(frame, self.signal(sub_seed(self.seed, 99, rep), k), spec)
        self.frames, self.spec, self.expected = frames, spec, expected

    def signal(self, seed, call):
        n = self.sizes[self.size]
        clean = signals.piecewise_constant(n, n_pieces=8, seed=sub_seed(seed, call) % 2 ** 32)
        return clean + rng.normal(seed, call, n)

    def calls(self, index):
        return [(label, 1,
                 lambda frame=frame, data=self.signal(self.seed, 3 * index + k):
                     shrink.denoise(frame, data, self.spec),
                 lambda res: digest(res.estimate))
                for k, (label, frame) in enumerate(self.frames.items())]

    def check(self, units):
        checks = []
        for u in units:
            if u.output is not None:
                res = u.output
                bad = int(np.count_nonzero(~np.isfinite(res.estimate)))
                ok = bad == 0 and res.threshold_used == self.expected[u.label]
                checks.append(Check(f"denoise.{u.label}", ok, "shrink",
                                    f"{bad} non-finite, threshold {res.threshold_used}"))
        gen = np.random.default_rng(sub_seed(self.seed, 7))
        for label, frame in self.frames.items():
            worst = 0.0
            for _ in range(2):
                u = frame.project_span(gen.standard_normal(frame.n))
                rec = frame.dual_synthesize(frame.analyze(u))
                worst = max(worst, float(np.linalg.norm(rec - u) / np.linalg.norm(u)))
            checks.append(Check(f"reconstruction.{label}", worst <= 1e-9, "transforms",
                                f"relative error {worst:.2e}"))
        return checks

    def reference(self, units):
        out = {}
        for k, (label, frame) in enumerate(self.frames.items()):
            res = shrink.denoise(frame, self.signal(REF_SEED, k), self.spec)
            e = res.estimate
            out[label] = {"threshold": res.threshold_used, "kept": res.kept_count,
                          "sum": float(np.sum(e)), "sumsq": float(np.sum(e * e)),
                          "min": float(np.min(e)), "max": float(np.max(e))}
        return out


# --- stability census -------------------------------------------------------------

class DiagnoseCensus(Workload):
    """The calls `framethresh diagnose` makes: TI haar census with the
    comparison sums at rho=0.5, delta=0.2, T in {2, 3}, then the cyclespin
    haar M=4 census.  No noise is drawn: the seed does not change the inputs."""

    name = "diagnose-census"
    layer = "diagnostics"
    sizes = {"full": ((64, 128, 256), (256, 512, 1024)),
             "tiny": ((16, 32, 64), (64, 128, 256))}
    rho, delta, T = 0.5, 0.2, (2.0, 3.0)
    STEPS = ("ti-census", "frame_gram", "rest_sum", "rest_split", "comparison-T2",
             "comparison-T3", "cs-census")

    def setup(self, rep):
        ti_ns, cs_ns = self.sizes[self.size]
        self.ti = [transforms.TIWaveletFrame(n, "haar") for n in ti_ns]
        self.cs = [transforms.CycleSpinFrame(n, 4, "haar") for n in cs_ns]
        self.job([transforms.TIWaveletFrame(n, "haar") for n in (4, 8, 16)],
                 [transforms.CycleSpinFrame(n, 4, "haar") for n in (8, 16, 32)])

    def job(self, ti, cs):
        return [timed_call(*step) for step in self.steps(ti, cs)]

    def steps(self, ti, cs):
        """The job's seven calls (STEPS), each one unit of work; they run in
        order, the sums on the Gram that `frame_gram` made."""
        gram = []

        def frame_gram():
            gram.append(diagnostics.frame_gram(ti[-1]))
            return gram[0]

        steps = [("ti-census", lambda: _stability_summary(
                      diagnostics.stability_check(ti, self.rho))),
                 ("frame_gram", frame_gram),
                 ("rest_sum", lambda: diagnostics.rest_sum(gram[0], len(gram[0]))),
                 ("rest_split", lambda: list(diagnostics.rest_split(
                     gram[0], len(gram[0]), self.rho, self.delta)))]
        steps += [(f"comparison-T{t:g}",
                   lambda t=t: diagnostics.comparison_bound(gram[0], t, flavor="abs").value)
                  for t in self.T]
        steps.append(("cs-census", lambda: _stability_summary(
            diagnostics.stability_check(cs, self.rho))))
        return [(label, 1, fn, digest_json) for label, fn in steps]

    def calls(self, index):
        return self.steps(self.ti, self.cs)

    def check(self, units):
        sums = [u.output for u in units if u.output is not None
                and u.label.startswith(("rest_", "comparison"))]
        flat = [float(x) for v in sums for x in np.ravel(v)]
        bad = sum(1 for x in flat if not math.isfinite(x))
        return [Check("diagnose.finite", bad == 0, "diagnostics",
                      f"{bad} of {len(flat)} sums non-finite")]

    def reference(self, units):
        """The first timed job's summary (the census is deterministic); the
        job is run again if no timed job completed."""
        first = units[:len(self.STEPS)]
        if len(first) < len(self.STEPS) or any(u.error is not None for u in first):
            first = self.job(self.ti, self.cs)
        out = {u.label: u.output for u in first}
        return {"ti": out["ti-census"], "rest_sum": out["rest_sum"],
                "rest_split": out["rest_split"],
                "comparison": [out[f"comparison-T{t:g}"] for t in self.T],
                "cs": out["cs-census"]}


def _stability_summary(report):
    return {"verdict": report.verdict, "ratio_nonincreasing": report.ratio_nonincreasing,
            "per_atom_bounded": report.per_atom_bounded,
            "frame_bounds_bounded": report.frame_bounds_bounded,
            "rows": [{"n": r.n, "omega_count": r.omega_count, "count": r.count_geq_rho,
                      "upper_frame_bound": float(r.upper_frame_bound)} for r in report.rows]}


WORKLOADS = {w.name: w for w in (McAnalysis, McRisk, Denoise, DiagnoseCensus)}
