"""Command-line surface: thresholds, denoise, simulate, diagnose, replay.

Every run writes a manifest next to its primary output, with the python,
numpy and scipy versions and a sha256 of each output file; `framethresh
replay manifest.json` re-executes the stored command line, reproducing
simulate and diagnose outputs byte-for-byte (seeded, counter-based
randomness).

Exit codes: 0 success, 2 invalid parameters, 3 parse error, 4 I/O error.
Failures emit a machine-readable JSON object on stderr.  A run whose
estimate, coefficients or report would hold a NaN or infinite value fails
with exit 2 and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import platform
import re
import sys
import time

import numpy as np

from . import __version__, evt, io, signals, simulate
from .core import FrameError
from .diagnostics import comparison_bound, frame_gram, rest_split, rest_sum, stability_check
from .evt import ThresholdError, ThresholdSpec
from .norms import NormSpec, NormSpecError
from .shrink import denoise
from .transforms import TIWaveletFrame, frame_from_spec, get_filters, load_frame_spec

EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, code, kind, message, flag=None):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.flag = flag


def _fail(code, kind, message, flag=None):
    raise CliError(code, kind, message, flag)


def _write_manifest(args, outputs, started, command):
    """Write the manifest of a run; outputs holds its (flag, path) pairs, and
    the manifest sits next to the first."""
    flag, primary = outputs[0]
    outputs = [path for _, path in outputs]
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": outputs,
        "output_sha256": {path: _sha256(path) for path in outputs},
    }
    return _write(flag, io.write_report, primary + ".manifest.json", manifest)


def _write(flag, write, path, *content):
    """write(path, *content), with a file-system error mapped to exit 4
    naming the flag that gave the path; returns (flag, path)."""
    try:
        write(path, *content)
    except OSError as exc:
        _fail(EXIT_IO, "io", str(exc), flag)
    return flag, path


def _first_non_finite(obj, where):
    """The key path of the first float or array holding a NaN or infinity in
    a report of dicts and lists, or None."""
    if isinstance(obj, (float, np.ndarray)):
        return None if np.all(np.isfinite(obj)) else where
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    for key, value in items:
        found = _first_non_finite(value, f"{where}.{key}")
        if found is not None:
            return found
    return None


def _require_finite(report, flag):
    """Fail with exit 2 naming flag when the report holds a non-finite value."""
    where = _first_non_finite(report, "result")
    if where is not None:
        _fail(EXIT_VALIDATION, "validation",
              f"the result is not finite ({where}): the computation overflowed", flag)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_frame(spec, load=frame_from_spec, flag="--frame-spec"):
    """load(spec) with its failures mapped to the exit-code contract."""
    try:
        return load(spec)
    except OSError as exc:
        _fail(EXIT_IO, "io", str(exc), flag)
    except json.JSONDecodeError as exc:
        _fail(EXIT_PARSE, "parse", f"frame spec is not valid JSON: {exc}", flag)
    except FrameError as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc), flag)


def _check_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0):
        _fail(EXIT_VALIDATION, "validation",
              f"sigma={sigma} must be finite and > 0", "--sigma")


def _read_signal(path, flag):
    try:
        return io.read_signal(path)
    except OSError as exc:
        _fail(EXIT_IO, "io", str(exc), flag)
    except io.FileFormatError as exc:
        _fail(EXIT_PARSE, "parse", str(exc), flag)


def _read_clean(path, n):
    """The --clean signal: n finite samples."""
    clean = _read_signal(path, "--clean")
    if len(clean) != n:
        _fail(EXIT_VALIDATION, "validation", "clean signal length mismatch", "--clean")
    if not np.all(np.isfinite(clean)):
        _fail(EXIT_VALIDATION, "validation",
              "clean signal contains NaN or infinite values", "--clean")
    return clean


# --- thresholds ---------------------------------------------------------------

def cmd_thresholds(args):
    _check_sigma(args.sigma)
    if args.n < 2:
        _fail(EXIT_VALIDATION, "validation", "n must be >= 2", "--n")
    for a in args.alpha:
        if not 0 < a < 1:
            _fail(EXIT_VALIDATION, "validation",
                  f"alpha={a} outside (0, 1)", "--alpha")
    rows = [{"rule": "universal", "alpha": None,
             "threshold": evt.universal_threshold(args.sigma, args.n)}]
    c_row = None
    if args.wavelet is not None:
        try:
            filters = get_filters(args.wavelet)
        except FrameError as exc:
            _fail(EXIT_VALIDATION, "validation", str(exc), "--wavelet")
        if filters.differentiable:
            c_row = evt.ti_constant_c(filters).c
    for a in args.alpha:
        rows.append({"rule": "evt", "alpha": a,
                     "threshold": evt.evt_threshold(args.sigma, a, args.n)})
        if args.M is not None:
            try:
                rows.append({"rule": "cyclespin", "alpha": a, "M": args.M,
                             "threshold": evt.cyclespin_threshold(
                                 args.sigma, a, args.n, args.M)})
            except ThresholdError as exc:
                _fail(EXIT_VALIDATION, "validation", str(exc), "--M")
        if c_row is not None:
            rows.append({"rule": "ti", "alpha": a, "c": c_row,
                         "threshold": evt.ti_threshold(args.sigma, a, args.n, c_row)})
    table = {"sigma": args.sigma, "n": args.n, "rows": rows}
    if args.out:
        _write("--out", io.write_report, args.out, table)
    else:
        print(json.dumps(io.to_jsonable(table), indent=2, sort_keys=True))
    return []


# --- denoise --------------------------------------------------------------------

def cmd_denoise(args):
    frame = _load_frame(args.frame_spec)
    data = _read_signal(args.input, "--input")
    if len(data) != frame.n:
        _fail(EXIT_VALIDATION, "validation",
              f"signal length {len(data)} does not match frame n={frame.n}",
              "--input")
    if not np.all(np.isfinite(data)):
        _fail(EXIT_VALIDATION, "validation",
              "input signal contains NaN or infinite values", "--input")
    _check_sigma(args.sigma)
    clean = _read_clean(args.clean, frame.n) if args.clean else None
    spec = ThresholdSpec(rule=args.threshold_rule, sigma=args.sigma,
                         alpha=args.alpha, z=args.z, M=getattr(frame, "M", None),
                         c=args.c, value=args.fixed_value)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = denoise(frame, data, spec, rule=args.rule)
    except (ThresholdError, ValueError) as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc), "--threshold-rule")
    report = {
        "frame": frame.name,
        "rule": args.rule,
        "threshold_rule": args.threshold_rule,
        "threshold_used": result.threshold_used,
        "kept_count": result.kept_count,
        "n": frame.n,
        "atom_count": frame.atom_count,
    }
    if clean is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            report["mse"] = float(np.mean((result.estimate - clean) ** 2))
            report["input_mse"] = float(np.mean((data - clean) ** 2))
    _require_finite({**report, "estimate": result.estimate,
                     "coefficients": result.thresholded_coeffs.values}, "--input")
    outputs = [_write("--output", io.write_signal, args.output, result.estimate)]
    if args.report:
        outputs.append(_write("--report", io.write_report, args.report, report))
    if args.coeffs:
        outputs.append(_write("--coeffs", io.write_coefficients, args.coeffs,
                              result.thresholded_coeffs))
    return outputs


# --- simulate -------------------------------------------------------------------

def cmd_simulate(args):
    if args.trials < 1:
        _fail(EXIT_VALIDATION, "validation", "trials must be >= 1", "--trials")
    _check_sigma(args.sigma)
    if not 0 <= args.seed < 2 ** 64:
        _fail(EXIT_VALIDATION, "validation",
              f"seed {args.seed} must be in [0, 2^64)", "--seed")
    for T in args.T:
        if not (math.isfinite(T) and T >= 0):
            _fail(EXIT_VALIDATION, "validation",
                  f"threshold T={T} must be finite and >= 0", "--T")
    cfg = simulate.McConfig(trials=args.trials, seed=args.seed, sigma=args.sigma)
    report = {"experiment": args.experiment, "trials": args.trials, "seed": args.seed,
              "sigma": args.sigma}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            qq, clean = _run_experiment(args, cfg, report)
    except OverflowError as exc:
        _fail(EXIT_VALIDATION, "validation", f"the computation overflowed: {exc}", "--sigma")
    # the computation runs at the larger of the two scales, sigma and the
    # --clean signal's peak, so the larger one is named for an overflow
    large_clean = clean is not None and np.max(np.abs(clean)) > args.sigma
    _require_finite({**report, "qq": qq}, "--clean" if large_clean else "--sigma")
    outputs = [_write("--out", io.write_report, args.out, report)]
    if qq is not None:
        outputs.append(_write("--qq", io.write_qq, args.qq, qq))
    return outputs


def _run_experiment(args, cfg, report):
    """Run the experiment into the report; returns the Q-Q table when
    --qq asks for one, and the --clean signal when one was read."""
    exp = args.experiment
    qq = clean = None
    if exp == "gumbel":
        if args.trials < 10:
            _fail(EXIT_VALIDATION, "validation",
                  "the KS distance and Q-Q table need --trials >= 10", "--trials")
        frame = _load_frame(args.frame_spec)
        dist = simulate.sample_max_abs(frame, cfg)
        norms = evt.norms_chi(frame.evt_count)
        resc = simulate.rescale_to_gumbel(dist, norms, cfg.sigma)
        report.update(frame=frame.name, m=frame.evt_count,
                      ks_distance=simulate.ks_distance(resc),
                      sample_min=dist.samples[0], sample_max=dist.samples[-1])
        if args.qq:
            qq = simulate.qq_data(resc)
    elif exp == "coverage":
        frame = _load_frame(args.frame_spec)
        _need_alpha(args)
        threshold = None
        if getattr(frame, "M", None) is not None and args.use_cyclespin_rule:
            threshold = evt.cyclespin_threshold(cfg.sigma, args.alpha, frame.n, frame.M)
        rep = simulate.coverage_experiment(frame, args.alpha, cfg, threshold=threshold)
        report.update(frame=frame.name, **io.to_jsonable(rep))
    elif exp == "sidak":
        frame = _load_frame(args.frame_spec)
        m_ref = args.reference_m or frame.distinct_count
        rows = simulate.sidak_experiment(frame, m_ref, args.T, cfg)
        report.update(frame=frame.name, reference_m=m_ref,
                      rows=io.to_jsonable(rows))
    elif exp == "ti":
        frame = _load_frame(args.frame_spec)
        if not isinstance(frame, TIWaveletFrame):
            _fail(EXIT_VALIDATION, "validation",
                  "ti experiment needs a ti frame spec", "--frame-spec")
        try:
            c = evt.ti_constant_c(frame.filters).c
        except ThresholdError as exc:
            _fail(EXIT_VALIDATION, "validation", str(exc), "--frame-spec")
        rows = simulate.ti_bound_experiment(frame, c, args.z, cfg)
        report.update(frame=frame.name, c=c, rows=io.to_jsonable(rows))
    elif exp == "smoothness":
        frame = _load_frame(args.frame_spec)
        _need_alpha(args)
        clean = _read_clean(args.clean, frame.n) if args.clean else None
        try:
            norm_spec = NormSpec.from_json(args.norm_spec)
        except (NormSpecError, json.JSONDecodeError, KeyError) as exc:
            _fail(EXIT_PARSE, "parse", f"bad norm spec: {exc}", "--norm-spec")
        try:
            rep = simulate.smoothness_experiment(
                frame, signals.piecewise_constant(frame.n) if clean is None else clean,
                args.alpha, norm_spec, cfg, rule=args.rule)
        except ValueError as exc:
            _fail(EXIT_VALIDATION, "validation", str(exc), "--rule")
        report.update(frame=frame.name, **io.to_jsonable(rep))
    elif exp == "risk":
        frame = _load_frame(args.frame_spec)
        _need_alpha(args)
        _need_two_trials(args)
        clean = _read_clean(args.clean, frame.n) if args.clean else None
        rep = simulate.oracle_risk_experiment(
            frame, np.zeros(frame.n) if clean is None else clean, args.alpha, cfg)
        report.update(frame=frame.name, **io.to_jsonable(rep))
    elif exp == "risk1d":
        _need_two_trials(args)
        rows = simulate.risk_1d_check(args.mu, args.T, cfg)
        report.update(rows=io.to_jsonable(rows))
    elif exp == "comparison":
        rows = simulate.comparison_bound_experiment(
            cfg, n_matrices=args.matrices, dim=args.dim,
            thresholds=tuple(args.T), draws=args.draws)
        report.update(rows=io.to_jsonable(rows))
    else:
        _fail(EXIT_VALIDATION, "validation",
              f"unknown experiment {exp!r}", "--experiment")
    return qq, clean


def _need_alpha(args):
    if args.alpha is None or not 0 < args.alpha < 1:
        _fail(EXIT_VALIDATION, "validation",
              "this experiment needs --alpha in (0, 1)", "--alpha")


def _need_two_trials(args):
    if args.trials < 2:
        _fail(EXIT_VALIDATION, "validation",
              "this experiment's standard error needs --trials >= 2", "--trials")


# --- diagnose -------------------------------------------------------------------

def cmd_diagnose(args):
    for T in args.T:
        if not math.isfinite(T):
            _fail(EXIT_VALIDATION, "validation", f"threshold T={T} is not finite", "--T")
    template = _load_frame(args.frame_spec, load=load_frame_spec)
    if not 0 < args.rho < 1:
        _fail(EXIT_VALIDATION, "validation", "rho must be in (0, 1)", "--rho")
    frames = []
    for n in args.n_list:
        frames.append(_load_frame({**template, "n": n}))
    try:
        stab = stability_check(frames, args.rho, deduplicate=not args.keep_duplicates)
    except (ValueError, FrameError) as exc:
        _fail(EXIT_VALIDATION, "validation", str(exc), "--n-list")
    report = {"stability": io.to_jsonable(stab)}
    if args.T:
        largest = frames[-1]
        gram = frame_gram(largest, deduplicate=not args.keep_duplicates)
        m = gram.shape[0]
        report["rest_sum"] = rest_sum(gram, m)
        if args.delta is not None:
            try:
                r1, r2, r3 = rest_split(gram, m, args.rho, args.delta)
            except ValueError as exc:
                _fail(EXIT_VALIDATION, "validation", str(exc), "--delta")
            report["rest_split"] = {"R1": r1, "R2": r2, "R3": r3}
        report["comparison_bounds"] = [
            io.to_jsonable(comparison_bound(gram, T, flavor=args.flavor))
            for T in args.T]
    return [_write("--out", io.write_report, args.out, report)]


# --- replay ---------------------------------------------------------------------

def cmd_replay(args):
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        _fail(EXIT_IO, "io", str(exc), "manifest")
    except json.JSONDecodeError as exc:
        _fail(EXIT_PARSE, "parse", f"bad manifest: {exc}", "manifest")
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if (not isinstance(command, list) or not command
            or not all(isinstance(arg, str) for arg in command)):
        _fail(EXIT_PARSE, "parse",
              "manifest must be a JSON object whose command is a non-empty "
              "list of strings", "manifest")
    return _dispatch(command)


# --- wiring ---------------------------------------------------------------------

#: the first flag an argparse error message names ("argument --n: ...",
#: "unrecognized arguments: --x ...", "... are required: --seed, ...")
_USAGE_FLAG = re.compile(r"(?:argument |arguments: |required: )(--?[\w-]+)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing or unknown flag, a
    value of the wrong type) take the exit-code contract's exit 2 with a JSON
    error instead of argparse's usage text; subparsers inherit the class."""

    def error(self, message):
        flag = _USAGE_FLAG.search(message)
        _fail(EXIT_VALIDATION, "validation", f"{self.prog}: {message}",
              flag and flag.group(1))


def build_parser():
    p = _Parser(prog="framethresh", description="Frame thresholding toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True)

    t = sub.add_parser("thresholds", help="print the threshold-rule table")
    t.add_argument("--sigma", type=float, default=1.0)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--M", type=int, default=None)
    t.add_argument("--alpha", type=float, action="append", default=None)
    t.add_argument("--wavelet", type=str, default=None)
    t.add_argument("--out", type=str, default=None)
    t.set_defaults(func=cmd_thresholds)

    d = sub.add_parser("denoise", help="threshold a signal in a frame")
    d.add_argument("--input", required=True)
    d.add_argument("--frame-spec", required=True)
    d.add_argument("--rule", default="soft", choices=("soft", "hard", "garrote"))
    d.add_argument("--threshold-rule", default="universal",
                   choices=("universal", "evt", "from_zn", "cyclespin", "ti", "fixed"))
    d.add_argument("--alpha", type=float, default=None)
    d.add_argument("--z", type=float, default=None)
    d.add_argument("--c", type=float, default=None)
    d.add_argument("--fixed-value", type=float, default=None)
    d.add_argument("--sigma", type=float, default=1.0)
    d.add_argument("--output", required=True)
    d.add_argument("--report", default=None)
    d.add_argument("--coeffs", default=None)
    d.add_argument("--clean", default=None)
    d.set_defaults(func=cmd_denoise)

    s = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    s.add_argument("--experiment", required=True,
                   choices=("gumbel", "coverage", "sidak", "ti", "smoothness",
                            "risk", "risk1d", "comparison"))
    s.add_argument("--frame-spec", default=None)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--trials", type=int, default=10 ** 4)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--out", required=True)
    s.add_argument("--qq", default=None)
    s.add_argument("--T", type=float, action="append", default=None)
    s.add_argument("--z", type=float, action="append", default=None)
    s.add_argument("--mu", type=float, action="append", default=None)
    s.add_argument("--reference-m", type=int, default=None)
    s.add_argument("--clean", default=None)
    s.add_argument("--norm-spec", default='{"kind":"pqr_wavelet","p":1,"q":1,"r":0}')
    s.add_argument("--rule", default="soft")
    s.add_argument("--use-cyclespin-rule", action="store_true")
    s.add_argument("--matrices", type=int, default=20)
    s.add_argument("--dim", type=int, default=8)
    s.add_argument("--draws", type=int, default=10 ** 6)
    s.set_defaults(func=cmd_simulate)

    g = sub.add_parser("diagnose", help="stability census and comparison bounds")
    g.add_argument("--frame-spec", required=True)
    g.add_argument("--n-list", type=int, nargs="+", required=True)
    g.add_argument("--rho", type=float, default=0.5)
    g.add_argument("--delta", type=float, default=None)
    g.add_argument("--T", type=float, action="append", default=None)
    g.add_argument("--flavor", default="abs", choices=("abs", "normal"))
    g.add_argument("--keep-duplicates", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_diagnose)

    r = sub.add_parser("replay", help="re-run a recorded manifest")
    r.add_argument("manifest")
    r.set_defaults(func=cmd_replay)
    return p


def _apply_defaults(args):
    if getattr(args, "alpha", None) is None and args.subcommand == "thresholds":
        args.alpha = [0.1]
    if getattr(args, "T", None) is None:
        if args.subcommand == "simulate" and args.experiment == "sidak":
            args.T = [2.5, 3.0, 3.5]
        elif args.subcommand == "simulate" and args.experiment in ("risk1d", "comparison"):
            args.T = [1.0, 2.0, 3.0]
        else:
            args.T = []
    if getattr(args, "z", None) is None and args.subcommand == "simulate":
        args.z = [-1.0, 0.0, 1.0, 2.0]
    if getattr(args, "mu", None) is None and args.subcommand == "simulate":
        args.mu = [0.0, 3.0]


def _dispatch(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_defaults(args)
    started = time.time()
    outputs = args.func(args)
    if outputs and args.subcommand != "replay":
        _write_manifest(args, outputs, started, list(argv))
    return outputs


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _dispatch(argv)
    except CliError as exc:
        error = {"error": {"kind": exc.kind, "code": exc.code,
                           "message": str(exc), "flag": exc.flag}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return exc.code
    except FrameError as exc:
        print(json.dumps({"error": {"kind": "validation", "code": EXIT_VALIDATION,
                                    "message": str(exc), "flag": None}},
                         sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
