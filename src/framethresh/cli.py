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
import contextlib
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
_KINDS = {EXIT_VALIDATION: "validation", EXIT_PARSE: "parse", EXIT_IO: "io"}


class CliError(Exception):
    """A failed run: its exit code, the message and the flag at fault; the
    error's kind follows from the code."""

    def __init__(self, code, message, flag=None):
        super().__init__(message)
        self.code = code
        self.kind = _KINDS[code]
        self.flag = flag


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
        raise CliError(EXIT_IO, str(exc), flag)
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
        raise CliError(EXIT_VALIDATION,
                       f"the result is not finite ({where}): the computation overflowed", flag)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(flag, load, value):
    """load(value), with its failures mapped to the exit-code contract and
    the flag that gave the value: an unreadable file exits 4, malformed text
    3 and an invalid frame 2."""
    try:
        return load(value)
    except OSError as exc:
        raise CliError(EXIT_IO, str(exc), flag)
    except (json.JSONDecodeError, UnicodeDecodeError, io.FileFormatError,
            NormSpecError) as exc:
        raise CliError(EXIT_PARSE, str(exc), flag)
    except FrameError as exc:
        raise CliError(EXIT_VALIDATION, str(exc), flag)


def _read_clean(path, n):
    """The --clean signal: n finite samples."""
    clean = _read("--clean", io.read_signal, path)
    if len(clean) != n:
        raise CliError(EXIT_VALIDATION, "clean signal length mismatch", "--clean")
    if not np.all(np.isfinite(clean)):
        raise CliError(EXIT_VALIDATION, "clean signal contains NaN or infinite values",
                       "--clean")
    return clean


# --- thresholds ---------------------------------------------------------------

def cmd_thresholds(args):
    rows = [{"rule": "universal", "alpha": None,
             "threshold": evt.universal_threshold(args.sigma, args.n)}]
    c_row = None
    if args.wavelet is not None:
        filters = _read("--wavelet", get_filters, args.wavelet)
        with contextlib.suppress(ThresholdError):  # haar and d4 have no ti row
            c_row = evt.ti_constant_c(filters)
    for a in args.alpha:
        rows.append({"rule": "evt", "alpha": a,
                     "threshold": evt.evt_threshold(args.sigma, a, args.n)})
        if args.M is not None:
            try:
                rows.append({"rule": "cyclespin", "alpha": a, "M": args.M,
                             "threshold": evt.cyclespin_threshold(
                                 args.sigma, a, args.n, args.M)})
            except ThresholdError as exc:
                raise CliError(EXIT_VALIDATION, str(exc), "--M")
        if c_row is not None:
            try:
                rows.append({"rule": "ti", "alpha": a, "c": c_row,
                             "threshold": evt.ti_threshold(args.sigma, a, args.n, c_row)})
            except ThresholdError as exc:
                raise CliError(EXIT_VALIDATION, str(exc), "--n")
    table = {"sigma": args.sigma, "n": args.n, "rows": rows}
    _require_finite(table, "--sigma")
    if args.out:
        _write("--out", io.write_report, args.out, table)
    else:
        print(json.dumps(io.to_jsonable(table), indent=2, sort_keys=True))
    return []


# --- denoise --------------------------------------------------------------------

def cmd_denoise(args):
    frame = _read("--frame-spec", frame_from_spec, args.frame_spec)
    data = _read("--input", io.read_signal, args.input)
    if len(data) != frame.n:
        raise CliError(EXIT_VALIDATION,
                       f"signal length {len(data)} does not match frame n={frame.n}",
                       "--input")
    if not np.all(np.isfinite(data)):
        raise CliError(EXIT_VALIDATION, "input signal contains NaN or infinite values",
                       "--input")
    clean = _read_clean(args.clean, frame.n) if args.clean else None
    spec = ThresholdSpec(rule=args.threshold_rule, sigma=args.sigma, alpha=args.alpha,
                         z=args.z, value=args.fixed_value)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = denoise(frame, data, spec, rule=args.rule)
    except OverflowError as exc:
        raise CliError(EXIT_VALIDATION, str(exc), "--sigma")
    except (ThresholdError, ValueError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc), "--threshold-rule")
    report = {
        "frame": frame.name,
        "rule": args.rule,
        "threshold_rule": args.threshold_rule,
        "threshold_used": result.threshold_used,
        "kept_count": result.kept_count,
        "n": frame.n,
        "atom_count": frame.atom_count,
    }
    # with the config's sigma, alpha and z, every input of threshold_used
    report.update(spec.frame_inputs(frame))
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
    cfg = simulate.McConfig(trials=args.trials, seed=args.seed, sigma=args.sigma)
    report = {"experiment": args.experiment, "trials": args.trials, "seed": args.seed,
              "sigma": args.sigma}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            qq, clean = _run_experiment(args, cfg, report)
    except OverflowError as exc:
        raise CliError(EXIT_VALIDATION, f"the computation overflowed: {exc}", "--sigma")
    except ThresholdError as exc:  # too few atoms or shifts for the rule at --alpha
        raise CliError(EXIT_VALIDATION, str(exc), "--frame-spec")
    # risk1d's only unbounded input is mu.  Elsewhere the computation runs
    # at the larger of the two scales, sigma and the --clean signal's peak,
    # so the larger one is named for an overflow
    large_clean = clean is not None and np.max(np.abs(clean)) > args.sigma
    flag = "--mu" if args.experiment == "risk1d" else "--clean" if large_clean else "--sigma"
    _require_finite({**report, "qq": qq}, flag)
    outputs = [_write("--out", io.write_report, args.out, report)]
    if qq is not None:
        outputs.append(_write("--qq", io.write_qq, args.qq, qq))
    return outputs


def _run_experiment(args, cfg, report):
    """Run the experiment into the report; returns the Q-Q table when
    --qq asks for one, and the --clean signal when one was read."""
    exp = args.experiment
    if exp == "gumbel" and args.trials < 10:
        raise CliError(EXIT_VALIDATION, "the KS distance and Q-Q table need --trials >= 10",
                       "--trials")
    if exp in ("coverage", "smoothness", "risk") and args.alpha is None:
        raise CliError(EXIT_VALIDATION, "this experiment needs --alpha", "--alpha")
    if exp in ("risk", "risk1d") and args.trials < 2:
        raise CliError(EXIT_VALIDATION, "this experiment's standard error needs --trials >= 2",
                       "--trials")
    if exp in ("risk1d", "comparison") and args.sigma != 1.0:
        raise CliError(EXIT_VALIDATION, "this experiment draws unit-variance noise, so it "
                       f"takes no --sigma but 1, got {args.sigma}", "--sigma")
    qq = clean = None
    if exp not in ("risk1d", "comparison"):
        frame = _read("--frame-spec", frame_from_spec, args.frame_spec)
        report["frame"] = frame.name
        if args.clean and exp in ("smoothness", "risk"):
            clean = _read_clean(args.clean, frame.n)
    if exp == "gumbel":
        dist = simulate.sample_max_abs(frame, cfg)
        norms = evt.norms_chi(frame.evt_count)
        resc = simulate.rescale_to_gumbel(dist, norms, cfg.sigma)
        report.update(m=frame.evt_count, ks_distance=simulate.ks_distance(resc),
                      sample_min=dist.samples[0], sample_max=dist.samples[-1])
        if args.qq:
            qq = simulate.qq_data(resc)
    elif exp == "coverage":
        threshold = None
        if getattr(frame, "M", None) is not None and args.use_cyclespin_rule:
            threshold = evt.cyclespin_threshold(cfg.sigma, args.alpha, frame.n, frame.M)
        rep = simulate.coverage_experiment(frame, args.alpha, cfg, threshold=threshold)
        report.update(io.to_jsonable(rep))
    elif exp == "sidak":
        rows = simulate.sidak_experiment(frame, args.T, cfg)
        report.update(reference_m=frame.evt_count, rows=io.to_jsonable(rows))
    elif exp == "ti":
        if not isinstance(frame, TIWaveletFrame):
            raise CliError(EXIT_VALIDATION, "ti experiment needs a ti frame spec",
                           "--frame-spec")
        rows = simulate.ti_bound_experiment(frame, args.z, cfg)
        report.update(c=evt.ti_constant_c(frame.filters), rows=io.to_jsonable(rows))
    elif exp == "smoothness":
        norm_spec = _read("--norm-spec", NormSpec.from_json, args.norm_spec)
        clean_signal = signals.piecewise_constant(frame.n) if clean is None else clean
        try:
            rep = simulate.smoothness_experiment(frame, clean_signal, args.alpha, norm_spec, cfg)
        except NormSpecError as exc:  # the spec does not fit the frame's coefficients
            raise CliError(EXIT_VALIDATION, str(exc), "--norm-spec")
        if (not math.isfinite(rep.clean_value)
                and np.all(np.isfinite(frame.analyze(clean_signal).values))):
            raise CliError(EXIT_VALIDATION, f"the norm of the finite clean coefficients is "
                           f"{rep.clean_value}: the norm spec overflows", "--norm-spec")
        report.update(io.to_jsonable(rep))
    elif exp == "risk":
        rep = simulate.oracle_risk_experiment(
            frame, np.zeros(frame.n) if clean is None else clean, args.alpha, cfg)
        report.update(io.to_jsonable(rep))
    elif exp == "risk1d":
        rows = simulate.risk_1d_check(args.mu, args.T, cfg)
        report.update(rows=io.to_jsonable(rows))
    else:
        rows = simulate.comparison_bound_experiment(
            cfg, n_matrices=args.matrices, dim=args.dim,
            thresholds=tuple(args.T), draws=args.draws)
        report.update(rows=io.to_jsonable(rows))
    return qq, clean


# --- diagnose -------------------------------------------------------------------

#: what diagnose says of an explicit frame spec, in its help and its error
_DIAGNOSE_TYPES = ("diagnose builds one frame per --n-list size, so it takes wavelet, "
                   "cyclespin, ti and sine specs")


def cmd_diagnose(args):
    if args.delta is not None and args.delta > args.rho:
        raise CliError(EXIT_VALIDATION, f"--delta {args.delta} is above --rho {args.rho}",
                       "--delta")
    template = _read("--frame-spec", load_frame_spec, args.frame_spec)
    if template["type"] == "explicit":
        raise CliError(EXIT_VALIDATION, _DIAGNOSE_TYPES, "--frame-spec")
    frames = [_read("--n-list", frame_from_spec, {**template, "n": n}) for n in args.n_list]
    try:
        stab = stability_check(frames, args.rho)
    except (ValueError, FrameError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc), "--n-list")
    report = {"stability": io.to_jsonable(stab)}
    if args.T:
        largest = frames[-1]
        gram = frame_gram(largest)
        m = gram.shape[0]
        report["rest_sum"] = rest_sum(gram, m)
        if args.delta is not None:
            r1, r2, r3 = rest_split(gram, m, args.rho, args.delta)
            report["rest_split"] = {"R1": r1, "R2": r2, "R3": r3}
        report["comparison_bounds"] = [
            io.to_jsonable(comparison_bound(gram, T, flavor=args.flavor))
            for T in args.T]
    return [_write("--out", io.write_report, args.out, report)]


# --- replay ---------------------------------------------------------------------

def cmd_replay(args):
    manifest = _read("manifest", io.read_report, args.manifest)
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if (not isinstance(command, list) or not command
            or not all(isinstance(arg, str) for arg in command)):
        raise CliError(EXIT_PARSE, "manifest must be a JSON object whose command is a "
                       "non-empty list of strings", "manifest")
    if command[0] == "replay":  # no run writes such a manifest; it may replay itself
        raise CliError(EXIT_PARSE, "manifest command is itself a replay", "manifest")
    return _dispatch(command)


# --- wiring ---------------------------------------------------------------------

#: the first flag an argparse error message names ("argument --n: ...",
#: "unrecognized arguments: --x ...", "... are required: --seed, ...")
_USAGE_FLAG = re.compile(r"(?:argument |arguments: |required: )(--?[\w-]+)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing or unknown flag, a
    value of the wrong type) take the exit-code contract's exit 2 with a JSON
    error instead of argparse's usage text; subparsers inherit the class.
    A flag is taken only by its full name: a prefix such as --c or --w is
    an unrecognized argument, not --clean or --wavelet."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        flag = _USAGE_FLAG.search(message)
        raise CliError(EXIT_VALIDATION, f"{self.prog}: {message}", flag and flag.group(1))


def _ranged(convert, ok, rule):
    """An argparse type that converts the text and requires ok(value).  A
    failure reads `argument --flag: ...`, which the parser turns into exit 2
    naming the flag."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {rule}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value: ..."
    return parse


_POSITIVE = _ranged(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_NONNEGATIVE = _ranged(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
_FINITE = _ranged(float, math.isfinite, "a finite number")
_PROBABILITY = _ranged(float, lambda x: 0 < x < 1, "in (0, 1)")
_COUNT = _ranged(int, lambda k: k >= 1, "an integer >= 1")
_SEED = _ranged(int, lambda k: 0 <= k < 2 ** 64, "an integer in [0, 2^64)")


def build_parser():
    p = _Parser(prog="framethresh", description="Frame thresholding toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True)

    t = sub.add_parser("thresholds", help="print the threshold-rule table")
    t.add_argument("--sigma", type=_POSITIVE, default=1.0)
    t.add_argument("--n", type=_ranged(int, lambda n: n >= 2, "an integer >= 2"),
                   required=True)
    t.add_argument("--M", type=int, default=None)
    t.add_argument("--alpha", type=_PROBABILITY, action="append", default=None)
    t.add_argument("--wavelet", type=str, default=None)
    t.add_argument("--out", type=str, default=None)
    t.set_defaults(func=cmd_thresholds)

    d = sub.add_parser("denoise", help="threshold a signal in a frame")
    d.add_argument("--input", required=True)
    d.add_argument("--frame-spec", required=True)
    d.add_argument("--rule", default="soft", choices=("soft", "hard", "garrote"))
    d.add_argument("--threshold-rule", default="universal",
                   choices=("universal", "evt", "from_zn", "cyclespin", "ti", "fixed"))
    d.add_argument("--alpha", type=_PROBABILITY, default=None)
    d.add_argument("--z", type=_FINITE, default=None)
    d.add_argument("--fixed-value", type=float, default=None)
    d.add_argument("--sigma", type=_POSITIVE, default=1.0)
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
    s.add_argument("--alpha", type=_PROBABILITY, default=None)
    s.add_argument("--trials", type=_COUNT, default=10 ** 4)
    s.add_argument("--seed", type=_SEED, required=True)
    s.add_argument("--sigma", type=_POSITIVE, default=1.0)
    s.add_argument("--out", required=True)
    s.add_argument("--qq", default=None)
    s.add_argument("--T", type=_NONNEGATIVE, action="append", default=None)
    s.add_argument("--z", type=_FINITE, action="append", default=None)
    s.add_argument("--mu", type=_FINITE, action="append", default=None)
    s.add_argument("--clean", default=None)
    s.add_argument("--norm-spec", default='{"kind":"pqr_wavelet","p":1,"q":1,"r":0}')
    s.add_argument("--use-cyclespin-rule", action="store_true")
    s.add_argument("--matrices", type=_COUNT, default=20)
    s.add_argument("--dim", type=_COUNT, default=8)
    s.add_argument("--draws", type=_COUNT, default=10 ** 6)
    s.set_defaults(func=cmd_simulate)

    g = sub.add_parser("diagnose", help="stability census and comparison bounds")
    g.add_argument("--frame-spec", required=True, help=_DIAGNOSE_TYPES)
    g.add_argument("--n-list", type=int, nargs="+", required=True)
    g.add_argument("--rho", type=_PROBABILITY, default=0.5)
    g.add_argument("--delta", type=_ranged(float, lambda x: 0 < x < 1 / 3, "in (0, 1/3)"),
                   default=None)
    g.add_argument("--T", type=_FINITE, action="append", default=None)
    g.add_argument("--flavor", default="abs", choices=("abs", "normal"))
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
        try:
            _dispatch(argv)
        except FrameError as exc:  # a library check on a frame that no flag gave
            raise CliError(EXIT_VALIDATION, str(exc))
    except CliError as exc:
        error = {"kind": exc.kind, "code": exc.code, "message": str(exc), "flag": exc.flag}
        print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
