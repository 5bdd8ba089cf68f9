"""framethresh benchmark: one workload per process, seeded, self-checking.

    python3 benchmarks/run.py --workload mc-analysis --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1        # the four, one process each
    python3 benchmarks/run.py --smoke                        # tiny self-check
    python3 benchmarks/run.py --record-reference             # rewrite reference.json

A run sets up its workload several times (reporting the median), runs
rounds of timed work for --seconds, checks every output and a fixed-seed
reference computation, and prints a report line and, as its last line, the
result object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, and every timed call is paired with the
same call on the frozen copy of the program in baseline/, run in a second
process right before or after it; `speedup` compares the two.  With
--trace 1 the run repeats its rounds with every public framethresh function
wrapped in a span and reports per-layer metrics, per round, together with
the tracing overhead.  The program comes from src/ of the checkout the
script lives in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# No huge-page advice on numpy's large arrays, in every process of a run
# (numpy reads this when it loads).  With it, whether an array gets huge
# pages depends on the host's free memory at that moment, and a process
# whose long-lived arrays did not can run the same calls up to 20% slower.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: frozen copy of src/framethresh at the commit that introduced the benchmark
BASELINE = HERE / "baseline"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("mc-analysis", "mc-risk", "denoise-4096", "diagnose-census")

E2E_UNITS = {"setup_s": "s", "speedup": "x", "peak_rss_mb": "MB"}

LAYERS = ("rng", "transforms", "core", "shrink", "evt", "norms", "simulate", "diagnostics")
FRAMES = ("wavelet", "cyclespin", "ti", "sine")
#: span name -> the per-round stats reported for it
SPAN_STATS = {"rng.normal": ("calls", "self_s")}
for _op in ("analyze", "dual_synthesize"):
    for _f in FRAMES:
        SPAN_STATS[f"transforms.{_f}.{_op}"] = ("calls", "self_s")
    SPAN_STATS[f"core.explicit.{_op}"] = ("calls", "self_s")
for _f in ("wavelet", "cyclespin", "ti"):
    SPAN_STATS[f"transforms.{_f}.atom"] = ("calls", "self_s")
SPAN_STATS.update({
    "transforms.cyclespin.distinct_positions": ("self_s",),
    "core.frame_bounds": ("calls", "self_s"),
    "core.gram_coherence_counts": ("calls", "self_s"),
    "shrink.shrink_value": ("calls", "self_s"),
    "shrink.denoise": ("calls", "self_s"),
    "evt.resolve": ("self_s",),
    "norms.evaluate": ("calls", "self_s"),
})
for _d in ("stability_check", "frame_gram", "rest_sum", "rest_split", "comparison_bound"):
    SPAN_STATS[f"diagnostics.{_d}"] = ("calls", "self_s")
for _e in ("sample_max_abs", "smoothness_experiment", "oracle_risk_experiment"):
    SPAN_STATS[f"simulate.{_e}"] = ("self_s",)
#: counters recorded by the tracer, per round
COUNTERS = ("core.gram_coherence_counts.entries", "diagnostics.offdiag_terms",
            "simulate.sample_max_abs.trials", "simulate.smoothness_experiment.trials",
            "simulate.oracle_risk_experiment.trials")
#: constructor self time per set-up (median over the set-ups)
BUILDS = {f"transforms.{f}.build_s": f"transforms.{f}.build" for f in FRAMES}
BUILDS["core.explicit.build_s"] = "core.explicit.build"
BUILDS["transforms.sine.dual_synthesize.first_s"] = "transforms.sine.dual_synthesize.first"


def per_layer_units():
    """{metric name: unit} of every per-layer metric, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = "s" if stat == "self_s" else "count"
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "s" for name in BUILDS})
    units.update({f"{layer}.failed": "count" for layer in LAYERS})
    units.update({"tracing.overhead_s": "s", "tracing.overhead_frac": "fraction"})
    return units


def fail(message, code=2):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def import_program(src=SRC):
    if not (src / "framethresh" / "__init__.py").is_file():
        fail(f"no framethresh package under {src.relative_to(ROOT)}/ of this checkout")
    sys.path.insert(0, str(src))
    import framethresh
    if Path(framethresh.__file__).resolve().parent != src / "framethresh":
        fail(f"framethresh imported from {framethresh.__file__}, not from {src}")


# --- provenance -------------------------------------------------------------------

def provenance(seed, threads=None):
    import scipy
    return {"git_commit": _git_commit(), "source_sha256": _source_digest(SRC),
            "baseline_sha256": _source_digest(BASELINE),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": threads,
            "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS") if k in os.environ},
            "numpy_madvise_hugepage": bool(np._core.multiarray._get_madvise_hugepage()),
            "machine": platform.machine(), "seed": seed}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "framethresh").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


#: OpenBLAS builds that numpy and scipy load: (directory next to numpy's,
#: name pattern of their thread getter and setter)
OPENBLAS = (("numpy.libs", "scipy_openblas_{}_num_threads64_"),
            ("scipy.libs", "scipy_openblas_{}_num_threads"))


def _openblas():
    """[(library, symbol pattern)] of the OpenBLAS builds found."""
    site = Path(np.__file__).resolve().parent.parent
    return [(ctypes.CDLL(str(lib)), pattern) for libs, pattern in OPENBLAS
            for lib in sorted((site / libs).glob("libscipy_openblas*.so"))]


def blas_threads():
    """{library file: threads} of the OpenBLAS builds found."""
    out = {}
    for lib, pattern in _openblas():
        get = getattr(lib, pattern.format("get"))
        get.restype = ctypes.c_int
        out[Path(lib._name).name] = get()
    return out


def single_blas_thread():
    """One BLAS thread from here on (set-ups keep the library default).  The
    timed phase runs the program and its frozen copy by turns, and a
    multi-threaded BLAS leaves its workers spinning after each call, on the
    core the other process needs next."""
    for lib, pattern in _openblas():
        put = getattr(lib, pattern.format("set"))
        put.argtypes = [ctypes.c_int]
        put.restype = None
        put(1)


# --- one workload -------------------------------------------------------------------

def timed_cpu():
    """The one CPU that the timed phase runs on (the last one allowed).  The
    program and its frozen copy both run there: CPUs of a shared host differ
    in speed by up to 1.6x, and the difference lasts for minutes."""
    return max(os.sched_getaffinity(0))


class Baseline:
    """The frozen copy of the program, set up in a process of its own
    (`--worker`), then moved to `timed_cpu` with one BLAS thread and driven
    one call at a time over a pipe.  The two processes never compute at the
    same time."""

    def __init__(self, args):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload",
               args.workload, "--seed", str(args.seed), "--size", args.size,
               "--cpu", str(timed_cpu())]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        try:
            self.setup_s = self._read()["setup_s"]
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """End the worker (its input closes) and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def call(self, index, position):
        """Call `position` of round `index`, as a Unit without output."""
        import workloads as wl
        self.proc.stdin.write(f"{index} {position}\n")
        self.proc.stdin.flush()
        return wl.Unit(output=None, **self._read())

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            fail(f"the baseline process ended (exit {self.proc.poll()})")
        return json.loads(line)


def serve_baseline(args):
    """Worker side of Baseline: one set-up, then one timed call per line
    read ("<round> <position>"), answered with its label, work, seconds,
    error and digest."""
    reply, sys.stdout = sys.stdout, sys.stderr  # the pipe carries replies only
    wl, _, workload, _ = load_workload(args)
    t = time.perf_counter()
    workload.setup(0)
    setup_s = time.perf_counter() - t
    single_blas_thread()
    os.sched_setaffinity(0, {args.cpu})
    print(json.dumps({"setup_s": setup_s}), file=reply, flush=True)
    current, calls = None, []
    for line in sys.stdin:
        index, position = map(int, line.split())
        if index != current:
            current, calls = index, workload.calls(index)
        u = wl.timed_call(*calls[position])
        print(json.dumps({"label": u.label, "count": u.count, "seconds": u.seconds,
                          "error": u.error, "digest": u.digest}), file=reply, flush=True)
    return 0


def timed_phase(workload, seconds, rounds=None, base=None):
    """Rounds of timed work: a fixed number, or as many as fit in `seconds`
    (the next round starts only if a median round still fits; at least
    one).  With `base`, each call is paired with the same call on the
    frozen copy, whose units come back in the second list.  The copy's
    call comes right after the program's where round + position is even
    and right before it where it is odd, so that what is left of an effect
    of the order cancels in a label's median ratio."""
    from workloads import timed_call

    units, paired, times = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        index = len(times)
        for position, call in enumerate(workload.calls(index)):
            copy_first = base is not None and (index + position) % 2 == 1
            if copy_first:
                paired.append(base.call(index, position))
            units.append(timed_call(*call))
            if base is not None and not copy_first:
                paired.append(base.call(index, position))
        times.append(time.perf_counter() - t)
        if rounds is not None:
            if len(times) == rounds:
                break
        elif time.perf_counter() - start + statistics.median(times) > seconds:
            break
    return units, paired, len(times), time.perf_counter() - start


def load_workload(args):
    """The workload module, the recorded references, the workload, and the
    seconds from script start to here (imports and reading the references)."""
    import workloads as wl
    recorded = json.loads(REFERENCE.read_text())
    workload = wl.WORKLOADS[args.workload](args.size, args.seed, recorded)
    return wl, recorded, workload, time.perf_counter() - _T0


def import_probe(args):
    """The import time of a fresh process taking this run's import path."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--size", args.size, "--import-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"import probe failed (exit {res.returncode}): {res.stderr[-500:]}")
    return float(res.stdout.split()[-1])


def run_workload(args):
    from tracing import Tracer

    wl, recorded, workload, import_s = load_workload(args)
    import_times = [import_s]
    tracer = Tracer() if args.trace else None
    threads = {"setup": blas_threads()}

    setup_times = []
    for rep in range(workload.setup_repeats[args.size]):
        workload.release()
        gc.collect()
        if tracer:
            tracer.install()
            tracer.begin(f"setup{rep}")
        t = time.perf_counter()
        workload.setup(rep)
        setup_times.append(time.perf_counter() - t)
        if tracer:
            tracer.end()
            tracer.uninstall()

    single_blas_thread()
    threads["timed"] = blas_threads()
    cpus = os.sched_getaffinity(0)
    if args.trace:
        os.sched_setaffinity(0, {timed_cpu()})
        units, _, rounds, wall = timed_phase(workload, args.seconds)
    else:
        import_times.append(import_probe(args))
        with Baseline(args) as base:
            os.sched_setaffinity(0, {timed_cpu()})
            units, paired, rounds, wall = timed_phase(workload, args.seconds, base=base)
        os.sched_setaffinity(0, cpus)
        import_times.append(import_probe(args))
    checks = []
    if tracer:
        tracer.install()
        tracer.begin("timed")
        traced_units, _, _, traced_wall = timed_phase(workload, args.seconds, rounds)
        tracer.end()
        tracer.uninstall()
        os.sched_setaffinity(0, cpus)
        checks.append(wl.Check("tracing.transparent",
                               [u.digest for u in traced_units] == [u.digest for u in units],
                               "tracing", "traced outputs equal untraced outputs"))

    checks.extend(workload.check(units))
    ref = workload.reference(units)
    if args.corrupt:
        ref = wl.corrupt(ref)
    mismatches = wl.compare(json.loads(json.dumps(ref)),
                            recorded["reference"][workload.reference_key()])
    checks.append(wl.Check("reference", not mismatches, workload.layer,
                           "; ".join(mismatches[:3]) or "matches reference.json"))

    failed_units = [u for u in units if u.error is not None]
    failed_checks = [c for c in checks if not c.ok]
    attempted = sum(u.count for u in units) + len(checks)
    failed = sum(u.count for u in failed_units) + len(failed_checks)
    labels = unit_summary(units)

    report = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "rounds": rounds, "timed_wall_s": wall, "provenance": provenance(args.seed, threads),
              "setup_runs_s": setup_times, "import_runs_s": import_times,
              "named_metrics": named_metrics(args.workload, units, rounds, failed, attempted),
              "labels": {k: {s: v for s, v in e.items() if s != "seconds"}
                         for k, e in labels.items()},
              "checks": {"failed": [vars(c) for c in failed_checks][:20],
                         "passed": {c.name: c.detail for c in checks if c.ok}},
              "failed_checks": len(failed_checks), "failed_units": len(failed_units)}
    if args.trace:
        overhead = work_rate(units) / work_rate(traced_units) - 1.0
        metrics, shares = layer_metrics(tracer, rounds, traced_wall, wall, overhead,
                                        failed_checks)
        report["layer_share"] = shares
        report["traced_wall_s"] = traced_wall
    else:
        ratios, speed = speedup(units, paired)
        report["speedup"] = {"value": speed, "by_label": ratios,
                             "same_output": sum(u.digest == b.digest
                                                for u, b in zip(units, paired)),
                             "baseline_setup_s": base.setup_s,
                             "baseline_work_per_s": work_rate(paired)}
        values = {"setup_s": statistics.median(import_times) + statistics.median(setup_times),
                  "speedup": speed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    saved = dict(report, unit_seconds={k: e["seconds"] for k, e in labels.items()})
    if not args.trace:
        saved["pairs"] = [[u.label, u.seconds, b.seconds] for u, b in zip(units, paired)]
    (OUT / f"{stem}.json").write_text(json.dumps(saved, default=str) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"report": report}, default=str))
    result = {"correct": not failed_checks and not failed_units, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def named_metrics(workload, units, rounds, failed, attempted):
    """The program's own figures under the names the benchmark was
    specified with (trials_per_s, denoise_ms_p50/p99, diagnose_s,
    error_rate), with the sample count behind each timing; the report line
    carries them, ungated."""
    out = {"error_rate": {"value": failed / attempted, "unit": "fraction",
                          "samples": attempted}}
    if workload.startswith("mc-"):
        work = sum(u.count for u in units)
        out["trials_per_s"] = {"value": work_rate(units), "unit": "trials/s",
                               "samples": len(units), "trials": work}
    elif workload == "denoise-4096":
        ms = np.array([u.seconds * 1e3 for u in units])
        p99 = float(np.percentile(ms, 99))
        out["denoise_ms_p50"] = {"value": float(np.median(ms)), "unit": "ms", "samples": len(ms)}
        out["denoise_ms_p99"] = {"value": p99, "unit": "ms", "samples": len(ms),
                                 "beyond": int(np.count_nonzero(ms > p99))}
    else:
        per_job = len(units) // rounds
        jobs = [sum(u.seconds for u in units[k:k + per_job])
                for k in range(0, len(units), per_job)]
        out["diagnose_s"] = {"value": statistics.median(jobs), "unit": "s",
                             "samples": len(jobs)}
    return out


def unit_summary(units):
    """Per label: calls, work, busy seconds, each call's wall seconds per
    unit of work (MC trial, denoise call or diagnostic call) and the output
    digest sequence."""
    out = {}
    for u in units:
        entry = out.setdefault(u.label, {"calls": 0, "work": 0, "busy_s": 0.0, "digest": "",
                                         "seconds": []})
        entry["calls"] += 1
        entry["work"] += u.count
        entry["busy_s"] += u.seconds
        entry["seconds"].append(u.seconds / u.count)
        entry["digest"] = hashlib.sha256((entry["digest"] + u.digest).encode()).hexdigest()[:16]
    return out


def work_rate(units):
    """Units of work per wall-second of the calls."""
    return sum(u.count for u in units) / sum(u.seconds for u in units)


def speedup(units, paired):
    """Work per second of the program relative to the frozen copy, on the
    same calls.  Per label, the ratio is the median over its pairs of the
    copy's seconds over the program's.  The speedup is the copy's busy
    seconds over the program's busy seconds estimated from those ratios: a
    harmonic mean weighted by the copy's time per label.  Without noise it
    is the copy's busy seconds over the program's.  Returns ({label:
    {"ratio", "pairs", "baseline_s"}}, speedup)."""
    pairs = {}
    for u, b in zip(units, paired):
        if u.error is None and b.error is None:
            pairs.setdefault(u.label, []).append((b.seconds, u.seconds))
    out = {label: {"ratio": statistics.median(b / s for b, s in p), "pairs": len(p),
                   "baseline_s": sum(b for b, _ in p)} for label, p in pairs.items()}
    if not out:
        return out, 0.0
    base_s = sum(e["baseline_s"] for e in out.values())
    return out, base_s / sum(e["baseline_s"] / e["ratio"] for e in out.values())


def layer_metrics(tracer, rounds, traced_wall, wall, overhead_frac, failed_checks):
    """Per-layer metrics of the traced replay, per round.  The overhead is
    the traced minus the untraced wall time of the same rounds, and as a
    fraction, the ratio of their call seconds minus one."""
    stats, counts = tracer.layer_stats("timed")
    units = per_layer_units()
    values = {}
    for span, wanted in SPAN_STATS.items():
        entry = stats.get(span, {"calls": 0, "self_s": 0.0})
        for stat in wanted:
            values[f"{span}.{stat}"] = entry[stat] / rounds
    for name in COUNTERS:
        values[name] = counts.get(name, 0.0) / rounds
    setups = [p for p in tracer.phases if p.startswith("setup")]
    for metric, span in BUILDS.items():
        per_setup = [tracer.layer_stats(p)[0].get(span, {"self_s": 0.0})["self_s"] for p in setups]
        values[metric] = statistics.median(per_setup)
    for layer in LAYERS:
        raised = sum(e["failed"] for name, e in stats.items() if name.split(".")[0] == layer)
        values[f"{layer}.failed"] = raised + sum(1 for c in failed_checks if c.layer == layer)
    values["tracing.overhead_s"] = traced_wall - wall
    values["tracing.overhead_frac"] = overhead_frac
    shares = {layer: sum(e["self_s"] for name, e in stats.items()
                         if name.split(".")[0] == layer) / traced_wall for layer in LAYERS}
    shares["benchmark"] = 1.0 - sum(shares.values())
    return {k: {"value": values[k], "unit": units[k]} for k in units}, shares


# --- several workloads ------------------------------------------------------------------

def child(args, workload, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    except (IndexError, ValueError, KeyError):
        result, report = None, {}
    return res, result, report


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res, result, report = child(args, name, "--trace", str(args.trace), "--size", args.size)
        if result is None:
            print(f"{name}: no result (exit {res.returncode})\n{res.stderr[-2000:]}")
            combined["correct"] = False
            continue
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}")
        shown = dict(report.get("named_metrics", {}))
        shown.update(result["metrics"])
        for metric, m in shown.items():
            extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
            print(f"   {metric:<45} {m['value']:>14.6g} {m['unit']:<9} {extra or ''}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def smoke(args):
    """Each workload at tiny size: every named metric is emitted with its
    unit, no operation fails, and a corrupted output is counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    args.seconds = 0.5
    for name in WORKLOAD_NAMES:
        for trace, corrupted, want in ((0, False, e2e), (1, False, layer), (0, True, e2e)):
            extra = ["--trace", str(trace), "--size", "tiny"] + (["--corrupt"] if corrupted else [])
            res, result, _ = child(args, name, *extra)
            tag = f"{name} trace={trace}{' corrupt' if corrupted else ''}"
            if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: no result line (exit {res.returncode}) {res.stderr[-500:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))[:6]}")
            if corrupted and (result["correct"] or result["failed"] < 1 or res.returncode == 0):
                problems.append(f"{tag}: corrupted output was not counted as failed")
            if not corrupted and (not result["correct"] or result["failed"] or res.returncode):
                problems.append(f"{tag}: {result['failed']} failed operations")
            print(f"smoke {tag}: attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print(json.dumps({"smoke": "pass" if not problems else "fail", "problems": len(problems)}))
    return 1 if problems else 0


def record_reference(args):
    """Recompute reference.json at this commit: the MC workloads once, the
    size-dependent workloads at both sizes."""
    import workloads as wl
    recorded = {"ref_seed": wl.REF_SEED, "provenance": provenance(wl.REF_SEED),
                "cyclespin_population": wl.cyclespin_population(), "reference": {}}
    for name in WORKLOAD_NAMES:
        for size in ("tiny", "full"):
            workload = wl.WORKLOADS[name](size, 0, recorded)
            key = workload.reference_key()
            if key not in recorded["reference"]:
                workload.setup(0)
                recorded["reference"][key] = json.loads(json.dumps(workload.reference([])))
                print(f"recorded {key}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb the reference output by 1e-6 (used by --smoke)")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not args.seconds > 0:
        fail("--seconds must be > 0")
    import_program(BASELINE if args.worker else SRC)
    if args.worker:
        return serve_baseline(args)
    if args.smoke:
        return smoke(args)
    if args.record_reference:
        return record_reference(args)
    if args.import_probe:
        print(load_workload(args)[3])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
