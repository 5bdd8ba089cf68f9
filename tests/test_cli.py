import hashlib
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
import scipy

from framethresh import evt
from framethresh import io as ftio
from framethresh.cli import main
from framethresh.core import CoefficientVector
from framethresh.signals import sine_superposition


def run_cli(args):
    """The `python -m framethresh.cli` entry point in a subprocess."""
    proc = subprocess.run([sys.executable, "-m", "framethresh.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, args):
    """main(args) in this process: (exit code, stdout, stderr)."""
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_thresholds_table(tmp_path):
    out = tmp_path / "table.json"
    code = main(["thresholds", "--n", "1024", "--alpha", "0.1", "--M", "4",
                 "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    rows = {r["rule"]: r for r in table["rows"]}
    assert rows["universal"]["threshold"] == pytest.approx(3.7232974110590341)
    assert rows["evt"]["threshold"] == pytest.approx(3.9139795456832504)
    assert rows["cyclespin"]["threshold"] == pytest.approx(
        0.26857913553447924 * 2.2503673273124453 + 3.495742704831589)


def test_thresholds_scale_linearly_in_sigma(tmp_path):
    t1 = tmp_path / "s1.json"
    t2 = tmp_path / "s2.json"
    main(["thresholds", "--n", "512", "--alpha", "0.05", "--sigma", "1",
          "--out", str(t1)])
    main(["thresholds", "--n", "512", "--alpha", "0.05", "--sigma", "2",
          "--out", str(t2)])
    r1 = json.loads(t1.read_text())["rows"]
    r2 = json.loads(t2.read_text())["rows"]
    for a, b in zip(r1, r2):
        assert b["threshold"] == pytest.approx(2 * a["threshold"], rel=1e-12)


@pytest.mark.parametrize("wavelet, c", [("cdf97", 6.46687), ("cdf97r", 4.87076),
                                        ("haar", None), ("d4", None)])
def test_thresholds_ti_rows_follow_the_wavelet(tmp_path, wavelet, c):
    # a ti row for each alpha when the wavelet has the constant c; haar and
    # d4 have none, and the table still prints
    out = tmp_path / "table.json"
    code = main(["thresholds", "--n", "1024", "--alpha", "0.1", "--alpha", "0.05",
                 "--wavelet", wavelet, "--out", str(out)])
    assert code == 0
    ti = [row for row in json.loads(out.read_text())["rows"] if row["rule"] == "ti"]
    if c is None:
        assert ti == []
    else:
        assert [row["alpha"] for row in ti] == [0.1, 0.05]
        assert all(row["c"] == pytest.approx(c, abs=1e-5) for row in ti)


def test_thresholds_validation_names_flag(tmp_path):
    # through `python -m`: the process exit status is main's return code
    proc_code, _, err = run_cli(["thresholds", "--n", "1024", "--alpha", "1.5"])
    assert proc_code == 2
    payload = json.loads(err)
    assert payload["error"]["flag"] == "--alpha"
    assert payload["error"]["kind"] == "validation"


def test_denoise_example_fixture(tmp_path):
    n = 1024
    clean = sine_superposition(n, (150, 380))
    noise = np.random.default_rng(5).standard_normal(n)
    inp = tmp_path / "noisy.csv"
    clean_path = tmp_path / "clean.csv"
    ftio.write_signal(inp, clean + noise)
    ftio.write_signal(clean_path, clean)
    out = tmp_path / "est.csv"
    rep = tmp_path / "report.json"
    code = main(["denoise", "--input", str(inp),
                 "--frame-spec", json.dumps({"type": "sine", "n": n}),
                 "--rule", "soft", "--threshold-rule", "universal",
                 "--sigma", "1.0", "--output", str(out),
                 "--report", str(rep), "--clean", str(clean_path)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["kept_count"] == 2  # the two on-grid sine coefficients
    assert report["mse"] < report["input_mse"]
    assert (tmp_path / "est.csv.manifest.json").exists()


def test_denoise_evt_counts_a_repeated_explicit_atom_once(tmp_path):
    """The evt rule fits |Omega| = 2 to the explicit frame [[1, 0], [1, 0],
    [0, 1]]: its repeated row is one atom, though analysis keeps all 3."""
    from framethresh import evt
    matrix, sig, rep = tmp_path / "m.csv", tmp_path / "x.csv", tmp_path / "r.json"
    np.savetxt(matrix, [[1, 0], [1, 0], [0, 1]], delimiter=",")
    ftio.write_signal(sig, np.array([0.5, -4.0]))
    code = main(["denoise", "--input", str(sig),
                 "--frame-spec", json.dumps({"type": "explicit", "matrix_path": str(matrix)}),
                 "--threshold-rule", "evt", "--alpha", "0.1",
                 "--output", str(tmp_path / "o.csv"), "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["atom_count"] == 3
    assert report["threshold_used"] == evt.evt_threshold(1.0, 0.1, 2)


_HAAR64 = '{"type":"wavelet","n":64,"filters":"haar"}'
_CS64 = '{"type":"cyclespin","n":64,"M":4,"filters":"haar","coarsest_level":1}'
_TI64 = '{"type":"ti","n":64,"filters":"cdf97r"}'
_SINE64 = '{"type":"sine","n":64,"oversample":2}'


def _recompute_threshold(report, config):
    """threshold_used from the denoise report and the manifest's config alone."""
    from framethresh import evt
    rule, sigma = report["threshold_rule"], config["sigma"]
    if rule == "fixed":
        return config["fixed_value"]
    if rule == "universal":
        return evt.universal_threshold(sigma, report["m"])
    if rule == "evt":
        return evt.evt_threshold(sigma, config["alpha"], report["m"])
    if rule == "from_zn":
        return evt.threshold_from_zn(sigma, report["m"], config["z"])
    if rule == "cyclespin":
        return evt.cyclespin_threshold(sigma, config["alpha"], report["n"], report["M"])
    return evt.ti_threshold(sigma, config["alpha"], report["n"], report["c"])


@pytest.mark.parametrize("spec, rule, extra", [
    (_HAAR64, "universal", []), (_HAAR64, "evt", ["--alpha", "0.1"]),
    (_HAAR64, "from_zn", ["--z", "1.5"]), (_HAAR64, "fixed", ["--fixed-value", "0.7"]),
    (_CS64, "cyclespin", ["--alpha", "0.1"]), (_CS64, "evt", ["--alpha", "0.05"]),
    (_TI64, "ti", ["--alpha", "0.1"]), (_TI64, "universal", []),
    (_SINE64, "evt", ["--alpha", "0.1"]), (_SINE64, "from_zn", ["--z", "-0.5"])],
    ids=["haar-universal", "haar-evt", "haar-from_zn", "haar-fixed", "cyclespin-cyclespin",
         "cyclespin-evt", "ti-ti", "ti-universal", "sine-evt", "sine-from_zn"])
def test_denoise_report_recomputes_its_threshold(tmp_path, spec, rule, extra):
    # the report holds m, M and c where the rule uses them, and the manifest's
    # config sigma, alpha, z and the fixed value: together every input
    sig, out, rep = tmp_path / "x.csv", tmp_path / "o.csv", tmp_path / "r.json"
    ftio.write_signal(sig, np.random.default_rng(3).standard_normal(64))
    code = main(["denoise", "--input", str(sig), "--frame-spec", spec, "--sigma", "0.75",
                 "--threshold-rule", rule, *extra, "--output", str(out), "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    config = json.loads((tmp_path / "o.csv.manifest.json").read_text())["config"]
    assert "c" not in config and report["threshold_used"] == _recompute_threshold(report, config)
    assert ("m" in report, "M" in report, "c" in report) == (
        rule != "fixed", rule == "cyclespin", rule == "ti")
    if spec == _CS64 and rule != "fixed":
        assert report["m"] < report["atom_count"]  # shifts repeat coarse atoms


def test_thresholds_ti_row_is_the_denoise_ti_threshold(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["thresholds", "--n", "1024", "--wavelet", "cdf97r"])
    assert code == 0
    ti_row, = (row for row in json.loads(out)["rows"] if row["rule"] == "ti")
    sig, rep = tmp_path / "x.csv", tmp_path / "r.json"
    ftio.write_signal(sig, np.zeros(1024))
    code = main(["denoise", "--input", str(sig), "--frame-spec",
                 '{"type":"ti","n":1024,"filters":"cdf97r"}', "--threshold-rule", "ti",
                 "--alpha", "0.1", "--output", str(tmp_path / "o.csv"), "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert (report["threshold_used"], report["c"]) == (ti_row["threshold"], ti_row["c"])


def test_thresholds_out_writes_a_manifest_that_replays(tmp_path, capsys):
    out = tmp_path / "table.json"
    args = ["thresholds", "--n", "1024", "--alpha", "0.05", "--M", "4", "--wavelet", "cdf97r",
            "--out", str(out)]
    assert main(args) == 0
    table = out.read_bytes()
    manifest = json.loads((tmp_path / "table.json.manifest.json").read_text())
    assert manifest["command"] == args
    assert manifest["output_sha256"] == {str(out): hashlib.sha256(table).hexdigest()}
    out.unlink()
    assert main(["replay", str(tmp_path / "table.json.manifest.json")]) == 0
    assert out.read_bytes() == table
    # printed to stdout, the table has no file to go next to
    code, printed, _ = run_main(capsys, args[:-2])
    assert code == 0 and json.loads(printed) == json.loads(table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json",
                                                          "table.json.manifest.json"]


def test_thresholds_take_a_count_past_the_float_range():
    code, out, err = run_cli(["thresholds", "--n", str(10 ** 400), "--M", "4",
                              "--wavelet", "cdf97r"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["rule"] for row in rows] == ["universal", "evt", "cyclespin", "ti"]
    assert all(math.isfinite(row["threshold"]) for row in rows)


def test_simulate_sidak_reference_is_the_frames_count(tmp_path):
    from framethresh.simulate import exact_independent_coverage
    from framethresh.transforms import frame_from_spec
    out = tmp_path / "sidak.json"
    code = main(["simulate", "--experiment", "sidak", "--frame-spec", _CS64,
                 "--trials", "50", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    frame = frame_from_spec(_CS64)
    assert report["reference_m"] == frame.evt_count < frame.atom_count
    for row in report["rows"]:
        assert row["exact_independent"] == exact_independent_coverage(
            row["threshold"], frame.evt_count)


def test_denoise_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run_main(capsys, ["denoise", "--input", str(tmp_path / "nope.csv"),
                                     "--frame-spec", '{"type":"sine","n":64}',
                                     "--output", str(tmp_path / "o.csv")])
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "io"


def test_denoise_bad_frame_spec_is_parse_error(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.zeros(16))
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig),
                                     "--frame-spec", "{not json",
                                     "--output", str(tmp_path / "o.csv")])
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "parse"


def test_simulate_deterministic_reports(tmp_path):
    spec = json.dumps({"type": "wavelet", "n": 64})
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"gumbel_{tag}.json"
        code = main(["simulate", "--experiment", "gumbel", "--frame-spec", spec,
                     "--trials", "200", "--seed", "99", "--out", str(out)])
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_requires_seed(tmp_path, capsys):
    code, out, err = run_main(capsys, ["simulate", "--experiment", "gumbel",
                                       "--frame-spec", '{"type":"wavelet","n":64}',
                                       "--out", str(tmp_path / "r.json")])
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--seed"
    assert "required" in payload["message"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("args, flag", [
    (["thresholds", "--n", "abc"], "--n"),
    (["thresholds", "--n", "64", "--bogus", "1"], "--bogus"),
    (["simulate", "--experiment", "nope", "--seed", "1", "--out", "r.json"], "--experiment"),
    ([], None),
    (["bogus"], None)],
    ids=["bad-int", "unknown-flag", "bad-choice", "no-subcommand", "unknown-subcommand"])
def test_usage_errors_are_validation_errors(capsys, args, flag):
    code, out, err = run_main(capsys, args)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == flag


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--experiment" in capsys.readouterr().out


def test_replay_of_a_removed_flag_is_validation_error(tmp_path, capsys):
    manifest = tmp_path / "old.json.manifest.json"
    manifest.write_text(json.dumps({"command": [
        "simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":64}',
        "--trials", "20", "--seed", "1", "--parallel", "--out", str(tmp_path / "old.json")]}))
    code, _, err = run_main(capsys, ["replay", str(manifest)])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["flag"] == "--parallel" and "unrecognized" in payload["message"]
    assert not (tmp_path / "old.json").exists()


def test_simulate_ti_reports_the_stable_frame_threshold(tmp_path):
    from framethresh import evt
    from framethresh.transforms import TIWaveletFrame
    out = tmp_path / "ti.json"
    code = main(["simulate", "--experiment", "ti",
                 "--frame-spec", '{"type":"ti","n":64,"filters":"cdf97r"}',
                 "--trials", "20", "--seed", "5", "--sigma", "0.5", "--z", "-1",
                 "--z", "2", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    m = TIWaveletFrame(64, "cdf97r").evt_count
    assert m == 64 * 6  # n log2 n at coarsest level 0
    assert [row["z"] for row in rows] == [-1.0, 2.0]
    for row in rows:
        assert row["stable_threshold"] == evt.norms_chi(m).threshold_at(row["z"], 0.5)


def test_simulate_coverage_and_qq(tmp_path):
    out = tmp_path / "cov.json"
    code = main(["simulate", "--experiment", "coverage",
                 "--frame-spec", '{"type":"wavelet","n":128}',
                 "--alpha", "0.1", "--trials", "300", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert 0.7 <= rep["empirical"] <= 1.0
    qq = tmp_path / "qq.csv"
    out2 = tmp_path / "gq.json"
    main(["simulate", "--experiment", "gumbel",
          "--frame-spec", '{"type":"wavelet","n":128}',
          "--trials", "200", "--seed", "4", "--out", str(out2),
          "--qq", str(qq)])
    lines = qq.read_text().strip().splitlines()
    assert lines[0] == "empirical_quantile,gumbel_quantile"
    assert len(lines) == 201


def test_diagnose_ti_bounds(tmp_path):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--frame-spec", '{"type":"ti"}',
                 "--n-list", "64", "128", "256", "--rho", "0.5",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    bounds = [round(r["upper_frame_bound"]) for r in rep["stability"]["rows"]]
    assert bounds == [64, 128, 256]
    assert "unstable" in rep["stability"]["verdict"]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_diagnose_sums_equal_sums_on_a_plain_gram(tmp_path, n):
    # diagnose runs every sum on one frame_gram result, which holds its
    # |kappa| histogram; a plain array copy pays the pass on every call
    from framethresh.diagnostics import comparison_bound, frame_gram, rest_split, rest_sum
    from framethresh.transforms import TIWaveletFrame
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--frame-spec", '{"type":"ti","filters":"haar"}',
                 "--n-list", str(n // 4), str(n // 2), str(n), "--rho", "0.5", "--delta", "0.2",
                 "--T", "2", "--T", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    gram = np.array(frame_gram(TIWaveletFrame(n, "haar")))
    m = gram.shape[0]
    assert rep["rest_sum"].hex() == rest_sum(gram, m).hex()
    assert [rep["rest_split"][k].hex() for k in ("R1", "R2", "R3")] == [
        x.hex() for x in rest_split(gram, m, 0.5, 0.2)]
    expected = [comparison_bound(gram, t) for t in (2.0, 3.0)]
    assert [(b["value"].hex(), b["max_term"].hex(), tuple(b["argmax_pair"]))
            for b in rep["comparison_bounds"]] == [
        (b.value.hex(), b.max_term.hex(), b.argmax_pair) for b in expected]


def test_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "sim.json"
    main(["simulate", "--experiment", "risk1d", "--trials", "500",
          "--seed", "123", "--mu", "0.0", "--T", "2.0", "--out", str(out)])
    first = out.read_bytes()
    manifest = tmp_path / "sim.json.manifest.json"
    assert manifest.exists()
    code = main(["replay", str(manifest)])
    assert code == 0
    assert out.read_bytes() == first


def test_signal_roundtrip_csv_and_binary(tmp_path, rng):
    x = rng.standard_normal(37)
    for name in ("sig.csv", "sig.f64"):
        path = tmp_path / name
        ftio.write_signal(path, x)
        back = ftio.read_signal(str(path))
        assert np.array_equal(back, x)


def test_coefficients_roundtrip(tmp_path):
    cv = CoefficientVector(np.array([1.5, -2.25, 0.0]), ("j", "k"),
                           (np.array([0, 1, 1]), np.array([0, 0, 1])))
    path = tmp_path / "coeffs.csv"
    ftio.write_coefficients(path, cv)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["j", "k", "value"]
    rows = [line.split(",") for line in lines[1:]]
    assert np.array_equal([float(r[-1]) for r in rows], cv.values)
    for col, labels in enumerate(cv.labels):
        assert np.array_equal([int(r[col]) for r in rows], labels)


def test_diagnose_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "diag.json"
    main(["diagnose", "--frame-spec", '{"type":"sine","oversample":2}',
          "--n-list", "16", "32", "64", "--rho", "0.5", "--delta", "0.2",
          "--T", "2.0", "--out", str(out)])
    first = out.read_bytes()
    code = main(["replay", str(tmp_path / "diag.json.manifest.json")])
    assert code == 0
    assert out.read_bytes() == first


def test_norm_spec_weights_path(tmp_path):
    from framethresh.norms import NormSpec, evaluate
    wpath = tmp_path / "w.csv"
    ftio.write_signal(wpath, np.array([1.0, 4.0, 9.0]))
    spec = NormSpec.from_json(json.dumps(
        {"kind": "weighted_l2", "weights_path": str(wpath)}))
    val = evaluate(spec, CoefficientVector(np.array([1.0, 1.0, 1.0])))
    assert val == pytest.approx(np.sqrt(14.0))


def test_denoise_nan_input_is_validation_error(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    x = np.zeros(16)
    x[3] = np.nan
    ftio.write_signal(sig, x)
    out = tmp_path / "o.csv"
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig),
                                     "--frame-spec", '{"type":"wavelet","n":16}',
                                     "--output", str(out)])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--input"
    assert not out.exists()


def test_denoise_truncated_binary_input_is_parse_error(tmp_path, capsys):
    sig = tmp_path / "x.f64"
    sig.write_bytes(np.zeros(16).tobytes()[:-3])
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig),
                                     "--frame-spec", '{"type":"wavelet","n":16}',
                                     "--output", str(tmp_path / "o.csv")])
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["kind"] == "parse" and payload["flag"] == "--input"


@pytest.mark.parametrize("spec", ['{"type":"wavelet"}', '{"type":"cyclespin","n":16}'])
def test_denoise_incomplete_frame_spec_is_validation_error(tmp_path, spec, capsys):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.zeros(16))
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig), "--frame-spec", spec,
                                     "--output", str(tmp_path / "o.csv")])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--frame-spec"


def test_denoise_missing_clean_is_io_error(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.zeros(16))
    out = tmp_path / "o.csv"
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig),
                                     "--frame-spec", '{"type":"wavelet","n":16}',
                                     "--output", str(out), "--clean", str(tmp_path / "nope.csv")])
    assert code == 4
    payload = json.loads(err)["error"]
    assert payload["kind"] == "io" and payload["flag"] == "--clean"
    assert not out.exists()


def test_simulate_risk_missing_clean_is_io_error(tmp_path, capsys):
    code, _, err = run_main(capsys, ["simulate", "--experiment", "risk", "--seed", "1",
                                     "--trials", "2", "--alpha", "0.1",
                                     "--frame-spec", '{"type":"wavelet","n":16}',
                                     "--clean", str(tmp_path / "nope.csv"),
                                     "--out", str(tmp_path / "r.json")])
    assert code == 4
    payload = json.loads(err)["error"]
    assert payload["kind"] == "io" and payload["flag"] == "--clean"


@pytest.mark.parametrize("spec, key", [('{"type":"wavelet","n":"16"}', "'n'"),
                                       ('{"type":"sine","n":16.5}', "'n'"),
                                       ('{"type":"sine","n":16,"oversample":null}',
                                        "'oversample'")])
def test_denoise_non_integer_spec_field_is_validation_error(tmp_path, spec, key, capsys):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.zeros(16))
    out = tmp_path / "o.csv"
    code, _, err = run_main(capsys, ["denoise", "--input", str(sig), "--frame-spec", spec,
                                     "--output", str(out)])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--frame-spec"
    assert key in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("content, code, kind", [
    (None, 4, "io"), ("[1, 2]", 2, "validation"), ("{not json", 3, "parse"),
    ('{"type": "ti", "filters": "bogus"}', 2, "validation"),
    ('{"type": "cyclespin"}', 2, "validation")],
    ids=["missing", "list", "bad-json", "unknown-filters", "no-shift-count"])
def test_diagnose_frame_spec_file_errors(tmp_path, content, code, kind, capsys):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    rc, _, err = run_main(capsys, ["diagnose", "--frame-spec", str(spec),
                                   "--n-list", "16", "32", "64", "--out", str(tmp_path / "d.json")])
    assert rc == code
    payload = json.loads(err)["error"]
    assert payload["kind"] == kind and payload["flag"] == "--frame-spec"


def test_simulate_coverage_wavelet_above_dense_limit(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, err = run_main(capsys, ["simulate", "--experiment", "coverage",
                                     "--frame-spec", '{"type":"wavelet","n":8192}',
                                     "--alpha", "0.1", "--trials", "2", "--seed", "1",
                                     "--out", str(out)])
    assert code == 0, err
    assert json.loads(out.read_text())["exact"] is not None


@pytest.mark.parametrize("content", ['[1]', '{"command": "nope"}', '{"command": []}',
                                     '{"command": ["simulate", 3]}',
                                     '{"command": ["replay", "@SELF"]}'],
                         ids=["list", "string-command", "empty-command", "non-string",
                              "replays-itself"])
def test_replay_malformed_manifest_is_parse_error(tmp_path, content, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(content.replace("@SELF", str(manifest.resolve())))
    code, _, err = run_main(capsys, ["replay", str(manifest)])
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["kind"] == "parse" and payload["flag"] == "manifest"


@pytest.mark.parametrize("args", [
    ["--experiment", "risk", "--frame-spec", '{"type":"wavelet","n":64}', "--alpha", "0.1"],
    ["--experiment", "risk1d", "--mu", "0", "--T", "3"]], ids=["risk", "risk1d"])
def test_simulate_risk_single_trial_is_validation_error(tmp_path, args, capsys):
    out = tmp_path / "r.json"
    code, _, err = run_main(capsys, ["simulate", *args, "--trials", "1", "--seed", "1",
                                     "--out", str(out)])
    assert code == 2
    payload = json.loads(err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--trials"
    assert not out.exists()


def test_simulate_manifest_records_versions_and_output_digests(tmp_path):
    out, qq = tmp_path / "g.json", tmp_path / "qq.csv"
    code = main(["simulate", "--experiment", "gumbel",
                 "--frame-spec", '{"type":"wavelet","n":64}', "--trials", "50",
                 "--seed", "3", "--out", str(out), "--qq", str(qq)])
    assert code == 0
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["output_sha256"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, qq)}


@pytest.mark.parametrize("args, flag", [
    (["diagnose", "--frame-spec", '{"type":"ti"}', "--n-list", "16", "32", "64",
      "--T", "nan"], "--T"),
    (["diagnose", "--frame-spec", '{"type":"ti"}', "--n-list", "16", "32", "64",
      "--T", "2", "--T", "inf"], "--T"),
    (["diagnose", "--frame-spec", '{"type":"ti"}', "--n-list", "64", "32", "16"],
     "--n-list"),
    (["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":64}',
      "--trials", "5", "--seed", "1"], "--trials"),
    (["simulate", "--experiment", "risk1d", "--T", "-1", "--trials", "10", "--seed", "1"],
     "--T"),
    (["simulate", "--experiment", "risk1d", "--T", "nan", "--trials", "10", "--seed", "1"],
     "--T"),
    (["simulate", "--experiment", "sidak", "--frame-spec", '{"type":"wavelet","n":64}',
      "--T", "nan", "--trials", "20", "--seed", "1"], "--T"),
    (["simulate", "--experiment", "comparison", "--T", "nan", "--matrices", "2",
      "--draws", "1000", "--seed", "1"], "--T"),
    (["thresholds", "--n", "64", "--sigma", "nan"], "--sigma"),
    (["thresholds", "--n", "64", "--sigma", "inf"], "--sigma"),
    (["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":64}',
      "--trials", "20", "--seed", "1", "--sigma", "nan"], "--sigma"),
    (["simulate", "--experiment", "coverage", "--frame-spec", '{"type":"wavelet","n":64}',
      "--trials", "20", "--seed", "1", "--sigma", "inf"], "--sigma"),
    (["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":64}',
      "--trials", "20", "--seed", "-1"], "--seed"),
    (["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":64}',
      "--trials", "20", "--seed", str(2 ** 64)], "--seed")],
    ids=["diagnose-T-nan", "diagnose-T-inf", "diagnose-decreasing-n", "gumbel-5-trials",
         "risk1d-T-negative", "risk1d-T-nan", "sidak-T-nan", "comparison-T-nan",
         "thresholds-sigma-nan", "thresholds-sigma-inf", "simulate-sigma-nan",
         "coverage-sigma-inf", "simulate-seed-negative", "simulate-seed-2^64"])
def test_invalid_values_are_validation_errors(tmp_path, capsys, args, flag):
    out = tmp_path / "out.json"
    code = main([*args, "--out", str(out)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == flag
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "0"])
def test_denoise_non_finite_sigma_is_validation_error(tmp_path, capsys, sigma):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.zeros(16))
    out = tmp_path / "o.csv"
    code = main(["denoise", "--input", str(sig), "--frame-spec", '{"type":"wavelet","n":16}',
                 "--sigma", sigma, "--output", str(out)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--sigma"
    assert not out.exists()


def test_simulate_accepts_largest_seed(tmp_path):
    out = tmp_path / "r.json"
    code = main(["simulate", "--experiment", "gumbel", "--frame-spec",
                 '{"type":"wavelet","n":16}', "--trials", "10",
                 "--seed", str(2 ** 64 - 1), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("spec, n", [('{"type":"wavelet","n":16}', 16),
                                     ('{"type":"ti","n":16}', 16),
                                     ('{"type":"sine","n":64,"oversample":2}', 64)],
                         ids=["wavelet", "ti", "sine-r2"])
def test_denoise_overflowing_input_writes_nothing(tmp_path, capsys, spec, n):
    # finite input whose coefficients overflow: the estimate would be NaN
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.full(n, 1e308))
    out = tmp_path / "o.csv"
    code = main(["denoise", "--input", str(sig), "--frame-spec", spec,
                 "--output", str(out), "--report", str(tmp_path / "r.json"),
                 "--coeffs", str(tmp_path / "c.csv")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--input"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_denoise_overflowing_input_sine_r3_names_input(tmp_path, capsys):
    # r >= 3 synthesizes by conjugate gradients, which stop at the first
    # non-finite residual instead of running into the iteration cap
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.full(64, 1e308))
    code = main(["denoise", "--input", str(sig),
                 "--frame-spec", '{"type":"sine","n":64,"oversample":3}',
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--input"
    assert "not finite" in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("experiment", ["risk", "smoothness"])
@pytest.mark.parametrize("clean", [np.full(16, 1e308), np.where(np.arange(16) == 3, np.nan, 0.0),
                                   np.zeros(15)], ids=["overflowing", "nan", "short"])
def test_simulate_bad_clean_names_clean(tmp_path, capsys, experiment, clean):
    clean_path = tmp_path / "clean.csv"
    ftio.write_signal(clean_path, clean)
    code = main(["simulate", "--experiment", experiment,
                 "--frame-spec", '{"type":"wavelet","n":16}', "--alpha", "0.1",
                 "--trials", "4", "--seed", "1", "--clean", str(clean_path),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--clean"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv"]


@pytest.mark.parametrize("clean, flag", [(np.where(np.arange(16) == 3, np.nan, 0.0), "--clean"),
                                         (np.full(16, -1e300), "--input")],
                         ids=["nan-clean", "overflowing-mse"])
def test_denoise_non_finite_mse_writes_nothing(tmp_path, capsys, clean, flag):
    sig, clean_path = tmp_path / "x.csv", tmp_path / "clean.csv"
    ftio.write_signal(sig, np.full(16, 1e300))
    ftio.write_signal(clean_path, clean)
    code = main(["denoise", "--input", str(sig), "--frame-spec", '{"type":"wavelet","n":16}',
                 "--clean", str(clean_path), "--output", str(tmp_path / "o.csv"),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == flag
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv", "x.csv"]


@pytest.mark.parametrize("args", [
    ["--experiment", "gumbel", "--frame-spec", '{"type":"sine","n":64,"oversample":2}',
     "--trials", "20", "--qq", "QQ"],
    ["--experiment", "risk", "--frame-spec", '{"type":"wavelet","n":16}',
     "--alpha", "0.1", "--trials", "4"]], ids=["gumbel-sine", "risk"])
def test_simulate_overflowing_sigma_writes_nothing(tmp_path, capsys, args):
    args = [str(tmp_path / "q.csv") if a == "QQ" else a for a in args]
    code = main(["simulate", *args, "--seed", "1", "--sigma", "1e308",
                 "--out", str(tmp_path / "g.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--sigma"
    assert list(tmp_path.iterdir()) == []


_DENOISE = ["denoise", "--input", "SIGNAL", "--frame-spec", '{"type":"wavelet","n":16}']
_GUMBEL = ["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":16}',
           "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("args, flag", [
    (["thresholds", "--n", "16", "--out", "MISSING"], "--out"),
    ([*_DENOISE, "--output", "MISSING"], "--output"),
    ([*_DENOISE, "--output", "OK", "--report", "MISSING"], "--report"),
    ([*_DENOISE, "--output", "OK", "--coeffs", "MISSING"], "--coeffs"),
    ([*_GUMBEL, "--out", "MISSING"], "--out"),
    ([*_GUMBEL, "--out", "OK", "--qq", "MISSING"], "--qq"),
    (["diagnose", "--frame-spec", '{"type":"wavelet"}', "--n-list", "8", "16", "32",
      "--out", "MISSING"], "--out"),
    ([*_DENOISE, "--output", "LONG"], "--output"),
    (["denoise", "--input", "DIR", "--frame-spec", '{"type":"wavelet","n":16}',
      "--output", "OK"], "--input"),
    (["simulate", "--experiment", "risk", "--frame-spec", '{"type":"wavelet","n":16}',
      "--alpha", "0.1", "--trials", "4", "--seed", "1", "--clean", "DIR", "--out", "OK"],
     "--clean")],
    ids=["thresholds-out", "denoise-output", "denoise-report", "denoise-coeffs",
         "simulate-out", "simulate-qq", "diagnose-out", "manifest", "denoise-input-dir",
         "simulate-clean-dir"])
def test_file_system_errors_are_io_errors(tmp_path, capsys, args, flag):
    sig = tmp_path / "x.csv"
    ftio.write_signal(sig, np.arange(16.0))
    paths = {"SIGNAL": sig, "MISSING": tmp_path / "no-such-dir" / "f", "OK": tmp_path / "ok",
             "DIR": tmp_path,
             # a name the file system takes, whose manifest name is too long
             "LONG": tmp_path / ("a" * 245 + ".csv")}
    assert main([str(paths.get(a, a)) for a in args]) == 4
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "io" and payload["flag"] == flag


def test_cli_import_loads_no_scipy_special_or_linalg():
    code = ("import sys, framethresh.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_diagnose_without_frame_bounds_fails_before_the_census(tmp_path, capsys):
    """A cyclespin family above coarsest level 0 has no frame bounds at
    n = 8192; the census checks bounds first, so the run exits 2 naming
    --n-list at once instead of counting pairs first."""
    out = tmp_path / "d.json"
    code = main(["diagnose", "--frame-spec",
                 '{"type":"cyclespin","n":16,"M":4,"filters":"haar","coarsest_level":1}',
                 "--n-list", "64", "128", "8192", "--rho", "0.5", "--out", str(out)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)["error"]
    assert payload["kind"] == "validation" and payload["flag"] == "--n-list"
    assert "8192" in payload["message"]
    assert not out.exists()


_SIDAK = ["simulate", "--experiment", "sidak", "--frame-spec", '{"type":"wavelet","n":16}',
          "--trials", "10", "--seed", "1"]
_SMOOTH = ["simulate", "--experiment", "smoothness", "--frame-spec", '{"type":"wavelet","n":16}',
           "--alpha", "0.1", "--trials", "4", "--seed", "1"]
_SPEC_DENOISE = ["denoise", "--input", "@SIG", "--output", "@OUT", "--frame-spec"]
_RULE_DENOISE = [*_SPEC_DENOISE, '{"type":"wavelet","n":16}', "--threshold-rule"]
_ONE_ATOM = ('{"type":"wavelet","n":2}', '{"type":"sine","n":2}')


def _simulate(experiment, frame_spec, *extra):
    return ["simulate", "--experiment", experiment, "--frame-spec", frame_spec,
            "--alpha", "0.1", "--trials", "4", "--seed", "1", *extra]
_DIAGNOSE = ["diagnose", "--frame-spec", '{"type":"wavelet"}', "--n-list", "4", "8", "16"]
# explicit frame matrices whose first row's squared norm overflows or underflows
_OUT_OF_RANGE_MATRICES = {"huge.csv": "1e200,1e200\n0,1\n", "tiny.csv": "1e-200,0\n0,1\n"}


@pytest.mark.parametrize("args, code, flag", [
    (["simulate", "--experiment", "comparison", "--dim", "0", "--seed", "1"], 2, "--dim"),
    (["simulate", "--experiment", "comparison", "--draws", "0", "--seed", "1"], 2, "--draws"),
    (["thresholds", "--n", "2", "--wavelet", "cdf97r"], 2, "--n"),
    (["thresholds", "--n", "3", "--wavelet", "cdf97r"], 2, "--n"),
    (["thresholds", "--n", "64", "--sigma", "1e308"], 2, "--sigma"),
    (["thresholds", "--n", "64", "--sigma", "1e308", "--M", "4", "--wavelet", "cdf97r"],
     2, "--sigma"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16}', "--sigma", "1e308"], 2, "--sigma"),
    (["simulate", "--experiment", "ti", "--frame-spec", '{"type":"ti","n":16,"filters":"haar"}',
      "--trials", "4", "--seed", "1"], 2, "--frame-spec"),
    ([*_SIDAK, "--reference-m", "-3"], 2, "--reference-m"),  # the flag is gone
    (["simulate", "--experiment", "risk1d", "--mu", "nan", "--trials", "10", "--seed", "1"],
     2, "--mu"),
    (["simulate", "--experiment", "risk1d", "--mu", "1e200", "--T", "1e300", "--trials", "10",
      "--seed", "1"], 2, "--mu"),
    (["simulate", "--experiment", "risk1d", "--sigma", "3", "--trials", "10", "--seed", "1"],
     2, "--sigma"),
    (["simulate", "--experiment", "comparison", "--sigma", "3", "--matrices", "2",
      "--draws", "100", "--seed", "1"], 2, "--sigma"),
    (["simulate", "--experiment", "ti", "--frame-spec", '{"type":"ti","n":16,"filters":"cdf97r"}',
      "--z", "nan", "--trials", "10", "--seed", "1"], 2, "--z"),
    (["simulate", "--experiment", "gumbel", "--frame-spec", '{"type":"wavelet","n":16}',
      "--alpha", "1.5", "--trials", "10", "--seed", "1"], 2, "--alpha"),
    ([*_SMOOTH, "--norm-spec", "[1]"], 3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"pqr_wavelet","p":"a"}'], 3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"pqr_wavelet","p":NaN}'], 3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"weighted_l2","weights":5}'], 3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"weighted_l2","weights_path":"@MISSING"}'],
     4, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"weighted_l2","weights_path":5}'], 4, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"weighted_l2","weights_path":"@BIN"}'],
     3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"weighted_l2","weights":[1,2]}'], 2, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"pqr_wavelet","P":1}'], 3, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"pqr_wavelet","p":1,"q":1,"r":1e300}'],
     2, "--norm-spec"),
    ([*_SMOOTH, "--norm-spec", '{"kind":"pqr_wavelet","p":1e308}'], 2, "--norm-spec"),
    (["simulate", "--experiment", "smoothness", "--frame-spec", '{"type":"sine","n":16}',
      "--alpha", "0.1", "--trials", "4", "--seed", "1"], 2, "--norm-spec"),
    ([*_SMOOTH, "--rule", "hard"], 2, "--rule"),
    (_simulate("gumbel", _ONE_ATOM[0], "--trials", "10"), 2, "--frame-spec"),
    (_simulate("coverage", _ONE_ATOM[1]), 2, "--frame-spec"),
    (_simulate("risk", _ONE_ATOM[0]), 2, "--frame-spec"),
    (_simulate("smoothness", _ONE_ATOM[0]), 2, "--frame-spec"),
    (_simulate("smoothness", _ONE_ATOM[1], "--norm-spec", '{"kind":"weighted_l2"}'),
     2, "--frame-spec"),
    (_simulate("coverage", '{"type":"cyclespin","n":4,"M":1}', "--use-cyclespin-rule"),
     2, "--frame-spec"),
    (_simulate("coverage", '{"type":"wavelet","n":16}', "--use-cyclespin-rule"),
     2, "--use-cyclespin-rule"),
    (_simulate("risk", '{"type":"wavelet","n":4}', "--alpha", "0.999999"), 2, "--frame-spec"),
    # every threshold a rule gives is finite and > 0: m = 3 and m = 2 go
    # negative at alpha near 1
    (["thresholds", "--n", "3", "--alpha", "0.9999"], 2, "--n"),
    (["thresholds", "--n", "2", "--alpha", "0.9999", "--M", "2"], 2, "--n"),
    (["simulate", "--experiment", "coverage", "--frame-spec", '{"type":"wavelet","n":4}',
      "--alpha", "0.9999", "--trials", "20", "--seed", "1"], 2, "--frame-spec"),
    (["simulate", "--experiment", "coverage", "--frame-spec", '{"type":"cyclespin","n":4,"M":2}',
      "--use-cyclespin-rule", "--alpha", "0.9999", "--trials", "20", "--seed", "1"],
     2, "--frame-spec"),
    # only coverage reads --use-cyclespin-rule
    (_simulate("risk", '{"type":"wavelet","n":16}', "--use-cyclespin-rule"),
     2, "--use-cyclespin-rule"),
    (_simulate("smoothness", '{"type":"wavelet","n":16}', "--use-cyclespin-rule"),
     2, "--use-cyclespin-rule"),
    (_simulate("gumbel", '{"type":"wavelet","n":16}', "--trials", "10", "--use-cyclespin-rule"),
     2, "--use-cyclespin-rule"),
    # a sine grid past the address range is refused before any allocation
    ([*_SPEC_DENOISE, json.dumps({"type": "sine", "n": 2 ** 60})], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, json.dumps({"type": "sine", "n": 16, "oversample": 2 ** 60})],
     2, "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"sine"}', "--n-list", "4", "8", str(2 ** 60)],
     2, "--n-list"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16,"filters":5}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16,"filter":"d4"}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"sine","n":16,"oversampling":2}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16,"M":4}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":5}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@MATRIX","name":5}'],
     2, "--frame-spec"),
    ([*_SPEC_DENOISE, "@BIN"], 3, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@BADMATRIX"}'], 3, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@MISSING"}'], 4, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@EMPTY"}'], 3, "--frame-spec"),
    (["denoise", "--input", "@EMPTY", "--output", "@OUT", "--frame-spec",
      '{"type":"wavelet","n":16}'], 3, "--input"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@NANMATRIX"}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@HUGEMATRIX"}'], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"explicit","matrix_path":"@TINYMATRIX"}'], 2, "--frame-spec"),
    (["simulate", "--experiment", "gumbel", "--frame-spec",
      '{"type":"explicit","matrix_path":"@NANMATRIX"}', "--trials", "10", "--seed", "1"],
     2, "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"wavelet"}', "--n-list", "3", "8", "16"],
     2, "--n-list"),
    (["diagnose", "--frame-spec", '{"type":"cyclespin","M":4}', "--n-list", "2", "8", "16"],
     2, "--n-list"),
    (["diagnose", "--frame-spec", '{"type":"ti","filter":"d4"}', "--n-list", "4", "8", "16"],
     2, "--frame-spec"),
    # a field that no n admits is the spec's fault, not the sizes'
    (["diagnose", "--frame-spec", '{"type":"sine","oversample":0}', "--n-list", "4", "8", "16"],
     2, "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"cyclespin","M":3}', "--n-list", "4", "8", "16"],
     2, "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"wavelet","coarsest_level":-1}',
      "--n-list", "4", "8", "16"], 2, "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"cyclespin","M":2,"filters":"cdf97"}',
      "--n-list", "4", "8", "16"], 2, "--frame-spec"),
    ([*_DIAGNOSE, "--delta", "5"], 2, "--delta"),
    ([*_DIAGNOSE, "--delta", "nan"], 2, "--delta"),
    ([*_DIAGNOSE, "--delta", "0.3", "--rho", "0.2"], 2, "--delta"),
    (["replay", "@BIN"], 3, "manifest"),
    (["denoise", "--input", "@MISSING", "--output", "@OUT", "--frame-spec",
      '{"type":"wavelet","n":16}', "--sigma", "0"], 2, "--sigma"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16}', "--alpha", "1.5"], 2, "--alpha"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16}', "--c", "0"], 2, "--c"),  # the flag is gone
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16}', "--z", "inf"], 2, "--z"),
    # a threshold that cannot be formed names the input at fault
    ([*_RULE_DENOISE, "from_zn", "--z", "1e308"], 2, "--z"),
    ([*_RULE_DENOISE, "from_zn", "--z=-1e308"], 2, "--z"),
    ([*_RULE_DENOISE, "from_zn", "--z=-1e154"], 2, "--z"),
    ([*_RULE_DENOISE, "fixed", "--fixed-value=-1.5"], 2, "--fixed-value"),
    ([*_RULE_DENOISE, "fixed", "--fixed-value", "nan"], 2, "--fixed-value"),
    ([*_RULE_DENOISE, "fixed"], 2, "--fixed-value"),
    ([*_RULE_DENOISE, "fixed", "--fixed-value", "inf"], 2, "--fixed-value"),
    ([*_RULE_DENOISE, "evt"], 2, "--alpha"),
    ([*_RULE_DENOISE, "from_zn"], 2, "--z"),
    ([*_RULE_DENOISE, "cyclespin", "--alpha", "0.1"], 2, "--frame-spec"),
    ([*_SPEC_DENOISE, '{"type":"wavelet","n":16,"filters":"haar"}', "--threshold-rule", "ti",
      "--alpha", "0.1"], 2, "--frame-spec"),
    # a flag is taken only by its full name, not by a prefix such as --w or --c
    (["thresholds", "--n", "64", "--w", "cdf97r"], 2, "--w"),
    ([*_SMOOTH, "--c", "@MISSING"], 2, "--c"),
    # a manifest recorded with a flag that is gone no longer replays
    (["replay", "@OLDMANIFEST"], 2, "--c")],
    ids=["comparison-dim-0", "comparison-draws-0", "ti-row-n-2", "ti-row-n-3",
         "thresholds-sigma-overflow", "thresholds-sigma-overflow-M-ti",
         "denoise-sigma-overflow", "simulate-ti-haar",
         "sidak-reference-m-negative", "risk1d-mu-nan", "risk1d-mu-square-overflow",
         "risk1d-sigma-3", "comparison-sigma-3", "ti-z-nan", "gumbel-alpha-1.5",
         "norm-spec-list", "norm-spec-p-string", "norm-spec-p-nan", "norm-spec-weights-number",
         "norm-spec-weights-path-missing", "norm-spec-weights-path-number",
         "norm-spec-weights-path-binary", "norm-spec-weights-length", "norm-spec-unknown-key",
         "norm-spec-scale-weight-overflow", "norm-spec-clean-value-overflow",
         "norm-spec-sine-labels",
         "simulate-rule-hard", "gumbel-one-atom", "coverage-one-atom", "risk-one-atom",
         "smoothness-one-atom-wavelet", "smoothness-one-atom-sine",
         "coverage-cyclespin-rule-M-1", "coverage-cyclespin-rule-wavelet",
         "risk-negative-threshold",
         "thresholds-evt-negative", "thresholds-evt-cyclespin-negative",
         "coverage-evt-negative", "coverage-cyclespin-rule-negative",
         "risk-cyclespin-rule", "smoothness-cyclespin-rule", "gumbel-cyclespin-rule",
         "sine-grid-n-too-large", "sine-grid-oversample-too-large",
         "diagnose-sine-grid-too-large",
         "frame-spec-filters-number", "frame-spec-wavelet-filter-key",
         "frame-spec-sine-oversampling-key", "frame-spec-wavelet-M-key",
         "frame-spec-matrix-path-number",
         "frame-spec-name-number", "frame-spec-binary-file", "frame-spec-matrix-not-numbers",
         "frame-spec-matrix-missing", "frame-spec-matrix-empty", "input-empty",
         "frame-spec-matrix-nan", "frame-spec-matrix-row-overflow",
         "frame-spec-matrix-row-underflow", "simulate-matrix-nan",
         "diagnose-wavelet-n-3", "diagnose-cyclespin-n-2", "diagnose-ti-filter-key",
         "diagnose-sine-oversample-0", "diagnose-cyclespin-M-3",
         "diagnose-wavelet-coarsest-level-negative", "diagnose-cyclespin-biorthogonal",
         "diagnose-delta-5",
         "diagnose-delta-nan", "diagnose-delta-above-rho", "replay-binary-manifest", "sigma-before-file-error",
         "denoise-alpha-unused", "denoise-c-unused", "denoise-z-unused",
         "from_zn-z-overflow", "from_zn-z-negative-overflow", "from_zn-z-negative-threshold",
         "fixed-value-negative", "fixed-value-nan", "fixed-value-missing", "fixed-value-inf",
         "evt-alpha-missing", "from_zn-z-missing", "cyclespin-rule-wavelet", "ti-rule-haar",
         "thresholds-wavelet-prefix", "simulate-clean-prefix", "replay-removed-flag"])
def test_malformed_input_takes_the_exit_code_contract(tmp_path, capsys, args, code, flag):
    """Each invocation exits with its code, kind and flag, writes nothing,
    and prints one JSON object on stderr (no traceback)."""
    sig, matrix, binary = tmp_path / "x.csv", tmp_path / "m.csv", tmp_path / "bin.txt"
    ftio.write_signal(sig, np.arange(16.0))
    np.savetxt(matrix, np.eye(16), delimiter=",")
    binary.write_bytes(b"\xff\xfe\x00not text")
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    (tmp_path / "nan.csv").write_text("1,0\nnan,1\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "old.manifest.json").write_text(json.dumps({"command": [
        "denoise", "--input", "x.csv", "--output", "o.csv", "--frame-spec",
        '{"type":"ti","n":16,"filters":"cdf97r"}', "--threshold-rule", "ti",
        "--alpha", "0.1", "--c", "4.8708"]}))
    for name, text in _OUT_OF_RANGE_MATRICES.items():
        (tmp_path / name).write_text(text)
    inputs = sorted(tmp_path.iterdir())
    paths = {"@SIG": sig, "@MATRIX": matrix, "@BIN": binary, "@OUT": tmp_path / "out.csv",
             "@MISSING": tmp_path / "missing.csv", "@BADMATRIX": tmp_path / "bad.csv",
             "@NANMATRIX": tmp_path / "nan.csv", "@EMPTY": tmp_path / "empty.csv",
             "@HUGEMATRIX": tmp_path / "huge.csv", "@TINYMATRIX": tmp_path / "tiny.csv",
             "@OLDMANIFEST": tmp_path / "old.manifest.json"}
    for token, path in paths.items():
        args = [a.replace(token, str(path)) for a in args]
    if args[0] in ("thresholds", "simulate", "diagnose"):
        args = [*args, "--out", str(tmp_path / "out.json")]
    rc, out, err = run_main(capsys, args)
    assert "Traceback" not in err and err.count("\n") == 1
    payload = json.loads(err)["error"]
    assert (rc, payload["code"], payload["flag"]) == (code, code, flag), payload
    assert payload["kind"] == {2: "validation", 3: "parse", 4: "io"}[code]
    assert out == "" and sorted(tmp_path.iterdir()) == inputs


def _finite_report(path):
    def reject(token):
        raise AssertionError(f"non-finite value {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


_TI_DIAGNOSE = ["diagnose", "--frame-spec", '{"type":"ti"}', "--n-list", "16", "32", "64"]
_COMPARISON = ["simulate", "--experiment", "comparison", "--matrices", "2", "--draws", "1000",
               "--seed", "1"]
_RISK1D = ["simulate", "--experiment", "risk1d", "--trials", "10", "--seed", "1"]


def test_thresholds_past_the_square_range_run(tmp_path, capsys):
    """T * T is inf past 1.34e154, where T ** 2 raises: the comparison
    bound is 0.0, and risk1d's bound e^{-inf} + min(inf, mu^2) is mu^2."""
    out = tmp_path / "out.json"
    assert run_main(capsys, [*_TI_DIAGNOSE, "--T", "1e308", "--out", str(out)]) == (0, "", "")
    bound, = _finite_report(out)["comparison_bounds"]
    assert (bound["value"], bound["max_term"], bound["argmax_pair"]) == (0.0, 0.0, [0, 0])
    assert run_main(capsys, [*_COMPARISON, "--T", "1e200", "--out", str(out)]) == (0, "", "")
    assert [row["bound"] for row in _finite_report(out)["rows"]] == [0.0, 0.0]
    assert run_main(capsys, [*_RISK1D, "--T", "1e200", "--mu", "3", "--out", str(out)]) == (
        0, "", "")
    row, = _finite_report(out)["rows"]
    assert (row["bound"], row["empirical"]) == (9.0, 9.0)


@pytest.mark.parametrize("args", [_RISK1D, _COMPARISON], ids=["risk1d", "comparison"])
def test_unit_variance_experiments_take_sigma_1(tmp_path, capsys, args):
    # --sigma 1 is the default, which the report records as it did
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert run_main(capsys, [*args, "--out", str(default)])[0] == 0
    assert run_main(capsys, [*args, "--sigma", "1", "--out", str(explicit)])[0] == 0
    assert _finite_report(explicit)["sigma"] == 1.0
    assert explicit.read_bytes() == default.read_bytes()


def test_simulate_risk_squares_sigma_without_raising(tmp_path, capsys):
    # sigma * sigma is inf past 1.34e154, where sigma ** 2 raised: the bound
    # is not finite, and the --clean peak 2 lies below sigma
    clean = tmp_path / "two.csv"
    ftio.write_signal(clean, np.full(16, 2.0))
    rc, out, err = run_main(capsys, [*_simulate("risk", '{"type":"wavelet","n":16}'),
                                     "--clean", str(clean), "--sigma", "1e300",
                                     "--out", str(tmp_path / "r.json")])
    payload = json.loads(err)["error"]
    assert (rc, payload["flag"]) == (2, "--sigma")
    assert payload["message"] == ("the result is not finite (result.bound): "
                                  "the computation overflowed")
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["two.csv"]


def test_simulate_coverage_cyclespin_rule_takes_the_cyclespin_threshold(tmp_path):
    out = tmp_path / "c.json"
    args = _simulate("coverage", '{"type":"cyclespin","n":16,"M":4}', "--use-cyclespin-rule")
    assert main([*args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["threshold"] == evt.cyclespin_threshold(1.0, 0.1, 16, 4)


#: a wavelet size whose constructor runs out of memory
_HUGE_N = 2 ** 60


@pytest.mark.parametrize("args, flag", [
    (["denoise", "--input", "@SIG", "--output", "@OUT", "--frame-spec",
      json.dumps({"type": "wavelet", "n": _HUGE_N})], "--frame-spec"),
    (["diagnose", "--frame-spec", '{"type":"wavelet"}', "--n-list", "4", "8", str(_HUGE_N),
      "--out", "@OUT"], "--n-list")], ids=["denoise", "diagnose"])
def test_frame_too_large_to_allocate_names_its_flag(tmp_path, args, flag):
    """The constructor allocates growing arrays until one fails, so the run
    is a subprocess under a 768 MiB address-space limit (never without one:
    it would take what memory the host has)."""
    sig, out = tmp_path / "x.csv", tmp_path / "out"
    ftio.write_signal(sig, np.zeros(16))
    args = [{"@SIG": str(sig), "@OUT": str(out)}.get(a, a) for a in args]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 768 * 2 ** 20 if hard == resource.RLIM_INFINITY else min(768 * 2 ** 20, hard)
    proc = subprocess.run(
        [sys.executable, "-m", "framethresh.cli", *args], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (2, "", 1), proc.stderr
    payload = json.loads(proc.stderr)["error"]
    assert (payload["kind"], payload["flag"]) == ("validation", flag)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_empty_matrix_file_prints_only_the_json_error(tmp_path):
    # in process, pytest's warning capture would hide a warning printed
    # before the JSON line
    sig, empty = tmp_path / "x.csv", tmp_path / "empty.csv"
    ftio.write_signal(sig, np.arange(16.0))
    empty.write_text("")
    spec = json.dumps({"type": "explicit", "matrix_path": str(empty)})
    rc, out, err = run_cli(["denoise", "--input", str(sig), "--output",
                            str(tmp_path / "out.csv"), "--frame-spec", spec])
    assert (rc, out, err.count("\n")) == (3, "", 1), err
    assert json.loads(err)["error"]["flag"] == "--frame-spec"


@pytest.mark.parametrize("name, kind", [("huge.csv", "overflows"), ("tiny.csv", "underflows")])
def test_out_of_range_matrix_row_prints_only_the_json_error(tmp_path, name, kind):
    # a row whose squared norm leaves the float range is named, with no
    # numpy warning printed before the JSON line
    sig, matrix = tmp_path / "x.csv", tmp_path / name
    ftio.write_signal(sig, np.arange(2.0))
    matrix.write_text(_OUT_OF_RANGE_MATRICES[name])
    spec = json.dumps({"type": "explicit", "matrix_path": str(matrix)})
    rc, out, err = run_cli(["denoise", "--input", str(sig), "--output",
                            str(tmp_path / "out.csv"), "--frame-spec", spec])
    assert (rc, out, err.count("\n")) == (2, "", 1), err
    assert json.loads(err)["error"]["message"] == f"explicit frame row 0: its squared norm {kind}"


def test_diagnose_refuses_an_explicit_frame_spec(tmp_path, capsys):
    # diagnose sets n from --n-list, which an explicit matrix cannot take;
    # the spec is refused before its matrix file is read
    out = tmp_path / "d.json"
    spec = json.dumps({"type": "explicit", "matrix_path": str(tmp_path / "eye8.csv")})
    rc, stdout, err = run_main(capsys, ["diagnose", "--frame-spec", spec,
                                        "--n-list", "8", "16", "32", "--out", str(out)])
    payload = json.loads(err)["error"]
    assert (rc, payload["kind"], payload["flag"]) == (2, "validation", "--frame-spec")
    assert payload["message"] == ("diagnose builds one frame per --n-list size, so it "
                                  "takes wavelet, cyclespin, ti and sine specs")
    assert stdout == "" and not out.exists()
    with pytest.raises(SystemExit):
        main(["diagnose", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "takes wavelet, cyclespin, ti and sine specs" in help_text
