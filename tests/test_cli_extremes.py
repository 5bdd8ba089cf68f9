"""The exit-code contract at extreme finite flag values: every subcommand,
run in-process on small frames (n <= 16, trials <= 10), either exits 0 with
finite outputs or exits 2, 3 or 4 with one JSON line on stderr and writes
nothing.  It never raises, which `python -m framethresh.cli` would report
as exit 1 with a traceback, and an error names a flag the example set to an
extreme value, or --frame-spec."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framethresh import io as ftio
from framethresh.cli import main

#: finite values at the edges of the float range: past sqrt(max) a square
#: overflows, and 1e-308 is near the smallest normal
EXTREMES = (1e308, -1e308, 1e154, -1e154, 1e-308, 0.0)

#: frame specs of n = 16 across the frame types, for denoise and simulate
SPECS = ('{"type":"wavelet","n":16}', '{"type":"ti","n":16,"filters":"cdf97r"}',
         '{"type":"cyclespin","n":16,"M":4}', '{"type":"sine","n":16,"oversample":2}')


def _value(*valid):
    """An extreme value or one of the flag's valid ones, about equally often."""
    return st.one_of(st.sampled_from(EXTREMES), st.sampled_from(valid))


def _flag(name, *valid, optional=False):
    """`--name=value` as one token (so a negative value is not read as a
    flag), left out now and then when optional."""
    flag = _value(*valid).map(lambda v: [f"{name}={v!r}"])
    return st.one_of(st.just([]), flag) if optional else flag


def _concat(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


THRESHOLDS = _concat(
    st.just(["thresholds", "--n", "16", "--out", "OUT.json"]),
    _flag("--sigma", 1.0, 2.5), _flag("--alpha", 0.1, 0.5),
    st.sampled_from([[], ["--M", "4"], ["--wavelet", "cdf97r"]]))

_SIGMA = _flag("--sigma", 1.0, 0.5, optional=True)
_ALPHA = _flag("--alpha", 0.1, 0.3)
_ANY_SPEC = st.sampled_from(SPECS)
_SCALE_SPEC = st.sampled_from(SPECS[:3])  # the default norm spec reads wavelet scales
_TI_SPEC = st.just(SPECS[1])
_CYCLESPIN_SPEC = st.just(SPECS[2])
_CLEAN = st.sampled_from([[], ["--clean", "CLEAN"]])


def _case(head, spec, *flags):
    """head, then --frame-spec drawn from spec (none for None), then each
    of the flags' draws."""
    spec = st.just([]) if spec is None else spec.map(lambda text: ["--frame-spec", text])
    return _concat(st.just(head), spec, *flags)


_DENOISE = ["denoise", "--input", "SIGNAL", "--output", "OUT.csv", "--report", "OUT.json",
            "--coeffs", "COEFFS.csv"]
_RULE = st.sampled_from(["soft", "hard", "garrote"]).map(lambda rule: ["--rule", rule])

#: each threshold rule with a frame it suits and the flags it reads
DENOISE = {
    rule: _case([*_DENOISE, "--threshold-rule", rule], spec, _RULE, _CLEAN, *flags)
    for rule, spec, flags in [
        ("universal", _ANY_SPEC, [_SIGMA]),
        ("evt", _ANY_SPEC, [_SIGMA, _ALPHA]),
        ("from_zn", _ANY_SPEC, [_SIGMA, _flag("--z", 1.0, -2.0)]),
        ("cyclespin", _CYCLESPIN_SPEC, [_SIGMA, _ALPHA]),
        ("ti", _TI_SPEC, [_SIGMA, _ALPHA]),
        ("fixed", _ANY_SPEC, [_flag("--fixed-value", 1.5, 0.0)])]}

_SIMULATE = ["simulate", "--trials", "10", "--seed", "1", "--out", "OUT.json", "--experiment"]
_T = _flag("--T", 2.0, 3.0, optional=True)

#: each experiment with a frame it suits and the flags it reads
SIMULATE = {
    experiment: _case([*_SIMULATE, experiment], spec, *flags)
    for experiment, spec, flags in [
        ("gumbel", _ANY_SPEC, [_SIGMA]),
        ("coverage", _ANY_SPEC, [_SIGMA, _ALPHA]),
        ("sidak", _ANY_SPEC, [_SIGMA, _T]),
        ("ti", _TI_SPEC, [_SIGMA, _flag("--z", 0.0, 1.0, optional=True)]),
        ("smoothness", _SCALE_SPEC, [_SIGMA, _ALPHA, _CLEAN]),
        ("risk", _ANY_SPEC, [_SIGMA, _ALPHA, _CLEAN]),
        ("risk1d", None, [_T, _flag("--mu", 0.0, 3.0, optional=True)]),
        ("comparison", None, [_T, st.just(["--matrices", "2", "--dim", "3",
                                           "--draws", "200"])])]}

DIAGNOSE = _concat(
    st.just(["diagnose", "--n-list", "4", "8", "16", "--out", "OUT.json"]),
    st.sampled_from(['{"type":"wavelet"}', '{"type":"ti","filters":"cdf97r"}',
                     '{"type":"cyclespin","M":2}', '{"type":"sine","oversample":2}']).map(
        lambda spec: ["--frame-spec", spec]),
    _flag("--rho", 0.5, 0.25, optional=True), _flag("--delta", 0.2, optional=True),
    _flag("--T", 2.0, 3.0, optional=True), _flag("--T", 0.5, optional=True),
    st.sampled_from([[], ["--flavor", "normal"]]))


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON value {token}")


def _assert_finite_text(name, text):
    if name.endswith(".json"):
        json.loads(text, parse_constant=_reject_constant)
    else:  # CSV floats are written by repr: inf, -inf, nan
        assert not re.search(r"\b(?:inf|nan)\b", text), name


def _run_in(directory, args):
    """main(args) with the placeholder paths in directory: (exit code,
    stdout, stderr, the files it wrote)."""
    directory = Path(directory)
    ftio.write_signal(directory / "x.csv", np.sin(np.arange(16.0)) + 2.0)
    ftio.write_signal(directory / "clean.csv", np.full(16, 2.0))
    inputs = set(directory.iterdir())
    paths = {"SIGNAL": "x.csv", "CLEAN": "clean.csv"}
    args = [str(directory / paths.get(a, a)) if a in paths or a.startswith(("OUT", "COEFFS"))
            else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue(), sorted(set(directory.iterdir()) - inputs)


def _assert_contract(args):
    with tempfile.TemporaryDirectory() as directory:
        code, out, err, written = _run_in(directory, args)
        if code == 0:
            assert err == "" and written, args
            for path in written:
                _assert_finite_text(path.name, path.read_text())
            return
        assert code in (2, 3, 4), (code, args)
        assert err.count("\n") == 1 and "Traceback" not in err, err
        error = json.loads(err)["error"]
        assert error["code"] == code
        assert error["flag"] in {*_extreme_flags(args), "--frame-spec"}, (error, args)
        assert out == "" and written == [], (args, written)


def _extreme_flags(args):
    """The flags of args set to one of the EXTREMES, by a `--name=value` token."""
    pairs = (a.split("=", 1) for a in args if a.startswith("--") and "=" in a)
    return {name for name, value in pairs if float(value) in EXTREMES}


# each example runs in a few milliseconds; the file takes about 2 s
@settings(max_examples=30, deadline=None)
@given(THRESHOLDS)
def test_thresholds_keep_the_exit_code_contract_at_extreme_values(args):
    _assert_contract(args)


@pytest.mark.parametrize("rule", DENOISE)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_denoise_keeps_the_exit_code_contract_at_extreme_values(rule, data):
    _assert_contract(data.draw(DENOISE[rule]))


@pytest.mark.parametrize("experiment", SIMULATE)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_simulate_keeps_the_exit_code_contract_at_extreme_values(experiment, data):
    _assert_contract(data.draw(SIMULATE[experiment]))


@settings(max_examples=40, deadline=None)
@given(DIAGNOSE)
def test_diagnose_keeps_the_exit_code_contract_at_extreme_values(args):
    _assert_contract(args)
