"""Every ThresholdError raised in the package names the input at fault, and
the CLI has a flag for it: a raise site without a param, or with one that
no table knows, would fall back to a guessed flag."""

import ast
from pathlib import Path

from framethresh import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "framethresh"

#: what a threshold rule reads from the frame; --frame-spec gives each
FRAME_PARAMS = {"m", "n", "M", "c", "filters"}


def _params(node):
    """The param strings a ThresholdError(...) call can pass: a string
    literal, or either branch of a conditional of two."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _params(node.body) | _params(node.orelse)
    raise AssertionError(f"param {ast.unparse(node)} is not a string literal")


def _raise_sites():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "ThresholdError":
                yield f"{path.name}:{node.lineno}", node


def test_every_threshold_error_names_a_param_with_a_flag():
    sites = list(_raise_sites())
    assert len(sites) >= 19, sites
    known = set(cli._PARAM_FLAGS) | FRAME_PARAMS
    for where, call in sites:
        args = call.args[1:] + [k.value for k in call.keywords if k.arg == "param"]
        assert len(args) == 1, f"{where}: ThresholdError without a param"
        assert _params(args[0]) <= known, f"{where}: {ast.unparse(args[0])}"


def test_thresholds_has_a_flag_for_every_frame_param():
    # thresholds has no --frame-spec: --n, --M and --wavelet give them
    assert FRAME_PARAMS <= set(cli._THRESHOLDS_FLAGS)
    assert "--frame-spec" not in cli._THRESHOLDS_FLAGS.values()
