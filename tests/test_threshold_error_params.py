"""Every ThresholdError raised in the package names the input at fault, and
the CLI has a flag for it: a raise site without a param, or with one that
no table knows, would fall back to a guessed flag.  Every threshold the
package forms at a level comes from ThresholdSpec, which refuses one that
is not finite and > 0: no module but evt calls a rule function."""

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


#: the functions that turn a rule into a number; ti_threshold_at_z and
#: norms_chi evaluate the TI and chi laws at a point z, not a rule at a level
RULE_FUNCTIONS = {"universal_threshold", "evt_threshold", "threshold_from_zn",
                  "cyclespin_threshold", "ti_threshold"}


def _calls(names):
    """("file:line", call) of each call in the package to a function or
    method of one of names."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in names:
                yield f"{path.name}:{node.lineno}", node


def test_every_threshold_error_names_a_param_with_a_flag():
    sites = list(_calls({"ThresholdError"}))
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


def test_only_evt_calls_the_rule_functions():
    assert [where for where, _ in _calls(RULE_FUNCTIONS) if not where.startswith("evt.py:")] == []
    assert len(list(_calls(RULE_FUNCTIONS))) >= 5  # ThresholdSpec._unit calls each one
