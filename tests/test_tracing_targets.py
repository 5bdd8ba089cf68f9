"""Every function the benchmark tracer wraps still exists where the tracer
looks for it, so a refactor that moves one (into a base class, say) fails
here and not only in a traced benchmark run."""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    # exec the source rather than import it, so no bytecode cache is
    # written under benchmarks/
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr", [
    *((module_name, attr) for module_name, attr, _, _ in tracing.TARGETS),
    *((module_name, attr) for module_name, attr, _ in tracing.COUNTED)],
    ids=lambda value: value)
def test_tracer_target_resolves_in_its_owner(module_name, attr):
    # Tracer.install reads owner.__dict__[key]: an inherited method fails there
    owner, key = tracing._resolve(module_name, attr)
    assert key in owner.__dict__
