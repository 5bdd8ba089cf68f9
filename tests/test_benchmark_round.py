"""One tiny round of each benchmark workload: every call the benchmark makes
still takes its arguments, passes its checks and reproduces the recorded
reference, so a changed signature or output fails here first."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_workloads():
    # exec the source rather than import it, so no bytecode cache is written
    # under benchmarks/; the dataclasses look their module up in sys.modules
    # while they are built
    name = "_benchmark_workloads"
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        path = BENCHMARKS / "workloads.py"
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_checks_and_matches_reference(name):
    recorded = json.loads((BENCHMARKS / "reference.json").read_text())
    workload = workloads.WORKLOADS[name]("tiny", 7, recorded)
    workload.setup(0)
    units = [workloads.timed_call(*call) for call in workload.calls(0)]
    assert units and [u.error for u in units if u.error is not None] == []
    assert [c for c in workload.check(units) if not c.ok] == []
    ref = json.loads(json.dumps(workload.reference(units)))
    assert workloads.compare(ref, recorded["reference"][workload.reference_key()]) == []
