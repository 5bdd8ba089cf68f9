"""Every function the benchmark tracer wraps still exists where the tracer
looks for it, and its counters read real results, so a refactor that moves
a function (into a base class, say) or changes a result the counters read
fails here and not only in a traced benchmark run."""

import types
from pathlib import Path

import pytest

from framethresh.core import gram_coherence_counts
from framethresh.simulate import McConfig, sample_max_abs
from framethresh.transforms import CycleSpinFrame, WaveletBasis

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


def test_entries_counter_reads_the_census_result():
    # cycle spinning haar n=16, M=4 has 16*2 + 4*(2^2 - 1) = 44 distinct atoms
    frame = CycleSpinFrame(16, 4, "haar")
    out = gram_coherence_counts(frame, 0.5)
    assert tracing._COUNTERS["entries"]((frame, 0.5), {}, out) == 44 ** 2


def test_trials_counter_reads_the_config_argument():
    cfg = McConfig(trials=12, seed=3)
    frame = WaveletBasis(16, "haar")
    out = sample_max_abs(frame, cfg)
    assert len(out.samples) == 12
    assert tracing._COUNTERS["trials"]((frame, cfg), {}, out) == 12
    assert tracing._COUNTERS["trials"]((frame,), {"cfg": cfg}, out) == 12
