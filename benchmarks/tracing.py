"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of the framethresh modules from
outside the package: it replaces each target (a module function or a frame
class method) by a wrapper that records a span, and it rebinds every other
module-level name in the package that refers to the same function object
(``simulate.frame_bounds`` is ``core.frame_bounds``, for example), so calls
made inside the package are seen too.  ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, raised]``; ``parent`` is the index of
the enclosing span in the same phase, or -1.  Spans are kept per phase
(each set-up repetition and the traced timed phase get their own list) and
are written out once, at the end of the run.  A layer's self time is the
duration of its spans minus the time covered by their child spans; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

#: (module, attribute or "Class.method", span name, extra): extra names a
#: counter recorded from the call ("trials", "entries"), or is "first",
#: which gives the first call on each instance a span name of its own
TARGETS = [
    ("framethresh.rng", "normal", "rng.normal", None),
    ("framethresh.transforms", "WaveletBasis.__init__", "transforms.wavelet.build", None),
    ("framethresh.transforms", "WaveletBasis.analyze", "transforms.wavelet.analyze", None),
    ("framethresh.transforms", "WaveletBasis.dual_synthesize", "transforms.wavelet.dual_synthesize", None),
    ("framethresh.transforms", "WaveletBasis.atom", "transforms.wavelet.atom", None),
    ("framethresh.transforms", "CycleSpinFrame.__init__", "transforms.cyclespin.build", None),
    ("framethresh.transforms", "CycleSpinFrame.analyze", "transforms.cyclespin.analyze", None),
    ("framethresh.transforms", "CycleSpinFrame.dual_synthesize", "transforms.cyclespin.dual_synthesize", None),
    ("framethresh.transforms", "CycleSpinFrame.atom", "transforms.cyclespin.atom", None),
    ("framethresh.transforms", "CycleSpinFrame.distinct_positions", "transforms.cyclespin.distinct_positions", None),
    ("framethresh.transforms", "TIWaveletFrame.__init__", "transforms.ti.build", None),
    ("framethresh.transforms", "TIWaveletFrame.analyze", "transforms.ti.analyze", None),
    ("framethresh.transforms", "TIWaveletFrame.dual_synthesize", "transforms.ti.dual_synthesize", None),
    ("framethresh.transforms", "TIWaveletFrame.atom", "transforms.ti.atom", None),
    ("framethresh.transforms", "SineFrame.__init__", "transforms.sine.build", None),
    ("framethresh.transforms", "SineFrame.analyze", "transforms.sine.analyze", None),
    ("framethresh.transforms", "SineFrame.dual_synthesize", "transforms.sine.dual_synthesize", "first"),
    ("framethresh.core", "ExplicitFrame.__init__", "core.explicit.build", None),
    ("framethresh.core", "ExplicitFrame.analyze", "core.explicit.analyze", None),
    ("framethresh.core", "ExplicitFrame.dual_synthesize", "core.explicit.dual_synthesize", None),
    ("framethresh.core", "frame_bounds", "core.frame_bounds", None),
    ("framethresh.core", "gram_coherence_counts", "core.gram_coherence_counts", "entries"),
    ("framethresh.shrink", "shrink_value", "shrink.shrink_value", None),
    ("framethresh.shrink", "denoise", "shrink.denoise", None),
    ("framethresh.evt", "ThresholdSpec.resolve", "evt.resolve", None),
    ("framethresh.norms", "evaluate", "norms.evaluate", None),
    ("framethresh.simulate", "sample_max_abs", "simulate.sample_max_abs", "trials"),
    ("framethresh.simulate", "smoothness_experiment", "simulate.smoothness_experiment", "trials"),
    ("framethresh.simulate", "oracle_risk_experiment", "simulate.oracle_risk_experiment", "trials"),
    ("framethresh.diagnostics", "stability_check", "diagnostics.stability_check", None),
    ("framethresh.diagnostics", "frame_gram", "diagnostics.frame_gram", None),
    ("framethresh.diagnostics", "rest_sum", "diagnostics.rest_sum", None),
    ("framethresh.diagnostics", "rest_split", "diagnostics.rest_split", None),
    ("framethresh.diagnostics", "comparison_bound", "diagnostics.comparison_bound", None),
]

#: functions counted without a span: (module, attribute, counter name)
COUNTED = [
    ("framethresh.diagnostics", "_offdiag_terms", "diagnostics.offdiag_terms"),
]


def _trials(args, kwargs, out):
    cfg = kwargs.get("cfg") or next(a for a in args if hasattr(a, "trials"))
    return cfg.trials


def _entries(args, kwargs, out):
    return out.distinct_count ** 2


_COUNTERS = {"trials": _trials, "entries": _entries}


class Tracer:
    """Records spans while a phase is open; calls pass straight through
    otherwise."""

    def __init__(self):
        self.phases = {}
        self.counters = {}
        self._spans = None
        self._counts = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._seen = weakref.WeakSet()  # instances whose first call is recorded

    # --- phases -----------------------------------------------------------

    def begin(self, phase):
        self._spans = self.phases.setdefault(phase, [])
        self._counts = self.counters.setdefault(phase, defaultdict(float))

    def end(self):
        self._spans = None
        self._counts = None

    # --- patching ---------------------------------------------------------

    def install(self):
        for module_name, attr, name, counter in TARGETS:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            if counter == "first":
                wrapper = self._wrap_first(name, original)
            else:
                wrapper = self._wrap(name, original, counter)
            self._rebind(owner, key, original, wrapper)
        for module_name, attr, name in COUNTED:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            self._rebind(owner, key, original, self._wrap_count(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def _rebind(self, owner, key, original, wrapper):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)
        if isinstance(owner, type):
            return
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("framethresh") or module is owner:
                continue
            for other, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, other, original))
                    setattr(module, other, wrapper)

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, counter=None):
        tracer = self
        count = _COUNTERS.get(counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                tracer._counts[f"{name}.{counter}"] += count(args, kwargs, out)
            return out

        return traced

    def _wrap_first(self, name, fn):
        """The first call on each instance gets its own span name: it fills
        the instance's lazy cache (the sine pseudoinverse)."""
        seen = self._seen
        plain = self._wrap(name, fn)
        first = self._wrap(f"{name}.first", fn)

        @functools.wraps(fn)
        def traced(frame, *args, **kwargs):
            if frame in seen:
                return plain(frame, *args, **kwargs)
            seen.add(frame)
            return first(frame, *args, **kwargs)

        return traced

    def _wrap_count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer._counts is not None:
                tracer._counts[name] += len(out)
            return out

        return counted

    # --- aggregation ------------------------------------------------------

    def layer_stats(self, phase):
        """{span name: {"calls", "self_s", "failed"}} plus counters."""
        spans = self.phases.get(phase, [])
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for i, (name, start, end, _parent, raised) in enumerate(spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            entry["failed"] += int(raised)
        return dict(stats), dict(self.counters.get(phase, {}))

    def write(self, path):
        """One JSON line per span: phase, name, start, end, parent index."""
        with open(path, "w") as fh:
            for phase, spans in self.phases.items():
                for name, start, end, parent, raised in spans:
                    fh.write(json.dumps([phase, name, round(start, 9), round(end, 9),
                                         parent, raised]) + "\n")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr
