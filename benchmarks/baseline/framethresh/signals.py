"""Test-signal fixtures used by the experiments and the CLI demos."""

from __future__ import annotations

import numpy as np

SINE_AMPLITUDE = 5.0 * np.sqrt(2.0) / 16.0


def sine_superposition(n, frequencies, amplitude=SINE_AMPLITUDE):
    """sum_i A sin(pi w_i k / n); the two-wave examples use
    frequencies (150, 380) on-grid and (150.5, 380) off-grid."""
    k = np.arange(n)
    out = np.zeros(n)
    for w in frequencies:
        out += amplitude * np.sin(np.pi * w * k / n)
    return out


def piecewise_constant(n, n_pieces=8, values=None, seed=0):
    """Blocky signal, dyadic-friendly but with non-dyadic jump locations."""
    if values is None:
        rng = np.random.default_rng(seed)
        values = rng.uniform(-2.0, 2.0, n_pieces)
    values = np.asarray(values, dtype=float)
    edges = np.linspace(0, n, len(values) + 1).astype(int)
    out = np.empty(n)
    for i, v in enumerate(values):
        out[edges[i]:edges[i + 1]] = v
    return out


def sparse_in_frame(frame, positions, amplitudes):
    """Signal with prescribed frame coefficients: dual synthesis of a sparse
    coefficient vector (zero carry)."""
    values = np.zeros(frame.atom_count)
    for p, a in zip(positions, amplitudes):
        values[p] = a
    cv = frame.analyze(np.zeros(frame.n)).replace_values(values)
    return frame.dual_synthesize(cv)
