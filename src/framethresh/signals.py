"""Test-signal fixtures used by the experiments and the CLI demos."""

from __future__ import annotations

import numpy as np

SINE_AMPLITUDE = 5.0 * np.sqrt(2.0) / 16.0


def sine_superposition(n, frequencies):
    """sum_i A sin(pi w_i k / n) with A = SINE_AMPLITUDE; the two-wave
    examples use frequencies (150, 380) on-grid and (150.5, 380) off-grid."""
    k = np.arange(n)
    out = np.zeros(n)
    for w in frequencies:
        out += SINE_AMPLITUDE * np.sin(np.pi * w * k / n)
    return out


def piecewise_constant(n, n_pieces=8, seed=0):
    """Blocky signal, dyadic-friendly but with non-dyadic jump locations."""
    values = np.random.default_rng(seed).uniform(-2.0, 2.0, n_pieces)
    edges = np.linspace(0, n, n_pieces + 1).astype(int)
    out = np.empty(n)
    for i, v in enumerate(values):
        out[edges[i]:edges[i + 1]] = v
    return out

