"""Deterministic counter-based randomness for the simulation harness.

Every Monte Carlo trial draws from its own Philox stream keyed by
(seed, trial index), so results are bit-identical however trials are
scheduled.  The harness runs trials in blocks by stacking these per-trial
draws, one row per trial; no stream is shared between rows, so the block
layout changes no draw.  Normal variates go through the inverse-CDF transform applied to
open-interval uniforms (scipy's ndtri rational approximation, absolute error
well below 1e-9), keeping the streams platform-independent.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_U53 = float(2 ** 53)


def trial_generator(seed, trial):
    """Independent bit stream for one (seed, trial) pair."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed) & np.uint64(2**64 - 1),
                                                     np.uint64(trial)]))


def open_uniform(gen, size):
    """Uniforms in the open interval (0, 1): (k + 0.5)/2^53."""
    return (gen.integers(0, 2 ** 53, size=size).astype(float) + 0.5) / _U53


def normal(seed, trial, size, sigma=1.0):
    """sigma * N(0,1) variates for one trial, via inverse CDF."""
    gen = trial_generator(seed, trial)
    return sigma * ndtri(open_uniform(gen, size))


def stream_normal(gen, size, sigma=1.0):
    """Normals drawn from an existing generator (block-sequential use)."""
    return sigma * ndtri(open_uniform(gen, size))
