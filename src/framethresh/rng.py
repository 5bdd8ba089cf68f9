"""Deterministic counter-based randomness for the simulation harness.

Every Monte Carlo trial draws from its own Philox stream keyed by
(seed, trial index), so results are bit-identical however trials are
scheduled.  The harness draws a block of trials in one call: one Philox bit
generator is re-keyed to (seed, t) for each row t, which puts it in exactly
the state of a fresh generator for that key, so row t is trial t's own draw
and the block layout changes no draw.  Normal variates go through the
inverse-CDF transform applied to open-interval uniforms (k + 0.5)/2^53,
k = next_uint64 >> 11 (scipy's ndtri rational approximation, absolute error
well below 1e-9), keeping the streams platform-independent; the top word,
whose quotient rounds to 1.0, takes 1 - 2^-53, so every normal is finite.
Blocks and streams are made in their output array: Generator.random fills
it with k * 2^-53, adding 2^-54 rounds exactly as k + 0.5 does before the
exact division, and ndtri and the sigma scaling run in place, so a draw
allocates nothing beside its output.  scipy.special is imported on the first draw,
not with this module, so that runs which draw nothing never load it.
"""

from __future__ import annotations

import numpy as np

_U53 = float(2 ** 53)
_HALF_STEP = 2.0 ** -54
#: the largest double below 1, the uniform of the top word
_TOP = 1.0 - 2.0 ** -53


def trial_generator(seed, trial):
    """Independent bit stream for one (seed, trial) pair."""
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed) & np.uint64(2**64 - 1),
                                                     np.uint64(trial)]))


def open_uniform(gen, size):
    """Uniforms in the open interval (0, 1): (k + 0.5)/2^53."""
    return _to_open_uniform(gen.integers(0, 2 ** 53, size=size))


def _to_open_uniform(k):
    return np.minimum((k.astype(float) + 0.5) / _U53, _TOP)


def normal(seed, trial, size, sigma=1.0):
    """sigma * N(0,1) variates via inverse CDF: a (size,) draw for one trial
    index, or a (len(trial), size) block for a sequence of trial indices,
    row i being trial[i]'s own draw (one trial is row 0 of a one-row
    block)."""
    single = np.ndim(trial) == 0
    trials = [trial] if single else list(trial)
    gen = trial_generator(seed, 0)
    bits = gen.bit_generator
    # a fresh generator's state (counter 0, empty buffer); only the key's
    # trial word changes from row to row
    state = bits.state
    u = np.empty((len(trials), size))
    for row, t in enumerate(trials):
        state["state"]["key"][1] = t
        bits.state = state
        gen.random(out=u[row])
    u = _normal_in_place(u, sigma)
    return u[0] if single else u


def stream_normal(gen, size, sigma=1.0):
    """Normals drawn from an existing generator (block-sequential use): the
    same draw as sigma * ndtri(open_uniform(gen, size)), made in the output
    array (consecutive calls continue one stream)."""
    u = np.empty(size)
    gen.random(out=u)
    return _normal_in_place(u, sigma)


def _normal_in_place(u, sigma):
    """sigma * ndtri(u + 2^-54), written into u = k * 2^-53.  Generator.random
    is (next_uint64 >> 11) * 2^-53, the k of Generator.integers(0, 2^53)
    (whose Lemire rule never rejects when the range is a power of two), and
    k * 2^-53 + 2^-54 == (k + 0.5) / 2^53 bit for bit: both round 2k + 1 to
    53 bits, scaled by a power of two.  The top word gives 1.0 and is set
    to 1 - 2^-53, after one read-only check.  sigma == 1 multiplies by
    nothing."""
    from scipy.special import ndtri
    u += _HALF_STEP
    if u.size and u.max() == 1.0:
        np.minimum(u, _TOP, out=u)
    ndtri(u, out=u)
    if sigma != 1:
        u *= sigma
    return u
