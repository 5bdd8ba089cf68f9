"""Deterministic counter-based randomness for the simulation harness.

Every Monte Carlo trial draws from its own Philox stream keyed by
(seed, trial index), so results are bit-identical however trials are
scheduled.  The harness draws a block of trials in one call: one Philox bit
generator is re-keyed to (seed, t) for each row t, which puts it in exactly
the state of a fresh generator for that key, so row t is trial t's own draw
and the block layout changes no draw.  Normal variates go through the
inverse-CDF transform applied to open-interval uniforms (k + 0.5)/2^53,
k = next_uint64 >> 11 (scipy's ndtri rational approximation, within 1e-13
of the exact inverse on that grid, as a test checks), keeping the streams
platform-independent; the top word, whose quotient rounds to 1.0, takes
1 - 2^-53, so every normal is finite.
Blocks and streams are made in their output array: Generator.random fills
it with k * 2^-53, adding 2^-54 rounds exactly as k + 0.5 does before the
exact division, and ndtri and the sigma scaling run in place, so a draw
allocates nothing beside its output.  scipy.special is imported on the first draw,
not with this module, so that runs which draw nothing never load it.

max_abs_normal returns only each row's max |N| of a block, for frames
whose analysis reorders coordinates and flips signs (simulate uses it on
signed-permutation explicit frames, the identity among them).  It draws the
same uniforms as normal and runs ndtri only on those within 2^-40 of their
row's largest or smallest one; since every step from a word to its normal
is monotone and ndtri's error is far below what 2^-40 moves it, that
returns the same floats as the full transform (see _max_abs_in_place).
count_max_abs_within counts, per threshold T, the rows of a stream_normal
block with max |N| <= T by comparing each row's largest and smallest
uniforms with Phi(+-T), by the same argument, so that ndtri runs only on a
row with an extreme uniform within 2^-40 of Phi(+-T).
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
    u = _normal_in_place(_uniform_rows(seed, [trial] if single else trial, size), sigma)
    return u[0] if single else u


def max_abs_normal(seed, trials, size, sigma=1.0):
    """Each row's max |N| of the block normal(seed, trials, size, sigma), a
    (len(trials),) array equal bit for bit to np.max(np.abs(normal(seed,
    trials, size, sigma)), axis=-1), from the same uniforms with the inverse
    CDF run on a few per row (_max_abs_in_place says which and why)."""
    return _max_abs_in_place(_uniform_rows(seed, trials, size), sigma)


def _uniform_rows(seed, trials, size):
    """The (len(trials), size) block of k * 2^-53 words, row i drawn from
    trial[i]'s own stream."""
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
    return u


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


#: half-width of the window around a row's extreme uniforms in which
#: _max_abs_in_place runs ndtri
_WINDOW = 2.0 ** -40


def _max_abs_in_place(u, sigma):
    """Each row's max |sigma * ndtri(u + 2^-54)| of a (B, size) block of
    u = k * 2^-53 words (u is overwritten): the same floats as
    np.max(np.abs(_normal_in_place(u, sigma)), axis=-1).

    A row's max |x| is the larger of |max x| and |min x|, and every step
    from a word to its normal (the half step, the top-word clip, ndtri,
    the sigma product) is nondecreasing in exact arithmetic, so the row's
    largest and smallest normals come from its largest and smallest
    uniforms.  ndtri is computed, not exact, so it runs on every uniform
    within 2^-40 of its row's largest or smallest one, not on those two
    alone: ndtri' = 1/phi(ndtri) >= sqrt(2 pi), so a uniform outside that
    window lies at least 2.3e-12 below (above) the extreme one in exact
    ndtri, about 1000 times scipy's ndtri error, and its computed normal
    is strictly smaller (larger).  The half step and the max reductions run
    on the whole block, ndtri, the clip and the sigma product on the window
    only: a couple of values per row."""
    from scipy.special import ndtri
    u += _HALF_STEP
    near = u >= u.max(axis=-1, keepdims=True) - _WINDOW
    near |= u <= u.min(axis=-1, keepdims=True) + _WINDOW
    index = np.flatnonzero(near)
    rows = index // u.shape[-1]
    x = ndtri(np.minimum(u.ravel()[index], _TOP))
    if sigma != 1:
        x *= sigma
    np.abs(x, out=x)
    # every row has a window value (its largest), and flatnonzero lists the
    # rows in order, so each row's window is one run of x
    return np.maximum.reduceat(x, np.flatnonzero(np.diff(rows, prepend=-1)))


def count_max_abs_within(gen, shape, thresholds):
    """For each T of thresholds, the number of rows of the (B, dim) block
    stream_normal(gen, shape) whose max |N| is <= T, an int array equal to
    [np.count_nonzero(np.max(np.abs(block), axis=1) <= T) for T in
    thresholds].  It draws the same words from gen (the stream goes on
    where stream_normal leaves it) and counts them with _count_within."""
    u = np.empty(shape)
    gen.random(out=u)
    return _count_within(u, thresholds)


def _count_within(u, thresholds):
    """The counts of count_max_abs_within from a (B, dim) block of
    u = k * 2^-53 words (u is overwritten).

    A row's max |N| <= T when its largest normal is <= T and its smallest
    >= -T, and those come from its largest and smallest uniforms.  The
    2^-40 window argument of _max_abs_in_place, applied at Phi(+-T) =
    ndtr(+-T) (within 1e-16 of the exact value) instead of at the row's
    extremes, decides a row whose extreme uniforms lie 2^-40 or more from
    both crossings without any ndtri.  Only the other rows run ndtri (with
    the top-word clip) on their values, so where _max_abs_in_place
    transforms a couple of values per row, this transforms almost none,
    which makes it the faster of the two for counts against a few T."""
    from scipy.special import ndtr, ndtri
    u += _HALF_STEP
    hi, lo = u[:, 0].copy(), u[:, 0].copy()
    for k in range(1, u.shape[1]):  # column slices: dim is small
        np.maximum(hi, u[:, k], out=hi)
        np.minimum(lo, u[:, k], out=lo)
    counts = np.zeros(len(thresholds), dtype=np.int64)
    for i, T in enumerate(thresholds):
        top, bottom = ndtr(T), ndtr(-T)
        inside = (hi < top - _WINDOW) & (lo > bottom + _WINDOW)
        near = ~inside & (hi <= top + _WINDOW) & (lo >= bottom - _WINDOW)
        x = np.abs(ndtri(np.minimum(u[near], _TOP)))
        counts[i] = np.count_nonzero(inside) + np.count_nonzero(np.max(x, axis=1) <= T)
    return counts
