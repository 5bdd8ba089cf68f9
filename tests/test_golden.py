"""Golden sha256 tripwire over the wavelet and cycle-spinning outputs.

Any change to the bits of `analyze`, `dual_synthesize` or `denoise` on these
frames fails here, whatever the change meant to do.  The digests were
recorded with the program at the commit before the synthesis plan landed.
The inputs are exact (integers over 37, signed zeros), so the digests rest
only on IEEE arithmetic and on numpy's dot in the atom norms; FFT frames are
left out, since their bits can vary with the numpy build.  A digest that
moves with a new numpy build is re-recorded by running `_digest` at an
unchanged commit.
"""

import hashlib

import numpy as np
import pytest

from framethresh.shrink import denoise, shrink_value
from framethresh.transforms import CycleSpinFrame, WaveletBasis

GOLDEN = {
    "haar": "f17d65723991cd1dfc48e6aadcf7dde12971e8c90082c4bb9c9bdc008f10bf14",
    "d4": "9c8bed1e94c854a1bc0916bb94aa234ee151a8983fe465d53d74c17d1e9a9b09",
    "cdf97": "f28d948474304186612e4dc8b2fdcbc2e59e5180688577bcc0ea1345808de286",
    "cdf97r": "36ef1cce9e34c784fb267025184b2b554e2d7a351229deed3ee942bce0f6b805",
}


def _inputs(shape):
    k = np.arange(int(np.prod(shape))).reshape(shape)
    x = ((k * 7919) % 257 - 128) / 37.0
    x[..., ::5] = 0.0
    x[..., 2::7] = -0.0
    return x


def _digest(name):
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())

    frames = []
    for n in (2, 16, 256):
        for c in range(min(2, int(np.log2(n)))):
            frames.append(WaveletBasis(n, name, c))
            if name in ("haar", "d4") and n >= 16:
                frames += [CycleSpinFrame(n, M, name, c) for M in (1, 4)]
    for frame in frames:
        for x in (_inputs((frame.n,)), _inputs((3, frame.n))):
            cv = frame.analyze(x)
            add(cv.values, cv.carry, frame.dual_synthesize(cv))
            shrunk = cv.replace_values(shrink_value(cv.values, 1.0))
            add(frame.dual_synthesize(shrunk))
            for rule in ("soft", "hard", "garrote"):
                res = denoise(frame, x, 0.8, rule)
                add(res.estimate, res.thresholded_coeffs.values, [res.kept_count])
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digest(name):
    assert _digest(name) == GOLDEN[name]
