"""Frame abstraction: analysis, dual synthesis, frame bounds, Gram summaries.

A frame here is a finite family of unit-norm atoms in R^n indexed by a flat
position 0..atom_count-1, optionally carrying structured labels such as
(scale, location) or (scale, location, shift).  Analysis maps a signal to the
inner products with all atoms; dual synthesis applies the pseudoinverse of the
analysis operator.  Frames may additionally carry an unthresholded "carry"
payload (retained scaling coefficients) so that synthesize(analyze(u)) == u on
the full signal space even when the atom family only spans a subspace.

Both operators are batched: a (B, n) block of signals analyzes to a (B, m)
block of coefficients, one row per signal, and a (B, m) block synthesizes to
(B, n); 1-D inputs give 1-D results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FrameError(Exception):
    """Invalid frame or frame operation."""


class DimensionMismatch(FrameError):
    pass


class IterationError(FrameError):
    """An iterative solver failed to converge."""

    def __init__(self, msg, iterations):
        super().__init__(f"{msg} (after {iterations} iterations)")
        self.iterations = iterations


@dataclass
class CoefficientVector:
    """Coefficients indexed by the frame's flat positions.

    labels holds one integer column per index component (e.g. scale j and
    location k); carry holds retained coefficients that are never thresholded
    (scaling coefficients of wavelet-type frames).  values may be a (B, m)
    block with one coefficient vector per row; carry is then (B, c) and the
    labels keep length m.
    """

    values: np.ndarray
    label_names: tuple = ("omega",)
    labels: tuple = ()
    carry: np.ndarray | None = None

    def __post_init__(self):
        # C order, so that a block's row sums run like 1-D sums
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.carry is not None:
            self.carry = np.asarray(self.carry, dtype=float)
        if not self.labels:
            self.labels = (np.arange(self.count),)
        for col in self.labels:
            if len(col) != self.count:
                raise ValueError("label column length does not match values")

    @property
    def count(self):
        return self.values.shape[-1]

    def index_of(self, position):
        """FrameIndex (tuple of label components) at a flat position."""
        return tuple(int(col[position]) for col in self.labels)

    def replace_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError("replacement length mismatch")
        return CoefficientVector(values, self.label_names, self.labels,
                                 None if self.carry is None else self.carry.copy())


@dataclass
class GramSummary:
    frame_bounds: tuple
    coherence_counts: dict
    max_offdiag: float
    distinct_count: int
    include_diagonal: bool = False


class Frame:
    """Abstract frame of R^n with unit-norm atoms.

    Subclasses must provide analyze / dual_synthesize / atom and set
    n, atom_count and name.  Frames are immutable after construction; all
    operations are pure functions of their inputs.
    """

    name = "frame"
    n = 0
    atom_count = 0

    def analyze(self, signal) -> CoefficientVector:
        raise NotImplementedError

    def dual_synthesize(self, coeffs) -> np.ndarray:
        raise NotImplementedError

    def atom(self, position) -> np.ndarray:
        """Materialize unit-norm analysis atoms: shape (n,) for an int flat
        position, (len(position), n) with one atom per row for an index
        array."""
        raise NotImplementedError

    # --- span / multiplicity defaults -------------------------------------

    #: dimension of the atom span, or None to determine it numerically
    span_dim = None
    #: exact (a_n, b_n) of the multiset frame operator on the atom span, set
    #: by constructors that already hold its spectrum; None otherwise
    bounds = None
    #: dimension of the carried (unthresholded) coefficient space
    carry_dim = 0

    def project_span(self, u):
        """Project a signal onto the subspace on which reconstruction holds
        (atom span plus carry space); identity for full-space frames."""
        return np.asarray(u, dtype=float)

    def atom_multiplicity(self, position):
        """Multiset weight of the atom at this position (elementwise for an
        index array); duplicated atoms are retained as distinct indices and
        weighted here."""
        return np.ones_like(position, dtype=float)

    @property
    def distinct_count(self):
        """Number of distinct atoms; equals atom_count unless overridden."""
        return self.atom_count

    def distinct_positions(self):
        """Flat positions selecting one representative per distinct atom."""
        return np.arange(self.atom_count)

    @property
    def evt_count(self):
        """Effective |Omega| used by extreme-value threshold rules."""
        return self.distinct_count

    # --- generic operator plumbing ----------------------------------------

    def _check_signal(self, signal):
        """A signal (n,) or a block of signals (B, n) as floats."""
        signal = np.asarray(signal, dtype=float)
        if signal.ndim not in (1, 2) or signal.shape[-1] != self.n:
            raise DimensionMismatch(
                f"signal has shape {signal.shape}, frame {self.name} expects "
                f"({self.n},) or (B, {self.n})")
        return signal

    def _check_coeffs(self, coeffs):
        values = coeffs.values
        if values.ndim not in (1, 2) or coeffs.count != self.atom_count:
            raise DimensionMismatch(
                f"coefficient values have shape {values.shape}, frame "
                f"{self.name} has {self.atom_count} atoms")
        carry = coeffs.carry
        if carry is not None and carry.shape != values.shape[:-1] + (self.carry_dim,):
            raise DimensionMismatch(
                f"carry has shape {carry.shape}, values {values.shape}; frame "
                f"{self.name} carries {self.carry_dim}")
        return coeffs


#: atoms materialized per block by the dense frame operator and the census
_BLOCK = 256


def _atom_blocks(frame, positions):
    """Yield (block_positions, block_atoms) over consecutive blocks of
    positions, so at most one block of atoms is materialized per step."""
    for start in range(0, len(positions), _BLOCK):
        block = positions[start:start + _BLOCK]
        yield block, frame.atom(block)


_DENSE_EIG_LIMIT = 4096


def frame_bounds(frame):
    """Extreme eigenvalues (a_n, b_n) of the frame operator on the atom span.

    Multiset weights are included, so duplicated atoms raise the bounds.
    Frames whose constructor holds the spectrum answer from `frame.bounds`;
    otherwise the frame operator is built densely and eigensolved, up to
    n = 4096.  Above that, frames without `bounds` raise FrameError.
    """
    if frame.bounds is not None:
        return frame.bounds
    n = frame.n
    if n > _DENSE_EIG_LIMIT:
        raise FrameError(
            f"no frame bounds for {frame.name}: n={n} exceeds the dense "
            f"eigensolve limit {_DENSE_EIG_LIMIT}")
    eigvals = np.sort(np.linalg.eigvalsh(_dense_frame_operator(frame)))
    rank = frame.span_dim
    if rank is None:
        cutoff = n * np.finfo(float).eps * max(eigvals[-1], 1.0)
        rank = int(np.count_nonzero(eigvals > cutoff))
    if rank <= 0:
        raise FrameError("frame has empty atom span")
    a_n = float(eigvals[n - rank])
    b_n = float(eigvals[-1])
    if a_n <= 0 or not np.isfinite(b_n):
        raise FrameError(
            f"frame property violated for {frame.name}: bounds ({a_n}, {b_n})")
    return a_n, b_n


def _dense_frame_operator(frame):
    n = frame.n
    op = np.zeros((n, n))
    for positions, block in _atom_blocks(frame, np.arange(frame.atom_count)):
        op += block.T @ (frame.atom_multiplicity(positions)[:, None] * block)
    return op


def gram_coherence_counts(frame, deltas, deduplicate=True, include_diagonal=False):
    """Count off-diagonal Gram entries |<phi_w, phi_w'>| >= delta.

    Counts ordered pairs (w, w'), w != w', so totals are even by symmetry.
    With deduplicate=True (default) the census runs over distinct atoms only;
    duplicated atoms otherwise trivially contribute |<phi,phi>| = 1 pairs.
    Atoms are materialized lazily in blocks of 256, at most two at a time.
    A count at a level that |kappa| hits exactly depends on the gemm's
    rounding: for TI haar n=256, 8192 off-diagonal entries equal 0.5 in exact
    arithmetic and 5888 of them compute >= 0.5, so another blocking or
    another route to the same entries can move the count at rho = 0.5.
    """
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not 0 < d <= 1:
            raise ValueError(f"coherence level delta={d} outside (0, 1]")
    positions = frame.distinct_positions() if deduplicate else np.arange(frame.atom_count)
    counts = {d: 0 for d in deltas}
    diag_counts = {d: 0 for d in deltas}
    max_off = 0.0
    for start in range(0, len(positions), _BLOCK):
        mi = frame.atom(positions[start:start + _BLOCK])
        g = mi @ mi.T
        off = np.abs(g - np.diag(np.diag(g)))
        max_off = max(max_off, float(off.max()))
        for d in deltas:
            counts[d] += int(np.count_nonzero(off >= d))
            diag_counts[d] += int(np.count_nonzero(np.abs(np.diag(g)) >= d))
        for _, mj in _atom_blocks(frame, positions[start + _BLOCK:]):
            ga = np.abs(mi @ mj.T)
            max_off = max(max_off, float(ga.max()))
            for d in deltas:
                counts[d] += 2 * int(np.count_nonzero(ga >= d))
    bounds = frame_bounds(frame)
    final = {}
    for d in deltas:
        final[d] = counts[d] + (diag_counts[d] if include_diagonal else 0)
    return GramSummary(frame_bounds=bounds, coherence_counts=final,
                       max_offdiag=max_off, distinct_count=len(positions),
                       include_diagonal=include_diagonal)


class ExplicitFrame(Frame):
    """Frame given by an explicit atom matrix (rows are atoms).

    Rows are renormalized to unit norm.  The atoms must span R^n (the frame
    property).  The constructor eigensolves the frame operator A^T A once,
    which gives the frame bounds, and keeps the pseudoinverse
    (A^T A)^{-1} A^T from its Cholesky factorization, so dual synthesis is
    one matrix product.  A (B, .) block is one matrix product too; for a
    non-identity matrix its rows can differ from the 1-D products in the
    last ulp, since BLAS sums a block in another order.
    """

    def __init__(self, matrix, name="explicit"):
        # imported here: scipy.linalg takes longer to load than the rest of
        # the package, and only explicit frames need it
        from scipy.linalg import cho_factor, cho_solve

        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise FrameError("explicit frame needs a 2-d atom matrix")
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0):
            raise FrameError("explicit frame contains a zero atom")
        self._atoms = matrix / norms[:, None]
        self.atom_count, self.n = self._atoms.shape
        self.name = name
        self.span_dim = self.n
        s = self._atoms.T @ self._atoms
        eigvals = np.linalg.eigvalsh(s)
        cutoff = max(self.n, self.atom_count) * np.finfo(float).eps * eigvals[-1]
        if eigvals[0] <= max(cutoff, 0.0):
            raise FrameError(
                "explicit frame operator is singular: atoms do not span R^n")
        self.bounds = (float(eigvals[0]), float(eigvals[-1]))
        self._pinv = cho_solve(cho_factor(s), self._atoms.T)

    def analyze(self, signal):
        signal = self._check_signal(signal)
        return CoefficientVector(signal @ self._atoms.T)

    def dual_synthesize(self, coeffs):
        self._check_coeffs(coeffs)
        return coeffs.values @ self._pinv.T

    def atom(self, position):
        return self._atoms[position].copy()
