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

    def replace_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError("replacement length mismatch")
        return CoefficientVector(values, self.label_names, self.labels,
                                 None if self.carry is None else self.carry.copy())


@dataclass
class GramSummary:
    """The census at one level: count, the ordered off-diagonal pairs at
    or above it, and distinct_count, the number of distinct atoms."""

    count: int
    distinct_count: int


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

    def shift_structure(self, positions):
        """(bases, rows, shifts) when every atom is a circular shift of a
        unit base atom: atom(p) == np.roll(bases[rows], shifts) elementwise
        over positions, with shifts in [0, n).  None for frames without that
        structure."""
        return None

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

    def distinct_positions(self):
        """Flat positions selecting one representative per distinct atom."""
        return np.arange(self.atom_count)

    @property
    def evt_count(self):
        """|Omega|, the number of distinct atoms: the count the
        extreme-value threshold rules and the Gram census use.  Equals
        atom_count unless overridden."""
        return self.atom_count

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


def gram_coherence_counts(frame, delta):
    """Count off-diagonal Gram entries |<phi_w, phi_w'>| >= delta over the
    distinct atoms of the frame, frame.distinct_positions(), at one level
    delta in (0, 1].

    Counts ordered pairs (w, w'), w != w', so the count is even by symmetry.
    A duplicated atom (cycle spinning, a repeated explicit row) enters once;
    its multiplicity enters only the frame operator.

    Two routes give the same count.  The dense route (explicit and sine
    frames) computes the Gram matrix as gemm tiles of _BLOCK x _BLOCK atoms,
    the tiles on and above the diagonal in row-major order, with at most
    two atom blocks materialized at a time.  The structure route (frames
    with a `shift_structure`: wavelet bases, cycle spinning, TI) uses that
    <roll(B_r, a), roll(B_r', b)> = v_rr'(b - a) is a lag value of two base
    atoms: per pair of rows it takes the lag values from one FFT
    cross-correlation and the exact int64 pair count at every lag from the
    correlation of the per-row shift multiplicities, in O(rows * n) memory
    with no m x m array.

    A count at a level that |kappa| hits exactly depends on rounding: for
    TI haar n=256, 8192 off-diagonal entries equal 0.5 in exact arithmetic,
    the gemm rounds 5888 of them to >= 0.5, and pairs at the same lag fall
    on both sides.  So the structure route decides from the lag value only
    the lags whose |v| lies farther than 8 n eps from delta (a band that
    covers the gemm's and the FFT's rounding together); every pair at a lag
    inside the band is a tie, decided from its entry of the very gemm tile
    the dense route computes, through the same tile helper.  Only tiles
    holding a tie are computed.
    """
    delta = float(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"coherence level delta={delta} outside (0, 1]")
    positions = frame.distinct_positions()
    structure = frame.shift_structure(positions)
    if structure is None:
        count = _dense_census(frame, positions, delta)
    else:
        bases, rows, shifts = structure
        n = bases.shape[1]
        keys = rows * n + shifts
        count, ties = _lag_census(frame.name, bases, keys, delta)
        if len(ties):
            count += _tie_counts(frame, positions, delta, keys, n, ties)
    return GramSummary(count=int(count), distinct_count=len(positions))


def _gram_tiles(frame, positions, tiles):
    """Yield (i, j, tile) for census tiles (i, j), i <= j, given in
    row-major order: tile is |A_i A_j^T| for the atom blocks
    A_i = frame.atom(positions[i*_BLOCK:(i+1)*_BLOCK]), one gemm (A_i A_i^T
    on the diagonal).  Each row block is materialized once per call, and at
    most two blocks are held at a time."""
    row = None
    for i, j in tiles:
        if i != row:
            mi = None  # released before the next block is materialized
            row, mi = i, frame.atom(positions[i * _BLOCK:(i + 1) * _BLOCK])
        mj = mi if j == i else frame.atom(positions[j * _BLOCK:(j + 1) * _BLOCK])
        yield i, j, np.abs(mi @ mj.T)
        mj = None


def _dense_census(frame, positions, delta):
    """The off-diagonal count at delta from every tile; a tile above the
    diagonal stands for its mirror too and counts twice."""
    blocks = -(-len(positions) // _BLOCK)
    tiles = ((i, j) for i in range(blocks) for j in range(i, blocks))
    count = 0
    for i, j, tile in _gram_tiles(frame, positions, tiles):
        if i == j:
            np.fill_diagonal(tile, 0.0)
        count += (1 if i == j else 2) * np.count_nonzero(tile >= delta)
    return count


def _lag_tables(name, bases, keys):
    """Yield (r, values, pairs) for each row r of the atoms at keys =
    row * n + shift, each the base atom of its row rolled by its shift.

    values[k, d] = |<B_r, roll(B_{r+k}, d)>| is the |kappa| of every pair
    (a, b) at rows (r, r + k) with shift(b) - shift(a) = d (mod n), from
    irfft(rfft(B_r) conj(rfft(B_{r+k}))).  pairs[k, d] is the exact int64
    number of such ordered pairs of atoms a != b, from the same correlation
    of the rows' shift multiplicities, checked to be integers; it is
    doubled for k > 0, so that it counts the mirrored pairs at rows
    (r + k, r) too."""
    nrows, n = bases.shape
    mult = np.bincount(keys, minlength=nrows * n).reshape(nrows, n)
    base_spec = np.fft.rfft(bases)
    mult_spec = np.fft.rfft(mult)
    for r in range(nrows):
        values = np.abs(np.fft.irfft(base_spec[r] * np.conj(base_spec[r:]), n))
        pairs = np.fft.irfft(np.conj(mult_spec[r]) * mult_spec[r:], n)
        exact = np.rint(pairs)
        if np.abs(pairs - exact).max() > 0.25:
            raise FrameError(f"lag pair counts of {name} are not exact")
        pairs = exact.astype(np.int64)
        pairs[0, 0] -= mult[r].sum()  # the self-pairs
        pairs[1:] *= 2
        yield r, values, pairs


def _lag_census(name, bases, keys, delta):
    """(count, ties) at delta from the lag tables of the atoms at keys =
    row * n + shift.

    Lags whose value lies within 8 n eps of delta are ties, symmetrized in
    d on a row with itself so that a pair and its mirror tie together;
    every other lag counts all its pairs at once.  ties holds one
    (r, r', d) row per tied lag that holds a pair."""
    n = bases.shape[1]
    band = 8 * n * np.finfo(float).eps
    mirror = -np.arange(n) % n
    count = 0
    ties = [np.empty((0, 3), np.int64)]
    for r, values, pairs in _lag_tables(name, bases, keys):
        tie = np.abs(values - delta) <= band
        tie[0] |= tie[0, mirror]
        count += pairs[(values >= delta) & ~tie].sum()
        k, d = np.nonzero(tie & (pairs > 0))
        ties.append(np.stack([np.full_like(k, r), r + k, d], 1))
    return count, np.concatenate(ties)


def _tie_counts(frame, positions, delta, keys, n, ties):
    """The count at delta of the tied pairs, each pair read from its gemm
    tile.

    One block row of atoms at a time, every tied pair (a, b) with a in the
    block is enumerated: each tie (r, r', d) and the mirror (r', r, -d) of
    a cross-row one send an atom a at row r to the atom b at key
    r' n + (shift(a) + d) mod n, if there is one.  The census runs over
    distinct atoms, so keys are unique and a table indexed by key finds b;
    a tie on one row at d = 0 holds no pair, so b is never a.  A pair in
    tile (a // _BLOCK, b // _BLOCK) above the diagonal counts twice, as in
    the dense route; within a diagonal tile each ordered pair counts once;
    below it, never (its mirror counts)."""
    cross = ties[ties[:, 0] != ties[:, 1]]
    ties = np.concatenate([ties, np.stack([cross[:, 1], cross[:, 0], -cross[:, 2] % n], 1)])
    ties = ties[np.argsort(ties[:, 0], kind="stable")]
    rows = keys.max() // n + 1
    first = np.searchsorted(ties[:, 0], np.arange(rows + 1))
    # int32 keeps the table within the census's memory bound; -1: no atom
    at = np.full(rows * n, -1, np.int32)
    at[keys] = np.arange(len(keys), dtype=np.int32)
    count = 0
    for i in range(-(-len(positions) // _BLOCK)):
        a = np.arange(i * _BLOCK, min((i + 1) * _BLOCK, len(positions)))
        r = keys[a] // n
        k, t = _expand(first[r], first[r + 1] - first[r])
        a = a[k]
        b = at[ties[t, 1] * n + (keys[a] + ties[t, 2]) % n]
        keep = b // _BLOCK >= i  # drops b = -1 too
        a, b = a[keep], b[keep]
        j = b // _BLOCK
        # the column blocks holding a tied pair (np.unique would import numpy.ma)
        tiles = ((i, int(x)) for x in np.flatnonzero(np.bincount(j)))
        for _, jj, tile in _gram_tiles(frame, positions, tiles):
            sel = j == jj
            hit = tile[a[sel] - i * _BLOCK, b[sel] - jj * _BLOCK] >= delta
            count += (2 if jj > i else 1) * np.count_nonzero(hit)
            del tile  # not held while the next tile's atoms are materialized
    return count


def _expand(starts, lengths):
    """(range, index) over the ranges starts[g] .. starts[g] + lengths[g]:
    each range's number g repeated lengths[g] times, with its indices."""
    group = np.repeat(np.arange(len(starts)), lengths)
    first = np.cumsum(lengths) - lengths
    return group, np.arange(len(group)) - first[group] + starts[group]


class ExplicitFrame(Frame):
    """Frame given by an explicit atom matrix (rows are atoms).

    Rows are renormalized to unit norm; a row whose squared norm overflows
    or underflows float64 is refused by its index.  The atoms must span R^n
    (the frame property).  A repeated unit row is one distinct atom: it enters
    evt_count and the Gram census once, while analysis, the frame bounds
    and dual synthesis keep every row.  The constructor eigensolves the
    frame operator A^T A once, which gives the frame bounds, and keeps the
    pseudoinverse (A^T A)^{-1} A^T from its Cholesky factorization, so dual
    synthesis is one matrix product.  A (B, .) block is one matrix product
    too; its rows can differ from the 1-D products in the last ulp, since
    BLAS sums a block in another order.

    A signed permutation (a square matrix whose rows each hold one nonzero
    entry e, in distinct columns, with e / sqrt(e * e) exactly +-1.0; the
    identity, say) has unit rows with A^T A = I exactly, so its bounds are
    (1.0, 1.0) and its pseudoinverse is exactly A^T.  Its rows are distinct
    by construction.  Such a frame is recognized on the input matrix, before
    any row is normalized, and is held as four length-n vectors: each row's
    column and sign, and each column's row and sign.  It keeps no unit-row
    matrix (atom() builds rows on demand, +0.0 off the signed entry), skips
    the search for repeated rows and the eigensolve, and analyzes and
    synthesizes by gathering coordinates times their signs, equal byte for
    byte to the matrix products on finite input (adding 0.0 turns a -0.0
    into the +0.0 the products give).  The one difference: a non-finite
    entry stays in its own coordinate, where the product spreads NaN through
    0 * inf across the whole row.  is_signed_permutation says whether a
    frame takes this route; simulate.sample_max_abs then skips the analysis,
    since each coefficient is a noise coordinate times +-1 and a trial's max
    |coefficient| is its noise's max |eps_i|, which rng.max_abs_normal
    returns bit for bit from the extreme uniforms.
    """

    def __init__(self, matrix, name="explicit"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise FrameError("explicit frame needs a 2-d atom matrix")
        if matrix.size == 0:
            raise FrameError(f"explicit frame matrix of shape {matrix.shape} is empty")
        if not np.all(np.isfinite(matrix)):
            raise FrameError("explicit frame matrix holds a NaN or infinite entry")
        self.atom_count, self.n = matrix.shape
        self.name = name
        self.span_dim = self.n
        self._permutation = _signed_permutation(matrix)
        if self._permutation is not None:
            self._distinct = np.arange(self.atom_count)
            self.bounds = (1.0, 1.0)
            return
        if not np.all(np.any(matrix, axis=1)):
            raise FrameError("explicit frame contains a zero atom")
        with np.errstate(over="ignore"):  # a row out of range is named below
            squares = np.sum(matrix * matrix, axis=1)  # np.linalg.norm's, unrooted
        out_of_range = np.isinf(squares) | (squares < np.finfo(float).tiny)
        if np.any(out_of_range):
            row = int(np.argmax(out_of_range))
            raise FrameError(f"explicit frame row {row}: its squared norm "
                             + ("overflows" if np.isinf(squares[row]) else "underflows"))
        self._atoms = matrix / np.sqrt(squares)[:, None]
        # the first of each set of equal unit rows (np.unique sorts stably
        # for return_index); adding 0.0 makes -0.0 equal 0.0
        first = np.unique(self._atoms + 0.0, axis=0, return_index=True)[1]
        self._distinct = np.sort(first)
        # imported here: scipy.linalg takes longer to load than the rest of
        # the package, and only this route needs it
        from scipy.linalg import cho_factor, cho_solve

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
        if self._permutation is not None:
            columns, signs, _, _ = self._permutation
            return CoefficientVector(_signed_gather(signal, columns, signs))
        return CoefficientVector(signal @ self._atoms.T)

    def dual_synthesize(self, coeffs):
        self._check_coeffs(coeffs)
        if self._permutation is not None:
            _, _, rows, row_signs = self._permutation
            return _signed_gather(coeffs.values, rows, row_signs)
        return coeffs.values @ self._pinv.T

    @property
    def is_signed_permutation(self):
        """Whether the unit rows form a signed permutation (read-only)."""
        return self._permutation is not None

    def atom(self, position):
        if self._permutation is None:
            return self._atoms[position].copy()
        columns, signs, _, _ = self._permutation
        columns, signs = columns[position], signs[position]
        out = np.zeros(np.shape(columns) + (self.n,))
        np.put_along_axis(out, columns[..., None], signs[..., None], axis=-1)
        return out

    def distinct_positions(self):
        """The first row of each distinct unit row, ascending."""
        return self._distinct

    @property
    def evt_count(self):
        return len(self._distinct)


def _signed_permutation(matrix):
    """(columns, signs, rows, row_signs) when the unit rows of the finite
    matrix form a signed permutation: the matrix is square, row i holds one
    nonzero entry e, at columns[i], with signs[i] = e / sqrt(e * e) exactly
    +-1.0 (the unit row's entry: the row norm is sqrt(e * e)), and the
    columns are distinct; rows and row_signs gather the transpose,
    columns[rows[j]] == j with row_signs[j] == signs[rows[j]].  None for any
    other matrix.  No float temporary of the matrix's size is made."""
    m, n = matrix.shape
    if m != n:
        return None
    nonzero = matrix != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    columns = np.argmax(nonzero, axis=1)
    entries = matrix[np.arange(n), columns]
    # e * e may overflow or underflow; such a row is refused below
    with np.errstate(over="ignore", divide="ignore"):
        signs = entries / np.sqrt(entries * entries)
    if not np.all(np.abs(signs) == 1.0) or not np.all(np.bincount(columns, minlength=n) == 1):
        return None
    rows = np.argsort(columns)
    return columns, signs, rows, signs[rows]


def _signed_gather(x, index, signs):
    """x[..., index] * signs + 0.0, with one allocation."""
    out = np.take(x, index, axis=-1)
    out *= signs
    out += 0.0
    return out
