"""Quantitative checks of the asymptotic-stability hypotheses.

The stability census counts strongly correlated atom pairs against the
o(|Omega|/sqrt(log |Omega|)) budget and tracks upper frame bounds; the
comparison sum R and its three-way split mirror the proof decomposition; the
comparison bounds evaluate the Li-Shao inequalities (factor 1/4 for maxima of
absolute values, 1/8 without absolute values).

The three sums run on the histogram of the absolute Gram matrix with its
diagonal zeroed: the distinct |kappa| with their pair counts.  Each term
comes from the scalar formula once per distinct |kappa|, and each sum is the
exactly rounded count-weighted sum over them, so it does not depend on the
order of the pairs.  The histogram comes from one pass over row blocks of
_BLOCK_ENTRIES entries, which also checks the Gram matrix: besides the Gram
matrix the caller holds, a sum takes O(_BLOCK_ENTRIES + distinct |kappa|)
memory at every m (about 4.5 MB for the 2048 x 2048 TI haar n=256 Gram,
whose 32 MB a whole-array |G| would copy twice).  frame_gram makes the
histogram once, when it builds the Gram matrix, and returns a read-only
GramMatrix that holds it, so no sum on it runs the pass; any other array
pays the pass on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frame_bounds, gram_coherence_counts


@dataclass
class StabilityRow:
    n: int
    omega_count: int
    count_geq_rho: int
    ratio: float  # count * sqrt(log |Omega|) / |Omega|
    per_atom: float  # count / |Omega|
    upper_frame_bound: float
    count_with_diagonal: int


@dataclass
class StabilityReport:
    rho: float
    rows: list
    ratio_nonincreasing: bool
    per_atom_bounded: bool
    sup_frame_bound: float
    frame_bounds_bounded: bool  # heuristic: b_n not growing with n
    verdict: str


def stability_check(frame_family, rho):
    """Count off-diagonal Gram pairs |<phi,phi'>| >= rho of distinct atoms
    across a family of frames of increasing n and report finite-n evidence
    for both conditions; |Omega| is the distinct atom count.

    Counts are reported both without (omega != omega') and with the diagonal
    (the definition is ambiguous on that point); the ratio column is
    count*sqrt(log|Omega|)/|Omega|.  The o(.) condition cannot be proved at
    finite n, so the verdict rests on trend evidence: the per-atom count
    count/|Omega| staying bounded (within 15% relative slack across the
    family) and the upper frame bounds not growing with n (compared against
    sqrt of the n growth between the last two rows).  The strict
    ratio-nonincreasing flag is reported alongside.

    Every frame's bounds come first, largest n first, so a family with a
    frame that has none raises FrameError before any census runs.
    """
    if not 0 < rho < 1:
        raise ValueError(f"rho={rho} outside (0, 1)")
    frames = list(frame_family)
    if len(frames) < 3:
        raise ValueError("need at least 3 frames of increasing n")
    ns = [fr.n for fr in frames]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"frame sizes n={ns} must strictly increase")
    bounds = [frame_bounds(fr) for fr in reversed(frames)][::-1]
    rows = []
    for fr, (_, b_n) in zip(frames, bounds):
        summary = gram_coherence_counts(fr, [rho])
        count = summary.coherence_counts[rho]
        m = summary.distinct_count
        rows.append(StabilityRow(
            n=fr.n, omega_count=m, count_geq_rho=count,
            ratio=count * math.sqrt(math.log(m)) / m,
            per_atom=count / m,
            upper_frame_bound=b_n,
            count_with_diagonal=count + m))
    ratios = [r.ratio for r in rows]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    per_atom = [r.per_atom for r in rows]
    per_atom_bounded = per_atom[-1] <= 1.15 * max(per_atom[0], 1e-12) + 1e-12
    bounds = [r.upper_frame_bound for r in rows]
    growth = bounds[-1] / bounds[-2]
    n_growth = rows[-1].n / rows[-2].n
    bounded = growth < math.sqrt(n_growth)
    if per_atom_bounded and bounded:
        verdict = "stable"
    elif not bounded:
        verdict = "unstable: upper frame bounds grow with n"
    else:
        verdict = "unstable: strongly-coherent pair count grows per atom"
    return StabilityReport(rho=rho, rows=rows, ratio_nonincreasing=nonincreasing,
                           per_atom_bounded=per_atom_bounded,
                           sup_frame_bound=max(bounds),
                           frame_bounds_bounded=bounded, verdict=verdict)


#: Gram entries per row block of the pass over a Gram matrix (2^18 doubles,
#: 2 MB): 128 rows of the TI haar n=256 Gram (m = 2048)
_BLOCK_ENTRIES = 1 << 18


def _abs_row_blocks(gram):
    """(start, block) over consecutive row blocks of |gram| with the diagonal
    set to 0; every block is written into one reused buffer."""
    m = len(gram)
    rows = max(1, _BLOCK_ENTRIES // m)
    buf = np.empty((min(rows, m), m))
    for start in range(0, m, rows):
        block = np.abs(gram[start:start + rows], out=buf[:min(rows, m - start)])
        # entry (start + k, start + k) sits at flat index start + k (m + 1)
        block.reshape(-1)[start::m + 1] = 0.0
        yield start, block


def _merge_histograms(parts):
    """One (values, counts) histogram from several, with exact int64 counts."""
    values, inverse = np.unique(np.concatenate([v for v, _ in parts]),
                                return_inverse=True)
    counts = np.zeros(len(values), np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in parts]))
    return values, counts


def _offdiag_histogram(gram):
    """(values, counts) of a float Gram matrix, both read-only: the distinct
    entries of |kappa| with the diagonal set to 0 in ascending order, and
    their int64 multiplicities.

    One pass over row blocks of _BLOCK_ENTRIES entries makes each block's
    histogram and merges them by value, so memory stays O(_BLOCK_ENTRIES +
    distinct values) at every m: block histograms are merged into the
    running one once they hold more entries than it and the block budget.
    The same pass checks the Gram matrix; errors come in the order square,
    finite, diagonal, [-1, 1]."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be a square matrix")
    if not gram.size:
        raise ValueError("gram must not be empty")
    merged = (np.empty(0), np.empty(0, np.int64))
    pending, held = [], 0
    for _, block in _abs_row_blocks(gram):
        pending.append(np.unique(block, return_counts=True))
        held += len(pending[-1][0])
        if held > max(_BLOCK_ENTRIES, len(merged[0])):
            merged, pending, held = _merge_histograms([merged, *pending]), [], 0
    values, counts = _merge_histograms([merged, *pending])
    # np.unique sorts NaN last, and |kappa| holds no -inf
    diag = np.diagonal(gram)
    if not (math.isfinite(values[-1]) and np.isfinite(diag).all()):
        raise ValueError("gram entries must be finite")
    if np.max(np.abs(diag - 1.0)) > 1e-9:
        raise ValueError("gram diagonal must be 1 within 1e-9")
    if max(values[-1], np.max(np.abs(diag))) > 1 + 1e-9:
        raise ValueError("gram entries must lie in [-1, 1]")
    values.flags.writeable = counts.flags.writeable = False
    return values, counts


def _offdiag_terms(gram, term):
    """(values, counts, terms) of a Gram matrix: (values, counts) its
    _offdiag_histogram (every term vanishes at the zeroed diagonal, so each
    sum runs over the whole array) and terms[i] = term(values[i]).

    A GramMatrix from frame_gram holds its histogram; every other input
    makes it on every call, and a rejected one raises before any term is
    computed.  The scalar formula runs once per distinct |kappa| on Python
    floats, so every term equals the scalar formula's bit for bit (numpy's
    vectorized exp and pow differ from the C library's in the last ulp on a
    few percent of inputs); shift-structured Grams hold few distinct
    values."""
    if isinstance(gram, GramMatrix) and gram._histogram is not None:
        values, counts = gram._histogram
    else:
        values, counts = _offdiag_histogram(np.asarray(gram, dtype=float))
    terms = np.fromiter(map(term, values.tolist()), float, len(values))
    return values, counts, terms


def _weighted_fsum(terms, counts):
    """Exactly rounded sum_i terms[i] * counts[i]: fsum over the binary
    expansion of the counts.  Each terms[i] * 2^b is exact, so this is the
    same float as fsum over the multiset with terms[i] repeated counts[i]
    times, from at most as many summands."""
    powers = np.arange(int(counts.max(initial=0)).bit_length())
    bits = (counts[:, None] >> powers) & 1 == 1
    return math.fsum(np.ldexp(terms[:, None], powers)[bits].tolist())


def _rest_terms(gram, m):
    base = math.log(m) / m ** 2
    return _offdiag_terms(gram, lambda a: a * base ** (1.0 / (1.0 + a)))


def rest_sum(gram, m):
    """R = sum_{w != w'} |kappa| (log m / m^2)^{1/(1+|kappa|)}, exactly
    rounded: the count-weighted sum over the distinct |kappa|."""
    if m < 2:
        raise ValueError("m must be >= 2")
    _, counts, terms = _rest_terms(gram, m)
    return _weighted_fsum(terms, counts)


def rest_split(gram, m, rho, delta):
    """Partial sums (R1, R2, R3) over |kappa| >= rho, delta <= |kappa| < rho,
    |kappa| < delta; the proof's decomposition, so R1+R2+R3 = rest_sum."""
    if not 0 < delta < 1.0 / 3.0:
        raise ValueError(f"delta={delta} outside (0, 1/3)")
    if not delta <= rho < 1:
        raise ValueError(f"rho={rho} outside [delta, 1)")
    v, c, t = _rest_terms(gram, m)
    return tuple(_weighted_fsum(t[mask], c[mask])
                 for mask in (v >= rho, (v >= delta) & (v < rho), v < delta))


@dataclass
class ComparisonBound:
    value: float
    threshold: float
    flavor: str
    max_term: float
    argmax_pair: tuple


def comparison_bound(gram, threshold, flavor="abs"):
    """Li-Shao bound on |P{max <= T}(independent) - P{max <= T}(gram)|:
    (1/4 for abs, 1/8 for normal) * sum_{w != w'} |kappa| exp(-T^2/(1+|kappa|)).
    The largest term's pair is the first in row-major order, (0, 0) when
    every term is 0.  A non-finite threshold raises ValueError.
    """
    if flavor not in ("abs", "normal"):
        raise ValueError(f"flavor must be 'abs' or 'normal', got {flavor!r}")
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold T={threshold} is not finite")
    factor = 0.25 if flavor == "abs" else 0.125
    t2 = threshold ** 2
    v, c, t = _offdiag_terms(gram, lambda a: a * math.exp(-t2 / (1.0 + a)))
    top = t.max()
    pair = _first_pair(np.asarray(gram, dtype=float), v[t == top]) if top else (0, 0)
    return ComparisonBound(value=factor * _weighted_fsum(t, c), threshold=threshold,
                           flavor=flavor, max_term=factor * float(top), argmax_pair=pair)


def _first_pair(gram, maxima):
    """The first (i, j) in row-major order with i != j and |gram[i, j]| in
    maxima, scanning row blocks until one holds it."""
    for start, block in _abs_row_blocks(gram):
        hit = np.isin(block, maxima)
        if hit.any():
            i, j = np.unravel_index(np.argmax(hit), block.shape)
            return start + int(i), int(j)


class GramMatrix(np.ndarray):
    """A read-only Gram matrix, as frame_gram returns it.

    The instance frame_gram returns holds the (values, counts) histogram of
    its off-diagonal |kappa| that frame_gram made, so rest_sum, rest_split
    and comparison_bound on it run no pass over it.  Views, copies and
    ufunc results are GramMatrix instances that hold none, and np.asarray
    gives a plain ndarray: the sums run the pass on every call for them,
    as for any array."""

    def __array_finalize__(self, obj):
        self._histogram = None


def frame_gram(frame):
    """Dense Gram matrix of the distinct atoms, frame.distinct_positions();
    for diagnostics at modest n.

    Makes the |kappa| histogram of the comparison sums in one pass over the
    product, which checks it too: a Gram matrix the sums would reject
    raises ValueError here.  Returns a read-only GramMatrix that holds the
    histogram, 16 B per distinct |kappa|, and whose base is an array over a
    read-only buffer, so writing into it and setting flags.writeable on it,
    on its base or on any view of it all raise; .copy() gives a writable
    one.  The buffer's exporter (gram.base.base.obj) is the product's own
    array, which is not to be written: the histogram would no longer match
    the entries."""
    atoms = frame.atom(frame.distinct_positions())
    product = atoms @ atoms.T
    histogram = _offdiag_histogram(product)
    # no copy: the read-only memoryview shares the product's memory
    gram = np.asarray(memoryview(product).toreadonly()).view(GramMatrix)
    gram._histogram = histogram
    return gram
