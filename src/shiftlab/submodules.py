"""Submodules of a weighted module from polynomial generators.

For homogeneous generators the submodule splits degree by degree; each slice
carries an orthonormal basis of the intersection with the homogeneous
polynomials of that degree, plus the complementary orthonormal set: graded
frames store one dense block per degree (monomial submodules: coordinate
columns).  Other generators split by weighted degree w . alpha instead, w
the smallest positive integer weight that makes every generator weighted
homogeneous: their frames are sliced, one dense block per weighted slice on
that slice's rows.  With no such weight (w = 0) the whole basis is one
slice, and the frames are unlabelled ndarrays on the ambient rows.  All
vectors are in the orthonormal monomial coordinates (z^alpha scaled by
1/lambda_alpha), so projections and restrictions are plain matrix algebra.
"""

from dataclasses import dataclass
from itertools import combinations, count
from math import gcd

import numpy as np

from . import schatten
from .polynomials import PolynomialGenerator
from .shift_operators import STACK_SIDE, SubspaceFrame, size_classes
from .weight_models import WeightSet

DEFAULT_RANK_TOL = 1e-10


class RankCollapseError(ValueError):
    """Spanning vectors are numerically dependent beyond the rank tolerance."""

    def __init__(self, message, condition_number):
        self.condition_number = condition_number
        super().__init__(f"{message} (condition number {condition_number:.3e})")


@dataclass(frozen=True, eq=False)
class SubmoduleBasis:
    """Orthonormal bases of a submodule S and its orthocomplement.

    Both frames are graded when the generators are homogeneous (their
    degrees then label each column with its degree); otherwise they are
    sliced by weighted degree, or unlabelled when no positive weight exists.
    """

    weights: WeightSet
    sub: SubspaceFrame
    comp: SubspaceFrame


def projection_matrix(frame: SubspaceFrame) -> np.ndarray:
    """Orthogonal projection onto the frame's span, on the full basis, a
    test oracle: a graded or sliced frame's is the direct sum of its blocks'
    Q_n Q_n* on their rows."""
    if frame.shapes is None:
        return frame.columns @ frame.columns.conj().T
    rows = frame.offsets[0]
    at = np.arange(rows[-1]) if frame.rows is None else frame.rows
    P = np.zeros((rows[-1], rows[-1]), frame.columns.dtype)
    for n in range(len(frame.shapes)):
        B, R = frame.blocks(n)[0], at[rows[n]:rows[n + 1]]
        P[np.ix_(R, R)] = B @ B.conj().T
    return P


def submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """The submodule these PolynomialGenerators generate, and its complement:
    coordinate frames when every generator is one term, graded when all are
    homogeneous, otherwise sliced by weighted degree (unlabelled with no
    positive weight).  An empty list, or a generator of another variable
    count or with a component outside [0, multiplicity), is a ValueError."""
    b = w.basis
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    for t, g in enumerate(generators):
        if g.num_vars != b.num_vars:
            raise ValueError(f"generator #{t} {g.terms} has {g.num_vars} variables, "
                             f"basis has {b.num_vars}")
        for _, c, _ in g.terms:
            if not 0 <= c < b.multiplicity:
                raise ValueError(f"generator #{t} {g.terms}: component {c} out of range "
                                 f"[0, {b.multiplicity})")
    if all(len(g.terms) == 1 for g in generators):
        return _monomial_submodule(w, generators)
    if all(g.is_homogeneous for g in generators):
        return _homogeneous_submodule(w, generators)
    return _ungraded_submodule(w, generators)


def _monomial_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Submodule generated by monomials: spanned by all componentwise multiples."""
    b = w.basis
    member = np.zeros(b.dimension, dtype=bool)
    for g in generators:
        (alpha, c, _), = g.terms
        member |= (b.components == c) & np.all(b.exponents >= alpha, axis=1)
    return SubmoduleBasis(w, *(_coordinate_frame(b, side) for side in (member, ~member)))


def _coordinate_frame(b, mask) -> SubspaceFrame:
    """The coordinate frame of the ordinals in mask: graded, every block's
    1.0 entries set by one scatter, and the ordinals recorded."""
    d, k = np.diff(b.slice_bounds), np.bincount(b.degrees[mask], minlength=b.max_degree + 1)
    j = np.flatnonzero(mask)
    frame = SubspaceFrame(np.zeros(d @ k), np.stack([d, k], axis=1), ordinals=j)
    rows, cols, entries = frame.offsets
    n = b.degrees[j]
    frame.columns[entries[n] + (j - rows[n]) * k[n] + np.arange(j.size) - cols[n]] = 1.0
    return frame


def multiple_vectors(w: WeightSet, g: PolynomialGenerator, lo: int, hi: int,
                     scaled: bool = True):
    """The multiples z^q * g in orthonormal coordinates (coefficients scaled by
    lambda), one per multi-index q with lo <= |q| <= hi, in basis order;
    with scaled=False, the plain coefficient vectors in monomial coordinates.

    Returns (rows, vals), each (multiples, terms of g): the c-th multiple has
    the value vals[c, t] on the ordinal rows[c, t], and no other nonzero, so
    that callers scatter only the rows they need.  Real when every
    coefficient of g is real, complex otherwise.
    """
    b = w.basis
    coefs = np.array([complex(coef) for _, _, coef in g.terms])
    if not coefs.imag.any():
        coefs = coefs.real
    alphas = np.array([alpha for alpha, _, _ in g.terms])
    shifts = b.exponents[b.slice_bounds[lo]:b.slice_bounds[max(hi + 1, lo)]:b.multiplicity]
    rows = b.rank((shifts[:, None, :] + alphas).reshape(-1, b.num_vars),
                  np.tile([c for _, c, _ in g.terms], len(shifts)))
    rows = rows.reshape(len(shifts), len(alphas))
    vals = np.broadcast_to(coefs, rows.shape)
    return rows, vals * w.lam[rows] if scaled else vals.copy()


def multiple_columns(w: WeightSet, g: PolynomialGenerator, lo: int, hi: int,
                     rows: range | None = None) -> np.ndarray:
    """multiple_vectors' (scaled) multiples as dense columns on the ordinals
    in rows, all of them by default; rows must hold every multiple's nonzeros."""
    at, vals = multiple_vectors(w, g, lo, hi)
    rows = range(w.basis.dimension) if rows is None else rows
    M = np.zeros((len(rows), len(at)), vals.dtype)
    M[at - rows.start, np.arange(len(at))[:, None]] = vals
    return M


def _orthonormalize(columns: np.ndarray):
    """SVD orthonormalization with a relative rank decision.

    Returns (orthonormal basis of the column span, orthonormal basis of its
    complement within the columns' coordinate space).
    """
    U, s, _ = np.linalg.svd(columns, full_matrices=True)
    rank = _rank(s)
    return U[:, :rank], U[:, rank:]


def _rank(s) -> int:
    """The count of singular values s, in descending order, above
    DEFAULT_RANK_TOL times the largest."""
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


def _span(columns: np.ndarray) -> np.ndarray:
    """The left singular vectors of columns above the rank cut-off."""
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    return U[:, :_rank(s)]


def _homogeneous_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Submodule generated by homogeneous polynomials, built degree by degree.

    Degree-n slice: orthonormalize { z^q * g : deg g + |q| = n } in the
    lambda-weighted inner product and complete to the full slice.
    """
    b = w.basis
    degrees = [g.homogeneous_degree for g in generators]
    blocks = []
    for n in range(b.max_degree + 1):
        sl = b.degree_slice(n)
        span = [multiple_columns(w, g, n - d, n - d, sl)
                for g, d in zip(generators, degrees) if d <= n]
        blocks.append(_orthonormalize(np.hstack(span) if span else np.zeros((len(sl), 0))))
    sub, comp = zip(*blocks)
    return SubmoduleBasis(w, SubspaceFrame.from_blocks(sub), SubspaceFrame.from_blocks(comp))


def kernel_columns(w: WeightSet, points, components):
    """Truncated evaluation vectors in orthonormal coordinates: conj(z)^beta / lambda_beta."""
    b = w.basis
    cols = []
    for z in points:
        z = tuple(complex(c) for c in z)
        if len(z) != b.num_vars:
            raise ValueError(f"point {z} has wrong dimension, expected {b.num_vars}")
        if sum(abs(c) ** 2 for c in z) >= 1.0:
            raise ValueError(f"point {z} is not inside the open unit ball")
        mono = np.ones(b.dimension, dtype=complex)
        for t in range(b.num_vars):
            mono *= np.conj(z[t]) ** b.exponents[:, t]
        for comp in components:
            v = np.where(b.components == comp, mono / w.lam, 0.0)
            cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def check_distinct_points(s):
    """Reject evaluation vectors, with singular values s in descending order,
    that are numerically dependent: their points nearly coincide."""
    if s[-1] <= DEFAULT_RANK_TOL * s[0]:
        cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        raise RankCollapseError("nearly coincident evaluation points", cond)


def _eliminate(u: list, v: list, c: int) -> list:
    """v[c] u - u[c] v, which is zero at c, divided by its entries' gcd."""
    x = [v[c] * a - u[c] * b for a, b in zip(u, v)]
    g = gcd(*x)
    return [a // g for a in x] if g else x


def _reduced_rows(rows, m: int) -> dict:
    """{pivot column: integer row} spanning the rows over Q, each row zero
    in every other row's pivot column (Gauss-Jordan in Python ints)."""
    pivots = {}
    for row in rows:
        for c, r in pivots.items():
            if row[c]:
                row = _eliminate(row, r, c)
        c = next((j for j in range(m) if row[j]), None)
        if c is not None:
            for d, r in list(pivots.items()):
                if r[c]:
                    pivots[d] = _eliminate(r, row, c)
            pivots[c] = row
    return pivots


def homogeneity_weight(generators, num_vars: int) -> tuple:
    """The positive integer weight w of smallest sum, ties broken by the
    lexicographically smallest, under which every generator is
    w-homogeneous (all its terms z^alpha have one weighted degree
    w . alpha); all zeros when no positive w exists.

    Exact in Python ints.  w solves (alpha_t - alpha_0) . w = 0 for the
    terms of each generator; in reduced form each pivot coordinate is a
    rational combination of the free ones.  Fourier-Motzkin elimination of
    the free coordinates from the strict inequalities w > 0 decides whether
    a positive solution exists (none is left, each would read 0 > 0, exactly
    when one does).  If so, a positive integer one does too, and the free
    coordinates are searched by their sum t = 1, 2, ... until no smaller
    sum is left.
    """
    pivots = _reduced_rows([[a - b for a, b in zip(alpha, g.terms[0][0])]
                            for g in generators for alpha, _, _ in g.terms[1:]], num_vars)
    free = [j for j in range(num_vars) if j not in pivots]
    # w_c = -(r . w_free) / r[c] > 0 for each pivot row r, and w_free > 0
    ineqs = [[int(f == e) for e in free] for f in free] + [
        [(-1 if r[c] > 0 else 1) * r[f] for f in free] for c, r in pivots.items()]
    for c in range(len(free)):
        pos, neg = [u for u in ineqs if u[c] > 0], [u for u in ineqs if u[c] < 0]
        ineqs = [u for u in ineqs if not u[c]] + [_eliminate(v, u, c) for u in pos for v in neg]
    if ineqs:
        return (0,) * num_vars
    best = None
    for t in count(len(free)):
        if best is not None and t + len(pivots) > sum(best):
            return tuple(best)
        for bars in combinations(range(1, t), len(free) - 1):
            w = [0] * num_vars
            for f, a, b in zip(free, (0, *bars), (*bars, t)):
                w[f] = b - a
            for c, r in pivots.items():
                w[c], rest = divmod(-sum(r[f] * w[f] for f in free), r[c])
                if rest or w[c] <= 0:
                    break
            else:
                best = min(best or w, w, key=lambda v: (sum(v), v))


def _ungraded_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Span of { z^q * g : |q| + deg g <= N } for arbitrary generators,
    built one weighted slice at a time.

    No grading by total degree is claimed.  Under the weight
    homogeneity_weight(generators) every multiple z^q * g is weighted
    homogeneous, so it lies in one weighted slice {alpha : w . alpha = s,
    |alpha| <= N}, and the span is the direct sum of the slices' spans.
    With no positive weight, w = 0 makes the whole basis one slice.

    The rank is decided on the unscaled coefficient vectors of the
    multiples, never on lambda-scaled values, whose entries span the whole
    range of the weights.  The multiples of one nonzero polynomial are
    linearly independent, so a principal ideal's rank is its number of
    multiples, C(N - deg g + m, m), and they span the slice themselves.
    With several generators a slice's span is the left singular vectors of
    its multiples whose singular values are above DEFAULT_RANK_TOL times
    the largest (each multiple lies in one slice, so for exact data the
    slices' ranks add up to the span's).  Each slice's spanning vectors are
    scaled by lambda and orthonormalized by one complete Householder QR
    with the slice's rows sorted by decreasing lambda, which is accurate for
    row-scaled matrices (Cox & Higham, 1998); its first columns span the
    submodule's part of the slice and the rest the complement's.  Slices
    no higher than STACK_SIDE are zero-padded to S x S and factorised one
    stack per size class (shift_operators.size_classes): a padded row is
    zero in every Householder reflector, so the leading block of each
    padded Q is its slice's complete Q.  With
    w > 0 both frames are sliced: slice s's block of each sits on the
    slice's rows in that order, and schatten.DENSE_SVD_LIMIT bounds the
    widest slice.  With w = 0 the frames are unlabelled ndarrays on the
    ambient rows, which fill an ambient square, and the limit bounds the
    ambient dimension.  Either bound is checked before any vector is built.

    The span is I cap P_<=N only for a principal ideal: with several
    generators, a combination of top-degree multiples can cancel into a
    low-degree element of the ideal that no multiple listed here reaches.
    """
    b = w.basis
    weight = homogeneity_weight(generators, b.num_vars)
    wdeg = b.exponents @ np.array(weight)
    sizes = np.bincount(wdeg)       # each slice's rows; w = 0: one slice, the basis
    sliced = any(weight)
    schatten.check_dense_svd_size(int(sizes.max()), "weighted slice" if sliced else "ambient",
                                  "a dense QR of a slice" if sliced else "a dense QR")
    # every multiple's nonzeros: ordinal rows, column cols, unscaled vals
    parts = [multiple_vectors(w, g, 0, b.max_degree - g.max_degree, scaled=False)
             for g in generators]
    rows, vals = (np.concatenate([part[i].ravel() for part in parts]) for i in (0, 1))
    counts = [len(part[0]) for part in parts]
    r = sum(counts)
    cols = np.repeat(np.arange(r), np.repeat([part[0].shape[1] for part in parts], counts))
    # the multiples renumbered by slice, and their entries by multiple
    col_deg = np.zeros(r, np.int64)
    col_deg[cols] = wdeg[rows]
    by_slice = np.argsort(col_deg, kind="stable")
    cols = np.argsort(by_slice)[cols]
    e = np.argsort(cols, kind="stable")
    rows, cols, vals, col_deg = rows[e], cols[e], vals[e], col_deg[by_slice]
    # rows by slice, then by decreasing lambda
    order = np.lexsort((-w.lam, wdeg))
    rows, lam = np.argsort(order)[rows], w.lam[order]
    row_at = np.concatenate([[0], np.cumsum(sizes)])
    col_at = np.searchsorted(col_deg, np.arange(sizes.size + 1))
    entry_at = np.searchsorted(cols, col_at)

    def multiples(t):
        """Slice t's unscaled multiples on its rows."""
        (r0, r1), (c0, c1), (e0, e1) = row_at[t:t + 2], col_at[t:t + 2], entry_at[t:t + 2]
        X = np.zeros((r1 - r0, c1 - c0), vals.dtype)
        X[rows[e0:e1] - r0, cols[e0:e1] - c0] = vals[e0:e1]
        return X
    # one generator's multiples span their slices; several generators' spans come from SVDs
    spans = [_span(multiples(t)) for t in range(sizes.size)] if len(generators) > 1 else None
    k = np.diff(col_at) if spans is None else np.array([U.shape[1] for U in spans])
    if sliced:
        sub, comp = (SubspaceFrame(np.empty(sizes @ c, vals.dtype), np.stack([sizes, c], axis=1),
                                   order) for c in (k, sizes - k))
    else:
        sub, comp = (SubspaceFrame(np.zeros((b.dimension, c), vals.dtype))
                     for c in (k[0], b.dimension - k[0]))

    def scaled(t):
        """Slice t's spanning vectors, scaled by lambda."""
        X = multiples(t) if spans is None else spans[t]
        return X * lam[row_at[t]:row_at[t + 1], None]

    def complete_qrs():
        """(t, Q) for every slice: the narrow ones in the zero-padded stacks
        of size_classes, the wider ones one by one."""
        for S, ts in size_classes(sizes, sizes):
            X = np.zeros((ts.size, S, S), vals.dtype)
            for x, t in zip(X, ts):
                Y = scaled(t)
                x[:Y.shape[0], :Y.shape[1]] = Y
            yield from zip(ts, np.linalg.qr(X, mode="complete")[0])
        for t in np.flatnonzero(sizes > STACK_SIDE):
            yield t, np.linalg.qr(scaled(t), mode="complete")[0]
    for t, Q in complete_qrs():
        Q = Q[:sizes[t], :sizes[t]]
        if sliced:
            sub.blocks(t)[0][...], comp.blocks(t)[0][...] = Q[:, :k[t]], Q[:, k[t]:]
        else:       # the one slice: its rows back in ordinal order
            sub.columns[order], comp.columns[order] = Q[:, :k[t]], Q[:, k[t]:]
    return SubmoduleBasis(w, sub, comp)
