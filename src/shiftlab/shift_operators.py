"""Finite truncations of module operators and their algebra.

An operator on a basis or a graded frame carries an interior degree W:
matrix entries whose row and column degrees are both <= W agree exactly
with the corresponding entries of the untruncated operator.  Coordinate
shifts raise degree by exactly 1, so each multiplication eats a bounded
strip at the truncation boundary; the bookkeeping here tracks that strip,
and TruncatedOperator.window, the block of degrees <= W, is the one
uncontaminated section every norm and fit reads.  A commutator or product
on a graded frame stores only the blocks of that window: its mat is the
leading section of degrees <= W, and nothing past W is formed.

An operator's matrix is held in numpy arrays native to its space.  On a
GradedBasis it is a SparseEntries, its nonzeros sorted by row and then by
column: every ambient operator is a weighted partial permutation of
monomials, or a sum of m of them, so its products are joins of entries.  On
a frame it is a DegreeBlocks, one dense block per degree pair (n + r, n);
operators reach a frame one degree pair at a time.  A coordinate frame (a
monomial submodule's or its complement's) records its columns' ambient
ordinals, and its blocks of 0/1 columns are never multiplied: one scatter
of the operator's entries over every degree pair gives the very values
those products give.  Every operator on a frame is a
TruncatedOperator on the frame's space, its labels and dimension without
its columns; the frame's labels decide only whether there is an interior
strip to track.  On a graded frame there is, and
block products keep scipy's summation order, the inner index ascending,
because decay fits read their round-off, except products of partial
permutations: a product of single terms is exact whatever the order, so
BLAS takes them.  A frame sliced by weighted degree (a quotient by a
quasi-homogeneous ideal) holds one dense block per slice s: Z_i maps slice
s to s + w_i, so an operator compressed to it has the slice blocks of
offset w_i.  A frame without labels (a span of kernel vectors, a quotient
by an ideal with no positive weight) is one block on every row, and an
operator on it one r x r block of offset 0.  Neither has an interior strip
(interior_degree None): the one window is the whole operator, and its
products are one batched BLAS product per run of equal block shapes.  A
sliced frame is only compressed to: the routines that check invariance on
the interior rows refuse it.

Spectra of DegreeBlocks, and a sliced frame's slice QRs (submodules), go
by size class: a block whose larger side is at most STACK_SIDE is
zero-padded to S x S, S = 4 ceil(side / 4), and each class is one LAPACK
call per stack of up to STACK_ENTRIES padded entries (size_classes).  A
sliced frame's blocks have many distinct shapes, so runs of one shape
would mean about one call per slice.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .weight_models import WeightSet

SELF_ADJOINT_TOL = 1e-12
INVARIANCE_TOL = 1e-10
PSD_TOL = 1e-10
# blocks whose larger side is at most STACK_SIDE are factorised zero-padded,
# STACK_ENTRIES padded entries per LAPACK call at most
STACK_SIDE, STACK_ENTRIES = 32, 2 ** 12


class TheoremViolationError(AssertionError):
    """A theorem-backed finite-matrix identity failed; indicates a bug."""


class InvarianceError(ValueError):
    """A subspace claimed invariant fails the invariance residual check."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"invariance residual {residual:.3e} exceeds tolerance {tol:.1e}")


def _runs(*keys):
    """[(start, stop)] of the maximal runs along which every key is constant."""
    K = np.array(keys)
    if not K.shape[1]:
        return []
    cut = (np.flatnonzero((K[:, 1:] != K[:, :-1]).any(axis=0)) + 1).tolist()
    return list(zip([0, *cut], [*cut, K.shape[1]]))


def _add(M: np.ndarray, row: int, col: int, X: np.ndarray):
    """Add a stack of blocks into M down the diagonal from (row, col), in place."""
    if X.size:
        (_, a, b), r, s = X.shape, M.shape[1], M.itemsize
        view = np.ndarray(X.shape, M.dtype, M, (row * r + col) * s, ((a * r + b) * s, r * s, s))
        view += X


@dataclass(frozen=True, eq=False)
class SubspaceFrame:
    """Orthonormal columns spanning a subspace, stored as dense blocks.

    A graded frame holds one C-ordered block per degree n, shapes[n]: its
    columns, labelled n, on the ambient rows of degree n, one after another
    in columns.  A sliced frame (submodules.submodule of generators not all
    homogeneous) holds one block per weighted degree s the same way, on
    the rows of that slice: rows lists each block's ambient ordinals, block
    after block.  A frame without labels is one block on every row,
    columns itself.  A coordinate frame (submodules of monomials) is a
    graded frame of coordinate vectors that also records each column's
    ambient ordinal, ascending: operators reach it by selecting entries,
    not by multiplying blocks.  Operators restricted or compressed to a
    frame live on its space, which keeps no columns and compares by
    identity: operators on two frames never mix, and none of them keeps its
    frame alive.
    """

    columns: np.ndarray           # blocks' entries, flat; unlabelled: (ambient_dim, r)
    shapes: np.ndarray = None     # (labels, 2): each block's rows and columns
    rows: np.ndarray = None       # sliced: each block row's ambient ordinal
    ordinals: np.ndarray = None   # coordinate: each column's ambient ordinal

    @classmethod
    def from_blocks(cls, blocks):
        """The graded frame of these blocks, one per degree 0, 1, ..."""
        return cls(np.concatenate([B.ravel() for B in blocks]), np.array([B.shape for B in blocks]))

    @cached_property
    def degrees(self):
        """(r,) int degree labels, one per column; None unless graded."""
        return None if self.shapes is None or self.rows is not None else np.repeat(
            np.arange(len(self.shapes)), self.shapes[:, 1])

    @cached_property
    def space(self) -> "FrameSpace":
        return FrameSpace(self.degrees, self.dimension)

    @cached_property
    def offsets(self):
        """Each block's first row, first column and first entry in columns."""
        rows, cols = self.shapes.T
        return tuple(np.concatenate([[0], np.cumsum(x)]) for x in (rows, cols, rows * cols))

    @cached_property
    def slices(self):
        """(label, place): each ambient ordinal's block and its row within the
        block.  A graded frame's rows are the ordinals in order, so its labels
        are their degrees."""
        label = np.repeat(np.arange(len(self.shapes)), self.shapes[:, 0])
        rows = np.arange(label.size) if self.rows is None else self.rows
        at = np.empty((2, label.size), np.int64)
        at[:, rows] = label, np.arange(label.size) - self.offsets[0][label]
        return at[0], at[1]

    @cached_property
    def places(self):
        """A coordinate frame's column of each ambient ordinal, counted
        within its block; -1 where the frame has none."""
        place = np.full(self.offsets[0][-1], -1)
        place[self.ordinals] = np.arange(self.ordinals.size) - self.offsets[1][self.degrees]
        return place

    @cached_property
    def sizes(self) -> np.ndarray:
        """Each block's column count: [r] for a frame without labels."""
        return np.array(self.columns.shape[1:]) if self.shapes is None else self.shapes[:, 1]

    @cached_property
    def dimension(self) -> int:
        return int(self.sizes.sum())

    def blocks(self, n: int, count: int = 1) -> np.ndarray:
        """The blocks n, ..., n + count - 1, all of one shape, as a
        (count, rows, columns) view."""
        (d, k), start = self.shapes[n], self.offsets[2][n]
        return self.columns[start:start + count * d * k].reshape(count, d, k)


@dataclass(frozen=True, eq=False)
class FrameSpace:
    """A frame's degree labels (None unless graded) and dimension, which its operators read."""

    degrees: np.ndarray
    dimension: int


@dataclass(frozen=True, eq=False)
class SparseEntries:
    """The matrix of an operator on a GradedBasis: vals[e] at (rows[e],
    cols[e]), sorted by row and then by column, no position twice and no
    zero value."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def dtype(self):
        return self.vals.dtype

    @property
    def H(self) -> "SparseEntries":
        """The conjugate transpose."""
        order = np.argsort(self.cols, kind="stable")
        return SparseEntries(self.cols[order], self.rows[order], self.vals[order].conj(),
                             self.shape[::-1])

    def leading(self, k: int) -> "SparseEntries":
        """The leading k x k block, 0 <= k <= shape (ValueError otherwise)."""
        if not 0 <= k <= self.shape[0]:
            raise ValueError(f"leading({k}) is outside a {self.shape[0]} x {self.shape[0]} matrix")
        e = slice(0, int(np.searchsorted(self.rows, k)))
        keep = self.cols[e] < k
        return SparseEntries(self.rows[e][keep], self.cols[e][keep], self.vals[e][keep], (k, k))

    def toarray(self) -> np.ndarray:
        M = np.zeros(self.shape, self.dtype)
        M[self.rows, self.cols] = self.vals
        return M

    def __matmul__(self, other):
        """A product whose every entry sums over the inner index in ascending
        order: with an ndarray, each row in entry order, with SparseEntries
        as a join of entries."""
        if isinstance(other, np.ndarray):
            Y = np.zeros((self.shape[0], other.shape[1]), np.result_type(self.vals, other))
            place = np.arange(self.nnz) - np.searchsorted(self.rows, self.rows)
            for p in range(place.max(initial=-1) + 1):
                e = place == p
                Y[self.rows[e]] += self.vals[e, None] * other[self.cols[e]]
            return Y
        # entry (i, j) meets every entry of other's row j, in order
        lo, hi = (np.searchsorted(other.rows, self.cols, side=s) for s in ("left", "right"))
        a = np.repeat(np.arange(self.nnz), hi - lo)
        b = np.arange(a.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        n = other.shape[1]
        keys, slot = np.unique(self.rows[a] * n + other.cols[b], return_inverse=True)
        vals = np.zeros(keys.size, np.result_type(self.vals, other.vals))
        np.add.at(vals, slot, self.vals[a] * other.vals[b])
        return _nonzero(keys // n, keys % n, vals, n)

    def __sub__(self, other: "SparseEntries") -> "SparseEntries":
        n = self.shape[1]
        keys, slot = np.unique(np.concatenate([self.rows * n + self.cols,
                                               other.rows * n + other.cols]),
                               return_inverse=True)
        vals = np.zeros(keys.size, np.result_type(self.vals, other.vals))
        vals[slot[:self.nnz]] = self.vals
        vals[slot[self.nnz:]] -= other.vals
        return _nonzero(keys // n, keys % n, vals, n)


def _nonzero(rows, cols, vals, n: int) -> SparseEntries:
    """The n x n SparseEntries of these sorted entries, zeros dropped."""
    keep = vals != 0
    return SparseEntries(rows[keep], cols[keep], vals[keep], (n, n))


def _add_product(C: np.ndarray, A: np.ndarray, B: np.ndarray):
    """C += A B for stacks of blocks, each entry summed over the inner index j
    in ascending order, one rounded product at a time: BLAS sums in chunks
    and pairs, and decay fits read the round-off of real blocks.  Where every
    row of A, or every column of B, holds at most one nonzero (the scaled
    partial permutations of monomial frames), each entry is one rounded
    product plus exact zeros, which BLAS returns bit for bit."""
    if ((A != 0).sum(axis=2) <= 1).all() or ((B != 0).sum(axis=1) <= 1).all():
        C += A @ B
        return
    for j in range(A.shape[2]):
        C += A[:, :, j, None] * B[:, None, j, :]


def _layout(sizes, offset: int):
    """(n, heights, widths, starts) of the blocks (n + offset, n) over degrees
    of sizes[n] columns: each block's column degree, shape and first entry."""
    n = np.arange(max(0, -offset), len(sizes) - max(0, offset))
    h, w = sizes[n + offset], sizes[n]
    return n, h, w, np.concatenate([[0], np.cumsum(h * w)])


@dataclass(frozen=True, eq=False)
class DegreeBlocks:
    """The matrix of an operator on a frame, sizes[n] of whose columns have
    degree (or weighted degree) n, that maps degree n to n + offset: its
    dense block (n + offset, n) for every n where both degrees exist,
    C-ordered, one after another in data.  On a frame without labels it is
    one r x r block of offset 0."""

    data: np.ndarray
    sizes: np.ndarray
    offset: int

    @classmethod
    def zeros(cls, sizes, offset: int, dtype) -> "DegreeBlocks":
        """The store of zeros, its layout computed once and cached."""
        layout = _layout(sizes, offset)
        out = cls(np.zeros(layout[3][-1], dtype), sizes, offset)
        out.__dict__["layout"] = layout
        return out

    @cached_property
    def layout(self):
        return _layout(self.sizes, self.offset)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def shape(self) -> tuple:
        return (int(self.sizes.sum()),) * 2

    def blocks(self, n: int, count: int = 1) -> np.ndarray:
        """The blocks of column degrees n, ..., n + count - 1, all of one
        shape, as a (count, rows, columns) view."""
        deg, h, w, starts = self.layout
        i = n - deg[0]
        return self.data[starts[i]:starts[i + count]].reshape(count, h[i], w[i])

    def runs(self):
        """[(n, count)]: the runs of consecutive blocks of one shape."""
        n, h, w, _ = self.layout
        return [(int(n[a]), b - a) for a, b in _runs(h, w)]

    @property
    def H(self) -> "DegreeBlocks":
        """The conjugate transpose: the same blocks, each conjugate-transposed."""
        parts = [self.blocks(n, g).conj().mT.ravel() for n, g in self.runs()]
        return DegreeBlocks(np.concatenate([np.zeros(0, self.dtype), *parts]), self.sizes,
                            -self.offset)

    def leading(self, k: int) -> "DegreeBlocks":
        """The leading k x k block, its trailing empty degrees included; a k
        that is not a whole number of degrees is refused with ValueError."""
        cut = np.cumsum([0, *self.sizes])
        if k not in cut:
            raise ValueError(f"leading({k}) cuts a degree of a {cut[-1]} x {cut[-1]} DegreeBlocks")
        sizes = self.sizes[:int(np.searchsorted(cut, k, side="right")) - 1]
        return DegreeBlocks(self.data[:_layout(sizes, self.offset)[3][-1]], sizes, self.offset)

    def toarray(self) -> np.ndarray:
        M = np.zeros(self.shape, self.dtype)
        cols = np.concatenate([[0], np.cumsum(self.sizes)])
        for n, g in self.runs():
            _add(M, cols[n + self.offset], cols[n], self.blocks(n, g))
        return M

    def _product(self, other: "DegreeBlocks", window=None) -> "DegreeBlocks":
        """The product: its block n is self's block n + other.offset times
        other's block n.  With a window degree W (a graded product's
        interior) it is laid out on the degrees <= W alone: only the blocks
        (n + offset, n) with max(n, n + offset) <= W are allocated and
        formed, each by _add_product, the same sum as in the whole product.
        With none, each run of equal-shape blocks is one np.matmul."""
        sizes = self.sizes if window is None else self.sizes[:max(window + 1, 0)]
        out = DegreeBlocks.zeros(sizes, self.offset + other.offset,
                                 np.result_type(self.data, other.data))
        n, h, w, _ = out.layout
        mid = n + other.offset
        inner = np.where((mid >= 0) & (mid < len(self.sizes)),
                         self.sizes[np.clip(mid, 0, len(self.sizes) - 1)], 0)
        for a, b in _runs(h, w, inner):
            if h[a] * w[a] * inner[a]:
                C, A, B = (out.blocks(n[a], b - a), self.blocks(mid[a], b - a),
                           other.blocks(n[a], b - a))
                if window is None:
                    np.matmul(A, B, out=C)
                else:
                    _add_product(C, A, B)
        return out

    def __isub__(self, other: "DegreeBlocks") -> "DegreeBlocks":
        np.subtract(self.data, other.data, out=self.data)
        return self


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite section of a module operator, in the store of its space.

    mat: a SparseEntries on a GradedBasis, a DegreeBlocks on a frame's
    space; either a leading section that holds at least the interior
    window, which every reader goes through.
    interior_degree W: entries with row and column degree <= W are exact.
    A commutator or product on a graded frame stores only those: its mat
    is the window.  None on a sliced or unlabelled frame: the one window
    is the whole operator, whatever degree it is asked for.
    degree_raise r: every entry maps degree d into degree d + r (shift: +1,
    shift adjoint: -1); the routines that take T by degree pairs refuse
    entries of another offset.
    """

    space: object                 # GradedBasis or a SubspaceFrame's space
    mat: object = field(compare=False)
    interior_degree: int | None
    degree_raise: int = 0

    def __post_init__(self):
        (h, k), n = self.mat.shape, self.space.dimension
        if not h == k <= n or k < self.window_size():
            raise ValueError(f"matrix shape {self.mat.shape} is not a leading section of "
                             f"dimension {n} that holds the interior window")

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def window_size(self, max_window_degree=None) -> int:
        """Size of the interior window (degree <= W, optionally tighter): the
        window is the leading block of that many coordinates."""
        if self.interior_degree is None:
            return self.dimension
        w = self.interior_degree
        if max_window_degree is not None:
            w = min(w, max_window_degree)
        return int(np.searchsorted(self.space.degrees, w, side="right"))

    def window(self, max_window_degree=None):
        """The interior window, the leading block, in the matrix's own store."""
        return self.mat.leading(self.window_size(max_window_degree))


def _same_space(a: TruncatedOperator, b: TruncatedOperator):
    if a.space != b.space:
        raise ValueError("operators live on different spaces")


def _norm_scale(T: TruncatedOperator) -> float:
    """Cheap upper bound on the operator norm: sqrt(||.||_1 * ||.||_inf)."""
    A = T.mat
    a = np.abs(A.vals)
    col = np.bincount(A.cols, a, minlength=A.shape[1]).max(initial=0.0)
    row = np.bincount(A.rows, a, minlength=A.shape[0]).max(initial=0.0)
    return float(np.sqrt(col * row)) or 1.0


def _shift_entries(w: WeightSet, i: int):
    """Row and value lambda_row / lambda_column of each column of Z_i below the top degree."""
    b = w.basis
    if not 1 <= i <= b.num_vars:
        raise ValueError(f"coordinate index {i} out of range [1, {b.num_vars}]")
    top = b.slice_bounds[b.max_degree]  # ordinals below the top degree
    rows = b.rank(b.exponents[:top] + np.eye(b.num_vars, dtype=np.int64)[i - 1], b.components[:top])
    return rows, np.exp(w.log_lambda[rows] - w.log_lambda[:top])


def coordinate_shift(w: WeightSet, i: int) -> TruncatedOperator:
    """Truncated multiplication by z_i on the weight set's basis; top-degree columns are zero."""
    b = w.basis
    rows, vals = _shift_entries(w, i)
    # grlex is a monomial order: rows increase with the column, one entry per hit row
    return TruncatedOperator(b, _nonzero(rows, np.arange(rows.size), vals, b.dimension),
                             interior_degree=b.max_degree - 1, degree_raise=1)


def shift_combination(w: WeightSet, coeffs) -> TruncatedOperator:
    """T = c_1 Z_1 + ... + c_k Z_k (k <= m), holding c_i times each entry of
    Z_i: no two shifts share an entry."""
    b = w.basis
    rows, vals = zip(*(_shift_entries(w, i) for i in range(1, len(coeffs) + 1)))
    cols = np.tile(np.arange(rows[0].size), len(rows))
    rows, vals = np.concatenate(rows), np.concatenate([v * c for v, c in zip(vals, coeffs)])
    order = np.lexsort((cols, rows))
    return TruncatedOperator(b, _nonzero(rows[order], cols[order], vals[order], b.dimension),
                             interior_degree=b.max_degree - 1, degree_raise=1)


def adjoint(T: TruncatedOperator) -> TruncatedOperator:
    return TruncatedOperator(T.space, T.mat.H, interior_degree=T.interior_degree,
                             degree_raise=-T.degree_raise)


def _composed(A: TruncatedOperator, B: TruncatedOperator, adjoint_a: bool = False):
    """(interior degree, degree raise) of A B (A* B when adjoint_a); no interior gives none."""
    raise_a = -A.degree_raise if adjoint_a else A.degree_raise
    interior = None if A.interior_degree is None else (
        min(A.interior_degree, B.interior_degree) - max(raise_a, B.degree_raise, 0))
    return interior, raise_a + B.degree_raise


def multiply(A: TruncatedOperator, B: TruncatedOperator) -> TruncatedOperator:
    """A B: on a graded frame, as a commutator, its interior window alone."""
    _same_space(A, B)
    interior, raise_ = _composed(A, B)
    a, b = A.mat, B.mat
    mat = a._product(b, interior) if isinstance(b, DegreeBlocks) else a @ b
    return TruncatedOperator(A.space, mat, interior, raise_)


def commutator(A, B):
    """[A*, B] = A*B - BA* from two products in the store of their space.
    On a basis, SparseEntries joins.  On a frame, DegreeBlocks products,
    the second subtracted from the first in place: on a graded frame laid
    out on the commutator's interior window W alone, so that its mat is the
    window and nothing past W is formed or stored; on a sliced or
    unlabelled frame, which has no interior, one batched BLAS product per
    run of equal block shapes, A*'s blocks C-ordered."""
    _same_space(A, B)
    interior, raise_ = _composed(A, B, adjoint_a=True)
    a, b = A.mat.H, B.mat
    if isinstance(b, DegreeBlocks):
        mat = a._product(b, interior)
        mat -= b._product(a, interior)
    else:
        mat = a @ b - b @ a
    return TruncatedOperator(A.space, mat, interior, raise_)


def self_commutator(T):
    """[T*, T] = T*T - TT*."""
    return commutator(T, T)


def cross_commutators(operators):
    """Yield ((i, j), [T_i*, T_j]) for 1 <= i <= j <= m in row-major order, of
    TruncatedOperators T_1, ..., T_m, each commutator built only when it is
    asked for: a caller that drops each one before asking for the next
    holds one at a time."""
    T = list(operators)
    for i in range(1, len(T) + 1):
        for j in range(i, len(T) + 1):
            yield (i, j), commutator(T[i - 1], T[j - 1])


def _check_single_offset(row_deg, col_deg):
    """Refuse nonzeros that map degree n to n + r for more than one r.  Every
    operator the library builds has one offset; a hand-built sum such as
    Z1 + Z1* does not, and no routine here takes it."""
    offsets = row_deg - col_deg
    if (offsets != offsets[:1]).any():
        raise ValueError(f"graded operator mixes degree offsets {np.unique(offsets).tolist()}; "
                         f"only single-offset operators are supported")


def block_singular_values(W, degrees=None):
    """Singular values of a window, up to zeros, block by block (the narrow
    blocks one stack per size class), each with the smallest window degree
    that contains it.

    W maps degree n to n + r for one offset r (shifts, their adjoints, every
    commutator [A*, B] of them), so it is the direct sum of its (degree
    n + r, degree n) blocks and its spectrum is the union of theirs.  A
    DegreeBlocks holds those blocks (a sliced frame's operators too, by
    weighted degree, and an unlabelled frame's as its one block).  A
    SparseEntries, whose rows and columns degrees labels, must be a weighted
    partial permutation, as every ambient operator the commands read is:
    each entry is then a 1x1 summand whose singular value is its modulus.
    Nonzeros with more than one degree offset, or two nonzeros in one row
    or column, are refused with ValueError.

    Returns (values, labels): the (n + r, n) block's values are labelled
    max(n, n + r).  A block enters or leaves a window {degree <= d} whole,
    and its stack depends on its shape alone, so values[labels <= d] is the
    spectrum of the window d, value for value and in the same order.
    """
    if not np.all(np.isfinite(W.data if isinstance(W, DegreeBlocks) else W.vals)):
        raise ValueError("operator has non-finite entries")
    if isinstance(W, SparseEntries):
        degrees = np.asarray(degrees)
        col_deg, row_deg = degrees[W.cols], degrees[W.rows]
        _check_single_offset(row_deg, col_deg)
        if max(np.bincount(x).max(initial=0) for x in (W.rows, W.cols)) > 1:
            raise ValueError("operator is not a weighted partial permutation: two nonzeros "
                             "share a row or a column, so it has no entrywise spectrum")
        return np.abs(W.vals), np.maximum(row_deg, col_deg)
    parts = [(np.zeros(0), np.zeros(0, np.int64)), *_frame_spectra(W)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def size_classes(heights, widths):
    """[(S, index)]: the blocks with both sides positive and the larger side
    at most STACK_SIDE, grouped by S = 4 ceil(side / 4) in increasing order
    and cut into chunks of at most STACK_ENTRIES / S^2 blocks; index the
    positions of a chunk's blocks, ascending.  A block's S depends on its
    shape alone, so blocks zero-padded to S x S share one LAPACK call per
    chunk however the other blocks are shaped."""
    side = np.maximum(heights, widths)
    S = np.where((np.minimum(heights, widths) > 0) & (side <= STACK_SIDE), -(-side // 4) * 4, 0)
    out = []
    for s in np.flatnonzero(np.bincount(S)[1:]) + 1:
        index, step = np.flatnonzero(S == s), max(1, STACK_ENTRIES // s ** 2)
        out += [(int(s), index[a:a + step]) for a in range(0, index.size, step)]
    return out


def _stacks(W: DegreeBlocks):
    """W's blocks as stacks (X, labels, counts), counts each block's number
    of singular values, min(rows, columns): each chunk of size_classes
    zero-padded to S x S and gathered by one fancy index, then the wider
    blocks in their runs of one shape."""
    n, h, w, starts = W.layout
    label, count = np.maximum(n, n + W.offset), np.minimum(h, w)
    wide = np.maximum(h, w) > STACK_SIDE
    for S, b in size_classes(h, w):
        i, j, hb, wb = np.arange(S)[:, None], np.arange(S), h[b, None, None], w[b, None, None]
        inside = (i < hb) & (j < wb)
        X = np.zeros(inside.shape, W.dtype)
        X[inside] = W.data[(starts[b, None, None] + i * wb + j)[inside]]
        yield X, label[b], count[b]
    for a, c in _runs(h, w) if wide.any() else ():
        if wide[a]:
            yield W.blocks(int(n[a]), c - a), label[a:c], count[a:c]


def _frame_spectra(W: DegreeBlocks):
    """(values, labels) of each of _stacks' stacks: the moduli of the blocks
    whose nonzeros are all alone in their rows and columns, one SVD of the
    others, each block's values cut to its count (a zero-padded block's extra
    values are its padding's zeros)."""
    for X, label, count in _stacks(W):
        nz = X != 0
        lone = nz & (nz.sum(axis=1, keepdims=True) == 1) & (nz.sum(axis=2, keepdims=True) == 1)
        easy = (lone == nz).all(axis=(1, 2))
        yield np.abs(X[easy][nz[easy]]), np.repeat(label[easy], nz[easy].sum(axis=(1, 2)))
        if not easy.all():
            s, count = np.linalg.svd(X[~easy], compute_uv=False), count[~easy]
            yield s[np.arange(s.shape[1]) < count[:, None]], np.repeat(label[~easy], count)


def _degree_pairs(T: TruncatedOperator, frame: SubspaceFrame, adjoint: bool = False,
                  remainder: bool = False):
    """(offset, pairs): T on the frame one block pair (t, n) = (n + offset, n)
    at a time, offset the label offset of T's entries (on a graded frame its
    degree_raise; entries of mixed offsets, or of another one there, are
    refused with ValueError).  Pairs where T has entries and Q_n has columns
    (with adjoint, also where only Q_t has) come in runs of one block shape,
    stacked (m = 1: 1 x 1 blocks), as (n, G, P, U, V, D): n the run's first
    column label, G = Q_t* T_tn Q_n; with adjoint P = T_tn Q_n, U = T_tn* Q_t
    and V = U - Q_n G*; with remainder D = P - Q_t G on P's rows of degree
    <= W (on a graded frame; a sliced one has no interior strip); the
    quantities not asked for are None.

    On a coordinate frame every product only selects entries of T, so one
    scatter of T's entries fills every quantity over all the pairs with the
    values those products give.  Other frames build T's dense block B for each run
    and multiply: P = B Q_n, G = Q_t* P, U = B* Q_t, and V and D from them.
    A frame without labels is one block on every row: P = TQ, G = Q*P."""
    if frame.shapes is None:
        Q, P = frame.columns, T.mat @ frame.columns
        U = (T.mat.H @ Q)[None] if adjoint else None
        return 0, [_product_pair(0, Q[None], Q[None], P[None], (Q.conj().T @ P)[None], U,
                                 T.window_size(), adjoint, remainder)]
    A = T.mat
    d, k = frame.shapes.T
    label, loc = frame.slices
    if label.size != T.dimension:
        raise ValueError(f"frame has {label.size} ambient rows, operator dimension is {T.dimension}")
    # the entries by row block: a graded frame's rows are the ordinals in order
    e = slice(None) if frame.rows is None else np.argsort(label[A.rows], kind="stable")
    at, vals = (A.rows[e], A.cols[e]), A.vals[e]
    row_label, col_label = label[at[0]], label[at[1]]
    _check_single_offset(row_label, col_label)
    offset = int(row_label[0] - col_label[0]) if A.nnz else T.degree_raise
    if frame.rows is None and offset != T.degree_raise:
        raise ValueError(f"entries map degree n to n + {offset}, "
                         f"but degree_raise is {T.degree_raise}")
    i, j = loc[at[0]], loc[at[1]]
    n = np.flatnonzero(np.bincount(col_label, minlength=d.size))
    t = n + offset
    keep = (k[n] > 0) | ((k[t] > 0) & adjoint)
    n, t = n[keep], t[keep]
    inside = t <= T.interior_degree
    # a run breaks where the labels skip or a block shape changes
    runs = _runs(n - np.arange(n.size), d[t], d[n], k[t], k[n], inside)

    def multiplied():
        for a, b in runs:
            n0, t0, g = int(n[a]), int(t[a]), b - a
            dt, dn = int(d[t0]), int(d[n0])
            e = slice(*np.searchsorted(row_label, [t0, t0 + g]))
            B = np.zeros((g, dt, dn), A.dtype)
            B[row_label[e] - t0, i[e], j[e]] = vals[e]
            Qn, Qt = frame.blocks(n0, g), frame.blocks(t0, g)
            P = B @ Qn
            yield _product_pair(n0, Qn, Qt, P, Qt.conj().mT @ P,
                                B.conj().mT @ Qt if adjoint else None, dt if inside[a] else 0,
                                adjoint, remainder)

    def selected():
        # an entry (row, column) belongs to the pair of its column's label;
        # G, P and D take it where the frame has its column, U and V its
        # conjugate where the frame has its row, V and D where it lacks the
        # other: every entry taken is in a pair kept
        if not runs:        # no pair, and no block to place an entry in
            return
        pair = np.zeros(d.size, np.int64)
        pair[n] = np.arange(n.size)
        pair = pair[col_label]
        ct, cn = frame.places[at[0]], frame.places[at[1]]
        has_t, has_n = ct >= 0, cn >= 0
        # each quantity's entries taken, block heights and widths by pair,
        # and each entry's row, column and value there
        parts = {"G": (has_t & has_n, k[t], k[n], ct, cn, vals)}
        if adjoint:
            parts.update(P=(has_n, d[t], k[n], i, cn, vals),
                         U=(has_t, d[n], k[t], j, ct, vals.conj()),
                         V=(has_t & ~has_n, d[n], k[t], j, ct, vals.conj()))
        if remainder:
            parts["D"] = (has_n & ~has_t & (row_label <= T.interior_degree),
                          np.where(inside, d[t], 0), k[n], i, cn, vals)
        # every quantity's blocks one after another in one array, filled by
        # one scatter; the entries a quantity does not take land in a spare
        # last slot
        taken, h, w, row, col, x = (np.array(z) for z in zip(*parts.values()))
        block = np.arange(0, h.size, n.size)[:, None] + pair
        starts = np.concatenate([[0], np.cumsum(h * w)])
        w = w.ravel()
        X = np.zeros(starts[-1] + 1, np.result_type(A.dtype, frame.columns.dtype))
        X[np.where(taken, starts[block] + row * w[block] + col, starts[-1])] = x
        s, h, w = starts.tolist(), h.ravel().tolist(), w.tolist()
        for a, b in runs:
            views = {name: X[s[c + a]:s[c + b]].reshape(b - a, h[c + a], w[c + a])
                     for name, c in zip(parts, range(0, len(s) - 1, n.size))}
            yield (int(n[a]), *map(views.get, "GPUVD"))
    return offset, (multiplied if frame.ordinals is None else selected)()


def _product_pair(n, Qn, Qt, P, G, U, inside, adjoint, remainder):
    """A run's pair tuple from its frame blocks' products: V = U - Q_n G*
    (Q_n* U = G*) and D = P - Q_t G on P's first inside rows."""
    return (n, G, P if adjoint else None, U, U - Qn @ G.conj().mT if adjoint else None,
            (P - Qt @ G)[:, :inside] if remainder else None)


def _interior_pairs(T: TruncatedOperator, frame: SubspaceFrame, adjoint: bool = False):
    """_degree_pairs with the remainders D, for a routine that checks
    invariance on the interior rows, which a frame sliced by weighted degree
    does not have: such a frame is refused with ValueError."""
    if frame.rows is not None:
        raise ValueError("a frame sliced by weighted degree has no interior rows to check "
                         "invariance on; compress_to_frame is its only operation")
    return _degree_pairs(T, frame, adjoint, remainder=True)


def _residual(remainders, scale: float, tol: float | None = None):
    """Relative 2-norm of (I - QQ*)TQ on the interior rows, the largest sigma_max of the
    remainders D.  With tol it is only checked (Frobenius bound first) and raised."""
    D = list(remainders)
    if tol is not None and np.sqrt(sum(np.vdot(X, X).real for X in D)) / scale <= tol:
        return None
    resid = max((np.linalg.norm(X, 2, axis=(1, 2)).max() for X in D if X.size), default=0.0) / scale
    if tol is not None and resid > tol:
        raise InvarianceError(resid, tol)
    return resid


def _on_frame(T: TruncatedOperator, frame: SubspaceFrame, offset: int, pairs):
    """The compression Q*TQ, the DegreeBlocks of the pairs' blocks G on the
    frame's space: with T's interior on a graded frame, with none on a
    sliced or unlabelled one."""
    out = DegreeBlocks.zeros(frame.sizes, offset, np.result_type(T.mat.dtype, frame.columns.dtype))
    for n, G, *_ in pairs:
        out.blocks(n, len(G))[...] = G
    interior = None if frame.degrees is None else T.interior_degree
    return TruncatedOperator(frame.space, out, interior, offset)


def invariance_residual(T: TruncatedOperator, frame: SubspaceFrame) -> float:
    """Relative 2-norm of (I - QQ*) T Q on the interior rows, Q the frame
    (graded or unlabelled)."""
    return _residual((D for *_, D in _interior_pairs(T, frame)[1]), _norm_scale(T))


def restrict_to_invariant(T: TruncatedOperator, frame: SubspaceFrame,
                          tol: float = INVARIANCE_TOL):
    """Express T on an invariant subspace in the frame's orthonormal basis
    (as compress_to_frame does), its invariance residual checked against
    tol in the same pass over the degree pairs.  A sliced frame is refused
    with ValueError: it has no interior rows."""
    offset, pairs = _interior_pairs(T, frame)
    pairs = list(pairs)
    _residual((D for *_, D in pairs), _norm_scale(T), tol)
    return _on_frame(T, frame, offset, pairs)


def compress_to_frame(T: TruncatedOperator, frame: SubspaceFrame):
    """Q* T Q in the frame's basis, with no invariance requirement: a
    TruncatedOperator on the frame's space holding a graded frame's degree
    pairs, a sliced frame's slice pairs or an unlabelled frame's one block.

    This is the semi-invariant (quotient-module) action; use
    restrict_to_invariant when invariance is part of the contract.
    """
    return _on_frame(T, frame, *_degree_pairs(T, frame))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """The restriction Y of T to an invariant frame and the two summands of
    its self-commutator, [Y*,Y] = diagonal_part + corner_part.

    All three are DegreeBlocks on the frame's sizes: restricted is Y = Q*TQ,
    restrict_to_invariant(T, frame).mat, and diagonal_part = Q*[T*,T]Q and
    corner_part = Q*T(I - QQ*)T*Q are Hermitian and block diagonal (offset 0).
    """

    diagonal_part: DegreeBlocks
    corner_part: DegreeBlocks
    restricted: DegreeBlocks

    def residual(self) -> float:
        """max |[Y*,Y] - diagonal_part - corner_part| over every block, the top degree
        included: Y's block G, degree n to n + r, adds G*G at n, subtracts GG* at n + r."""
        Y, s = self.restricted, self.diagonal_part.layout[3]
        D = -(self.diagonal_part.data + self.corner_part.data)
        for n, g in Y.runs():
            G, t = Y.blocks(n, g), n + Y.offset
            D[s[n]:s[n + g]] += (G.conj().mT @ G).ravel()
            D[s[t]:s[t + g]] -= (G @ G.conj().mT).ravel()
        return float(np.abs(D).max(initial=0.0))


def _add_run(Y: DegreeBlocks, diag: DegreeBlocks, corner: DegreeBlocks, pair):
    """Write one run of degree pairs (n, G, P, U, V, D) into the
    decomposition: Y's blocks G, the diagonal part's P*P - U*U and the
    corner's V*V.  Returns its remainders D and the least eigenvalue of its
    corner blocks' Hermitian parts, or 0."""
    n, G, P, U, V, D = pair
    t, g = n + Y.offset, len(G)
    Y.blocks(n, g)[...] = G
    diag.blocks(n, g)[...] += P.conj().mT @ P
    diag.blocks(t, g)[...] -= U.conj().mT @ U
    C = np.matmul(V.conj().mT, V, out=corner.blocks(t, g))   # block diagonal: check its blocks
    return D, float(np.linalg.eigvalsh((C + C.conj().mT) / 2).min(initial=0.0))


def restricted_commutator_decomposition(T: TruncatedOperator,
                                        frame: SubspaceFrame) -> BlockDecomposition:
    """Split the self-commutator of T restricted to an invariant frame into
    its compression and positive corner summands.

    Everything is read off the degree pairs (_degree_pairs), P = T_tn Q_n,
    U = T_tn* Q_t, V = U - Q_n G* and D = P - Q_t G, in one pass over their
    runs: Y = Q*TQ has the blocks G = Q_t* P, Q*[T*,T]Q the blocks
    P*P - U*U and the corner the blocks V*V, whose positivity is checked
    block by block.  No ambient operator is formed, and on a coordinate
    frame no frame block is read.  The invariance residual is that of D,
    as restrict_to_invariant checks it, and a sliced frame is refused the
    same way.
    """
    offset, pairs = _interior_pairs(T, frame, adjoint=True)
    Y = DegreeBlocks.zeros(frame.sizes, offset, np.result_type(T.mat.dtype, frame.columns.dtype))
    diag, corner = (DegreeBlocks.zeros(frame.sizes, 0, Y.dtype) for _ in range(2))
    runs = [_add_run(Y, diag, corner, pair) for pair in pairs]
    scale = _norm_scale(T)
    _residual((D for D, _ in runs), scale, INVARIANCE_TOL)
    eig_min = min((e for _, e in runs), default=0.0)
    # on a coordinate frame the remainders are views of the one scatter of
    # every quantity: let it go before the checks' temporaries
    del runs
    scale_sq = max(1.0, scale ** 2)
    e, w = np.arange(diag.nnz), np.repeat(diag.sizes, diag.sizes ** 2)   # entry, its block's side
    i = e - np.repeat(diag.layout[3][:-1], diag.sizes ** 2)             # its place (a, b): a w + b
    swap = e - i + i % w * w + i // w                                   # the place (b, a)
    for name, M in (("diagonal", diag), ("corner", corner)):
        if np.abs(M.data - M.data[swap].conj()).max(initial=0.0) > SELF_ADJOINT_TOL * scale_sq:
            raise TheoremViolationError(f"{name} part failed self-adjointness check")
    if eig_min < -PSD_TOL * scale_sq:
        raise TheoremViolationError(f"corner part not positive semidefinite: min eig {eig_min:.3e}")
    return BlockDecomposition(diag, corner, Y)
