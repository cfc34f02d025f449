"""Finite truncations of module operators and their algebra.

Every operator carries an interior degree W: matrix entries whose row and
column degrees are both <= W agree exactly with the corresponding entries of
the untruncated operator.  Coordinate shifts raise degree by exactly 1, so
each multiplication eats a bounded strip at the truncation boundary; the
bookkeeping here tracks that strip, and TruncatedOperator.window, the block
of degrees <= W, is the one uncontaminated section every norm and fit reads.
An operator lives on a GradedBasis or a labelled frame, which holds one
dense block per degree, so every degree is an ordinal range and a window a
leading block; operators reach a frame one degree pair at a time.
A frame without degree labels (a span of kernel vectors, a quotient by a
non-homogeneous ideal) has no strip to track: an operator compressed to it is
a plain r x r ndarray, and commutator takes two of them through BLAS.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .weight_models import WeightSet

SELF_ADJOINT_TOL = 1e-12
INVARIANCE_TOL = 1e-10
PSD_TOL = 1e-10


class TheoremViolationError(AssertionError):
    """A theorem-backed finite-matrix identity failed; indicates a bug."""


class InvarianceError(ValueError):
    """A subspace claimed invariant fails the invariance residual check."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"invariance residual {residual:.3e} exceeds tolerance {tol:.1e}")


@dataclass(frozen=True, eq=False)
class SubspaceFrame:
    """Orthonormal columns spanning a subspace, stored as dense blocks.

    A graded frame holds one C-ordered block per degree n, shapes[n]: its
    columns, labelled n, on the ambient rows of degree n, one after another
    in columns.  A frame without labels is one block on every row.  Labelled
    frames are the spaces of operators restricted or compressed to them;
    frames compare by identity, so operators on two frames never mix.
    """

    columns: np.ndarray           # graded: every block's entries, flat; else (ambient_dim, r)
    shapes: np.ndarray = None     # (degrees, 2): each degree's ambient rows and columns

    @classmethod
    def from_blocks(cls, blocks):
        """The graded frame of these blocks, one per degree 0, 1, ..."""
        return cls(np.concatenate([B.ravel() for B in blocks]), np.array([B.shape for B in blocks]))

    @cached_property
    def degrees(self):
        """(r,) int labels, one per column, or None when ungraded."""
        return None if self.shapes is None else np.repeat(np.arange(len(self.shapes)),
                                                          self.shapes[:, 1])

    @cached_property
    def offsets(self):
        """Each degree's first ambient row, first column and first entry in columns."""
        rows, cols = self.shapes.T
        return tuple(np.concatenate([[0], np.cumsum(x)]) for x in (rows, cols, rows * cols))

    @property
    def dimension(self) -> int:
        return self.columns.shape[1] if self.shapes is None else self.degrees.size

    def blocks(self, n: int, count: int = 1) -> np.ndarray:
        """A graded frame's blocks of degrees n, ..., n + count - 1, all of one
        shape, as a (count, rows, columns) view."""
        (d, k), start = self.shapes[n], self.offsets[2][n]
        return self.columns[start:start + count * d * k].reshape(count, d, k)


@dataclass(frozen=True)
class TruncatedOperator:
    """Sparse finite section of a module operator.

    interior_degree W: entries with row and column degree <= W are exact.
    degree_raise r: in the infinite picture the operator maps degree d into
    degrees <= d + r (shift: +1, shift adjoint: -1).
    """

    space: object                 # GradedBasis or labelled SubspaceFrame
    mat: sp.spmatrix = field(compare=False)
    interior_degree: int
    degree_raise: int = 0

    def __post_init__(self):
        n = self.space.dimension
        if self.mat.shape != (n, n):
            raise ValueError(f"matrix shape {self.mat.shape} does not match space dimension {n}")

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def window_size(self, max_window_degree=None) -> int:
        """Size of the interior window (degree <= W, optionally tighter): the
        window is the leading block of that many coordinates."""
        w = self.interior_degree
        if max_window_degree is not None:
            w = min(w, max_window_degree)
        return int(np.searchsorted(self.space.degrees, w, side="right"))

    def window(self, max_window_degree=None) -> sp.csr_matrix:
        """The interior window as a CSR matrix: a copy of the leading block."""
        k = self.window_size(max_window_degree)
        return self.mat.tocsr()[:k, :k]


def _same_space(a: TruncatedOperator, b: TruncatedOperator):
    if a.space != b.space:
        raise ValueError("operators live on different spaces")


def _norm_scale(T: TruncatedOperator) -> float:
    """Cheap upper bound on the operator norm: sqrt(||.||_1 * ||.||_inf)."""
    A = T.mat.tocsr()
    a = np.abs(A.data)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    col = np.bincount(A.indices, a, minlength=A.shape[1]).max(initial=0.0)
    row = np.bincount(rows, a, minlength=A.shape[0]).max(initial=0.0)
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
    indptr = np.searchsorted(rows, np.arange(b.dimension + 1))
    mat = sp.csr_matrix((vals, np.arange(rows.size), indptr), shape=(b.dimension, b.dimension))
    return TruncatedOperator(b, mat, interior_degree=b.max_degree - 1, degree_raise=1)


def shift_combination(w: WeightSet, coeffs) -> TruncatedOperator:
    """T = c_1 Z_1 + ... + c_k Z_k (k <= m) as one CSR holding c_i times each
    entry of Z_i: no two shifts share an entry."""
    b = w.basis
    rows, vals = zip(*(_shift_entries(w, i) for i in range(1, len(coeffs) + 1)))
    cols = np.tile(np.arange(rows[0].size), len(rows))
    rows, vals = np.concatenate(rows), np.concatenate([v * c for v, c in zip(vals, coeffs)])
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(b.dimension + 1))
    mat = sp.csr_matrix((vals[order], cols[order], indptr), shape=(b.dimension, b.dimension))
    return TruncatedOperator(b, mat, interior_degree=b.max_degree - 1, degree_raise=1)


def adjoint(T: TruncatedOperator) -> TruncatedOperator:
    return TruncatedOperator(T.space, T.mat.conj().T.tocsr(),
                             interior_degree=T.interior_degree,
                             degree_raise=-T.degree_raise)


def _product(A: TruncatedOperator, B: TruncatedOperator, mat,
             adjoint_a: bool = False) -> TruncatedOperator:
    """A B (A* B when adjoint_a) with matrix mat: the composed interior and degree raise."""
    raise_a = -A.degree_raise if adjoint_a else A.degree_raise
    interior = min(A.interior_degree, B.interior_degree) - max(raise_a, B.degree_raise, 0)
    return TruncatedOperator(A.space, mat, interior_degree=interior,
                             degree_raise=raise_a + B.degree_raise)


def multiply(A: TruncatedOperator, B: TruncatedOperator) -> TruncatedOperator:
    """A B."""
    _same_space(A, B)
    return _product(A, B, (A.mat @ B.mat).tocsr())


def commutator(A, B):
    """[A*, B] = A*B - BA* from two products: sparse ones for two operators on
    the same graded space, BLAS ones for two ndarrays, an ungraded space's
    one dense block (A* C-ordered), whose result is an ndarray too."""
    if isinstance(A, np.ndarray):
        a = np.ascontiguousarray(A.conj().T)
        C = a @ B
        C -= B @ a
        return C
    _same_space(A, B)
    a, b = A.mat.conj().T.tocsr(), B.mat
    return _product(A, B, a @ b - b @ a, adjoint_a=True)


def self_commutator(T):
    """[T*, T] = T*T - TT*."""
    return commutator(T, T)


def cross_commutators(operators) -> dict:
    """{(i, j): [T_i*, T_j]} for 1 <= i <= j <= m, of operators T_1, ..., T_m
    (TruncatedOperators or ndarrays)."""
    T = list(operators)
    return {(i, j): commutator(T[i - 1], T[j - 1])
            for i in range(1, len(T) + 1) for j in range(i, len(T) + 1)}


def _check_single_offset(row_deg, col_deg):
    """Refuse nonzeros that map degree n to n + r for more than one r.  Every
    operator the library builds has one offset; a hand-built sum such as
    Z1 + Z1* does not, and no routine here takes it."""
    offsets = row_deg - col_deg
    if (offsets != offsets[:1]).any():
        raise ValueError(f"graded operator mixes degree offsets {np.unique(offsets).tolist()}; "
                         f"only single-offset operators are supported")


def block_singular_values(W, degrees):
    """Singular values of a square sparse matrix, up to zeros, one degree
    block at a time, each with the smallest window degree that contains it.

    W is canonicalised in place; degrees labels its rows and columns.  Every
    nonzero maps column degree n to row degree n + r for one offset r
    (shifts, their adjoints, every commutator [A*, B] of them), so W is the
    direct sum of its (degree n + r, degree n) blocks and its spectrum is
    the union of theirs.  An entry alone in its row and its column is a 1x1
    summand whose singular value is its modulus, so scaled partial
    permutations (every operator of monomial weights) need no SVD;
    the other entries are densified one block at a time.

    Returns (values, labels): the (n + r, n) block's values are labelled
    max(n, n + r), a lone entry's max(row degree, column degree).  A block
    enters or leaves a window {degree <= d} whole, so values[labels <= d] is
    the spectrum of the window d, value for value and in the same order.
    Nonzeros with more than one degree offset are refused with ValueError.
    """
    W = W.tocsr()
    W.sum_duplicates()
    W.eliminate_zeros()
    if not np.all(np.isfinite(W.data)):
        raise ValueError("operator has non-finite entries")
    W = W.tocoo()
    degrees = np.asarray(degrees)
    col_deg, row_deg = degrees[W.col], degrees[W.row]
    _check_single_offset(row_deg, col_deg)
    label = np.maximum(row_deg, col_deg)
    alone = ((np.bincount(W.row, minlength=W.shape[0])[W.row] == 1)
             & (np.bincount(W.col, minlength=W.shape[1])[W.col] == 1))
    spectra, labels = [np.abs(W.data[alone])], [label[alone]]
    rest = ~alone
    for n in np.unique(col_deg[rest]):
        e = rest & (col_deg == n)
        rows, r = np.unique(W.row[e], return_inverse=True)
        cols, c = np.unique(W.col[e], return_inverse=True)
        B = np.zeros((rows.size, cols.size), dtype=W.dtype)
        B[r, c] = W.data[e]
        spectra.append(np.linalg.svd(B, compute_uv=False))
        labels.append(np.full(spectra[-1].size, label[e][0]))
    return np.concatenate(spectra), np.concatenate(labels)


def _add(M: np.ndarray, row: int, col: int, X: np.ndarray):
    """Add a stack of blocks into M down the diagonal from (row, col), in place."""
    if X.size:
        (_, a, b), r, s = X.shape, M.shape[1], M.itemsize
        view = np.ndarray(X.shape, M.dtype, M, (row * r + col) * s, ((a * r + b) * s, r * s, s))
        view += X


def _degree_pairs(T: TruncatedOperator, frame: SubspaceFrame, adjoint: bool = False):
    """T on the frame one degree pair (t, n) = (n + r, n) at a time, T of one
    degree offset r (a mixed one is refused with ValueError).  Where T has
    entries and Q_n has columns (with adjoint, also where only Q_t has),
    T's dense block B gives P = B Q_n, G = Q_t* P and U = B* Q_t.  Runs of
    pairs of one block shape come stacked (m = 1: 1 x 1 blocks) as (Qn, Qt,
    P, G, U, inside, ct, cn), inside the count of P's rows of degree <= W,
    the blocks down the diagonal from frame columns (ct, cn).  A frame
    without labels is one block on every row: P = TQ, G = Q*P."""
    if frame.shapes is None:
        Q, P = frame.columns, T.mat @ frame.columns
        U = (T.mat.conj().T @ Q)[None] if adjoint else None
        yield Q[None], Q[None], P[None], (Q.conj().T @ P)[None], U, T.window_size(), 0, 0
        return
    A = T.mat.tocsr()
    deg = np.asarray(T.space.degrees)
    d, k = frame.shapes.T
    rows, cols, _ = frame.offsets
    row_deg, col_deg = np.repeat(deg, np.diff(A.indptr)), deg[A.indices]
    _check_single_offset(row_deg, col_deg)
    n = np.flatnonzero(np.bincount(col_deg, minlength=d.size))
    t = n + (row_deg[0] - col_deg[0] if n.size else 0)
    keep = (k[n] > 0) | ((k[t] > 0) & adjoint)
    n, t = n[keep], t[keep]
    if not n.size:
        return
    loc = np.arange(T.dimension) - rows[deg]    # each ordinal's place in its degree
    i, j = np.repeat(loc, np.diff(A.indptr)), loc[A.indices]
    # a run breaks where the degrees skip or a block shape changes
    shape = np.stack([d[t], d[n], k[t], k[n], t <= T.interior_degree])
    cut = (np.flatnonzero((np.diff(n) > 1) | np.diff(shape).any(axis=0)) + 1).tolist()
    for a, b in zip([0, *cut], [*cut, n.size]):
        (n0, t0), (dt, dn, _, _, inner), g = (int(n[a]), int(t[a])), shape[:, a].tolist(), b - a
        e = slice(A.indptr[rows[t0]], A.indptr[rows[t0 + g]])
        B = np.zeros((g, dt, dn), A.dtype)     # summed: a CSR may hold a position twice
        np.add.at(B, (row_deg[e] - t0, i[e], j[e]), A.data[e])
        Qn, Qt = frame.blocks(n0, g), frame.blocks(t0, g)
        P = B @ Qn
        yield (Qn, Qt, P, Qt.conj().mT @ P, B.conj().mT @ Qt if adjoint else None,
               dt if inner else 0, cols[t0], cols[n0])


def _residual(pairs, scale: float, tol: float | None = None):
    """Relative 2-norm of (I - QQ*)TQ on the interior rows, the largest sigma_max of its
    blocks P - Q_t G.  With tol it is only checked (Frobenius bound first) and raised."""
    D = [(P - Qt @ G)[:, :inside] for _, Qt, P, G, _, inside, _, _ in pairs]
    if tol is not None and np.sqrt(sum(np.vdot(X, X).real for X in D)) / scale <= tol:
        return None
    resid = max((np.linalg.norm(X, 2, axis=(1, 2)).max() for X in D if X.size), default=0.0) / scale
    if tol is not None and resid > tol:
        raise InvarianceError(resid, tol)
    return resid


def _on_frame(T: TruncatedOperator, frame: SubspaceFrame, pairs):
    """The compression Q*TQ from the pairs' blocks G: on a labelled frame, a
    TruncatedOperator holding only its nonzeros, so its products stay sparse."""
    coo = [(np.zeros(0, np.result_type(T.mat.dtype, frame.columns.dtype)),
            *np.zeros((2, 0), np.int64))]
    for _, _, _, G, _, _, ct, cn in pairs:
        if frame.shapes is None:
            return G[0]
        g, a, b = np.nonzero(G)
        coo.append((G[g, a, b], ct + g * G.shape[1] + a, cn + g * G.shape[2] + b))
    vals, rows, cols = map(np.concatenate, zip(*coo))
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(frame.dimension,) * 2)
    return TruncatedOperator(frame, mat, T.interior_degree, T.degree_raise)


def invariance_residual(T: TruncatedOperator, frame: SubspaceFrame) -> float:
    """Relative 2-norm of (I - QQ*) T Q on the interior rows, Q the frame."""
    return _residual(_degree_pairs(T, frame), _norm_scale(T))


def restrict_to_invariant(T: TruncatedOperator, frame: SubspaceFrame,
                          tol: float = INVARIANCE_TOL):
    """Express T on an invariant subspace in the frame's orthonormal basis
    (as compress_to_frame does), its invariance residual checked against
    tol in the same pass over the degree pairs."""
    pairs = list(_degree_pairs(T, frame))
    _residual(pairs, _norm_scale(T), tol)
    return _on_frame(T, frame, pairs)


def compress_to_frame(T: TruncatedOperator, frame: SubspaceFrame):
    """Q* T Q in the frame's basis, with no invariance requirement: a
    TruncatedOperator whose space is a labelled frame, the r x r ndarray on a
    frame without labels (one dense block, with no interior strip to track).

    This is the semi-invariant (quotient-module) action; use
    restrict_to_invariant when invariance is part of the contract.
    """
    return _on_frame(T, frame, _degree_pairs(T, frame))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """The restriction Y of T to an invariant frame and the two summands of
    its self-commutator, [Y*,Y] = diagonal_part + corner_part.

    diagonal_part = Q*[T*,T]Q and corner_part = Q*T(I - QQ*)T*Q are r x r
    Hermitian ndarrays in the frame's coordinates; restricted is the r x r
    ndarray Y = Q*TQ, the matrix of restrict_to_invariant(T, frame).
    """

    diagonal_part: np.ndarray
    corner_part: np.ndarray
    restricted: np.ndarray


def restricted_commutator_decomposition(T: TruncatedOperator,
                                        frame: SubspaceFrame) -> BlockDecomposition:
    """Split the self-commutator of T restricted to an invariant frame into
    its compression and positive corner summands.

    Everything is read off the degree pairs' products P = T_tn Q_n and
    U = T_tn* Q_t: Y = Q*TQ has the blocks G = Q_t* P, Q*[T*,T]Q the blocks
    P*P - U*U and, with V = U - Q_n G*, the corner the blocks V*V, whose
    positivity is checked block by block.  No ambient operator is formed.
    The invariance residual is that of P - Q_t G, as restrict_to_invariant
    checks it.
    """
    r = frame.dimension
    Y, diag, corner = np.zeros((3, r, r), np.result_type(T.mat.dtype, frame.columns.dtype))
    pairs, eig_min = list(_degree_pairs(T, frame, adjoint=True)), 0.0
    for Qn, Qt, P, G, U, inside, ct, cn in pairs:
        _add(Y, ct, cn, G)
        _add(diag, cn, cn, P.conj().mT @ P)
        _add(diag, ct, ct, -(U.conj().mT @ U))
        V = U - Qn @ G.conj().mT          # Q_n* U = G*
        C = V.conj().mT @ V               # the corner is block diagonal: check its blocks
        _add(corner, ct, ct, C)
        eig_min = min(eig_min, float(np.linalg.eigvalsh((C + C.conj().mT) / 2).min(initial=0.0)))
    scale = _norm_scale(T)
    _residual(pairs, scale, INVARIANCE_TOL)
    scale_sq = max(1.0, scale ** 2)
    for name, M in (("diagonal", diag), ("corner", corner)):
        if np.abs(M - M.conj().T).max(initial=0.0) > SELF_ADJOINT_TOL * scale_sq:
            raise TheoremViolationError(f"{name} part failed self-adjointness check")
    if eig_min < -PSD_TOL * scale_sq:
        raise TheoremViolationError(f"corner part not positive semidefinite: min eig {eig_min:.3e}")
    return BlockDecomposition(diag, corner, Y)

