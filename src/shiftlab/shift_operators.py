"""Finite truncations of module operators and their algebra.

Every operator carries an interior degree W: matrix entries whose row and
column degrees are both <= W agree exactly with the corresponding entries of
the untruncated operator.  Coordinate shifts raise degree by exactly 1, so
each multiplication eats a bounded strip at the truncation boundary; the
bookkeeping here tracks that strip, and TruncatedOperator.window, the block
of degrees <= W, is the one uncontaminated section every norm and fit reads.
An operator lives on a GradedBasis or a labelled frame, whose degree labels
never decrease (checked when it is built), so every degree is an ordinal
range and a window a leading block.
A frame without degree labels (a span of kernel vectors, a quotient by a
non-homogeneous ideal) has no strip to track: an operator compressed to it is
a plain r x r ndarray, and commutator takes two of them through BLAS.
"""

from dataclasses import dataclass, field

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


class SparseColumns(sp.csc_matrix):
    """Sparse frame columns whose nbytes is the stored size, as for an ndarray."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True, eq=False)
class SubspaceFrame:
    """Orthonormal columns spanning a subspace, with per-column degree labels.

    Graded frames store SparseColumns, the columns labelled n on the ambient
    rows of degree n.  A frame with no grading (e.g. a span of kernel
    vectors) stores a dense ndarray and degrees None.  A labelled frame is
    the space of the operators restricted or compressed to it; frames
    compare by identity, so operators on two different frames never mix.
    """

    columns: object               # (ambient_dim, r), orthonormal
    degrees: np.ndarray = None    # (r,) int labels, or None when ungraded

    def __post_init__(self):
        if self.degrees is not None and np.any(np.diff(self.degrees) < 0):
            raise ValueError("degree labels of a graded frame must not decrease")

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    @property
    def coordinate_rows(self):
        """Each column's row when every column is a coordinate vector stored as
        one entry 1.0 (monomial submodules build such frames), else None."""
        Q = self.columns
        coordinate = (getattr(Q, "format", None) == "csc" and np.all(np.diff(Q.indptr) == 1)
                      and np.all(Q.data == 1.0))
        return Q.indices if coordinate else None

    def dense(self) -> np.ndarray:
        """The columns as an (ambient_dim, r) ndarray: sparse ones densified
        C-ordered, dense ones as stored."""
        if sp.issparse(self.columns):
            return np.ascontiguousarray(self.columns.toarray())
        return self.columns


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
    offsets = np.unique(row_deg - col_deg)
    if offsets.size > 1:
        raise ValueError(f"graded operator mixes degree offsets {offsets.tolist()}; "
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


def invariance_residual(T: TruncatedOperator, frame: SubspaceFrame) -> float:
    """Relative 2-norm of (I - QQ*) T Q on the interior rows, Q = the frame's columns.

    A graded frame's columns labelled n live on the ambient rows of degree n:
    its slice-n block Q_n.  The residual's (t, n) block is then
    D = T_tn Q_n - Q_t (Q_t* T_tn Q_n), with T_tn and Q_n read as ordinal
    ranges, for every (t, n) where T has entries; blocks with t above the
    interior degree are dropped.  T has one degree offset (a mixed one is
    refused with ValueError), so each column degree reaches one row degree:
    the residual is the direct sum of the blocks and its norm their largest
    sigma_max.  Frames without labels take one dense SVD of the ambient
    residual.
    """
    if frame.degrees is None:
        Q = frame.columns
        Y = T.mat @ Q
        return _dense_residual(T, Y - Q @ (Q.conj().T @ Y), _norm_scale(T))

    deg = np.asarray(T.space.degrees)
    top = int(deg[-1])
    # degree n: the ambient ordinals rows[n]:rows[n + 1], the frame columns cols[n]:cols[n + 1]
    rows = np.searchsorted(deg, np.arange(top + 2))
    cols = np.searchsorted(frame.degrees, np.arange(top + 2))
    rank = np.diff(cols)
    Qs = {n: frame.columns[rows[n]:rows[n + 1], cols[n]:cols[n + 1]].toarray()
          for n in np.flatnonzero(rank).tolist()}

    A = T.mat.tocsr()
    row_deg, col_deg = np.repeat(deg, np.diff(A.indptr)), deg[A.indices]
    _check_single_offset(row_deg, col_deg)
    keep = (row_deg <= T.interior_degree) & (rank[col_deg] > 0)
    sigma = 0.0
    for k in np.unique(row_deg[keep] * (top + 1) + col_deg[keep]).tolist():
        t, n = divmod(k, top + 1)
        D = A[rows[t]:rows[t + 1], rows[n]:rows[n + 1]].toarray() @ Qs[n]
        if t in Qs:
            D = D - Qs[t] @ (Qs[t].conj().T @ D)
        if D.any():
            sigma = max(sigma, float(np.linalg.svd(D, compute_uv=False)[0]))
    return sigma / _norm_scale(T)


def _dense_residual(T: TruncatedOperator, D: np.ndarray, scale: float,
                    tol: float = -1.0) -> float:
    """Relative 2-norm of the dense residual D on T's interior rows, a view of
    its leading rows; the Frobenius bound instead when that is at most tol."""
    D = D[:T.window_size()]
    bound = float(np.sqrt(np.vdot(D, D).real)) / scale
    if bound <= tol:
        return bound
    return float(np.linalg.svd(D, compute_uv=False).max(initial=0.0)) / scale


def restrict_to_invariant(T: TruncatedOperator, frame: SubspaceFrame,
                          tol: float = INVARIANCE_TOL):
    """Express T on an invariant subspace in the frame's orthonormal basis
    (as compress_to_frame does)."""
    _check_invariant(invariance_residual(T, frame), tol)
    return compress_to_frame(T, frame)


def _check_invariant(resid: float, tol: float):
    if resid > tol:
        raise InvarianceError(resid, tol)


def compress_to_frame(T: TruncatedOperator, frame: SubspaceFrame):
    """Q* T Q in the frame's basis, with no invariance requirement: a
    TruncatedOperator whose space is a labelled frame, the r x r ndarray on a
    frame without labels (one dense block, with no interior strip to track).

    This is the semi-invariant (quotient-module) action; use
    restrict_to_invariant when invariance is part of the contract.
    """
    idx = frame.coordinate_rows
    if idx is None:
        # a dense product, also for sparse frames: a sparse one rounds differently,
        # and decay_exponent_fit counts round-off-sized singular values
        Q = frame.dense()
        R = Q.conj().T @ (T.mat @ Q)
        if frame.degrees is None:
            return R
    else:
        R = T.mat.tocsr()[idx][:, idx]      # the same entries, read by index,
        R.sum_duplicates()                  # stored as sp.csr_matrix stores Q*(TQ)
        R.eliminate_zeros()
    # a graded restriction keeps only its nonzeros, so its products stay sparse
    return TruncatedOperator(frame, sp.csr_matrix(R),
                             interior_degree=T.interior_degree,
                             degree_raise=T.degree_raise)


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

    Everything is read off the two ambient products TQ and U = T*Q, with Q
    the frame densified once: Y = Q*(TQ), Q*[T*,T]Q = (TQ)*(TQ) - U*U and,
    with V = (I - QQ*)U, the corner is V*V.  No ambient operator is formed.
    The invariance residual is that of TQ - QY, formed in place in TQ.
    A frame of coordinate columns idx is read by index, bit for bit the same:
    TQ = T[:, idx], U = T[idx, :]*, Y = TQ[idx]; I - QQ* zeroes the rows idx.
    """
    scale = _norm_scale(T)
    idx = frame.coordinate_rows
    if idx is None:
        Q = frame.dense()
        TQ, U = T.mat @ Q, T.mat.conj().T @ Q
        Y = Q.conj().T @ TQ
        diag = TQ.conj().T @ TQ - U.conj().T @ U
        TQ -= Q @ Y                 # now (I - QQ*)TQ
        U -= Q @ (Q.conj().T @ U)   # now V = (I - QQ*)T*Q
    else:
        C = T.mat.tocoo()
        C.sum_duplicates()
        at = np.full(T.dimension, -1)
        at[idx] = np.arange(idx.size)       # the frame column of each coordinate row, else -1
        TQ, U = np.zeros((2, T.dimension, idx.size), C.dtype)
        for M, r, c, v in ((TQ, C.row, C.col, C.data), (U, C.col, C.row, C.data.conj())):
            e = at[c] >= 0                  # TQ = T[:, idx], then U = T[idx, :]*
            M[r[e], at[c[e]]] = v[e]
        Y = TQ[idx]
        diag = TQ.conj().T @ TQ - U.conj().T @ U
        TQ[idx] = U[idx] = 0
    _check_invariant(_dense_residual(T, TQ, scale, INVARIANCE_TOL), INVARIANCE_TOL)
    corner = U.conj().T @ U
    del TQ, U                   # the ambient temporaries, before the r x r checks

    scale_sq = max(1.0, scale ** 2)
    for name, M in (("diagonal", diag), ("corner", corner)):
        if np.abs(M - M.conj().T).max(initial=0.0) > SELF_ADJOINT_TOL * scale_sq:
            raise TheoremViolationError(f"{name} part failed self-adjointness check")
    eig_min = float(np.linalg.eigvalsh((corner + corner.conj().T) / 2).min(initial=0.0))
    if eig_min < -PSD_TOL * scale_sq:
        raise TheoremViolationError(f"corner part not positive semidefinite: min eig {eig_min:.3e}")
    return BlockDecomposition(diag, corner, Y)

