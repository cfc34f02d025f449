"""Shared helpers for randomized instances, imported by the test modules."""

import tracemalloc

import numpy as np

from shiftlab import (SubmoduleBasis, SubspaceFrame, TruncatedOperator, WeightSet,
                      coordinate_shift, enumerate_basis)
from shiftlab.shift_operators import DegreeBlocks, SparseEntries
from shiftlab.submodules import kernel_columns


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_weight_set(rng, m, N, k=1, spread=0.7, label="random"):
    """Random positive monomial norms, constant across components of an alpha."""
    basis = enumerate_basis(m, N, k)
    by_alpha = {}
    logs = np.empty(basis.dimension)
    for j in range(basis.dimension):
        alpha = tuple(int(a) for a in basis.exponents[j])
        if alpha not in by_alpha:
            by_alpha[alpha] = 0.0 if sum(alpha) == 0 else rng.uniform(-spread, spread)
        logs[j] = by_alpha[alpha]
    return WeightSet(basis, logs, label)


def shift_weight(w, alpha, i):
    """Matrix entry of Z_i from alpha to alpha + e_i: lambda_(alpha+e_i) / lambda_alpha."""
    target = list(alpha)
    target[i - 1] += 1
    src, dst = w.basis.rank([alpha, target], [0, 0])
    return float(np.exp(w.log_lambda[dst] - w.log_lambda[src]))


def ambient_columns(frame):
    """The frame's columns as one (ambient_dim, r) ndarray, a test oracle read
    from the stored arrays alone: a graded frame's blocks written out on
    their degrees' rows and columns, a sliced frame's on their slices' rows
    (frame.rows) and columns."""
    if frame.shapes is None:
        return frame.columns
    heights, widths = frame.shapes.T
    rows = np.arange(heights.sum()) if frame.rows is None else frame.rows
    Q = np.zeros((rows.size, widths.sum()), frame.columns.dtype)
    r0 = c0 = e0 = 0
    for h, k in zip(heights, widths):
        Q[rows[r0:r0 + h], c0:c0 + k] = frame.columns[e0:e0 + h * k].reshape(h, k)
        r0, c0, e0 = r0 + h, c0 + k, e0 + h * k
    return Q


def sparse_entries(D):
    """The SparseEntries of a square ndarray: its nonzeros in row-major order."""
    rows, cols = np.nonzero(D)
    return SparseEntries(rows, cols, D[rows, cols], D.shape)


def frame_operator(frame, M, offset=0):
    """M, an r x r ndarray in a labelled frame's coordinates that maps degree
    n to n + offset, as the DegreeBlocks of its (n + offset, n) blocks."""
    out = DegreeBlocks.zeros(frame.shapes[:, 1], offset, M.dtype)
    cols = np.concatenate([[0], np.cumsum(out.sizes)])
    for n in out.layout[0]:
        out.blocks(n)[0] = M[cols[n + offset]:cols[n + offset + 1], cols[n]:cols[n + 1]]
    assert np.array_equal(out.toarray(), M), "M has entries off its degree blocks"
    return out


def point_evaluation_submodule(w, points):
    """Ungraded frames of the points' kernel vectors (the complement) and of
    their orthocomplement (the submodule), from one full SVD."""
    K = kernel_columns(w, points, range(w.basis.multiplicity))
    U = np.linalg.svd(K, full_matrices=True)[0]
    r = K.shape[1]
    return SubmoduleBasis(w, SubspaceFrame(U[:, r:]), SubspaceFrame(U[:, :r]))


def z1_plus_adjoint(w):
    """Z1 + Z1*, built by hand: it maps degree n to n + 1 and to n - 1, two
    degree offsets, which no library operation produces."""
    Z1 = coordinate_shift(w, 1)
    D = Z1.mat.toarray()
    return TruncatedOperator(w.basis, sparse_entries(D + D.T),
                             interior_degree=Z1.interior_degree)
