"""Shared helpers for randomized instances, imported by the test modules."""

import numpy as np

from shiftlab import (SubmoduleBasis, SubspaceFrame, TruncatedOperator, WeightSet,
                      coordinate_shift, enumerate_basis)
from shiftlab.submodules import kernel_columns


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
    return TruncatedOperator(w.basis, (Z1.mat + Z1.mat.T).tocsr(),
                             interior_degree=Z1.interior_degree)
