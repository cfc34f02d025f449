import numpy as np
import pytest

from shiftlab import (InvarianceError, SubspaceFrame, add, adjoint, commutator,
                      compress, compress_to_frame, coordinate_shift, cross_commutator,
                      direct_sum, drury_arveson_weights, enumerate_basis,
                      restricted_commutator_decomposition, monomial_generator, monomial_submodule,
                      multiply, projection_matrix, restrict_to_invariant, scale,
                      self_commutator, subtract)
from shiftlab import cli, shift_operators
from shiftlab.shift_operators import TheoremViolationError
from shiftlab.submodules import Side

from conftest import random_weight_set


def _dense(T):
    return T.mat.toarray()


def test_shift_entry_is_weight_ratio(rng):
    w = random_weight_set(rng, 2, 5)
    Z1 = coordinate_shift(w, 1)
    M = _dense(Z1)
    b = w.basis
    for alpha in [(0, 0), (1, 2), (3, 1), (0, 4)]:
        src = b.index_of(alpha)
        dst = b.index_of((alpha[0] + 1, alpha[1]))
        assert M[dst, src] == pytest.approx(w.shift_weight(alpha, 1), rel=1e-14)
    # top-degree rows are annihilated, not wrapped
    for j in b.degree_slice(b.max_degree):
        assert np.all(M[:, j] == 0)


def test_shifts_commute_exactly(rng):
    for m in (2, 3):
        w = random_weight_set(rng, m, 6)
        Zs = [coordinate_shift(w, i) for i in range(1, m + 1)]
        for i in range(m):
            for j in range(i + 1, m):
                C = subtract(multiply(Zs[i], Zs[j]), multiply(Zs[j], Zs[i]))
                assert np.abs(_dense(C)).max(initial=0.0) < 1e-13


def test_interior_degree_bookkeeping(rng):
    w = random_weight_set(rng, 2, 8)
    Z = coordinate_shift(w, 1)
    assert Z.interior_degree == 7 and Z.degree_raise == 1
    Zs = adjoint(Z)
    assert Zs.interior_degree == 7 and Zs.degree_raise == -1
    comm = self_commutator(Z)
    assert comm.interior_degree == 6 and comm.degree_raise == 0
    cross = cross_commutator(w, 1, 2)
    assert cross.interior_degree == 6 and cross.degree_raise == 0
    prod = multiply(Z, Z)
    assert prod.degree_raise == 2
    assert add(comm, cross).interior_degree == 6


def test_windowed_block_agrees_with_untruncated(rng):
    # entries of [Z1*, Z1] inside the interior window must match the same
    # entries computed on a strictly larger truncation
    w_small = random_weight_set(rng, 2, 6)
    basis_big = enumerate_basis(2, 9)
    logs = np.empty(basis_big.dimension)
    for j in range(basis_big.dimension):
        alpha = tuple(int(a) for a in basis_big.exponents[j])
        if w_small.basis.contains(alpha):
            logs[j] = w_small.log_lambda[w_small.basis.index_of(alpha)]
        else:
            logs[j] = 0.0
    w_big = type(w_small)(basis_big, logs, "extended")

    c_small = self_commutator(coordinate_shift(w_small, 1))
    c_big = self_commutator(coordinate_shift(w_big, 1))
    win = c_small.windowed_dense()  # degrees <= 4
    n = win.shape[0]
    assert np.abs(win - _dense(c_big)[:n, :n]).max() < 1e-13


def test_adjoint_is_conjugate_transpose(rng):
    w = random_weight_set(rng, 2, 5)
    Z = coordinate_shift(w, 2)
    T = scale(Z, 0.3 + 0.4j)
    assert np.abs(_dense(adjoint(T)) - _dense(T).conj().T).max() == 0.0


def test_self_commutator_is_self_adjoint_and_traceless(rng):
    for m in (1, 2, 3):
        w = random_weight_set(rng, m, 6)
        C = _dense(self_commutator(coordinate_shift(w, 1)))
        assert np.abs(C - C.conj().T).max(initial=0.0) < 1e-13
        assert abs(np.trace(C)) < 1e-12  # finite sections: tr[A*,A] = 0


def test_compress_requires_projection(rng):
    w = random_weight_set(rng, 1, 5)
    Z = coordinate_shift(w, 1)
    P = np.eye(Z.dimension)
    P[0, 0] = 0.5  # not idempotent
    with pytest.raises(ValueError):
        compress(Z, P)


def test_restrict_to_invariant_rejects_noninvariant(rng):
    w = random_weight_set(rng, 2, 5)
    Z = coordinate_shift(w, 1)
    # span{1} is not invariant under multiplication by z1
    cols = np.zeros((Z.dimension, 1))
    cols[0, 0] = 1.0
    frame = SubspaceFrame(cols, np.zeros(1, dtype=np.int64), graded=False)
    with pytest.raises(InvarianceError):
        restrict_to_invariant(Z, frame)
    # but compression is always defined
    c = compress_to_frame(Z, frame)
    assert c.dimension == 1


def test_restriction_identity_monomial_submodules(rng):
    # restricted self-commutator = Q[T*,T]Q + Q T Qperp T* Q, exactly,
    # whenever ran Q is invariant under T
    for _ in range(25):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(3, 8))
        w = random_weight_set(rng, m, N)
        gen_alpha = tuple(rng.multinomial(int(rng.integers(0, N)), np.ones(m) / m))
        S = monomial_submodule(w, [monomial_generator(gen_alpha, num_vars=m)])
        Q = projection_matrix(S, Side.SUBMODULE)
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        T = coordinate_shift(w, 1)
        T = scale(T, complex(coeffs[0]))
        for i in range(2, m + 1):
            T = add(T, scale(coordinate_shift(w, i), complex(coeffs[i - 1])))

        dec = restricted_commutator_decomposition(T, Q)
        lhs = _dense(self_commutator(compress(T, Q)))
        rhs = _dense(dec.diagonal_part) + _dense(dec.corner_part)
        assert np.abs(lhs - rhs).max(initial=0.0) < 1e-12


def test_restriction_identity_corner_is_psd(rng):
    w = random_weight_set(rng, 2, 6)
    S = monomial_submodule(w, [monomial_generator((1, 1), num_vars=2)])
    Q = projection_matrix(S, Side.SUBMODULE)
    T = coordinate_shift(w, 1)
    dec = restricted_commutator_decomposition(T, Q)
    eigs = np.linalg.eigvalsh(_dense(dec.corner_part))
    assert eigs.min() > -1e-12


def test_direct_sum_block_structure(rng):
    w1 = random_weight_set(rng, 1, 4)
    w2 = random_weight_set(rng, 1, 6)
    A = coordinate_shift(w1, 1)
    B = coordinate_shift(w2, 1)
    D = direct_sum([A, B])
    assert D.dimension == A.dimension + B.dimension
    M = _dense(D)
    assert np.array_equal(M[:A.dimension, :A.dimension], _dense(A))
    assert np.array_equal(M[A.dimension:, A.dimension:], _dense(B))
    assert np.all(M[:A.dimension, A.dimension:] == 0)
    with pytest.raises(ValueError):
        direct_sum([])


def test_operator_algebra_against_numpy(rng):
    w = random_weight_set(rng, 2, 5)
    A = coordinate_shift(w, 1)
    B = coordinate_shift(w, 2)
    assert np.allclose(_dense(multiply(A, B)), _dense(A) @ _dense(B))
    assert np.allclose(_dense(add(A, B)), _dense(A) + _dense(B))
    assert np.allclose(_dense(subtract(A, B)), _dense(A) - _dense(B))
    assert np.allclose(_dense(scale(A, 2.5)), 2.5 * _dense(A))


def test_drury_arveson_row_sums():
    # sum over i of the squared Z_i weights out of alpha is (n+1 - ...) known:
    # for the symmetric Fock weights, sum_i w_i(alpha)^2 = (|alpha| + m) ... use
    # the explicit ratio instead: w_i(alpha)^2 = (alpha_i + 1) / (|alpha| + 1)
    basis = enumerate_basis(2, 6)
    w = drury_arveson_weights(basis)
    for alpha in [(0, 0), (2, 1), (1, 4)]:
        n = sum(alpha)
        for i in (1, 2):
            expected = np.sqrt((alpha[i - 1] + 1) / (n + 1))
            assert w.shift_weight(alpha, i) == pytest.approx(expected, rel=1e-12)


def test_commutator_is_adjoint_product_difference(rng):
    w = random_weight_set(rng, 2, 6)
    Z1, Z2 = coordinate_shift(w, 1), coordinate_shift(w, 2)
    A, B = Z1.mat.toarray(), Z2.mat.toarray()
    assert np.abs(commutator(Z1, Z2).mat.toarray()
                  - (A.conj().T @ B - B @ A.conj().T)).max() < 1e-14
    assert (cross_commutator(w, 1, 2).mat != commutator(Z1, Z2).mat).nnz == 0
    assert (self_commutator(Z1).mat != commutator(Z1, Z1).mat).nnz == 0


def test_theorem_check_failure_is_exit_1(rng, monkeypatch, tmp_path):
    monkeypatch.setattr(shift_operators, "PSD_TOL", -1.0)
    w = random_weight_set(rng, 2, 5)
    S = monomial_submodule(w, [(1, 0)])
    Q = projection_matrix(S, Side.SUBMODULE)
    with pytest.raises(TheoremViolationError, match="positive semidefinite"):
        restricted_commutator_decomposition(coordinate_shift(w, 1), Q)
    code = cli.main(["identity-check", "--trials", "1",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 1
