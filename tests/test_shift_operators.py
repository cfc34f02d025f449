import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shiftlab import (GradedBasis, InvarianceError, PolynomialGenerator, SubspaceFrame,
                      adjoint, ap_witness, commutator, compress_to_frame,
                      coordinate_shift, cross_commutators,
                      drury_arveson_weights, enumerate_basis, family_weights,
                      homogeneous_submodule,
                      invariance_residual, parse_polynomial,
                      restricted_commutator_decomposition, monomial_generator, monomial_submodule,
                      multiply, projection_matrix, restrict_to_invariant,
                      self_commutator, shift_combination, singular_values)
from shiftlab import cli, shift_operators
from shiftlab.shift_operators import (INVARIANCE_TOL, SparseColumns,
                                      TheoremViolationError, TruncatedOperator)
from shiftlab.submodules import Side, ungraded_submodule

from random_instances import (point_evaluation_submodule, random_weight_set, shift_weight,
                              z1_plus_adjoint)
from test_graded_basis import compositions


def _dense(T):
    return T.mat.toarray()


def _composed_commutator(X, Y):
    """[X*, Y] composed of the products P = X*Y and R = YX* as the scipy sum
    P + (-1)R: (matrix, interior degree, degree raise)."""
    P, R = multiply(adjoint(X), Y), multiply(Y, adjoint(X))
    return ((P.mat + (R.mat * -1.0).tocsr()).tocsr(),
            min(P.interior_degree, R.interior_degree), max(P.degree_raise, R.degree_raise))


def test_shift_entry_is_weight_ratio(rng):
    w = random_weight_set(rng, 2, 5)
    Z1 = coordinate_shift(w, 1)
    M = _dense(Z1)
    b = w.basis
    for alpha in [(0, 0), (1, 2), (3, 1), (0, 4)]:
        src, dst = b.rank([alpha, (alpha[0] + 1, alpha[1])], [0, 0])
        assert M[dst, src] == pytest.approx(shift_weight(w, alpha, 1), rel=1e-14)
    # top-degree rows are annihilated, not wrapped
    for j in b.degree_slice(b.max_degree):
        assert np.all(M[:, j] == 0)


def test_shifts_commute_exactly(rng):
    for m in (2, 3):
        w = random_weight_set(rng, m, 6)
        Zs = [coordinate_shift(w, i) for i in range(1, m + 1)]
        for i in range(m):
            for j in range(i + 1, m):
                C = multiply(Zs[i], Zs[j]).mat - multiply(Zs[j], Zs[i]).mat
                assert np.abs(C.toarray()).max(initial=0.0) < 1e-13


def test_interior_degree_bookkeeping(rng):
    w = random_weight_set(rng, 2, 8)
    Z = coordinate_shift(w, 1)
    assert Z.interior_degree == 7 and Z.degree_raise == 1
    Zs = adjoint(Z)
    assert Zs.interior_degree == 7 and Zs.degree_raise == -1
    comm = self_commutator(Z)
    assert comm.interior_degree == 6 and comm.degree_raise == 0
    cross = commutator(Z, coordinate_shift(w, 2))
    assert cross.interior_degree == 6 and cross.degree_raise == 0
    prod = multiply(Z, Z)
    assert prod.degree_raise == 2


def test_windowed_block_agrees_with_untruncated(rng):
    # entries of [Z1*, Z1] inside the interior window must match the same
    # entries computed on a strictly larger truncation
    w_small = random_weight_set(rng, 2, 6)
    basis_big = enumerate_basis(2, 9)
    logs = np.empty(basis_big.dimension)
    for j in range(basis_big.dimension):
        alpha = tuple(int(a) for a in basis_big.exponents[j])
        if sum(alpha) <= w_small.basis.max_degree:
            logs[j] = w_small.log_lambda[w_small.basis.rank([alpha], [0])[0]]
        else:
            logs[j] = 0.0
    w_big = type(w_small)(basis_big, logs, "extended")

    c_small = self_commutator(coordinate_shift(w_small, 1))
    c_big = self_commutator(coordinate_shift(w_big, 1))
    win = c_small.window().toarray()  # degrees <= 4
    n = win.shape[0]
    assert np.abs(win - _dense(c_big)[:n, :n]).max() < 1e-13


def test_window_is_the_interior_block(rng):
    w = random_weight_set(rng, 2, 6)
    C = self_commutator(coordinate_shift(w, 1))    # interior degree 4
    degs = np.asarray(w.basis.degrees)
    for d, keep in ((None, degs <= 4), (3, degs <= 3), (9, degs <= 4)):
        assert np.array_equal(C.window(d).toarray(), _dense(C)[np.ix_(keep, keep)])
    # an ungraded space has no boundary strip: its commutator is an ndarray,
    # and a window of any degree is the whole of it
    S = ungraded_submodule(w, [parse_polynomial("z1-z2^2", 2)])
    R = self_commutator(compress_to_frame(coordinate_shift(w, 1), S.comp))
    assert isinstance(R, np.ndarray)
    for d in (None, 0):
        assert np.array_equal(singular_values(R, d), np.linalg.svd(R, compute_uv=False))


def test_adjoint_is_conjugate_transpose(rng):
    w = random_weight_set(rng, 2, 5)
    T = shift_combination(w, [0.0, 0.3 + 0.4j])
    assert np.abs(_dense(adjoint(T)) - _dense(T).conj().T).max() == 0.0


def test_self_commutator_is_self_adjoint_and_traceless(rng):
    for m in (1, 2, 3):
        w = random_weight_set(rng, m, 6)
        C = _dense(self_commutator(coordinate_shift(w, 1)))
        assert np.abs(C - C.conj().T).max(initial=0.0) < 1e-13
        assert abs(np.trace(C)) < 1e-12  # finite sections: tr[A*,A] = 0


def test_restrict_to_invariant_rejects_noninvariant(rng):
    w = random_weight_set(rng, 2, 5)
    Z = coordinate_shift(w, 1)
    # span{1} is not invariant under multiplication by z1
    cols = np.zeros((Z.dimension, 1))
    cols[0, 0] = 1.0
    frame = SubspaceFrame(cols)
    with pytest.raises(InvarianceError):
        restrict_to_invariant(Z, frame)
    # but compression is always defined
    c = compress_to_frame(Z, frame)
    assert c.shape == (1, 1)


def test_restriction_identity_monomial_submodules(rng):
    # restricted self-commutator = Q[T*,T]Q + Q T Qperp T* Q, exactly,
    # whenever ran Q is invariant under T
    for _ in range(25):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(3, 8))
        w = random_weight_set(rng, m, N)
        gen_alpha = tuple(rng.multinomial(int(rng.integers(0, N)), np.ones(m) / m))
        S = monomial_submodule(w, [monomial_generator(gen_alpha, num_vars=m)])
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        T = shift_combination(w, coeffs)

        dec = restricted_commutator_decomposition(T, S.sub)
        Y = dec.restricted
        lhs = Y.conj().T @ Y - Y @ Y.conj().T
        rhs = dec.diagonal_part + dec.corner_part
        assert np.abs(lhs - rhs).max(initial=0.0) < 1e-12


def test_restriction_identity_corner_is_psd(rng):
    w = random_weight_set(rng, 2, 6)
    S = monomial_submodule(w, [monomial_generator((1, 1), num_vars=2)])
    T = coordinate_shift(w, 1)
    dec = restricted_commutator_decomposition(T, S.sub)
    eigs = np.linalg.eigvalsh(dec.corner_part)
    assert eigs.min() > -1e-12


def test_operator_algebra_against_numpy(rng):
    w = random_weight_set(rng, 2, 5)
    A = coordinate_shift(w, 1)
    B = coordinate_shift(w, 2)
    assert np.allclose(_dense(multiply(A, B)), _dense(A) @ _dense(B))


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
            assert shift_weight(w, alpha, i) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_drury_arveson_shifts_are_a_row_contraction(m):
    # Z_i Z_i* sends z^beta to (beta_i / |beta|) z^beta, so sum_i Z_i Z_i* is
    # the identity off the constants; Z_i* Z_i sends z^alpha below the top
    # degree to ((alpha_i + 1) / (|alpha| + 1)) z^alpha, so sum_i Z_i* Z_i is
    # (|alpha| + m) / (|alpha| + 1) there and 0 on the top degree
    N = 6
    w = drury_arveson_weights(enumerate_basis(m, N))
    Zs = [coordinate_shift(w, i).mat for i in range(1, m + 1)]
    rows = sum(Z @ Z.conj().T for Z in Zs).toarray()
    cols = sum(Z.conj().T @ Z for Z in Zs).toarray()
    n = np.asarray(w.basis.degrees)
    assert np.abs(rows - np.diag((n > 0).astype(float))).max() < 1e-14
    expected = np.where(n < N, (n + m) / (n + 1), 0.0)
    assert np.abs(cols - np.diag(expected)).max() < 1e-14


def test_coordinate_shift_rejects_bad_index():
    w = drury_arveson_weights(enumerate_basis(2, 4))
    for i in (0, 3):
        with pytest.raises(ValueError, match=rf"coordinate index {i} out of range \[1, 2\]"):
            coordinate_shift(w, i)

def test_commutator_is_adjoint_product_difference(rng, monkeypatch):
    w = random_weight_set(rng, 2, 6)
    Z1, Z2 = coordinate_shift(w, 1), coordinate_shift(w, 2)
    A, B = Z1.mat.toarray(), Z2.mat.toarray()
    assert np.abs(commutator(Z1, Z2).mat.toarray()
                  - (A.conj().T @ B - B @ A.conj().T)).max() < 1e-14
    Zs = [Z1, Z2]
    comms = cross_commutators(Zs)
    assert list(comms) == [(1, 1), (1, 2), (2, 2)]
    for (i, j), C in comms.items():
        assert (C.mat != commutator(Zs[i - 1], Zs[j - 1]).mat).nnz == 0
    assert (self_commutator(Z1).mat != commutator(Z1, Z1).mat).nnz == 0

    # the graded commutator is two sparse products, entry for entry the
    # composed A*B - BA*, on shifts and on (complex) sub- and complement
    # restrictions
    w, S = _random_submodule(rng, 2, "homogeneous-complex")
    Zs = [coordinate_shift(w, 1), coordinate_shift(w, 2)]
    pairs = [(Zs[0], Zs[1]), (Zs[1], Zs[0]), (Zs[0], Zs[0]), (adjoint(Zs[0]), Zs[1])]
    for frame, Ts in ((S.sub, Zs), (S.comp, [adjoint(Z) for Z in Zs])):
        R1, R2 = (restrict_to_invariant(T, frame) for T in Ts)
        pairs += [(R1, R2), (R2, R1), (R1, R1)]
    composed = [_composed_commutator(X, Y) for X, Y in pairs]

    def refuse(*args):
        raise AssertionError("composed operator algebra called")
    for name in ("adjoint", "multiply"):
        monkeypatch.setattr(shift_operators, name, refuse)
    for (X, Y), (mat, interior, raise_) in zip(pairs, composed):
        C = commutator(X, Y)
        assert isinstance(X.space, (GradedBasis, SubspaceFrame))
        assert np.array_equal(_dense(C), mat.toarray())
        assert C.mat.nnz == mat.nnz
        assert (C.interior_degree, C.degree_raise) == (interior, raise_)


def test_theorem_check_failure_is_exit_1(rng, monkeypatch, tmp_path):
    monkeypatch.setattr(shift_operators, "PSD_TOL", -1.0)
    w = random_weight_set(rng, 2, 5)
    S = monomial_submodule(w, [(1, 0)])
    with pytest.raises(TheoremViolationError, match="positive semidefinite"):
        restricted_commutator_decomposition(coordinate_shift(w, 1), S.sub)
    code = cli.main(["identity-check", "--trials", "1",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 1


def _dense_invariance_residual(T, frame):
    """Oracle: 2-norm of (I - QQ*) T Q on the interior rows, all ambient and dense."""
    Tm = T.mat.toarray()
    Q = frame.columns.toarray() if hasattr(frame.columns, "toarray") else frame.columns
    Y = Tm @ Q
    resid = (Y - Q @ (Q.conj().T @ Y))[T.space.degrees <= T.interior_degree]
    A = np.abs(Tm)
    scale_ = float(np.sqrt(A.sum(axis=0).max() * A.sum(axis=1).max())) or 1.0
    return float(np.linalg.norm(resid, 2)) / scale_ if resid.size else 0.0


def _random_submodule(rng, m, kind):
    w = random_weight_set(rng, m, 6 if m == 2 else 5)
    if kind == "monomial":
        gens = [tuple(int(x) for x in rng.multinomial(int(rng.integers(1, 4)), np.ones(m) / m))
                for _ in range(int(rng.integers(1, 3)))]
        S = monomial_submodule(w, gens)
    elif kind == "points":
        pts = [tuple(0.4 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)))
               for _ in range(int(rng.integers(1, 3)))]
        S = point_evaluation_submodule(w, pts)
    else:
        alphas = list(compositions(int(rng.integers(1, 3)), m))
        coefs = rng.uniform(0.5, 2.0, len(alphas))
        if kind == "homogeneous-complex":
            coefs = coefs * np.exp(2j * np.pi * rng.uniform(size=len(alphas)))
        terms = tuple((alpha, 0, c) for alpha, c in zip(alphas, coefs.tolist()))
        S = homogeneous_submodule(w, [PolynomialGenerator(terms=terms, num_vars=m)])
    return w, S


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex", "points"]))
def test_invariance_residual_matches_dense_ambient_oracle(seed, m, kind):
    # point evaluations exist for m <= 2 only
    m = 2 if kind == "points" else m
    w, S = _random_submodule(np.random.default_rng(seed), m, kind)
    for i in range(1, m + 1):
        Z = coordinate_shift(w, i)
        for T in (Z, adjoint(Z)):
            for frame in (S.sub, S.comp):
                # abs covers the round-off residuals of invariant pairs
                assert invariance_residual(T, frame) == pytest.approx(
                    _dense_invariance_residual(T, frame), rel=1e-12, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex"]))
def test_restricted_commutator_decomposition_matches_dense_ambient_oracle(seed, m, kind):
    # P[T*,T]P and PT(I - P)T*P on the ambient space, read in the frame's coordinates
    rng = np.random.default_rng(seed)
    w, S = _random_submodule(rng, m, kind)
    T = shift_combination(w, rng.normal(size=m) + 1j * rng.normal(size=m))
    dec = restricted_commutator_decomposition(T, S.sub)

    P = projection_matrix(S, Side.SUBMODULE)
    F = S.sub.dense()
    Tm = _dense(T)
    Pperp = np.eye(T.dimension) - P
    diagonal = F.conj().T @ (P @ _dense(self_commutator(T)) @ P) @ F
    corner = F.conj().T @ (P @ Tm @ Pperp @ Tm.conj().T @ P) @ F
    # entries are quadratic in T: errors relative to its largest entry squared
    tol = 1e-12 * max(1.0, np.abs(Tm).max() ** 2)
    assert np.abs(dec.diagonal_part - diagonal).max(initial=0.0) < tol
    assert np.abs(dec.corner_part - corner).max(initial=0.0) < tol
    Y = dec.restricted
    lhs = Y.conj().T @ Y - Y @ Y.conj().T
    rhs = dec.diagonal_part + dec.corner_part
    assert np.abs(lhs - rhs).max(initial=0.0) < tol


def test_restricted_commutator_decomposition_densifies_the_frame_once(monkeypatch):
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = homogeneous_submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])
    calls = []
    real = SubspaceFrame.dense

    def counted(frame):
        calls.append(frame)
        return real(frame)
    monkeypatch.setattr(SubspaceFrame, "dense", counted)
    restricted_commutator_decomposition(coordinate_shift(w, 1), S.sub)
    assert calls == [S.sub]


@pytest.mark.parametrize("kind", ["monomial", "homogeneous-real", "homogeneous-complex"])
def test_restricted_commutator_decomposition_forms_no_ambient_operator(kind, monkeypatch):
    # everything comes from TQ and T*Q: no ambient product or commutator
    rng = np.random.default_rng(11)
    w, S = _random_submodule(rng, 3, kind)
    T = shift_combination(w, [1.0, 0.5 - 0.25j])
    expected = restrict_to_invariant(T, S.sub).mat

    def refuse(*args):
        raise AssertionError("ambient operator formed")
    for name in ("multiply", "self_commutator", "commutator"):
        monkeypatch.setattr(shift_operators, name, refuse)
    dec = restricted_commutator_decomposition(T, S.sub)
    assert np.array_equal(dec.restricted, expected.toarray())
    r = S.sub.dimension
    for part in (dec.diagonal_part, dec.corner_part):
        assert isinstance(part, np.ndarray) and part.shape == (r, r)
        assert np.abs(part - part.conj().T).max(initial=0.0) <= 1e-13


def test_invariance_residual_of_noninvariant_pairs():
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = homogeneous_submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=2)])
    Z1 = coordinate_shift(w, 1)
    for T, frame in ((Z1, S.comp), (adjoint(Z1), S.sub)):
        got = invariance_residual(T, frame)
        assert got == pytest.approx(_dense_invariance_residual(T, frame), rel=1e-12)
        assert got == pytest.approx(np.sqrt(0.5), rel=1e-12)


def _refuse_block_singular_values(*args, **kwargs):
    raise AssertionError("block_singular_values called")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex"]))
def test_invariance_residual_of_mixed_offsets_and_products(seed, m, kind):
    # Z1 Z2 and its adjoint have offset 2 and interior degree N - 2; a
    # hand-built Z1 + Z1* sends each column slice to two row slices and is refused
    w, S = _random_submodule(np.random.default_rng(seed), m, kind)
    Z1, Z2 = coordinate_shift(w, 1), coordinate_shift(w, 2)
    Z12 = multiply(Z1, Z2)
    assert Z12.interior_degree < w.basis.max_degree - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shift_operators, "block_singular_values", _refuse_block_singular_values)
        for T in (Z12, adjoint(Z12)):
            for frame in (S.sub, S.comp):
                assert invariance_residual(T, frame) == pytest.approx(
                    _dense_invariance_residual(T, frame), rel=1e-12, abs=1e-13)
    for frame in (S.sub, S.comp):
        with pytest.raises(ValueError, match=r"mixes degree offsets \[-1, 1\]"):
            invariance_residual(z1_plus_adjoint(w), frame)


def test_invariance_residual_refuses_mixed_offsets():
    # the frame of the even powers z1^n is invariant under neither Z1 nor Z1*,
    # and Z1 + Z1* sends z1^n to z1^(n+1) and z1^(n-1): no residual is
    # taken block by block, and no single-offset routine takes it
    w = drury_arveson_weights(enumerate_basis(2, 8))
    idx = w.basis.slice_bounds[0:9:2]          # z1^n is first in its slice
    frame = SubspaceFrame(SparseColumns((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                                        shape=(w.basis.dimension, idx.size)),
                          w.basis.degrees[idx])
    with pytest.raises(ValueError, match=r"mixes degree offsets \[-1, 1\]"):
        invariance_residual(z1_plus_adjoint(w), frame)


def test_graded_invariance_residual_never_densifies_the_frame(monkeypatch):
    w = drury_arveson_weights(enumerate_basis(3, 24))
    S = homogeneous_submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])

    def refuse(self):
        raise AssertionError("frame densified")
    monkeypatch.setattr(SubspaceFrame, "dense", refuse)
    for i in (1, 2, 3):
        Z = coordinate_shift(w, i)
        assert invariance_residual(Z, S.sub) < INVARIANCE_TOL
        assert invariance_residual(adjoint(Z), S.comp) < INVARIANCE_TOL
    assert invariance_residual(adjoint(coordinate_shift(w, 1)), S.sub) > 0.1


def _ungraded_inputs():
    """(T1, T2, frame): shifts and a real quotient's complement, adjoint shifts
    and a complex point-evaluation complement."""
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = ungraded_submodule(w, [parse_polynomial("z1 - z2*z3", 3)])
    yield coordinate_shift(w, 1), coordinate_shift(w, 2), S.comp
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = point_evaluation_submodule(w, [(0.3, 0.1j), (-0.2 + 0.1j, 0.4), (0.1, -0.3)])
    yield adjoint(coordinate_shift(w, 1)), adjoint(coordinate_shift(w, 2)), S.comp


def test_ungraded_products_are_blas_products(monkeypatch):
    # a compression to an unlabelled frame is its r x r ndarray Q*(TQ), and
    # its commutator an ndarray of two BLAS products
    cases, composed = [], []
    for T1, T2, frame in _ungraded_inputs():
        Q = frame.columns
        R1, R2 = (compress_to_frame(T, frame) for T in (T1, T2))
        for R, T in ((R1, T1), (R2, T2)):
            assert isinstance(R, np.ndarray) and R.shape == (frame.dimension,) * 2
            assert np.abs(R - Q.conj().T @ (_dense(T) @ Q)).max() < 1e-14
        C = commutator(R1, R2)
        assert isinstance(C, np.ndarray) and C.flags.c_contiguous
        assert np.abs(C - (R1.conj().T @ R2 - R2 @ R1.conj().T)).max() < 1e-14
        # A*B - BA* composed of the two products, A* C-ordered
        a = np.ascontiguousarray(R1.conj().T)
        cases.append((R1, R2))
        composed.append((a @ R2) + (R2 @ a) * -1.0)

    def refuse(*args):
        raise AssertionError("composed operator algebra called")
    for name in ("adjoint", "multiply"):
        monkeypatch.setattr(shift_operators, name, refuse)
    # the BLAS commutator is the composed one, entry for entry, and calls none of it
    for (R1, R2), expected in zip(cases, composed):
        assert np.array_equal(commutator(R1, R2), expected)


def test_decomposition_checks_invariance_without_invariance_residual(monkeypatch):
    # the decomposition reads the residual off its own TQ - QY, and reports
    # the exact 2-norm when it refuses a frame
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = homogeneous_submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])
    cases = [(adjoint(coordinate_shift(w, 1)), S.sub), (coordinate_shift(w, 2), S.comp)]
    expected = [invariance_residual(T, frame) for T, frame in cases]
    good = restricted_commutator_decomposition(coordinate_shift(w, 1), S.sub)

    def refuse(*args):
        raise AssertionError("invariance_residual called")
    monkeypatch.setattr(shift_operators, "invariance_residual", refuse)
    for (T, frame), resid in zip(cases, expected):
        assert resid > 0.1
        with pytest.raises(InvarianceError) as err:
            restricted_commutator_decomposition(T, frame)
        assert err.value.residual == pytest.approx(resid, rel=1e-12)
    again = restricted_commutator_decomposition(coordinate_shift(w, 1), S.sub)
    for name in ("diagonal_part", "corner_part"):
        assert np.array_equal(getattr(again, name), getattr(good, name))


def _shift_by_monomial_loop(w, i):
    """Z_i built one monomial at a time through an ordinal dict of the test's own."""
    b = w.basis
    rows = [(alpha, c) for n in range(b.max_degree + 1)
            for alpha in compositions(n, b.num_vars) for c in range(b.multiplicity)]
    ordinal = {row: j for j, row in enumerate(rows)}
    dst, src, vals = [], [], []
    for (alpha, c), j in ordinal.items():
        if sum(alpha) == b.max_degree:
            continue
        t = ordinal[(alpha[:i - 1] + (alpha[i - 1] + 1,) + alpha[i:], c)]
        dst.append(t)
        src.append(j)
        vals.append(np.exp(w.log_lambda[t] - w.log_lambda[j]))
    return sp.csr_matrix((vals, (dst, src)), shape=(b.dimension, b.dimension))


@pytest.mark.parametrize("m,N,k", [(1, 12, 1), (1, 0, 2), (1, 9, 2), (2, 10, 2), (3, 8, 1),
                                   (3, 5, 2), (3, 5, 3), (4, 6, 1), (4, 4, 2)])
@pytest.mark.parametrize("family", ["random", "drury-arveson", "bergman-ball",
                                    "hardy-ball", "factorial-delta"])
def test_coordinate_shift_is_bit_identical_to_monomial_loop(m, N, k, family, rng):
    if family == "random":
        w = random_weight_set(rng, m, N, k)
    else:
        w = family_weights(family, enumerate_basis(m, N, k), delta=1.5)
    for i in range(1, m + 1):
        # built from its CSR arrays directly: they must be the (values, (rows, cols)) build's
        got = coordinate_shift(w, i).mat
        assert got.has_canonical_format
        expected = _shift_by_monomial_loop(w, i)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("seed", range(4))
def test_norm_scale_matches_dense_formula(seed):
    rng = np.random.default_rng(seed)
    n = 40
    D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    D[rng.random((n, n)) > 0.1] = 0
    D[::3] = 0  # empty rows
    A = sp.csr_matrix(D)
    for M in (A, A.T.tocsr(), sp.csr_matrix((n, n), dtype=complex)):
        T = shift_operators.TruncatedOperator(enumerate_basis(1, n - 1), M, interior_degree=n - 1)
        D = M.toarray()
        expected = np.sqrt(np.linalg.norm(D, 1) * np.linalg.norm(D, np.inf)) or 1.0
        assert abs(shift_operators._norm_scale(T) - expected) <= 1e-14 * expected


def _direct_sum(operators):
    """Block-diagonal operator on the summands' coordinates, stably ordered by
    degree, so each summand keeps its own coordinate order."""
    degrees = np.concatenate([np.asarray(T.space.degrees) for T in operators])
    order = np.argsort(degrees, kind="stable")
    space = SubspaceFrame(np.eye(degrees.size), degrees[order])
    mat = sp.block_diag([T.mat for T in operators], format="csr")[order][:, order]
    return TruncatedOperator(space, mat,
                             interior_degree=min(T.interior_degree for T in operators),
                             degree_raise=max(T.degree_raise for T in operators))


def _window_cases(seed, kind):
    """Operators of every kind whose windows are read: shifts, adjoints,
    commutators, restrictions, ungraded compressions and direct sums."""
    rng = np.random.default_rng(seed)
    if kind == "direct-sum":
        w1, w2 = random_weight_set(rng, 2, 4), random_weight_set(rng, 2, 6)
        Z, Y = coordinate_shift(w1, 1), coordinate_shift(w2, 2)
        S = monomial_submodule(w2, [(1, 1)])
        R = restrict_to_invariant(Y, S.sub)
        return [_direct_sum([Z, Y]), _direct_sum([self_commutator(Y), adjoint(Z)]),
                _direct_sum([R, Z, self_commutator(R)])]
    if kind == "shifts":
        Zs = [coordinate_shift(random_weight_set(rng, 2, 6), i) for i in (1, 2)]
        return [*Zs, adjoint(Zs[0]), commutator(Zs[0], Zs[1]), multiply(Zs[0], Zs[1])]
    w, S = _random_submodule(rng, 3, kind)
    Zs = [coordinate_shift(w, i) for i in (1, 2, 3)]
    Rs = [restrict_to_invariant(Z, S.sub) for Z in Zs]
    Cs = [restrict_to_invariant(adjoint(Z), S.comp) for Z in Zs]
    return [*Rs, *Cs, commutator(Rs[0], Rs[1]), commutator(Cs[1], Cs[0])]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["shifts", "monomial", "homogeneous-real",
                             "homogeneous-complex", "direct-sum"]),
       d=st.one_of(st.none(), st.integers(-1, 8)))
def test_window_is_the_block_of_degrees_up_to_the_interior(seed, kind, d):
    # oracle: the coordinates of degree <= min(W, d), picked one by one
    for T in _window_cases(seed, kind):
        degs = np.asarray(T.space.degrees)
        w = T.interior_degree if d is None else min(T.interior_degree, d)
        idx = np.flatnonzero(degs <= w)
        W = T.window(d)
        assert T.window_size(d) == idx.size
        assert np.array_equal(W.toarray(), _dense(T)[np.ix_(idx, idx)])


def test_operators_on_a_submodule_and_its_complement_never_mix():
    # z^2 at m=1, N=3: the submodule {z^2, z^3} and its complement {1, z} are
    # both 2-dimensional, yet an operator on one never combines with one on the other
    w = drury_arveson_weights(enumerate_basis(1, 3))
    S = monomial_submodule(w, [(2,)])
    Z = coordinate_shift(w, 1)
    R, C = restrict_to_invariant(Z, S.sub), restrict_to_invariant(adjoint(Z), S.comp)
    assert R.space is S.sub and C.space is S.comp and R.dimension == C.dimension == 2
    assert compress_to_frame(Z, S.comp).space is S.comp
    Z_again = coordinate_shift(drury_arveson_weights(enumerate_basis(1, 3)), 1)
    for combine in (commutator, multiply):
        for X, Y in ((R, C), (C, R)):
            with pytest.raises(ValueError, match="different spaces"):
                combine(X, Y)
        # operators on one frame, or on equal bases, still combine
        assert combine(R, R).space is S.sub and combine(C, C).space is S.comp
        assert combine(Z, Z_again).space is w.basis


def test_array_holding_dataclasses_compare_without_raising(rng):
    # two distinct instances of each compare unequal, by identity, where a
    # field-by-field comparison of their arrays would raise ValueError
    w1, w2 = random_weight_set(rng, 2, 4), random_weight_set(rng, 2, 4)
    S1, S2 = monomial_submodule(w1, [(1, 0)]), monomial_submodule(w2, [(1, 0)])
    D1, D2 = (restricted_commutator_decomposition(coordinate_shift(w1, 1), S1.sub)
              for _ in range(2))
    A1, A2 = (ap_witness(D1.corner_part, 1.0) for _ in range(2))
    for a, b in ((w1, w2), (S1, S2), (S1.sub, S2.sub), (S1.comp, S1.sub), (D1, D2), (A1, A2)):
        assert a == a and not a == b and a != b
    # bases compare by (m, N, k)
    assert w1.basis == w2.basis and hash(w1.basis) == hash(w2.basis)
    assert w1.basis != enumerate_basis(2, 5) and w1.basis != S1.sub


def test_graded_labels_must_not_decrease():
    cols = SparseColumns(sp.eye(3, 2, format="csc"))
    with pytest.raises(ValueError, match="must not decrease"):
        SubspaceFrame(cols, np.array([1, 0]))
    with pytest.raises(ValueError, match="must not decrease"):
        SubspaceFrame(np.eye(3), np.array([0, 2, 1]))
    # an ungraded frame has no labels to check
    assert SubspaceFrame(cols.toarray()).degrees is None
    assert SubspaceFrame(cols, np.array([0, 0])).dimension == 2


def _composed_combination(w, coeffs):
    """c_1 Z_1 + ... + c_k Z_k, one scipy scalar product and sum per shift."""
    Z = coordinate_shift(w, 1)
    mat = (Z.mat * coeffs[0]).tocsr()
    for i in range(2, len(coeffs) + 1):
        mat = (mat + (coordinate_shift(w, i).mat * coeffs[i - 1]).tocsr()).tocsr()
    return TruncatedOperator(Z.space, mat, Z.interior_degree, Z.degree_raise)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_shift_combination_is_the_composed_scale_add(m, kind, rng):
    # one CSR pass, entry for entry the operator scale and add compose
    for N in (0, 1, 4, 7):
        w = random_weight_set(rng, m, N)
        coeffs = rng.normal(size=m)
        if kind == "complex":
            coeffs = coeffs + 1j * rng.normal(size=m)
        T, expected = shift_combination(w, coeffs), _composed_combination(w, coeffs)
        assert T.mat.dtype == expected.mat.dtype
        assert np.array_equal(_dense(T), _dense(expected))
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(T.mat, name), getattr(expected.mat, name))
        assert (T.space, T.interior_degree, T.degree_raise) == \
            (expected.space, expected.interior_degree, expected.degree_raise)


def _as_dense_frame(frame):
    """The same columns stored dense: products with Q, never reads by index."""
    return SubspaceFrame(frame.dense(), frame.degrees)


def _monomial_cases(rng):
    """(T, frame) pairs on monomial frames: random submodules and their
    complements, a submodule of rank 0 (generator above degree N) and one of
    full rank (generator (0, ..., 0))."""
    for t in range(12):
        m = 1 + t % 3
        N = int(rng.integers(3, 8))
        w = random_weight_set(rng, m, N)
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        gens = [tuple(int(x) for x in rng.multinomial(int(rng.integers(0, N)), np.ones(m) / m))
                for _ in range(int(rng.integers(1, 3)))]
        if t == 9:
            gens = [(N + 1,) + (0,) * (m - 1)]
        elif t == 10:
            gens = [(0,) * m]
        S = monomial_submodule(w, gens)
        T = shift_combination(w, coeffs)
        yield T, S.sub
        yield adjoint(T), S.comp
        # the same span, its coordinate columns in reverse order within each degree
        idx, degs = S.sub.coordinate_rows, S.sub.degrees
        order = np.lexsort((-idx, degs))
        cols = SparseColumns((np.ones(idx.size), idx[order], np.arange(idx.size + 1)),
                             shape=S.sub.columns.shape)
        yield T, SubspaceFrame(cols, degs[order])


def test_coordinate_frames_are_read_by_index_bit_for_bit(rng):
    ranks = set()
    for T, frame in _monomial_cases(rng):
        assert frame.coordinate_rows is not None
        generic = _as_dense_frame(frame)
        assert generic.coordinate_rows is None
        ranks.add(frame.dimension / T.dimension)
        fast = restricted_commutator_decomposition(T, frame)
        slow = restricted_commutator_decomposition(T, generic)
        for name in ("diagonal_part", "corner_part", "restricted"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype
            assert np.array_equal(a, b)
        # the compression as sp.csr_matrix(Q*(TQ)) stores it, no explicit zero
        fast, slow = compress_to_frame(T, frame), compress_to_frame(T, generic)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(fast.mat, name), getattr(slow.mat, name))
        assert fast.mat.dtype == slow.mat.dtype and np.all(fast.mat.data != 0)
        assert np.array_equal(fast.space.degrees, slow.space.degrees)
        assert (fast.interior_degree, fast.degree_raise) == \
            (slow.interior_degree, slow.degree_raise)
    assert {0.0, 1.0} <= ranks


def test_coordinate_rows_need_single_unit_entries():
    cols = SparseColumns((np.ones(2), np.array([3, 1]), np.arange(3)), shape=(5, 2))
    assert np.array_equal(SubspaceFrame(cols, np.zeros(2, dtype=np.int64)).coordinate_rows,
                          [3, 1])
    scaled = SparseColumns((np.array([1.0, -1.0]), np.array([3, 1]), np.arange(3)), shape=(5, 2))
    # as many entries as columns, but two in the first column and none in the second
    two = SparseColumns((np.ones(2), np.array([0, 1]), np.array([0, 2, 2])), shape=(5, 2))
    for Q in (scaled, two, cols.toarray()):
        assert SubspaceFrame(Q, np.zeros(2, dtype=np.int64)).coordinate_rows is None


def test_identity_check_composes_no_operator_and_densifies_no_frame(monkeypatch):
    from shiftlab.experiments import run_restriction_identity_check

    def refuse(*args):
        raise AssertionError("composed operator or dense frame")
    for name in ("multiply", "commutator", "coordinate_shift"):
        monkeypatch.setattr(shift_operators, name, refuse)
    monkeypatch.setattr(SubspaceFrame, "dense", refuse)
    rep = run_restriction_identity_check(trials=20, seed=3)
    assert rep.verdicts["identity"]["passed"]


def test_coordinate_read_sums_duplicate_entries(rng):
    # a CSR may hold one position twice; the read sums them as a product would
    w = random_weight_set(rng, 2, 6)
    S = monomial_submodule(w, [(1, 0)])
    T = shift_combination(w, rng.normal(size=2) + 1j * rng.normal(size=2))
    A = T.mat
    nnz = np.diff(A.indptr)
    halves = sp.csr_matrix((np.repeat(A.data / 2, 2), np.repeat(A.indices, 2),
                            np.concatenate([[0], np.cumsum(2 * nnz)])), shape=A.shape)
    assert not halves.has_canonical_format
    twice = shift_operators.TruncatedOperator(T.space, halves, T.interior_degree, T.degree_raise)
    fast = restricted_commutator_decomposition(twice, S.sub)
    slow = restricted_commutator_decomposition(T, _as_dense_frame(S.sub))
    for name in ("diagonal_part", "corner_part", "restricted"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name))
    fast, slow = compress_to_frame(twice, S.sub), compress_to_frame(T, _as_dense_frame(S.sub))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast.mat, name), getattr(slow.mat, name))


def test_coordinate_compression_drops_explicit_zeros(rng):
    # a zero coefficient stores zeros in T; the dense product's csr_matrix drops them
    w = random_weight_set(rng, 2, 6)
    frame = monomial_submodule(w, [(1, 0)]).sub
    T = shift_combination(w, [0.0, 1.0])
    assert np.count_nonzero(T.mat.data == 0) > 0
    fast, slow = compress_to_frame(T, frame), compress_to_frame(T, _as_dense_frame(frame))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast.mat, name), getattr(slow.mat, name))


def test_coordinate_compression_forms_no_dense_block():
    # the sub frame of z1 at m=2, N=70 has r = 2,485 columns: an r x r float64
    # block would be 49 MB, four times the bound
    w = drury_arveson_weights(enumerate_basis(2, 70))
    frame = monomial_submodule(w, [(1, 0)]).sub
    T = coordinate_shift(w, 2)
    r = frame.dimension
    assert r >= 2000 and frame.coordinate_rows is not None
    tracemalloc.start()
    try:
        R = compress_to_frame(T, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.mat.nnz == np.count_nonzero(T.mat.toarray()[np.ix_(frame.coordinate_rows,
                                                                frame.coordinate_rows)])
    assert peak < r * r * 8 / 4
