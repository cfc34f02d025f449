import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shiftlab import (GradedBasis, InvarianceError, PolynomialGenerator, SubmoduleBasis,
                      SubspaceFrame,
                      adjoint, commutator, compress_to_frame,
                      coordinate_shift, cross_commutators,
                      drury_arveson_weights, enumerate_basis, family_weights,
                      invariance_residual, parse_polynomial,
                      restricted_commutator_decomposition, monomial_generator,
                      multiply, projection_matrix, restrict_to_invariant,
                      self_commutator, shift_combination, submodule)
from shiftlab import cli, shift_operators
from shiftlab.shift_operators import (INVARIANCE_TOL, DegreeBlocks, FrameSpace,
                                      TheoremViolationError, TruncatedOperator)
from shiftlab.submodules import _ungraded_submodule

from random_instances import (ambient_columns, frame_operator, point_evaluation_submodule,
                              random_weight_set, shift_weight, sparse_entries, traced_peak,
                              z1_plus_adjoint)
from test_graded_basis import compositions


def _dense(T):
    """T's matrix on its whole space, zero past the leading section it stores."""
    M, k = np.zeros((T.dimension,) * 2, T.mat.dtype), T.mat.shape[0]
    M[:k, :k] = T.mat.toarray()
    return M


def _csr(E):
    """A SparseEntries as a scipy CSR matrix, the test oracle's store."""
    return sp.csr_matrix((E.vals, (E.rows, E.cols)), shape=E.shape)


def _formed(C, M):
    """The dense oracle M of the commutator C cut to the blocks C stores: all
    of M on a basis; on a graded frame M's interior window, zero past it,
    once C is checked to store nothing past that window."""
    if isinstance(C.space, GradedBasis):
        return M
    k = C.window_size()
    assert C.mat.shape == (k, k)
    out = np.zeros_like(M)
    out[:k, :k] = M[:k, :k]
    return out


def _composed_commutator(X, Y):
    """[X*, Y] composed of the products P = X*Y and R = YX* and their
    difference: (operator, interior degree, degree raise)."""
    P, R = multiply(adjoint(X), Y), multiply(Y, adjoint(X))
    mat = P.mat
    mat -= R.mat
    return (TruncatedOperator(X.space, mat, P.interior_degree, P.degree_raise),
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
    # an unlabelled space (an ideal with no positive weight) has no boundary
    # strip: its commutator has no interior, one r x r block of offset 0,
    # and every window of it is the whole operator
    S = submodule(w, [parse_polynomial("z1-z2^2-z2^3", 2)])
    R = self_commutator(compress_to_frame(coordinate_shift(w, 1), S.comp))
    assert R.interior_degree is None and R.mat.offset == 0
    assert np.array_equal(R.mat.sizes, [S.comp.dimension])
    assert np.array_equal(R.mat.blocks(0)[0], R.mat.toarray())
    for d in (None, 0, 3, 99):
        assert np.array_equal(R.window(d).toarray(), R.mat.toarray())


def test_adjoint_is_conjugate_transpose(rng):
    w = random_weight_set(rng, 2, 5)
    T = shift_combination(w, [0.0, 0.3 + 0.4j])
    # on the basis and on a labelled frame, where each degree block is transposed
    frame = submodule(w, [monomial_generator((1, 0))]).sub
    for X in (T, restrict_to_invariant(T, frame), compress_to_frame(adjoint(T), frame)):
        assert np.array_equal(_dense(adjoint(X)), _dense(X).conj().T)
        assert adjoint(X).degree_raise == -X.degree_raise


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
    assert c.mat.shape == (1, 1) and c.dimension == 1


def test_restriction_identity_monomial_submodules(rng):
    # restricted self-commutator = Q[T*,T]Q + Q T Qperp T* Q, exactly,
    # whenever ran Q is invariant under T
    for _ in range(25):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(3, 8))
        w = random_weight_set(rng, m, N)
        gen_alpha = tuple(rng.multinomial(int(rng.integers(0, N)), np.ones(m) / m))
        S = submodule(w, [monomial_generator(gen_alpha, num_vars=m)])
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        T = shift_combination(w, coeffs)

        dec = restricted_commutator_decomposition(T, S.sub)
        Y = dec.restricted.toarray()
        lhs = Y.conj().T @ Y - Y @ Y.conj().T
        rhs = dec.diagonal_part.toarray() + dec.corner_part.toarray()
        assert np.abs(lhs - rhs).max(initial=0.0) < 1e-12


def test_restriction_identity_corner_is_psd(rng):
    w = random_weight_set(rng, 2, 6)
    S = submodule(w, [monomial_generator((1, 1), num_vars=2)])
    T = coordinate_shift(w, 1)
    dec = restricted_commutator_decomposition(T, S.sub)
    eigs = np.linalg.eigvalsh(dec.corner_part.toarray())
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
    Zs = [coordinate_shift(w, i).mat.toarray() for i in range(1, m + 1)]
    rows = sum(Z @ Z.conj().T for Z in Zs)
    cols = sum(Z.conj().T @ Z for Z in Zs)
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
    comms = dict(cross_commutators(Zs))
    assert list(comms) == [(1, 1), (1, 2), (2, 2)]
    for (i, j), C in comms.items():
        assert np.array_equal(_dense(C), _dense(commutator(Zs[i - 1], Zs[j - 1])))
    assert np.array_equal(_dense(self_commutator(Z1)), _dense(commutator(Z1, Z1)))

    # the graded commutator is two products in its space's store, entry for entry the
    # composed A*B - BA*, on shifts and on (complex) sub- and complement
    # restrictions: whole on the basis, its interior window on a frame
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
    for (X, Y), (D, interior, raise_) in zip(pairs, composed):
        C = commutator(X, Y)
        assert isinstance(X.space, (GradedBasis, FrameSpace))
        assert np.array_equal(_dense(C), _formed(C, _dense(D)))
        assert C.mat.nnz == D.mat.nnz
        assert (C.interior_degree, C.degree_raise) == (interior, raise_)


def test_graded_commutator_forms_only_its_interior(rng, monkeypatch, tmp_path):
    # nothing reads a graded commutator past its interior window W, so its
    # block products form no block (n + r, n) with max(n, n + r) > W, and it
    # stores its window alone: on the submodule-m3 benchmark command (N = 16,
    # W = 14) the degree-15 and degree-16 blocks, the widest ones, are
    # neither formed nor stored
    calls, real_add, real_commutator = [], shift_operators._add_product, commutator

    def add(C, A, B):
        calls[-1].append(((C.ctypes.data - C.base.ctypes.data) // C.itemsize, len(C)))
        real_add(C, A, B)

    def spied(A, B):
        calls.append([])
        C = real_commutator(A, B)
        n, _, _, starts = C.mat.layout
        for entry, count in calls[-1]:
            last = np.searchsorted(starts, entry, side="right") - 2 + count
            assert max(n[last], n[last] + C.mat.offset) <= C.interior_degree
        assert C.mat.nnz == C.window().nnz
        return C
    monkeypatch.setattr(shift_operators, "_add_product", add)
    monkeypatch.setattr(shift_operators, "commutator", spied)
    assert cli.main(["submodule-probe", "--family", "drury-arveson", "--m", "3",
                     "--gens", "z1^2-z2^2", "--p", "1,3", "--degrees", "6,8,10,12,14",
                     "--out", str(tmp_path), "--tag", "t"]) == 0
    assert len(calls) == 12 and all(calls)
    monkeypatch.undo()

    # on random graded frames, real and complex, the window is the whole
    # product's window bit for bit (DegreeBlocks._product with the window at
    # the top degree), and nothing past it is stored
    for m, kind in ((2, "homogeneous-real"), (2, "homogeneous-complex"), (3, "monomial"),
                    (3, "homogeneous-complex")):
        w, S = _random_submodule(rng, m, kind)
        Zs = [coordinate_shift(w, i) for i in range(1, m + 1)]
        for Ts in ([restrict_to_invariant(Z, S.sub) for Z in Zs],
                   [restrict_to_invariant(adjoint(Z), S.comp) for Z in Zs],
                   [compress_to_frame(Z, S.comp) for Z in Zs]):
            for A in Ts:
                for B in Ts:
                    C, a, top = commutator(A, B), A.mat.H, len(A.mat.sizes) - 1
                    W, whole = C.window(), a._product(B.mat, top)
                    whole -= B.mat._product(a, top)
                    assert np.array_equal(W.data, whole.leading(W.shape[0]).data)
                    assert C.mat.nnz == W.nnz


def test_degree_blocks_leading_refuses_a_cut_degree():
    # a graded commutator stores its window alone, so a leading(k) that cut a
    # degree or reached past the store would silently drop blocks
    B = DegreeBlocks(np.arange(1.0, 15.0), np.array([1, 2, 3]), 0)
    for k in (0, 1, 3, 6):
        assert np.array_equal(B.leading(k).toarray(), B.toarray()[:k, :k])
    for k in (-1, 2, 4, 5, 7, 99):
        with pytest.raises(ValueError, match=rf"leading\({k}\) cuts a degree"):
            B.leading(k)


def test_sparse_entries_leading_refuses_k_past_its_shape():
    Z = coordinate_shift(drury_arveson_weights(enumerate_basis(2, 4)), 1).mat
    assert Z.shape == (15, 15) and Z.leading(15).nnz == Z.nnz
    assert np.array_equal(Z.leading(6).toarray(), Z.toarray()[:6, :6])
    for k in (-1, 16, 99):
        with pytest.raises(ValueError, match=rf"leading\({k}\) is outside a 15 x 15"):
            Z.leading(k)


def test_operator_mat_is_a_leading_section_holding_its_window(rng):
    # a graded commutator's mat is its window; one that falls short of the
    # window, or is wider than the space, is refused
    w, S = _random_submodule(rng, 2, "homogeneous-real")
    R = restrict_to_invariant(coordinate_shift(w, 1), S.sub)
    C = commutator(R, R)
    k = C.window_size()
    assert C.mat.shape == (k, k) < (R.dimension,) * 2
    short = C.mat.leading(int(np.searchsorted(C.space.degrees, C.interior_degree)))
    for mat, space in ((short, C.space), (R.mat, FrameSpace(R.space.degrees[:-1], R.dimension - 1))):
        with pytest.raises(ValueError, match="not a leading section"):
            TruncatedOperator(space, mat, C.interior_degree, C.degree_raise)
    # products on a frame, like commutators, store their interior window,
    # so they take a window-only operand on either side
    for X, Y in ((R, C), (C, R), (adjoint(R), commutator(R, adjoint(R)))):
        P = multiply(X, Y)
        k = P.window_size()
        assert P.mat.shape == (k, k)
        assert np.allclose(P.mat.toarray(), (_dense(X) @ _dense(Y))[:k, :k], rtol=0, atol=1e-14)


def test_theorem_check_failure_is_exit_1(rng, monkeypatch, tmp_path):
    monkeypatch.setattr(shift_operators, "PSD_TOL", -1.0)
    w = random_weight_set(rng, 2, 5)
    S = submodule(w, [monomial_generator((1, 0))])
    with pytest.raises(TheoremViolationError, match="positive semidefinite"):
        restricted_commutator_decomposition(coordinate_shift(w, 1), S.sub)
    code = cli.main(["identity-check", "--trials", "1",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 1


def _dense_invariance_residual(T, frame):
    """Oracle: 2-norm of (I - QQ*) T Q on the interior rows, all ambient and dense."""
    Tm = T.mat.toarray()
    Q = ambient_columns(frame)
    Y = Tm @ Q
    resid = (Y - Q @ (Q.conj().T @ Y))[T.space.degrees <= T.interior_degree]
    A = np.abs(Tm)
    scale_ = float(np.sqrt(A.sum(axis=0).max() * A.sum(axis=1).max())) or 1.0
    return float(np.linalg.norm(resid, 2)) / scale_ if resid.size else 0.0


def _random_submodule(rng, m, kind):
    w = random_weight_set(rng, m, 6 if m == 2 else 5)
    if kind == "monomial":
        gens = [monomial_generator(rng.multinomial(int(rng.integers(1, 4)), np.ones(m) / m))
                for _ in range(int(rng.integers(1, 3)))]
        S = submodule(w, gens)
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
        build = _ungraded_submodule if kind == "ungraded" else submodule
        S = build(w, [PolynomialGenerator(terms=terms, num_vars=m)])
        if kind == "ungraded":
            # the span the ungraded builder finds, on unlabelled frames: a
            # sliced frame has no interior rows to check invariance on
            S = SubmoduleBasis(w, *(SubspaceFrame(ambient_columns(F)) for F in (S.sub, S.comp)))
    return w, S


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex", "points",
                             "ungraded"]))
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
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex",
                             "ungraded"]))
def test_restricted_commutator_decomposition_matches_dense_ambient_oracle(seed, m, kind):
    # P[T*,T]P and PT(I - P)T*P on the ambient space, read in the frame's coordinates
    rng = np.random.default_rng(seed)
    w, S = _random_submodule(rng, m, kind)
    T = shift_combination(w, rng.normal(size=m) + 1j * rng.normal(size=m))
    dec = restricted_commutator_decomposition(T, S.sub)

    P = projection_matrix(S.sub)
    F = ambient_columns(S.sub)
    Tm = _dense(T)
    Pperp = np.eye(T.dimension) - P
    diagonal = F.conj().T @ (P @ _dense(self_commutator(T)) @ P) @ F
    corner = F.conj().T @ (P @ Tm @ Pperp @ Tm.conj().T @ P) @ F
    # entries are quadratic in T: errors relative to its largest entry squared
    tol = 1e-12 * max(1.0, np.abs(Tm).max() ** 2)
    assert np.abs(dec.diagonal_part.toarray() - diagonal).max(initial=0.0) < tol
    assert np.abs(dec.corner_part.toarray() - corner).max(initial=0.0) < tol
    Y = dec.restricted.toarray()
    lhs = Y.conj().T @ Y - Y @ Y.conj().T
    rhs = dec.diagonal_part.toarray() + dec.corner_part.toarray()
    assert np.abs(lhs - rhs).max(initial=0.0) < tol


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
    assert np.array_equal(dec.restricted.toarray(), expected.toarray())
    r = S.sub.dimension
    for part in (dec.diagonal_part.toarray(), dec.corner_part.toarray()):
        assert isinstance(part, np.ndarray) and part.shape == (r, r)
        assert np.abs(part - part.conj().T).max(initial=0.0) <= 1e-13


def _dense_identity_residual(dec):
    """max |[Y*,Y] - diagonal - corner|, each part written out by toarray."""
    Y = dec.restricted.toarray()
    lhs = Y.conj().T @ Y - Y @ Y.conj().T
    return np.abs(lhs - dec.diagonal_part.toarray() - dec.corner_part.toarray()).max(initial=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3),
       kind=st.sampled_from(["monomial", "homogeneous-real", "homogeneous-complex",
                             "ungraded"]))
def test_decomposition_residual_matches_the_dense_identity(seed, m, kind):
    # the parts are degree blocks on the frame's sizes, the restriction the
    # mat of restrict_to_invariant, and the blockwise residual is the dense one
    rng = np.random.default_rng(seed)
    w, S = _random_submodule(rng, m, kind)
    T = shift_combination(w, rng.normal(size=m) + 1j * rng.normal(size=m))
    for X, frame in ((T, S.sub), (adjoint(T), S.comp)):
        dec = restricted_commutator_decomposition(X, frame)
        R = restrict_to_invariant(X, frame).mat
        assert np.array_equal(dec.restricted.data, R.data) and dec.restricted.offset == R.offset
        for part in (dec.restricted, dec.diagonal_part, dec.corner_part):
            assert isinstance(part, DegreeBlocks) and np.array_equal(part.sizes, frame.sizes)
        assert dec.diagonal_part.offset == dec.corner_part.offset == 0
        assert abs(dec.residual() - _dense_identity_residual(dec)) <= 1e-13


def test_decomposition_residual_sees_every_block(rng):
    # one entry of any block of either summand, the top degree's included,
    # perturbed by 1e-6 moves the residual to 1e-6
    w = random_weight_set(rng, 3, 5)
    T = shift_combination(w, [1.0, 0.5 - 0.25j, 0.3j])
    dec = restricted_commutator_decomposition(T, submodule(w, [monomial_generator((1, 0, 0))]).sub)
    assert dec.residual() < 1e-13
    for name in ("diagonal_part", "corner_part"):
        part = getattr(dec, name)
        starts = part.layout[3]
        assert part.sizes[-1] > 0
        for n in np.flatnonzero(part.sizes):
            data = part.data.copy()
            data[starts[n + 1] - 1] += 1e-6         # the last entry of degree n's block
            bad = dataclasses.replace(dec, **{name: DegreeBlocks(data, part.sizes, 0)})
            assert bad.residual() == pytest.approx(1e-6, rel=1e-6), (name, n)


def test_identity_check_fails_on_a_perturbed_top_degree_corner_block(monkeypatch, tmp_path):
    # identity-check reads the residual of every block: a commutator's
    # interior window would miss the top degree
    real, calls = shift_operators.restricted_commutator_decomposition, []

    def perturbed(T, frame):
        dec = real(T, frame)
        corner = dec.corner_part
        assert corner.sizes[-1] > 0
        data = corner.data.copy()
        data[-1] += 1e-6                            # the last entry of the top degree's block
        calls.append(frame)
        return dataclasses.replace(dec, corner_part=DegreeBlocks(data, corner.sizes, 0))
    args = ["identity-check", "--trials", "1", "--out", str(tmp_path)]
    assert cli.main([*args, "--tag", "good"]) == 0
    monkeypatch.setattr(shift_operators, "restricted_commutator_decomposition", perturbed)
    assert cli.main([*args, "--tag", "bad"]) == 1 and len(calls) == 1


def test_decomposition_and_residual_form_no_r_by_r_array():
    # the full-rank frame at m = 3, N = 16 has r = 969 columns, and one
    # complex r x r array is 15 MB: the dense parts and [Y*,Y] peaked at
    # 90 MB under tracemalloc, the degree blocks at 14.6 MB
    w = drury_arveson_weights(enumerate_basis(3, 16))
    frame = submodule(w, [monomial_generator((0, 0, 0))]).sub
    T = shift_combination(w, [1.0, 0.5 - 0.25j, 0.3j])
    assert frame.dimension == w.basis.dimension == 969
    residual, peak = traced_peak(lambda: restricted_commutator_decomposition(T, frame).residual())
    assert residual < 1e-13 and peak <= 25e6, peak


def test_invariance_residual_of_noninvariant_pairs():
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=2)])
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
    # z1^n is first in its slice: column 0 of the identity, for even n
    frame = SubspaceFrame.from_blocks([np.eye(n + 1)[:, :1 - n % 2] for n in range(9)])
    with pytest.raises(ValueError, match=r"mixes degree offsets \[-1, 1\]"):
        invariance_residual(z1_plus_adjoint(w), frame)


def test_graded_routines_refuse_entries_off_the_degree_raise():
    # Z1's entries under the default degree_raise 0: a compression laid out by
    # the raise would file block (n + 1, n) as (n, n), and with the 1 x 1
    # blocks of m = 1 nothing would fail, so every degree-pair routine refuses
    w = drury_arveson_weights(enumerate_basis(1, 6))
    frame = SubspaceFrame.from_blocks([np.eye(1)] * 7)
    Z = coordinate_shift(w, 1)
    assert np.array_equal(compress_to_frame(Z, frame).mat.toarray(), _dense(Z))
    T = TruncatedOperator(Z.space, Z.mat, Z.interior_degree)
    for routine in (compress_to_frame, restrict_to_invariant, invariance_residual,
                    restricted_commutator_decomposition):
        with pytest.raises(ValueError, match="map degree n to n [+] 1, but degree_raise is 0"):
            routine(T, frame)


def test_graded_invariance_residual_never_densifies_the_frame():
    w = drury_arveson_weights(enumerate_basis(3, 24))
    S = submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])
    for i in (1, 2, 3):
        Z = coordinate_shift(w, i)
        assert invariance_residual(Z, S.sub) < INVARIANCE_TOL
        assert invariance_residual(adjoint(Z), S.comp) < INVARIANCE_TOL
    assert invariance_residual(adjoint(coordinate_shift(w, 1)), S.sub) > 0.1


def _ungraded_inputs():
    """(T1, T2, frame): shifts and the complement of a real quotient by an
    ideal with no positive weight, adjoint shifts and a complex
    point-evaluation complement."""
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = submodule(w, [parse_polynomial("z1 - z2^2 - z2^3", 3)])
    yield coordinate_shift(w, 1), coordinate_shift(w, 2), S.comp
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = point_evaluation_submodule(w, [(0.3, 0.1j), (-0.2 + 0.1j, 0.4), (0.1, -0.3)])
    yield adjoint(coordinate_shift(w, 1)), adjoint(coordinate_shift(w, 2)), S.comp


def test_ungraded_products_are_blas_products(monkeypatch):
    # a compression to an unlabelled frame is the one r x r block Q*(TQ),
    # with no interior, and its commutator one of two BLAS products
    cases, composed = [], []
    for T1, T2, frame in _ungraded_inputs():
        Q = frame.columns
        R1, R2 = (compress_to_frame(T, frame) for T in (T1, T2))
        for R, T in ((R1, T1), (R2, T2)):
            assert R.interior_degree is None and R.mat.offset == 0
            assert R.mat.shape == (frame.dimension,) * 2
            assert np.abs(R.mat.toarray() - Q.conj().T @ (_dense(T) @ Q)).max() < 1e-14
        C = commutator(R1, R2)
        assert C.interior_degree is None and C.mat.offset == 0
        r1, r2 = R1.mat.toarray(), R2.mat.toarray()
        assert np.abs(C.mat.toarray() - (r1.conj().T @ r2 - r2 @ r1.conj().T)).max() < 1e-14
        # A*B - BA* composed of the two products, A* C-ordered
        a = np.ascontiguousarray(r1.conj().T)
        cases.append((R1, R2))
        composed.append((a @ r2) + (r2 @ a) * -1.0)

    def refuse(*args):
        raise AssertionError("composed operator algebra called")
    for name in ("adjoint", "multiply"):
        monkeypatch.setattr(shift_operators, name, refuse)
    # the BLAS commutator is the composed one, entry for entry, and calls none of it
    for (R1, R2), expected in zip(cases, composed):
        assert np.array_equal(commutator(R1, R2).mat.toarray(), expected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), k=st.integers(1, 2))
def test_ambient_shifts_and_commutators_are_partial_permutations(seed, m, k):
    # [Z_i*, Z_j] sends e_alpha to a multiple of e_(alpha + e_j - e_i): every
    # entry of Z_i, Z_i* and [Z_i*, Z_j] is alone in its row and its column,
    # so an ambient window's spectrum is its entries' moduli
    rng = np.random.default_rng(seed)
    w = random_weight_set(rng, m, 7 if m == 3 else 10, k=k)
    Zs = [coordinate_shift(w, i) for i in range(1, m + 1)]
    for T in (*Zs, *map(adjoint, Zs), *(commutator(A, B) for A in Zs for B in Zs)):
        nz = _dense(T) != 0
        assert nz.any()
        assert nz.sum(axis=0).max() == nz.sum(axis=1).max() == 1
        s, _ = shift_operators.block_singular_values(T.mat, w.basis.degrees)
        assert np.array_equal(np.sort(s), np.sort(np.abs(_dense(T)[nz])))


def test_block_spectrum_refuses_other_ambient_operators(monkeypatch):
    # [T*, T] of T = Z_1 + 0.5 Z_2 holds two nonzeros in some rows: no
    # entrywise spectrum, and no dense fallback either
    w = drury_arveson_weights(enumerate_basis(2, 8))
    C = self_commutator(shift_combination(w, (1, 0.5)))

    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    with pytest.raises(ValueError, match="not a weighted partial permutation"):
        shift_operators.block_singular_values(C.mat, w.basis.degrees)


def test_unlabelled_block_spectrum_is_its_dense_spectrum():
    # an unlabelled commutator (a quotient by an ideal with no positive
    # weight, a span of kernel vectors) is one block: its spectrum is the
    # SVD of the whole block, every value labelled 0, lone entries included
    for T1, T2, frame in _ungraded_inputs():
        R1, R2 = (compress_to_frame(T, frame) for T in (T1, T2))
        for C in (commutator(R1, R2).mat, self_commutator(R2).mat):
            M = C.toarray()
            M[0, :], M[:, 0] = 0, 0
            M[0, 0] = 0.5           # a lone entry beside the dense block
            for X in (C.toarray(), M):
                values, labels = shift_operators.block_singular_values(
                    DegreeBlocks(X.ravel(), C.sizes, 0))
                oracle = np.linalg.svd(X, compute_uv=False)
                assert values.size == X.shape[0] and not labels.any()
                assert np.abs(np.sort(values)[::-1] - oracle).max() <= 1e-13 * oracle[0]


def _random_degree_blocks(rng, offset, dtype):
    """A DegreeBlocks of offset over degrees of 0, 1, 3, 4, 5, 31, 32 and 33
    columns, each twice, shuffled: around the padded sides 4 and 32 and past
    the widest stacked one.  Each block is at random dense, lone-entry (a
    scaled partial permutation with some empty rows) or zero."""
    sizes = rng.permutation(np.repeat([0, 1, 3, 4, 5, 31, 32, 33], 2))
    W = DegreeBlocks.zeros(sizes, offset, dtype)
    for B in (B for n, g in W.runs() for B in W.blocks(n, g)):
        values = rng.normal(size=B.shape) + (1j * rng.normal(size=B.shape) if W.dtype.kind == "c"
                                             else 0)
        kind = rng.integers(3)
        if kind == 0:
            B[...] = values
        elif kind == 1:
            k = min(B.shape)
            rows, cols, keep = rng.permutation(B.shape[0])[:k], rng.permutation(B.shape[1])[:k], \
                rng.random(k) < 0.7
            B[rows[keep], cols[keep]] = values[rows[keep], cols[keep]]
    return W


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("offset", [0, 1, -3])
def test_stacked_block_spectra_match_per_block_svds(offset, dtype):
    # narrow blocks are zero-padded into one stack per size class: each
    # block's values, cut to its rank, are its own SVD's; a lone-entry block
    # gives its nonzeros' moduli, as many as it has
    rng = np.random.default_rng(offset + 7)
    for _ in range(4):
        W = _random_degree_blocks(rng, offset, dtype)
        values, labels = shift_operators.block_singular_values(W)
        n, h, w, _ = W.layout
        scale = np.abs(W.data).max(initial=1.0) * 10
        for d, B in zip(n, (B for m, g in W.runs() for B in W.blocks(m, g))):
            mine = np.sort(values[labels == max(d, d + offset)])[::-1]
            nz = B != 0
            lone = (nz.sum(axis=0) <= 1).all() and (nz.sum(axis=1) <= 1).all()
            assert mine.size == (nz.sum() if lone else min(B.shape))
            oracle = np.linalg.svd(B, compute_uv=False) if B.size else np.zeros(0)
            assert np.abs(np.pad(mine, (0, oracle.size - mine.size)) - oracle).max(
                initial=0.0) <= 1e-14 * scale


def test_sliced_commutator_takes_one_svd_per_size_class(monkeypatch):
    # the complement of z1 - z2 z3 at m = 3, N = 12 has 25 weighted slices
    # of at most 13 columns: the 20 blocks of [R_1*, R_2] that are no
    # partial permutation share one LAPACK call per padded side (4 in all),
    # not one each
    w = family_weights("bergman-ball", enumerate_basis(3, 12))
    frame = submodule(w, [parse_polynomial("z1-z2*z3", 3)]).comp
    C = commutator(*(compress_to_frame(coordinate_shift(w, i), frame) for i in (1, 2))).mat
    n, h, w_, _ = C.layout
    assert max(h.max(), w_.max()) <= shift_operators.STACK_SIDE
    dense = {4 * -(-max(B.shape) // 4) for m, g in C.runs() for B in C.blocks(m, g)
             if ((B != 0).sum(axis=0) > 1).any() or ((B != 0).sum(axis=1) > 1).any()}
    calls, real = [], np.linalg.svd

    def spy(X, *args, **kwargs):
        calls.append(X.shape)
        return real(X, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    shift_operators.block_singular_values(C)
    assert sorted(S for _, S, _ in calls) == sorted(dense)
    assert sum(g for g, _, _ in calls) > len(calls)


def test_operators_on_frames_are_degree_blocks():
    # one kind: a compression or restriction to any frame is a
    # TruncatedOperator on the frame's space holding a DegreeBlocks, never
    # an ndarray; on a sliced or unlabelled frame it has no interior
    w = drury_arveson_weights(enumerate_basis(2, 8))
    Z1 = coordinate_shift(w, 1)
    graded = submodule(w, [parse_polynomial("z1^2-z2^2", 2)])
    sliced = submodule(w, [parse_polynomial("z1-z2^2", 2)])
    unlabelled = submodule(w, [parse_polynomial("z1-z2^2-z2^3", 2)])
    points = point_evaluation_submodule(w, [(0.05, 0.02j), (-0.03 + 0.01j, 0.04)])
    for X in (restrict_to_invariant(Z1, graded.sub), compress_to_frame(Z1, graded.comp)):
        assert isinstance(X, TruncatedOperator) and isinstance(X.mat, DegreeBlocks)
        assert X.interior_degree == Z1.interior_degree
    for frame in (sliced.comp, unlabelled.comp, points.comp):
        X = compress_to_frame(Z1, frame)
        assert isinstance(X, TruncatedOperator) and isinstance(X.mat, DegreeBlocks)
        assert X.space is frame.space and X.interior_degree is None
        assert np.array_equal(X.mat.sizes, frame.sizes)
    # an unlabelled frame's one block has offset 0, whatever T's degree_raise
    for T in (adjoint(Z1), adjoint(coordinate_shift(w, 2))):
        X = restrict_to_invariant(T, points.comp)
        assert X.interior_degree is None and X.mat.offset == X.degree_raise == 0
        assert np.array_equal(X.mat.sizes, [2])


def test_sliced_commutators_are_batched_blas_products(monkeypatch):
    # a compression to a sliced frame is the DegreeBlocks of its slice pairs
    # (s + w_i, s), and the commutator of two is the DegreeBlocks of offset
    # w_j - w_i: one batched BLAS product per run of equal block shapes,
    # never the graded frames' ascending-order kernel
    w = drury_arveson_weights(enumerate_basis(3, 8))
    S = submodule(w, [parse_polynomial("z1 - z2*z3", 3)])     # w = (2, 1, 1)
    R = [compress_to_frame(coordinate_shift(w, i), S.comp) for i in (1, 2, 3)]
    assert [X.mat.offset for X in R] == [X.degree_raise for X in R] == [2, 1, 1]
    dense = [X.mat.toarray() for X in R]

    def refuse(*args):
        raise AssertionError("ascending-order kernel called")
    monkeypatch.setattr(shift_operators, "_add_product", refuse)
    for i, j in ((0, 0), (0, 1), (1, 2), (2, 2)):
        C = commutator(R[i], R[j])
        assert C.mat.offset == C.degree_raise == R[j].degree_raise - R[i].degree_raise
        expected = dense[i].conj().T @ dense[j] - dense[j] @ dense[i].conj().T
        assert np.abs(C.mat.toarray() - expected).max() < 1e-14


def test_sliced_frames_are_only_compressed_to():
    # a sliced frame has no interior rows, so the routines that check
    # invariance refuse it before any work; compress_to_frame takes it
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = submodule(w, [parse_polynomial("z1 - z2^2", 2)])     # w = (2, 1)
    Z = coordinate_shift(w, 1)
    assert S.sub.rows is not None and S.comp.rows is not None
    for frame in (S.sub, S.comp):
        for call in (invariance_residual, restrict_to_invariant,
                     restricted_commutator_decomposition):
            with pytest.raises(ValueError, match="sliced by weighted degree"):
                call(Z, frame)
        assert compress_to_frame(Z, frame).mat.offset == 2


def test_frames_of_another_space_are_refused():
    # a graded or sliced frame maps each ambient ordinal to a block row, so
    # an operator on a space of another dimension is refused
    w, small = (drury_arveson_weights(enumerate_basis(2, N)) for N in (8, 6))
    for S in (submodule(small, [monomial_generator((1, 1))]),
              submodule(small, [parse_polynomial("z1 - z2^2", 2)])):
        with pytest.raises(ValueError, match="ambient rows"):
            compress_to_frame(coordinate_shift(w, 1), S.comp)


def test_decomposition_checks_invariance_without_invariance_residual(monkeypatch):
    # the decomposition reads the residual off its own TQ - QY, and reports
    # the exact 2-norm when it refuses a frame
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])
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
        assert np.array_equal(getattr(again, name).toarray(), getattr(good, name).toarray())


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
        # its entries must be the canonical (values, (rows, cols)) CSR build's
        got = coordinate_shift(w, i).mat
        expected = _shift_by_monomial_loop(w, i)
        assert got.dtype == expected.dtype
        assert np.array_equal(got.rows,
                              np.repeat(np.arange(got.shape[0]), np.diff(expected.indptr)))
        assert np.array_equal(got.cols, expected.indices)
        assert np.array_equal(got.vals, expected.data)


@pytest.mark.parametrize("seed", range(4))
def test_norm_scale_matches_dense_formula(seed):
    rng = np.random.default_rng(seed)
    n = 40
    D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    D[rng.random((n, n)) > 0.1] = 0
    D[::3] = 0  # empty rows
    for D in (D, D.T, np.zeros((n, n), dtype=complex)):
        T = shift_operators.TruncatedOperator(enumerate_basis(1, n - 1), sparse_entries(D),
                                              interior_degree=n - 1)
        expected = np.sqrt(np.linalg.norm(D, 1) * np.linalg.norm(D, np.inf)) or 1.0
        assert abs(shift_operators._norm_scale(T) - expected) <= 1e-14 * expected


def _direct_sum(operators):
    """Block-diagonal operator on the summands' coordinates, stably ordered by
    degree, so each summand keeps its own coordinate order; the summands
    share one degree raise."""
    degrees = np.concatenate([np.asarray(T.space.degrees) for T in operators])
    order = np.argsort(degrees, kind="stable")
    space = SubspaceFrame.from_blocks([np.eye(c) for c in np.bincount(degrees)])
    M = sp.block_diag([_dense(T) for T in operators]).toarray()[np.ix_(order, order)]
    raise_, = {T.degree_raise for T in operators}
    return TruncatedOperator(space, frame_operator(space, M, raise_),
                             interior_degree=min(T.interior_degree for T in operators),
                             degree_raise=raise_)


def _window_cases(seed, kind):
    """Operators of every kind whose windows are read: shifts, adjoints,
    commutators, restrictions, ungraded compressions and direct sums."""
    rng = np.random.default_rng(seed)
    if kind == "direct-sum":
        w1, w2 = random_weight_set(rng, 2, 4), random_weight_set(rng, 2, 6)
        Z, Y = coordinate_shift(w1, 1), coordinate_shift(w2, 2)
        S = submodule(w2, [monomial_generator((1, 1))])
        R = restrict_to_invariant(Y, S.sub)
        return [_direct_sum([Z, Y]), _direct_sum([adjoint(Y), adjoint(Z)]),
                _direct_sum([self_commutator(R), self_commutator(Z), self_commutator(Y)])]
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
    S = submodule(w, [monomial_generator((2,))])
    Z = coordinate_shift(w, 1)
    R, C = restrict_to_invariant(Z, S.sub), restrict_to_invariant(adjoint(Z), S.comp)
    assert R.space is S.sub.space and C.space is S.comp.space
    assert R.dimension == C.dimension == 2
    assert compress_to_frame(Z, S.comp).space is S.comp.space
    Z_again = coordinate_shift(drury_arveson_weights(enumerate_basis(1, 3)), 1)
    for combine in (commutator, multiply):
        for X, Y in ((R, C), (C, R)):
            with pytest.raises(ValueError, match="different spaces"):
                combine(X, Y)
        # operators on one frame, or on equal bases, still combine
        assert combine(R, R).space is S.sub.space and combine(C, C).space is S.comp.space
        assert combine(Z, Z_again).space is w.basis


def test_array_holding_dataclasses_compare_without_raising(rng):
    # two distinct instances of each compare unequal, by identity, where a
    # field-by-field comparison of their arrays would raise ValueError
    w1, w2 = random_weight_set(rng, 2, 4), random_weight_set(rng, 2, 4)
    S1, S2 = (submodule(w_, [monomial_generator((1, 0))]) for w_ in (w1, w2))
    D1, D2 = (restricted_commutator_decomposition(coordinate_shift(w1, 1), S1.sub)
              for _ in range(2))
    for a, b in ((w1, w2), (S1, S2), (S1.sub, S2.sub), (S1.comp, S1.sub), (D1, D2)):
        assert a == a and not a == b and a != b
    # bases compare by (m, N, k)
    assert w1.basis == w2.basis and hash(w1.basis) == hash(w2.basis)
    assert w1.basis != enumerate_basis(2, 5) and w1.basis != S1.sub


def _composed_combination(w, coeffs):
    """c_1 Z_1 + ... + c_k Z_k as a scipy CSR, one scalar product and sum per
    shift, its explicit zeros dropped."""
    mat = (_csr(coordinate_shift(w, 1).mat) * coeffs[0]).tocsr()
    for i in range(2, len(coeffs) + 1):
        mat = (mat + (_csr(coordinate_shift(w, i).mat) * coeffs[i - 1]).tocsr()).tocsr()
    mat.eliminate_zeros()
    return mat


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_shift_combination_is_the_composed_scale_add(m, kind, rng):
    # one pass over the entries, entry for entry the scipy scale and add
    for N in (0, 1, 4, 7):
        w = random_weight_set(rng, m, N)
        coeffs = rng.normal(size=m)
        if kind == "complex":
            coeffs = coeffs + 1j * rng.normal(size=m)
        T, expected = shift_combination(w, coeffs), _composed_combination(w, coeffs)
        assert T.mat.dtype == expected.dtype
        assert np.array_equal(T.mat.rows, np.repeat(np.arange(T.dimension),
                                                    np.diff(expected.indptr)))
        assert np.array_equal(T.mat.cols, expected.indices)
        assert np.array_equal(T.mat.vals, expected.data)
        Z = coordinate_shift(w, 1)
        assert (T.space, T.interior_degree, T.degree_raise) == \
            (Z.space, Z.interior_degree, Z.degree_raise)


def _ambient_oracle(T, frame):
    """The decomposition of T on the ambient dense frame Q: (Y = Q*(TQ),
    diagonal part, corner part), from TQ, U = T*Q (scipy sparse-times-dense
    products) and V = (I - QQ*)U formed at ambient size.  The two Hermitian
    parts are block diagonal by degree: the block of degree n is P*P - U*U
    and V*V, over the rows of degrees n + r (for TQ) and n - r (for U and V)
    where those columns live."""
    Q = np.ascontiguousarray(ambient_columns(frame))
    A = _csr(T.mat)
    TQ, U = A @ Q, A.conj().T @ Q
    Y = Q.conj().T @ TQ
    V = U - Q @ (Q.conj().T @ U)
    diag, corner = np.zeros((2, *Y.shape), Y.dtype)
    rows, cols, _ = frame.offsets
    r, top = T.degree_raise, len(frame.shapes) - 1

    def gram(X, t, c):
        # a contiguous copy, as the decomposition's blocks are: BLAS sums a
        # strided column in another order
        X = np.ascontiguousarray(X[rows[t]:rows[t + 1], c])
        return X.conj().T @ X
    for n in range(top + 1):
        c = slice(cols[n], cols[n + 1])
        if 0 <= n + r <= top:
            diag[c, c] += gram(TQ, n + r, c)
        if 0 <= n - r <= top:
            diag[c, c] -= gram(U, n - r, c)
            corner[c, c] = gram(V, n - r, c)
    return Y, diag, corner


def _assert_matches_ambient_oracle(T, frame):
    """Bit for bit: the decomposition's three parts and the compression's
    blocks, written out densely by toarray."""
    parts = _ambient_oracle(T, frame)
    dec = restricted_commutator_decomposition(T, frame)
    for name, b in zip(("restricted", "diagonal_part", "corner_part"), parts):
        a = getattr(dec, name).toarray()
        assert isinstance(a, np.ndarray) and a.dtype == b.dtype
        assert np.array_equal(a, b), name
    C = compress_to_frame(T, frame)
    assert C.space is frame.space and C.mat.dtype == parts[0].dtype
    assert np.array_equal(C.mat.toarray(), parts[0])
    assert (C.interior_degree, C.degree_raise) == (T.interior_degree, T.degree_raise)


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
        S = submodule(w, [monomial_generator(g) for g in gens])
        T = shift_combination(w, coeffs)
        yield T, S.sub
        yield adjoint(T), S.comp
        # the same span, its coordinate columns in reverse order within each degree
        yield T, SubspaceFrame.from_blocks([S.sub.blocks(n)[0, :, ::-1] for n in range(N + 1)])


def test_coordinate_frames_match_the_ambient_oracle(rng):
    ranks = set()
    for T, frame in _monomial_cases(rng):
        ranks.add(frame.dimension / T.dimension)
        _assert_matches_ambient_oracle(T, frame)
    assert {0.0, 1.0} <= ranks


def test_identity_check_composes_no_operator_and_densifies_no_frame(monkeypatch):
    from shiftlab.experiments import run_restriction_identity_check

    def refuse(*args):
        raise AssertionError("composed operator")
    for name in ("multiply", "commutator", "coordinate_shift"):
        monkeypatch.setattr(shift_operators, name, refuse)
    rep = run_restriction_identity_check(trials=20, seed=3)
    assert rep.verdicts["identity"]["passed"]


def test_zero_coefficients_store_no_entries(rng):
    # a zero coefficient adds no entry to T; its compressions still match
    w = random_weight_set(rng, 2, 6)
    frame = submodule(w, [monomial_generator((1, 0))]).sub
    T = shift_combination(w, [0.0, 1.0])
    assert T.mat.nnz == coordinate_shift(w, 2).mat.nnz and np.all(T.mat.vals != 0)
    _assert_matches_ambient_oracle(T, frame)


def test_coordinate_compression_forms_no_dense_block():
    # the sub frame of z1 at m=2, N=70 has r = 2,485 columns: an r x r float64
    # block would be 49 MB, four times the bound
    w = drury_arveson_weights(enumerate_basis(2, 70))
    frame = submodule(w, [monomial_generator((1, 0))]).sub
    T = coordinate_shift(w, 2)
    r = frame.dimension
    idx = np.flatnonzero(w.basis.exponents[:, 0] >= 1)     # the rows of the multiples of z1
    assert r == idx.size >= 2000
    R, peak = traced_peak(compress_to_frame, T, frame)
    inside = np.isin(T.mat.rows, idx) & np.isin(T.mat.cols, idx)
    assert np.count_nonzero(R.mat.data) == np.count_nonzero(inside)
    assert peak < r * r * 8 / 4


def test_graded_compression_and_restriction_stay_below_one_ambient_frame():
    # the sub frame of z1^2 - z2^2 at m=3, N=24 has r = 2,300 columns on
    # 2,925 ambient rows (one dense ambient copy of it is 54 MB); the
    # compression's 356,730 block entries are 2.9 MB.  The blocks are read
    # one degree pair at a time and written into place: peaks measured 5.4
    # and 10.5 MB (26 and 32 MB through a COO-to-CSR build), bounded here
    # 25% above
    w = drury_arveson_weights(enumerate_basis(3, 24))
    S = submodule(w, [parse_polynomial("z1^2 - z2^2", num_vars=3)])
    Z1 = coordinate_shift(w, 1)
    dim, r = w.basis.dimension, S.sub.dimension
    assert (dim, r) == (2925, 2300)
    for build, bound in ((compress_to_frame, 6.8e6), (restrict_to_invariant, 13.1e6)):
        R, peak = traced_peak(build, Z1, S.sub)
        assert R.space is S.sub.space and R.mat.shape == (r, r) and R.mat.nnz == 356_730
        assert peak < bound, (build.__name__, peak)


def _scipy_commutator(A, B):
    """[A*, B] as scipy CSR products of the nonzeros of A's and B's matrices,
    A* C-ordered: the order every sparse entry of the library once summed in."""
    a, b = (sp.csr_matrix(T.mat.toarray()) for T in (A, B))
    a = a.conj().T.tocsr()
    return (a @ b - b @ a).toarray()


def _kernel_cases(rng, m):
    """(kind, operators): lists of operators on one space, shifts and
    combinations of them on the basis, then the restrictions, complements
    and quotient compressions of the shifts on a random monomial and two
    random homogeneous submodules."""
    for kind in ("monomial", "homogeneous-real", "homogeneous-complex"):
        w, S = _random_submodule(rng, m, kind)
        Zs = [coordinate_shift(w, i) for i in range(1, m + 1)]
        if kind == "monomial":
            yield kind, Zs
            yield kind, [shift_combination(w, rng.normal(size=m) + 1j * rng.normal(size=m))
                         for _ in range(2)]
        yield kind, [restrict_to_invariant(Z, S.sub) for Z in Zs]
        yield kind, [restrict_to_invariant(adjoint(Z), S.comp) for Z in Zs]
        yield kind, [compress_to_frame(Z, S.comp) for Z in Zs]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_commutators_sum_as_scipy_csr_products_bit_for_bit(m, monkeypatch):
    # decay fits read round-off singular values, so the real commutators'
    # bits are pinned: each entry of a product sums its rounded terms over
    # the inner index in ascending order, as scipy's csr_matmat does (BLAS
    # would not), except on blocks of partial permutations, the monomial
    # frames', where every entry is one product and BLAS returns it exactly.
    # Complex products are rounded as numpy rounds them: within 1e-15.  On
    # a graded frame only the interior window is formed (_formed)
    branches = []
    add_product = shift_operators._add_product

    class Spied(np.ndarray):
        def __matmul__(self, other):
            branches[-1] = "blas"
            return np.asarray(self) @ other

    def spy(C, A, B):
        branches.append("loop")
        add_product(C, A.view(Spied), B)
    monkeypatch.setattr(shift_operators, "_add_product", spy)
    rng = np.random.default_rng(m)
    widths, loops = set(), 0
    for _ in range(4):
        for kind, Ts in _kernel_cases(rng, m):
            if isinstance(Ts[0].space, FrameSpace):
                widths.update(Ts[0].mat.sizes.tolist())
            branches.clear()
            for i in range(len(Ts)):
                for j in range(i, len(Ts)):
                    C, oracle = commutator(Ts[i], Ts[j]), _scipy_commutator(Ts[i], Ts[j])
                    C, formed = _dense(C), _formed(C, oracle)
                    if np.iscomplexobj(C):
                        assert np.abs(C - formed).max() <= 1e-15 * np.abs(oracle).max()
                    else:
                        assert np.array_equal(C, formed)
            if kind == "monomial":
                assert "loop" not in branches
            loops += branches.count("loop")
    assert 1 in widths      # frames with blocks one column wide are covered
    assert (loops > 0) == (m > 1)    # m = 1: every block is 1 x 1
