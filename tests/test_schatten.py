import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shiftlab import (Verdict, adjoint,
                      ap_witness, bergman_ball_weights, commutator, compress_to_frame,
                      convergence_diagnostic, coordinate_shift,
                      decay_exponent_fit, drury_arveson_weights, enumerate_basis,
                      factorial_delta_weights, homogeneous_submodule,
                      parse_polynomial, restrict_to_invariant,
                      schatten_norm, self_commutator, shift_combination, singular_values,
                      ungraded_submodule)
from shiftlab import cli, schatten
from shiftlab.shift_operators import SubspaceFrame, TruncatedOperator

from random_instances import random_weight_set, z1_plus_adjoint


def _wrap(M):
    """M as one degree block: every coordinate labelled 0, the window all of M."""
    n = M.shape[0]
    space = SubspaceFrame(np.eye(n), np.zeros(n, dtype=np.int64))
    return TruncatedOperator(space, sp.csr_matrix(M), interior_degree=0, degree_raise=0)


def _random_matrix(rng, n, complex_=True):
    M = rng.normal(size=(n, n))
    if complex_:
        M = M + 1j * rng.normal(size=(n, n))
    return M


def test_singular_values_against_numpy(rng):
    for _ in range(20):
        n = int(rng.integers(2, 30))
        M = _random_matrix(rng, n)
        for T in (M, _wrap(M)):     # an ndarray is its own window
            s = singular_values(T)
            assert np.allclose(s, np.linalg.svd(M, compute_uv=False), atol=1e-12)


def test_singular_values_equal_sqrt_eigs_of_gram(rng):
    # independent oracle: sigma_k^2 = eigenvalues of M* M
    M = _random_matrix(rng, 25)
    s = singular_values(M)
    lam = np.sort(np.linalg.eigvalsh(M.conj().T @ M))[::-1]
    assert np.allclose(s ** 2, lam, atol=1e-10)


def test_diagonal_specialization(rng):
    for _ in range(30):
        d = rng.normal(size=int(rng.integers(1, 40)))
        T = _wrap(np.diag(d))
        for p in (1.0, 2.0, 3.0, np.inf):
            if p == np.inf:
                expected = np.abs(d).max()
            else:
                expected = np.sum(np.abs(d) ** p) ** (1 / p)
            assert schatten_norm(T, p) == pytest.approx(expected, rel=1e-12)


def test_norm_monotone_in_p(rng):
    for _ in range(30):
        M = _random_matrix(rng, int(rng.integers(2, 25)))
        T = _wrap(M)
        ps = [1.0, 1.5, 2.0, 3.0, 6.0, np.inf]
        norms = [schatten_norm(T, p) for p in ps]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-12)


def test_triangle_inequality(rng):
    for _ in range(30):
        n = int(rng.integers(2, 20))
        A, B = _random_matrix(rng, n), _random_matrix(rng, n)
        for p in (1.0, 2.0, np.inf):
            lhs = schatten_norm(_wrap(A + B), p)
            rhs = schatten_norm(_wrap(A), p) + schatten_norm(_wrap(B), p)
            assert lhs <= rhs * (1 + 1e-12)


def test_unitary_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 20))
        M = _random_matrix(rng, n)
        U = np.linalg.qr(_random_matrix(rng, n))[0]
        V = np.linalg.qr(_random_matrix(rng, n))[0]
        for p in (1.0, 2.0, 3.7, np.inf):
            assert schatten_norm(_wrap(U @ M @ V), p) == pytest.approx(
                schatten_norm(_wrap(M), p), rel=1e-10)


def test_p_below_one_rejected(rng):
    with pytest.raises(ValueError):
        schatten_norm(_wrap(np.eye(3)), 0.5)


def test_trace_of_commutator_vanishes(rng):
    for _ in range(30):
        m = int(rng.integers(1, 4))
        w = random_weight_set(rng, m, int(rng.integers(3, 7)))
        C = self_commutator(coordinate_shift(w, int(rng.integers(1, m + 1))))
        assert abs(np.trace(C.mat.toarray())) < 1e-12


def test_ap_witness_split(rng):
    w = random_weight_set(rng, 2, 6)
    C = self_commutator(coordinate_shift(w, 1))
    M = C.window().toarray()
    wit = ap_witness(M, p=2.0)
    assert np.abs(wit.positive_part + wit.compact_part - M).max() < 1e-10
    assert np.linalg.eigvalsh(wit.positive_part).min() > -1e-10
    assert np.linalg.eigvalsh(wit.compact_part).max() < 1e-10
    neg = np.linalg.eigvalsh(M)
    expected = np.sum(np.minimum(neg, 0.0) ** 2) ** 0.5
    assert wit.p_norm_of_c == pytest.approx(expected, abs=1e-12)


def test_ap_witness_requires_self_adjoint(rng):
    w = random_weight_set(rng, 2, 5)
    Z = coordinate_shift(w, 1)
    with pytest.raises(ValueError):
        ap_witness(Z.window().toarray(), p=1.0)


def test_decay_fit_recovers_exact_power_law():
    k = np.arange(1, 2001, dtype=float)
    fit = decay_exponent_fit(k ** -0.5)
    assert fit.beta == pytest.approx(0.5, abs=1e-10)
    assert fit.critical_exponent == pytest.approx(2.0, abs=1e-9)
    assert fit.residual < 1e-10


def test_decay_fit_short_input_returns_none():
    assert decay_exponent_fit(np.ones(10)) is None


@pytest.mark.parametrize("seq,expected", [
    # geometric saturation: increments decay fast
    ([(n, 2.0 - 2.0 ** -n) for n in range(4, 16)], Verdict.CONVERGING),
    # exactly constant
    ([(n, 1.0) for n in range(4, 12)], Verdict.CONVERGING),
    # partial sums of a convergent p-series
    ([(n, sum(k ** -2.0 for k in range(1, n + 1))) for n in (8, 12, 16, 20, 28, 40)],
     Verdict.CONVERGING),
    ([(n, sum(k ** -1.5 for k in range(1, n + 1))) for n in (8, 12, 16, 20, 28, 40)],
     Verdict.CONVERGING),
    # harmonic partial sums grow without bound
    ([(n, sum(1.0 / k for k in range(1, n + 1)))
      for n in (4, 8, 16, 32, 64, 128, 256)], Verdict.DIVERGING),
    # cube-root growth
    ([(n, n ** (1 / 3)) for n in range(4, 65, 4)], Verdict.DIVERGING),
    # too few points
    ([(1, 1.0), (2, 2.0), (3, 2.1)], Verdict.INCONCLUSIVE),
])
def test_convergence_diagnostic_scenarios(seq, expected):
    verdict, details = convergence_diagnostic(seq)
    assert verdict is expected, details


def test_diagnostic_reports_thresholds():
    seq = [(n, 1.0 + 1e-7 * n) for n in range(4, 16)]
    verdict, details = convergence_diagnostic(seq)
    assert details["thresholds"] == {"stall_rel": schatten.STALL_REL,
                                     "summable_exponent": schatten.SUMMABLE_EXPONENT,
                                     "doubling_factor": schatten.DOUBLING_FACTOR}
    assert "reason" in details


def test_windowed_norm_excludes_truncation_boundary(rng):
    # the full-window 1-norm of the truncated self-commutator includes the
    # spurious boundary row; the interior window must be strictly smaller
    w = random_weight_set(rng, 2, 10)
    C = self_commutator(coordinate_shift(w, 1))
    full = np.linalg.svd(C.mat.toarray(), compute_uv=False).sum()
    interior = schatten_norm(C, 1)
    assert interior < full


@pytest.mark.parametrize("i, j", [(1, 1), (1, 2)])
def test_default_window_is_the_interior_window(i, j):
    # no window argument: the interior window, never the contaminated full section
    w = drury_arveson_weights(enumerate_basis(2, 10))
    C = commutator(coordinate_shift(w, i), coordinate_shift(w, j))
    assert C.window().shape[0] < C.dimension
    s = np.linalg.svd(C.window().toarray(), compute_uv=False)
    assert np.allclose(singular_values(C), s, rtol=1e-12, atol=0)
    for p in ORACLE_PS:
        expected = s.max() if p == np.inf else np.sum(s ** p) ** (1 / p)
        assert schatten_norm(C, p) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(TypeError):
        schatten_norm(C, 1, window="full")


# --- block-by-degree Schatten norms against the dense SVD of the whole window

ORACLE_PS = (1.0, 2.0, 3.0, np.inf)


def _dense_norm(T, p, d):
    s = np.linalg.svd(T.window(d).toarray(), compute_uv=False)
    if s.size == 0:
        return 0.0
    return float(s.max()) if p == np.inf else float(np.sum(s ** p) ** (1 / p))


def _plus(A, B, c):
    """A + cB from the two CSRs, with the sum's interior and degree raise."""
    return TruncatedOperator(A.space, (A.mat + (B.mat * c).tocsr()).tocsr(),
                             interior_degree=min(A.interior_degree, B.interior_degree),
                             degree_raise=max(A.degree_raise, B.degree_raise))


def _assert_matches_dense_oracle(T, degrees):
    for d in degrees:
        for p in ORACLE_PS:
            got = schatten_norm(T, p, max_window_degree=d)
            assert got == pytest.approx(_dense_norm(T, p, d), rel=1e-12, abs=1e-300), (d, p)


@pytest.fixture
def count_dense_spectra(monkeypatch):
    """Counts calls of schatten.singular_values, the dense one-block path."""
    calls = []
    real = schatten.singular_values

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(schatten, "singular_values", counted)
    return calls


def test_block_norms_factorial_partial_permutations(count_dense_spectra):
    b = enumerate_basis(3, 10)
    for delta in (0.7, 2.0):
        w = factorial_delta_weights(b, delta)
        shifts = [coordinate_shift(w, i) for i in (1, 2, 3)]
        ops_ = shifts + [commutator(shifts[i], shifts[j])
                         for i in range(3) for j in range(i, 3)]
        for T in ops_:
            _assert_matches_dense_oracle(T, (2, 5, 8))
    assert count_dense_spectra == []


def test_block_norms_homogeneous_submodule_multi_entry_blocks(count_dense_spectra):
    b = enumerate_basis(3, 9)
    w = drury_arveson_weights(b)
    S = homogeneous_submodule(w, [parse_polynomial("z1^2-z2^2", 3)])
    shifts = [coordinate_shift(w, i) for i in (1, 2, 3)]
    for Ys in ([restrict_to_invariant(Z, S.sub) for Z in shifts],
               [restrict_to_invariant(adjoint(Z), S.comp) for Z in shifts]):
        for i, j in ((0, 0), (0, 1), (1, 2)):
            C = commutator(Ys[i], Ys[j])
            # the restricted commutators have degree blocks with several entries per row
            assert np.max(np.diff(C.mat.tocsr().indptr)) > 1
            _assert_matches_dense_oracle(C, (3, 5, 7))
    assert count_dense_spectra == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3))
def test_block_norms_random_weights(seed, m):
    rng = np.random.default_rng(seed)
    w = random_weight_set(rng, m, 7 if m == 3 else 10, k=int(rng.integers(1, 3)))
    i, j = (int(x) for x in rng.integers(1, m + 1, size=2))
    Zi, Zj = coordinate_shift(w, i), coordinate_shift(w, j)
    for T in (Zi, commutator(Zi, Zj), self_commutator(_plus(Zi, Zj, 0.5 + 1j))):
        _assert_matches_dense_oracle(T, (1, 3, T.interior_degree))


def test_block_norms_refuse_mixed_offsets(count_dense_spectra):
    # a hand-built Z1 + Z1* maps degree n to n + 1 and n - 1: no degree-block
    # spectrum, and no dense fallback either
    T = z1_plus_adjoint(factorial_delta_weights(enumerate_basis(2, 8), 1.0))
    for norm in (lambda: schatten_norm(T, 2.0, max_window_degree=3),
                 lambda: schatten.window_norms(T, (3, 6), ORACLE_PS)):
        with pytest.raises(ValueError, match=r"mixes degree offsets \[-1, 1\]"):
            norm()
    assert count_dense_spectra == []


# --- a sweep's nested windows from one block pass over the widest

SWEEP = (0, 2, 3, 5, 8, 12)   # 12 lies past every interior degree below


def _assert_nested_windows(T, sweep=SWEEP):
    """Each window of the sweep's one pass equals its own one-window pass, value
    for value, and both match the dense SVD of the window."""
    spectra = schatten.window_spectra(T, sweep)
    assert sorted(spectra) == sorted(set(sweep))
    for d in sweep:
        assert np.array_equal(spectra[d], schatten.window_spectra(T, [d])[d]), d
    _assert_matches_dense_oracle(T, sweep)


def test_nested_windows_factorial(count_dense_spectra):
    b = enumerate_basis(3, 10)
    for delta in (0.7, 2.0):
        w = factorial_delta_weights(b, delta)
        shifts = [coordinate_shift(w, i) for i in (1, 2, 3)]
        for T in shifts + [commutator(shifts[i], shifts[j])
                           for i in range(3) for j in range(i, 3)]:
            _assert_nested_windows(T)
    assert count_dense_spectra == []


def test_nested_windows_restricted_commutators(count_dense_spectra):
    b = enumerate_basis(3, 9)
    w = drury_arveson_weights(b)
    S = homogeneous_submodule(w, [parse_polynomial("z1^2-z2^2", 3)])
    shifts = [coordinate_shift(w, i) for i in (1, 2, 3)]
    for Ys in ([restrict_to_invariant(Z, S.sub) for Z in shifts],
               [restrict_to_invariant(adjoint(Z), S.comp) for Z in shifts]):
        for i, j in ((0, 0), (0, 1), (1, 2)):
            _assert_nested_windows(commutator(Ys[i], Ys[j]))
    assert count_dense_spectra == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), k=st.integers(1, 2))
def test_nested_windows_random_weights(seed, m, k):
    rng = np.random.default_rng(seed)
    w = random_weight_set(rng, m, 7 if m == 3 else 10, k=k)
    i, j = (int(x) for x in rng.integers(1, m + 1, size=2))
    Zi, Zj = coordinate_shift(w, i), coordinate_shift(w, j)
    c = complex(*rng.normal(size=2))
    for T in (Zi, commutator(Zi, Zj), commutator(_plus(Zi, Zj, c), Zj),
              self_commutator(_plus(Zi, Zj, c))):
        _assert_nested_windows(T)


def test_ungraded_commutator_is_its_own_window(count_dense_spectra):
    # an ungraded quotient's commutator is one r x r ndarray with no boundary
    # strip: every window degree reads all of it, by one dense SVD each
    w = drury_arveson_weights(enumerate_basis(3, 6))
    S = ungraded_submodule(w, [parse_polynomial("z1-z2*z3", 3)])
    R1, R2 = (compress_to_frame(coordinate_shift(w, i), S.comp) for i in (1, 2))
    T = commutator(R1, R2)
    assert isinstance(T, np.ndarray) and T.shape == (S.comp.dimension,) * 2
    oracle = np.linalg.svd(T, compute_uv=False)
    spectra = {d: schatten.singular_values(T, d) for d in SWEEP}
    assert len(count_dense_spectra) == len(SWEEP)
    for d in SWEEP:
        assert np.array_equal(spectra[d], oracle)
        for p in ORACLE_PS:
            expected = oracle.max() if p == np.inf else np.sum(oracle ** p) ** (1 / p)
            assert schatten.spectrum_norm(spectra[d], p) == pytest.approx(expected, rel=1e-12)


def test_nested_windows_refuse_mixed_offsets(count_dense_spectra):
    T = z1_plus_adjoint(factorial_delta_weights(enumerate_basis(2, 8), 1.0))
    with pytest.raises(ValueError, match=r"mixes degree offsets \[-1, 1\]"):
        schatten.window_spectra(T, SWEEP)
    assert count_dense_spectra == []


def test_block_norms_all_zero_window():
    w = factorial_delta_weights(enumerate_basis(2, 6), 1.0)
    for T in (shift_combination(w, [0.0]),
              TruncatedOperator(w.basis, sp.csr_matrix((w.basis.dimension,) * 2),
                                interior_degree=4)):
        for p in ORACLE_PS:
            assert schatten_norm(T, p) == 0.0
            assert schatten_norm(T, p, max_window_degree=0) == 0.0


def test_non_finite_entry_rejected():
    w = factorial_delta_weights(enumerate_basis(2, 6), 1.0)
    Z = coordinate_shift(w, 1)
    mat = Z.mat.copy()
    mat.data[0] = np.nan
    graded = TruncatedOperator(w.basis, mat, interior_degree=Z.interior_degree)
    with pytest.raises(ValueError, match="non-finite"):
        schatten_norm(graded, 1.0)
    ungraded = mat.toarray()
    for check in (singular_values, lambda M: ap_witness(M, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            check(ungraded)


def test_graded_window_is_never_densified_whole(monkeypatch):
    b = enumerate_basis(3, 40)
    w = factorial_delta_weights(b, 2.0)
    C = commutator(coordinate_shift(w, 1), coordinate_shift(w, 2))
    d = 38
    # per-slice oracle; the window is 10,660 wide, its dense form 0.9 GB
    sigma = np.concatenate([
        np.linalg.svd(C.mat[sl.start:sl.stop, sl.start:sl.stop].toarray(), compute_uv=False)
        for sl in (b.degree_slice(n) for n in range(d + 1))])
    assert C.window_size(d) == 10_660

    def refuse(*args, **kwargs):
        raise AssertionError("whole window densified")
    monkeypatch.setattr(schatten, "singular_values", refuse)
    for p in ORACLE_PS:
        expected = sigma.max() if p == np.inf else np.sum(sigma ** p) ** (1 / p)
        got = schatten_norm(C, p, max_window_degree=d)
        assert got == pytest.approx(expected, rel=1e-12)


def test_dense_svd_limit_raises_before_densifying(monkeypatch, tmp_path):
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 10)
    M = _wrap(np.eye(12))
    with monkeypatch.context() as mp:
        real_window = TruncatedOperator.window

        class Undensifiable(sp.csr_matrix):
            def toarray(self, *args, **kwargs):
                raise AssertionError("densified before the size check")
        mp.setattr(TruncatedOperator, "window",
                   lambda T, *a: Undensifiable(real_window(T, *a)))
        with pytest.raises(ValueError, match="window dimension 12"):
            singular_values(M)
    with pytest.raises(ValueError, match="window dimension 12"):
        singular_values(np.eye(12))     # an ndarray window is refused alike
    assert singular_values(_wrap(np.eye(10))).size == 10
    # the decay fit of the submodule probe takes a dense spectrum: usage error
    code = cli.main(["submodule-probe", "--m", "2", "--gens", "z1*z2",
                     "--degrees", "4,5,6,7", "--out", str(tmp_path), "--tag", "t"])
    assert code == 2


@pytest.mark.parametrize("m, gen", [(2, "z1^2-z2^2"), (3, "z1*z2"), (3, "z1^2-z2*z3")])
def test_ungraded_quotient_matches_graded_quotient(m, gen):
    # one ideal as one dense block (BLAS products) and degree by degree
    # (sparse products): the complements coincide, and so do the spectra of
    # the commutators' whole sections (an ungraded commutator is an ndarray)
    w = bergman_ball_weights(enumerate_basis(m, 8))
    g = [parse_polynomial(gen, m)]
    spectra = []
    for S, dense in ((homogeneous_submodule(w, g), lambda C: C.mat.toarray()),
                     (ungraded_submodule(w, g), lambda C: C)):
        Rs = [compress_to_frame(coordinate_shift(w, i), S.comp) for i in range(1, m + 1)]
        spectra.append([np.linalg.svd(dense(commutator(Rs[i], Rs[j])), compute_uv=False)
                        for i in range(m) for j in range(i, m)])
    for graded, ungraded in zip(*spectra):
        assert graded.max() > 0
        assert np.abs(ungraded - graded).max() <= 1e-12 * graded.max()
