import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shiftlab import (PolynomialGenerator, RankCollapseError, bergman_ball_weights,
                      compress_to_frame, coordinate_shift, cross_commutators,
                      drury_arveson_weights, enumerate_basis,
                      homogeneous_submodule, monomial_generator,
                      monomial_submodule, parse_polynomial, projection_matrix,
                      self_commutator)
from shiftlab import cli, schatten, submodules
from shiftlab.submodules import Side, ungraded_submodule

from random_instances import point_evaluation_submodule, random_weight_set
from test_graded_basis import compositions


def _dim_in_degree(frame, n):
    """Number of a graded frame's columns labelled with degree n."""
    return int(np.count_nonzero(np.asarray(frame.degrees) == n))


def test_monomial_submodule_membership(rng):
    w = random_weight_set(rng, 2, 6)
    S = monomial_submodule(w, [monomial_generator((2, 1), num_vars=2)])
    b = w.basis
    expected = sum(1 for j in range(b.dimension)
                   if b.exponents[j][0] >= 2 and b.exponents[j][1] >= 1)
    assert S.sub.dimension == expected
    assert S.sub.dimension + S.comp.dimension == b.dimension


def test_monomial_hilbert_function():
    # for the ideal (x^a y^b) in two variables the degree-n count of monomials
    # in the ideal is max(0, n - a - b + 1)
    basis = enumerate_basis(2, 8)
    w = drury_arveson_weights(basis)
    a, b = 2, 3
    S = monomial_submodule(w, [monomial_generator((a, b), num_vars=2)])
    for n in range(9):
        assert _dim_in_degree(S.sub, n) == max(0, n - a - b + 1)
        assert _dim_in_degree(S.comp, n) == (n + 1) - max(0, n - a - b + 1)


def test_projections_are_complementary(rng):
    w = random_weight_set(rng, 2, 5)
    S = monomial_submodule(w, [monomial_generator((1, 2), num_vars=2)])
    P = projection_matrix(S, Side.SUBMODULE)
    Pc = projection_matrix(S, Side.COMPLEMENT)
    n = w.basis.dimension
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P + Pc - np.eye(n)).max() < 1e-12


def test_homogeneous_agrees_with_monomial(rng):
    # single-monomial ideals can be built either way; both must give the same
    # projection
    w = random_weight_set(rng, 2, 6)
    gen = monomial_generator((1, 1), num_vars=2)
    Pm = projection_matrix(monomial_submodule(w, [gen]), Side.SUBMODULE)
    Ph = projection_matrix(homogeneous_submodule(w, [gen]), Side.SUBMODULE)
    assert np.abs(Pm - Ph).max() < 1e-10


def _commutator_sums(S, m):
    """(sum over all (i, j) of ||[S_i*, S_j]||_2^2, sum over i of tr [S_i*, S_i]),
    both on the interior window, S_i the compressions of the shifts to the
    quotient; no SVD."""
    shifts = [compress_to_frame(coordinate_shift(S.weights, i), S.comp) for i in range(1, m + 1)]
    comms = cross_commutators(shifts).items()
    hs = sum((1 if i == j else 2) * float(np.sum(np.abs(C.window().data) ** 2))
             for (i, j), C in comms)
    trace = sum(float(C.window().diagonal().sum().real) for (i, j), C in comms if i == j)
    return hs, trace


@pytest.mark.parametrize("family,m,N", [(drury_arveson_weights, 2, 20),
                                        (drury_arveson_weights, 2, 40),
                                        (bergman_ball_weights, 3, 10)])
def test_rotation_oracle_binomial_quotient_matches_monomial_quotient(family, m, N):
    # z1^2-z2^2 = 2uv with u, v = (z1 -+ z2)/sqrt(2): a unitary change of
    # variables, under which these weights are invariant, carries the ideal
    # [z1^2-z2^2] to [z1*z2].  The HS sum over all pairs is unitarily
    # invariant, and so is the trace sum over i of [S_i*, S_i]; the monomial
    # side has exact coordinate frames.
    w = family(enumerate_basis(m, N))
    binomial = homogeneous_submodule(w, [parse_polynomial("z1^2-z2^2", num_vars=m)])
    monomial = monomial_submodule(w, [(1, 1) + (0,) * (m - 2)])
    (a, trace_a), (b, trace_b) = _commutator_sums(binomial, m), _commutator_sums(monomial, m)
    assert abs(a - b) <= 1e-12 * b
    assert abs(trace_a - trace_b) <= 1e-12 * abs(trace_b)


@pytest.mark.parametrize("text, degree", [("z1-z2", 1), ("z1*z2", 2), ("z1^2-z2^2", 2),
                                          ("z1^2", 2), ("z1^2*z2", 3), ("z1^3-2*z2^3", 3)])
def test_quotient_index_equals_the_degree(text, degree):
    # Drury-Arveson space at m = 2, quotient by a homogeneous p: the compressed
    # shifts R_i have sum_i tr [R_i*, R_i] = deg p on the window N, at the
    # quotient probe's truncation degree N + 2
    for N in (10, 20, 30):
        w = drury_arveson_weights(enumerate_basis(2, N + 2))
        S = homogeneous_submodule(w, [parse_polynomial(text, num_vars=2)])
        Rs = [compress_to_frame(coordinate_shift(w, i), S.comp) for i in (1, 2)]
        trace = sum(self_commutator(R).window(N).diagonal().sum() for R in Rs)
        assert abs(trace - degree) <= 1e-12, (N, trace)


def test_homogeneous_binomial_ideal_dimensions():
    # ideal (z1^2 - z2^2) in C[z1,z2]: in degree n >= 2 the ideal has
    # dimension (n+1) - 2 (the quotient ring has Hilbert function 2 for n >= 1)
    basis = enumerate_basis(2, 7)
    w = bergman_ball_weights(basis)
    g = parse_polynomial("z1^2 - z2^2", num_vars=2)
    S = homogeneous_submodule(w, [g])
    for n in range(8):
        expected = max(0, (n + 1) - 2) if n >= 2 else 0
        assert _dim_in_degree(S.sub, n) == expected


def test_homogeneous_two_generators_full_cut():
    # (z1^2, z2^2) leaves quotient basis {1, z1, z2, z1 z2}
    basis = enumerate_basis(2, 6)
    w = drury_arveson_weights(basis)
    gens = [monomial_generator((2, 0), num_vars=2),
            monomial_generator((0, 2), num_vars=2)]
    S = homogeneous_submodule(w, gens)
    assert S.comp.dimension == 4


def test_submodule_invariant_under_shifts(rng):
    from shiftlab import coordinate_shift, invariance_residual
    w = random_weight_set(rng, 2, 6)
    g = parse_polynomial("z1^2 - z2^2", num_vars=2)
    S = homogeneous_submodule(w, [g])
    for i in (1, 2):
        Z = coordinate_shift(w, i)
        assert invariance_residual(Z, S.sub) < 1e-10


def test_point_evaluations_kernel_property(rng):
    # each kernel column must satisfy Z_i^* k_z = conj(z_i) k_z up to
    # truncation error at the top degree
    from shiftlab import adjoint, coordinate_shift
    basis = enumerate_basis(2, 25)
    w = drury_arveson_weights(basis)
    pts = [(0.3, 0.1), (0.2 - 0.3j, 0.4j)]
    S = point_evaluation_submodule(w, pts)
    K = S.comp.columns
    for i in (1, 2):
        Zs = adjoint(coordinate_shift(w, i)).mat.toarray()
        resid = Zs @ K - K @ np.diag([np.conj(np.asarray(p, dtype=complex)[i - 1])
                                      for p in pts])
        # columns of K are mixed by orthonormalization; test invariance instead
        proj = K @ K.conj().T
        assert np.linalg.norm(Zs @ proj - proj @ Zs @ proj, 2) < 1e-6


def _kernel_columns_loop(w, points, components):
    """Per-monomial oracle for submodules.kernel_columns."""
    b = w.basis
    cols = []
    for z in points:
        for comp in components:
            v = np.zeros(b.dimension, dtype=complex)
            for j in range(b.dimension):
                if int(b.components[j]) != comp:
                    continue
                mono = 1.0 + 0.0j
                for t in range(b.num_vars):
                    mono *= np.conj(complex(z[t])) ** int(b.exponents[j][t])
                v[j] = mono / w.lam[j]
            cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


@pytest.mark.parametrize("m,N", [(1, 40), (2, 20), (3, 10), (4, 7)])
def test_kernel_columns_match_per_monomial_loop(m, N, rng):
    w = bergman_ball_weights(enumerate_basis(m, N, 2))
    points = [tuple(z) for z in
              (rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))) / (2 * m)]
    points.append((0.0,) * m)
    K = submodules.kernel_columns(w, points, range(2))
    oracle = _kernel_columns_loop(w, points, range(2))
    assert K.shape == oracle.shape == (w.basis.dimension, 2 * len(points))
    assert np.abs(K - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_point_evaluations_rank_collapse():
    basis = enumerate_basis(1, 15)
    w = drury_arveson_weights(basis)
    K = submodules.kernel_columns(w, [(0.5,), (0.5 + 1e-14,)], [0])
    with pytest.raises(RankCollapseError):
        submodules.check_distinct_points(np.linalg.svd(K, compute_uv=False))


def test_kernel_columns_input_validation():
    # a point of the wrong dimension, or on or outside the unit sphere, has no
    # kernel vector; the first such point is named
    w = drury_arveson_weights(enumerate_basis(2, 6))
    with pytest.raises(ValueError, match="has wrong dimension, expected 2"):
        submodules.kernel_columns(w, [(0.3, 0.1), (0.1,)], [0])
    with pytest.raises(ValueError, match="has wrong dimension, expected 2"):
        submodules.kernel_columns(w, [(0.1, 0.1, 0.1)], [0])
    for z in [(0.8, 0.6), (0.9j, 0.5)]:
        with pytest.raises(ValueError, match="is not inside the open unit ball"):
            submodules.kernel_columns(w, [(0.3, 0.1), z], [0])

def test_ungraded_submodule_contains_generator_multiples(rng):
    w = random_weight_set(rng, 2, 6)
    g = parse_polynomial("z1 - 1", num_vars=2)  # non-homogeneous
    S = ungraded_submodule(w, [g])
    b = w.basis
    lam = w.lam
    # (z1 - 1) * z2 must lie in the span
    v = np.zeros(b.dimension, dtype=complex)
    j11, j01 = b.rank([(1, 1), (0, 1)], [0, 0])
    v[j11] = lam[j11]
    v[j01] = -lam[j01]
    v /= np.linalg.norm(v)
    F = S.sub.columns
    resid = np.linalg.norm(v - F @ (F.conj().T @ v))
    assert resid < 1e-10


def test_nonhomogeneous_rejected_by_homogeneous_builder(rng):
    w = random_weight_set(rng, 2, 5)
    g = parse_polynomial("z1^2 + z2", num_vars=2)
    with pytest.raises(ValueError):
        homogeneous_submodule(w, [g])


def _linear(a, b):
    return PolynomialGenerator(terms=(((1, 0), 0, a), ((0, 1), 0, b)), num_vars=2)


def test_homogeneous_keeps_imaginary_coefficients():
    w = drury_arveson_weights(enumerate_basis(2, 5))
    P_plus, P_minus = (projection_matrix(homogeneous_submodule(w, [_linear(1.0, c)]),
                                         Side.SUBMODULE) for c in (1j, -1j))
    assert np.abs(P_plus - P_minus).max() > 0.1
    P_ungraded = projection_matrix(ungraded_submodule(w, [_linear(1.0, 1j)]), Side.SUBMODULE)
    assert np.abs(P_plus - P_ungraded).max() < 1e-10


def test_real_generators_give_real_graded_frames():
    w = drury_arveson_weights(enumerate_basis(2, 5))
    for build in (homogeneous_submodule, ungraded_submodule):
        S = build(w, [parse_polynomial("z1^2 - z2^2", num_vars=2)])
        assert S.sub.columns.dtype == S.comp.columns.dtype == np.float64
        S = build(w, [_linear(1.0, 1j)])
        assert S.sub.columns.dtype == S.comp.columns.dtype == np.complex128


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3), degree=st.integers(1, 2))
def test_graded_and_ungraded_agree_on_complex_homogeneous_generators(seed, m, degree):
    # the same homogeneous ideal built degree by degree and as one ungraded span
    rng = np.random.default_rng(seed)
    w = random_weight_set(rng, m, 6 if m == 2 else 5)
    alphas = list(compositions(degree, m))
    gens = []
    for _ in range(int(rng.integers(1, 3))):
        coefs = rng.uniform(0.5, 2.0, len(alphas)) * np.exp(2j * np.pi * rng.uniform(size=len(alphas)))
        terms = tuple((alpha, 0, complex(coef)) for alpha, coef in zip(alphas, coefs))
        gens.append(PolynomialGenerator(terms=terms, num_vars=m))
    P_graded = projection_matrix(homogeneous_submodule(w, gens), Side.SUBMODULE)
    P_ungraded = projection_matrix(ungraded_submodule(w, gens), Side.SUBMODULE)
    assert np.abs(P_graded - P_ungraded).max() < 1e-10


def _largest_column_residual(S, w, gens):
    """max over generator multiples M_col of |(I - QQ*) M_col| / |M_col|, Q = S.sub."""
    M = sp.hstack([submodules.multiple_vectors(w, g, 0, w.basis.max_degree - g.max_degree)
                   for g in gens], format="csc")
    Q = S.sub.columns
    Md = M.toarray()
    R = Md - Q @ (M.T @ Q.conj()).T
    return float((np.linalg.norm(R, axis=0) / np.linalg.norm(Md, axis=0)).max())


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights])
@pytest.mark.parametrize("m,N,k,text", [(2, 62, 1, "z1-z2^2"), (2, 72, 1, "z1-z2^2"),
                                        (2, 44, 2, "z1 - z2^2 (c1)")])
def test_principal_ungraded_frame_keeps_every_multiple(family, m, N, k, text):
    # the multiples z^q*g of a nonzero g are independent: the rank is their
    # number, whatever the weights' range, and each lies in the frame's span
    w = family(enumerate_basis(m, N, k))
    g = parse_polynomial(text, m, k)
    S = ungraded_submodule(w, [g])
    assert S.sub.dimension == math.comb(N - g.max_degree + m, m)
    assert S.sub.dimension + S.comp.dimension == w.basis.dimension
    assert _largest_column_residual(S, w, [g]) <= 1e-13


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights])
@pytest.mark.parametrize("m,N,texts,rank", [
    (2, 30, ["z1-z2^2", "z1*z2"], 492),
    # the second generator is z2 times the first: it adds no direction
    (3, 10, ["z1-z2*z3", "z1*z2-z2^2*z3"], 165),
])
def test_ungraded_frame_keeps_independent_multiples_of_several_generators(family, m, N,
                                                                          texts, rank):
    w = family(enumerate_basis(m, N))
    gens = [parse_polynomial(t, m) for t in texts]
    S = ungraded_submodule(w, gens)
    assert S.sub.dimension == rank
    assert S.sub.dimension + S.comp.dimension == w.basis.dimension
    # the dropped multiples lie in the span of the kept ones
    assert _largest_column_residual(S, w, gens) <= 1e-12


@pytest.mark.parametrize("texts", [["z1^20+z2"], ["z1^20+z2", "z2^20+z1"]])
def test_ungraded_submodule_with_no_multiple_in_range_is_zero(texts):
    w = drury_arveson_weights(enumerate_basis(2, 12))
    S = ungraded_submodule(w, [parse_polynomial(t, 2) for t in texts])
    assert S.sub.dimension == 0
    assert S.comp.dimension == w.basis.dimension
    assert np.allclose(S.comp.columns.T @ S.comp.columns, np.eye(w.basis.dimension),
                       rtol=0, atol=1e-14)


def test_frames_expose_stored_bytes_and_graded_frames_stay_per_slice():
    # graded frames store each slice's block, not ambient-length columns:
    # at most (slice dim)^2 float64 values with int32 row indices per slice
    w3 = drury_arveson_weights(enumerate_basis(3, 10))
    w2 = drury_arveson_weights(enumerate_basis(2, 10))
    builds = [
        monomial_submodule(w3, [monomial_generator((1, 1, 0), num_vars=3)]),
        homogeneous_submodule(w3, [parse_polynomial("z1^2 - z2^2", num_vars=3)]),
        ungraded_submodule(w3, [parse_polynomial("z1 - z2*z3", num_vars=3)]),
        point_evaluation_submodule(w2, [(0.3, 0.1), (0.2 - 0.3j, 0.4j)]),
    ]
    for S in builds:
        b = S.weights.basis
        bound = 12 * sum(len(b.degree_slice(n)) ** 2 for n in range(b.max_degree + 1))
        for frame in (S.sub, S.comp):
            assert type(frame.columns.nbytes) is int
            if frame.degrees is not None:
                assert frame.columns.nbytes <= bound
    assert [S.sub.degrees is not None for S in builds] == [True, True, False, False]


def test_ambient_frames_refuse_large_spaces_before_any_work(monkeypatch, tmp_path):
    # the ungraded builder factorises an ambient-size matrix: the size check
    # comes before any vector is built and before any factorisation
    w = drury_arveson_weights(enumerate_basis(2, 8))
    assert w.basis.dimension == 45
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 44)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the size check")
    monkeypatch.setattr(submodules, "multiple_vectors", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    for gens in (["z1 - z2^2"], ["z1 - z2^2", "z1*z2"]):
        with pytest.raises(ValueError, match="ambient dimension 45 exceeds DENSE_SVD_LIMIT=44"):
            ungraded_submodule(w, [parse_polynomial(g, num_vars=2) for g in gens])
    code = cli.main(["quotient-probe", "--m", "2", "--gens", "z1-z2^2", "--degrees", "6,8",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 2
    assert not any(tmp_path.iterdir())
