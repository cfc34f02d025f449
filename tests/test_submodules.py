import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from shiftlab import (PolynomialGenerator, RankCollapseError, SubspaceFrame, bergman_ball_weights,
                      compress_to_frame, coordinate_shift, cross_commutators,
                      drury_arveson_weights, enumerate_basis, hardy_ball_weights,
                      monomial_generator, parse_polynomial, projection_matrix,
                      self_commutator, submodule)
from shiftlab import cli, schatten, shift_operators, submodules
from shiftlab.submodules import _homogeneous_submodule, _ungraded_submodule

from random_instances import (ambient_columns, point_evaluation_submodule, random_weight_set,
                              traced_peak)
from test_graded_basis import compositions


def _dim_in_degree(frame, n):
    """Number of a graded frame's columns labelled with degree n."""
    return int(np.count_nonzero(np.asarray(frame.degrees) == n))


def test_monomial_submodule_membership(rng):
    w = random_weight_set(rng, 2, 6)
    S = submodule(w, [monomial_generator((2, 1), num_vars=2)])
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
    S = submodule(w, [monomial_generator((a, b), num_vars=2)])
    for n in range(9):
        assert _dim_in_degree(S.sub, n) == max(0, n - a - b + 1)
        assert _dim_in_degree(S.comp, n) == (n + 1) - max(0, n - a - b + 1)


def test_projections_are_complementary(rng):
    w = random_weight_set(rng, 2, 5)
    S = submodule(w, [monomial_generator((1, 2), num_vars=2)])
    P = projection_matrix(S.sub)
    Pc = projection_matrix(S.comp)
    n = w.basis.dimension
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P + Pc - np.eye(n)).max() < 1e-12


def test_homogeneous_agrees_with_monomial(rng):
    # single-monomial ideals can be built either way (submodule takes
    # coordinate frames); both must give the same projection
    w = random_weight_set(rng, 2, 6)
    gen = monomial_generator((1, 1), num_vars=2)
    Pm = projection_matrix(submodule(w, [gen]).sub)
    Ph = projection_matrix(_homogeneous_submodule(w, [gen]).sub)
    assert np.abs(Pm - Ph).max() < 1e-10


def _commutator_sums(S, m):
    """(sum over all (i, j) of ||[S_i*, S_j]||_2^2, sum over i of tr [S_i*, S_i]),
    both on the interior window, S_i the compressions of the shifts to the
    quotient; no SVD."""
    shifts = [compress_to_frame(coordinate_shift(S.weights, i), S.comp) for i in range(1, m + 1)]
    comms = list(cross_commutators(shifts))
    hs = sum((1 if i == j else 2) * float(np.sum(np.abs(C.window().data) ** 2))
             for (i, j), C in comms)
    trace = sum(float(C.window().toarray().diagonal().sum().real)
                for (i, j), C in comms if i == j)
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
    binomial = submodule(w, [parse_polynomial("z1^2-z2^2", num_vars=m)])
    monomial = submodule(w, [monomial_generator((1, 1) + (0,) * (m - 2))])
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
        S = submodule(w, [parse_polynomial(text, num_vars=2)])
        Rs = [compress_to_frame(coordinate_shift(w, i), S.comp) for i in (1, 2)]
        trace = sum(self_commutator(R).window(N).toarray().diagonal().sum() for R in Rs)
        assert abs(trace - degree) <= 1e-12, (N, trace)


def test_homogeneous_binomial_ideal_dimensions():
    # ideal (z1^2 - z2^2) in C[z1,z2]: in degree n >= 2 the ideal has
    # dimension (n+1) - 2 (the quotient ring has Hilbert function 2 for n >= 1)
    basis = enumerate_basis(2, 7)
    w = bergman_ball_weights(basis)
    g = parse_polynomial("z1^2 - z2^2", num_vars=2)
    S = submodule(w, [g])
    for n in range(8):
        expected = max(0, (n + 1) - 2) if n >= 2 else 0
        assert _dim_in_degree(S.sub, n) == expected


def test_homogeneous_two_generators_full_cut():
    # (z1^2, z2^2) leaves quotient basis {1, z1, z2, z1 z2}, by coordinate
    # frames and by per-degree SVDs
    basis = enumerate_basis(2, 6)
    w = drury_arveson_weights(basis)
    gens = [monomial_generator((2, 0), num_vars=2),
            monomial_generator((0, 2), num_vars=2)]
    for build in (submodule, _homogeneous_submodule):
        assert build(w, gens).comp.dimension == 4


def test_submodule_invariant_under_shifts(rng):
    from shiftlab import coordinate_shift, invariance_residual
    w = random_weight_set(rng, 2, 6)
    g = parse_polynomial("z1^2 - z2^2", num_vars=2)
    S = submodule(w, [g])
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


BUILDERS = ("_monomial_submodule", "_homogeneous_submodule", "_ungraded_submodule")


@pytest.mark.parametrize("texts, builder, kind", [
    (["z1*z2"], "_monomial_submodule", "coordinate"),
    (["z1^2-z2^2"], "_homogeneous_submodule", "graded"),
    (["z1-z2^2"], "_ungraded_submodule", "sliced"),
    (["z1-z2^2-z2^3"], "_ungraded_submodule", "unlabelled"),
    (["z1*z2", "z1-z2^2"], "_ungraded_submodule", "sliced"),
])
def test_submodule_picks_the_frame_kind_from_the_generators(monkeypatch, texts, builder, kind):
    # all single-term: coordinate frames; all homogeneous: graded; otherwise
    # sliced by the weight (2, 1), or unlabelled with no positive weight
    called = []
    for name in BUILDERS:
        def spy(*args, name=name, real=getattr(submodules, name)):
            called.append(name)
            return real(*args)
        monkeypatch.setattr(submodules, name, spy)
    w = drury_arveson_weights(enumerate_basis(2, 8))
    S = submodule(w, [parse_polynomial(t, 2) for t in texts])
    assert called == [builder]
    for frame in (S.sub, S.comp):
        assert (frame.degrees is not None) == (kind in ("coordinate", "graded"))
        assert (frame.shapes is None) == (kind == "unlabelled")
        if kind == "coordinate":
            assert np.isin(frame.columns, (0.0, 1.0)).all()
        if kind == "sliced":
            heights = np.bincount(w.basis.exponents @ np.array([2, 1]))
            assert np.array_equal(frame.shapes[:, 0], heights)


def test_submodule_refuses_an_empty_generator_list():
    w = drury_arveson_weights(enumerate_basis(2, 4))
    with pytest.raises(ValueError, match="empty generator list"):
        submodule(w, [])


@pytest.mark.parametrize("text", ["z1*z3", "z1^2-z3^2", "z1-z2*z3"])
def test_submodule_refuses_a_generator_of_another_variable_count(text):
    # whichever builder the generators would reach: the ungraded one failed
    # inside numpy on a broadcast, not on the generator
    w = drury_arveson_weights(enumerate_basis(2, 4))
    gens = [parse_polynomial("z1-z2^2", 2), parse_polynomial(text, 3)]
    with pytest.raises(ValueError, match=r"generator #1 \(.*\) has 3 variables, basis has 2"):
        submodule(w, gens)


@pytest.mark.parametrize("gens", [
    [monomial_generator((1, 0), num_vars=2, component=5)],
    [parse_polynomial("z1^2 (c1) - z2^2 (c1)", 2, 2)],
    [parse_polynomial("z1-z2^2", 2), parse_polynomial("z1 (c1)", 2, 2)],
])
def test_submodule_refuses_a_component_past_the_multiplicity(gens):
    # a coordinate frame of component 5 on a k = 1 basis was empty, with no error
    w = drury_arveson_weights(enumerate_basis(2, 4))
    t, c = len(gens) - 1, gens[-1].terms[0][1]
    with pytest.raises(ValueError, match=rf"generator #{t} \(.*\): component {c} out of range "
                                         r"\[0, 1\)"):
        submodule(w, gens)


def test_ungraded_submodule_contains_generator_multiples(rng):
    w = random_weight_set(rng, 2, 6)
    g = parse_polynomial("z1 - 1", num_vars=2)  # non-homogeneous
    S = submodule(w, [g])
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


def test_nonhomogeneous_generator_is_not_built_degree_by_degree(rng, monkeypatch):
    # the degreewise builder assumes homogeneous generators: submodule never
    # hands it another, and slices z1^2 + z2 by its weight (1, 2) instead
    def refuse(*args):
        raise AssertionError("a non-homogeneous generator reached the degreewise builder")
    monkeypatch.setattr(submodules, "_homogeneous_submodule", refuse)
    w = random_weight_set(rng, 2, 5)
    S = submodule(w, [parse_polynomial("z1^2 + z2", num_vars=2)])
    assert S.sub.rows is not None
    assert np.array_equal(S.sub.shapes[:, 0], np.bincount(w.basis.exponents @ np.array([1, 2])))


def _linear(a, b):
    return PolynomialGenerator(terms=(((1, 0), 0, a), ((0, 1), 0, b)), num_vars=2)


def test_homogeneous_keeps_imaginary_coefficients():
    w = drury_arveson_weights(enumerate_basis(2, 5))
    P_plus, P_minus = (projection_matrix(submodule(w, [_linear(1.0, c)]).sub)
                       for c in (1j, -1j))
    assert np.abs(P_plus - P_minus).max() > 0.1
    P_ungraded = projection_matrix(_ungraded_submodule(w, [_linear(1.0, 1j)]).sub)
    assert np.abs(P_plus - P_ungraded).max() < 1e-10


def test_real_generators_give_real_graded_frames():
    w = drury_arveson_weights(enumerate_basis(2, 5))
    for build in (submodule, _ungraded_submodule):
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
    P_graded = projection_matrix(submodule(w, gens).sub)
    P_ungraded = projection_matrix(_ungraded_submodule(w, gens).sub)
    assert np.abs(P_graded - P_ungraded).max() < 1e-10


def _largest_column_residual(S, w, gens):
    """max over generator multiples M_col of |(I - QQ*) M_col| / |M_col|, Q = S.sub."""
    Md = np.hstack([submodules.multiple_columns(w, g, 0, w.basis.max_degree - g.max_degree)
                    for g in gens])
    Q = ambient_columns(S.sub)
    R = Md - Q @ (Q.conj().T @ Md)
    return float((np.linalg.norm(R, axis=0) / np.linalg.norm(Md, axis=0)).max())


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights])
@pytest.mark.parametrize("m,N,k,text", [(2, 62, 1, "z1-z2^2"), (2, 72, 1, "z1-z2^2"),
                                        (2, 44, 2, "z1 - z2^2 (c1)")])
def test_principal_ungraded_frame_keeps_every_multiple(family, m, N, k, text):
    # the multiples z^q*g of a nonzero g are independent: the rank is their
    # number, whatever the weights' range, and each lies in the frame's span
    w = family(enumerate_basis(m, N, k))
    g = parse_polynomial(text, m, k)
    S = submodule(w, [g])
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
    S = submodule(w, gens)
    assert S.sub.dimension == rank
    assert S.sub.dimension + S.comp.dimension == w.basis.dimension
    # the dropped multiples lie in the span of the kept ones
    assert _largest_column_residual(S, w, gens) <= 1e-12


@pytest.mark.parametrize("texts", [["z1^20+z2"], ["z1^20+z2", "z2^20+z1"]])
def test_ungraded_submodule_with_no_multiple_in_range_is_zero(texts):
    w = drury_arveson_weights(enumerate_basis(2, 12))
    S = submodule(w, [parse_polynomial(t, 2) for t in texts])
    assert S.sub.dimension == 0
    assert S.comp.dimension == w.basis.dimension
    Q = ambient_columns(S.comp)
    assert np.allclose(Q.T @ Q, np.eye(w.basis.dimension), rtol=0, atol=1e-14)


def test_frames_expose_stored_bytes_and_graded_frames_stay_per_slice():
    # graded frames store each slice's dense block, not ambient-length
    # columns: at most (slice dim)^2 float64 values per slice
    w3 = drury_arveson_weights(enumerate_basis(3, 10))
    w2 = drury_arveson_weights(enumerate_basis(2, 10))
    builds = [
        submodule(w3, [monomial_generator((1, 1, 0), num_vars=3)]),
        submodule(w3, [parse_polynomial("z1^2 - z2^2", num_vars=3)]),
        submodule(w3, [parse_polynomial("z1 - z2*z3", num_vars=3)]),
        point_evaluation_submodule(w2, [(0.3, 0.1), (0.2 - 0.3j, 0.4j)]),
    ]
    for S in builds:
        b = S.weights.basis
        bound = 8 * sum(len(b.degree_slice(n)) ** 2 for n in range(b.max_degree + 1))
        for frame in (S.sub, S.comp):
            assert type(frame.columns.nbytes) is int
            if frame.degrees is not None:
                assert frame.columns.nbytes <= bound
    assert [S.sub.degrees is not None for S in builds] == [True, True, False, False]
    # an ungraded frame has no labels; a labelled one has its blocks' columns
    assert SubspaceFrame(np.eye(3)[:, :2]).degrees is None
    assert SubspaceFrame.from_blocks([np.eye(3)[:, :2]]).dimension == 2


def test_ambient_frames_refuse_large_spaces_before_any_work(monkeypatch, tmp_path):
    # with no positive weight the ungraded builder factorises an ambient-size
    # matrix: the size check comes before any vector is built and before any
    # factorisation
    w = drury_arveson_weights(enumerate_basis(2, 8))
    assert w.basis.dimension == 45
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 44)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the size check")
    monkeypatch.setattr(submodules, "multiple_vectors", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    for gens in (["z1 - z2^2 - z2^3"], ["z1 - z2^2 - z2^3", "z1*z2"]):
        with pytest.raises(ValueError, match="ambient dimension 45 exceeds DENSE_SVD_LIMIT=44"):
            submodule(w, [parse_polynomial(g, num_vars=2) for g in gens])
    code = cli.main(["quotient-probe", "--m", "2", "--gens", "z1-z2^2-z2^3", "--degrees", "6,8",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 2
    assert not any(tmp_path.iterdir())


def test_sliced_frames_refuse_a_wide_slice_before_any_work(monkeypatch, tmp_path):
    # with a positive weight each slice is factorised alone: the widest slice
    # is checked, before any vector is built and before any factorisation
    w = drury_arveson_weights(enumerate_basis(2, 8))
    g = parse_polynomial("z1 - z2^2", num_vars=2)
    widest = int(np.bincount(w.basis.exponents @ np.array([2, 1])).max())
    assert widest == 5
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", widest - 1)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the size check")
    monkeypatch.setattr(submodules, "multiple_vectors", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    with pytest.raises(ValueError, match="weighted slice dimension 5 exceeds DENSE_SVD_LIMIT=4; "
                                         "refusing a dense QR of a slice of that size"):
        submodule(w, [g])
    code = cli.main(["quotient-probe", "--m", "2", "--gens", "z1-z2^2", "--degrees", "4,6",
                     "--out", str(tmp_path), "--tag", "t"])
    assert code == 2
    assert not any(tmp_path.iterdir())


# the weighted-slice oracle's generators: (m, generator texts, their weight)
COMPLEX_GENERATOR = PolynomialGenerator(terms=(((1, 0), 0, 1.0), ((0, 2), 0, -0.5 + 1j)),
                                        num_vars=2)
SLICED_IDEALS = [
    (3, ["z1-z2*z3"], (2, 1, 1)),
    (2, ["z1-z2^2"], (2, 1)),
    (2, ["z1^3-z2^2"], (2, 3)),          # the cusp
    (2, ["z1-z2^2", "z1*z2"], (2, 1)),
    (2, [COMPLEX_GENERATOR], (2, 1)),
    (2, ["z1-z2^2-z2^3"], (0, 0)),       # no common positive weight
]


def _generators(m, texts):
    return [t if isinstance(t, PolynomialGenerator) else parse_polynomial(t, m) for t in texts]


@pytest.mark.parametrize("m, texts, weight", SLICED_IDEALS + [
    (3, ["z1^7*z2-z3^5"], (1, 3, 2)),
    (3, ["z1+z2-z3"], (1, 1, 1)),
    (4, ["z1*z2-z3^3", "z4^2-z1"], (2, 1, 1, 1)),
    (2, ["z1-1"], (0, 0)),
    (2, ["z1^20+z2", "z2^20+z1"], (0, 0)),
])
def test_homogeneity_weight_is_the_smallest_positive_one(m, texts, weight):
    gens = _generators(m, texts)
    assert submodules.homogeneity_weight(gens, m) == weight
    # by brute force over the positive weights with entries up to 12: the
    # homogeneous ones, of which the first by (sum, lexicographic) order
    def homogeneous(w):
        return all(len({np.dot(w, alpha) for alpha, _, _ in g.terms}) == 1 for g in gens)
    found = [w for w in itertools.product(range(1, 13), repeat=m) if homogeneous(w)]
    assert min(found, key=lambda w: (sum(w), w), default=(0,) * m) == weight


@pytest.mark.parametrize("m, texts, weight", [
    # one free coordinate: the primitive solution, found without a search
    # over all compositions of its sum
    (3, ["z1^29-z2^28", "z2^29-z3^27"], (756, 783, 841)),
    (3, ["z1-z2^29*z3^29"], (58, 1, 1)),
])
def test_homogeneity_weight_with_large_entries(m, texts, weight):
    gens = _generators(m, texts)
    assert submodules.homogeneity_weight(gens, m) == weight
    assert all(len({np.dot(weight, alpha) for alpha, _, _ in g.terms}) == 1 for g in gens)


def _dense_oracle_projectors(w, gens):
    """Projectors onto the span of every multiple z^q g (|q| + deg g <= N),
    lambda-scaled, and onto its complement, from one dense ambient QR: numpy
    only, sharing no code with the library's frames.  The span's basis is
    taken from the unscaled multiples' SVD and scaled; its QR runs with the
    rows sorted by decreasing lambda."""
    b = w.basis
    ordinal = {tuple(int(a) for a in e): j for j, e in enumerate(b.exponents)}
    columns = []
    for g in gens:
        for q in b.exponents[:b.slice_bounds[b.max_degree - g.max_degree + 1]]:
            v = np.zeros(b.dimension, complex)
            for alpha, _, coef in g.terms:
                v[ordinal[tuple(int(x) for x in np.add(q, alpha))]] = coef
            columns.append(v)
    X = np.column_stack(columns)
    U, s, _ = np.linalg.svd(X)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    order = np.argsort(-w.lam, kind="stable")
    Q = np.empty((b.dimension, b.dimension), complex)
    Q[order] = np.linalg.qr((w.lam[:, None] * U[:, :rank])[order], mode="complete")[0]
    return [F @ F.conj().T for F in (Q[:, :rank], Q[:, rank:])]


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights,
                                    hardy_ball_weights])
@pytest.mark.parametrize("m, texts, weight", SLICED_IDEALS)
def test_weighted_slice_frames_match_one_dense_ambient_qr(family, m, texts, weight):
    w = family(enumerate_basis(m, 8 if m == 3 else 14))
    gens = _generators(m, texts)
    S = submodule(w, gens)
    oracle = _dense_oracle_projectors(w, gens)
    wdeg = w.basis.exponents @ np.array(weight)
    for frame, P in zip((S.sub, S.comp), oracle):
        F = ambient_columns(frame)
        assert np.abs(F.conj().T @ F - np.eye(F.shape[1])).max() <= 1e-13
        assert np.abs(F @ F.conj().T - P).max() <= 1e-12
        # each column lies in the one weighted slice its block names, and
        # the blocks run in slice order (w = 0: one unlabelled block)
        labels = (np.zeros(F.shape[1], np.int64) if frame.shapes is None else
                  np.repeat(np.arange(len(frame.shapes)), frame.shapes[:, 1]))
        assert (frame.shapes is None) == (weight[0] == 0)
        assert not (F * (wdeg[:, None] != labels)).any()


def _per_slice_qrs(w, gens, weight):
    """{s: (rows, Q, k)}: weighted slice s's ordinals, sorted by decreasing
    lambda, the complete QR, unpadded, of its lambda-scaled multiples (their
    SVD span when there are several generators) on those rows, and its
    rank k: numpy only, one slice at a time."""
    b = w.basis
    ordinal = {tuple(int(a) for a in e): j for j, e in enumerate(b.exponents)}
    wdeg = b.exponents @ np.array(weight)
    multiples = {}
    for g in gens:
        for q in b.exponents[:b.slice_bounds[b.max_degree - g.max_degree + 1]]:
            terms = {ordinal[tuple(int(x) for x in np.add(q, alpha))]: coef
                     for alpha, _, coef in g.terms}
            multiples.setdefault(int(wdeg[next(iter(terms))]), []).append(terms)
    out = {}
    for s in range(int(wdeg.max()) + 1):
        rows = np.flatnonzero(wdeg == s)
        rows = rows[np.argsort(-w.lam[rows], kind="stable")]
        at = {j: i for i, j in enumerate(rows)}
        X = np.zeros((rows.size, len(multiples.get(s, []))), complex)
        for c, terms in enumerate(multiples.get(s, [])):
            for j, coef in terms.items():
                X[at[j], c] = coef
        if len(gens) > 1 and X.size:
            U, sv, _ = np.linalg.svd(X, full_matrices=False)
            X = U[:, :int(np.count_nonzero(sv > 1e-10 * sv[0]))]
        out[s] = rows, np.linalg.qr(w.lam[rows, None] * X, mode="complete")[0], X.shape[1]
    return out


@pytest.mark.parametrize("m, texts, weight", [case for case in SLICED_IDEALS if case[2][0]])
def test_stacked_slice_qrs_match_per_slice_qrs(m, texts, weight):
    # slices at most STACK_SIDE rows high are factorised zero-padded in
    # stacks, the rest one by one: each slice's block of sub and comp side
    # by side is unitary, on the rows of the per-slice QR, and the two span
    # the same spaces as its columns do
    w = bergman_ball_weights(enumerate_basis(m, 70 if m == 2 else 16))
    gens = _generators(m, texts)
    S = submodule(w, gens)
    oracle = _per_slice_qrs(w, gens, weight)
    heights = S.sub.shapes[:, 0]
    assert heights.max() > shift_operators.STACK_SIDE or weight == (2, 3)    # the cusp: 24
    rows = np.split(S.sub.rows, np.cumsum(heights)[:-1])
    for s, (at, Q, k) in oracle.items():
        sub, comp = S.sub.blocks(s)[0], S.comp.blocks(s)[0]
        F = np.hstack([sub, comp])
        assert np.array_equal(rows[s], at) and sub.shape[1] == k
        assert np.abs(F.conj().T @ F - np.eye(len(at))).max(initial=0.0) <= 1e-14
        for X, Y in ((sub, Q[:, :k]), (comp, Q[:, k:])):
            assert np.abs(X @ X.conj().T - Y @ Y.conj().T).max(initial=0.0) <= 1e-13


def _dense_shift(w, i):
    """Z_i on the weight set's basis as a dense ndarray, built from the
    exponents and lambda alone: z^alpha -> (lambda_(alpha+e_i) /
    lambda_alpha) z^(alpha+e_i), the top degree annihilated."""
    b = w.basis
    ordinal = {tuple(int(a) for a in e): j for j, e in enumerate(b.exponents)}
    Z = np.zeros((b.dimension, b.dimension))
    for j, e in enumerate(b.exponents):
        target = ordinal.get(tuple(int(a) + (t == i - 1) for t, a in enumerate(e)))
        if target is not None:
            Z[target, j] = w.lam[target] / w.lam[j]
    return Z


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights,
                                    hardy_ball_weights])
@pytest.mark.parametrize("m, texts, weight", [case for case in SLICED_IDEALS if case[2][0]])
def test_sliced_compressions_and_spectra_match_dense_products(family, m, texts, weight):
    # the sliced store against dense ambient products built in the test: each
    # compression is Q*Z_iQ, and each commutator's block spectrum, sorted
    # and padded with the zeros it leaves out, is the dense r x r SVD
    w = family(enumerate_basis(m, 8 if m == 3 else 14))
    S = submodule(w, _generators(m, texts))
    shifts = [_dense_shift(w, i) for i in range(1, m + 1)]
    for frame in (S.sub, S.comp):
        Q = ambient_columns(frame)
        R = [compress_to_frame(coordinate_shift(w, i), frame) for i in range(1, m + 1)]
        dense = [Q.conj().T @ Z @ Q for Z in shifts]
        for X, D, w_i in zip(R, dense, weight):
            assert X.mat.offset == w_i and X.interior_degree is None
            assert np.abs(X.mat.toarray() - D).max(initial=0.0) <= 1e-13
        for (i, j), C in cross_commutators(R):
            A, B = dense[i - 1], dense[j - 1]
            expected = np.linalg.svd(A.conj().T @ B - B @ A.conj().T, compute_uv=False)
            s = np.sort(shift_operators.block_singular_values(C.mat)[0])[::-1]
            assert s.size <= expected.size
            assert np.abs(np.pad(s, (0, expected.size - s.size)) - expected).max(
                initial=0.0) <= 1e-12 * expected.max(initial=1.0)


def _slice_ranks_of_one_ambient_qr(w, gens, weight):
    """Each weighted slice's count of the multiples that one pivoted QR of all
    the unscaled multiples keeps, on the ambient rows."""
    b = w.basis
    ordinal = {tuple(int(a) for a in e): j for j, e in enumerate(b.exponents)}
    X, slices = [], []
    for g in gens:
        for q in b.exponents[:b.slice_bounds[max(0, b.max_degree - g.max_degree + 1)]]:
            v = np.zeros(b.dimension, complex)
            for alpha, _, coef in g.terms:
                v[ordinal[tuple(int(x) for x in np.add(q, alpha))]] = coef
            X.append(v)
            slices.append(int(np.dot(weight, np.add(q, g.terms[0][0]))))
    if not X:
        return np.zeros(int((b.exponents @ weight).max()) + 1, np.int64)
    R, piv = scipy.linalg.qr(np.column_stack(X), mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    kept = piv[:np.count_nonzero(diag > submodules.DEFAULT_RANK_TOL * diag[0])]
    return np.bincount(np.array(slices)[kept], minlength=int((b.exponents @ weight).max()) + 1)


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights,
                                    hardy_ball_weights])
@pytest.mark.parametrize("N", [14, 40])
def test_per_slice_ranks_equal_one_ambient_pivoted_qr(family, N):
    # the rank of several generators is decided slice by slice; each
    # multiple lies in one slice, so the counts are those of one pivoted QR
    # of every multiple on the ambient rows
    w = family(enumerate_basis(2, N))
    gens = _generators(2, ["z1-z2^2", "z1*z2"])
    S = submodule(w, gens)
    expected = _slice_ranks_of_one_ambient_qr(w, gens, (2, 1))
    assert np.array_equal(S.sub.shapes[:, 1], expected)
    assert S.sub.dimension == expected.sum() < sum(
        math.comb(N - g.max_degree + 2, 2) for g in gens)


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights,
                                    hardy_ball_weights])
@pytest.mark.parametrize("m, N, texts", [
    (2, 20, ["z1^3-z2^2", "z1*z2^2"]),
    (2, 16, ["z1-z2^2", "z1^2-z2^4"]),      # a redundant generator
    (3, 9, ["z1-z2*z3", "z1*z2"]),
    (3, 8, ["z1-z2*z3", "z2^2-z3^2", "z1*z3"]),
    (2, 12, ["z1-z2^2-z2^3", "z1*z2"]),     # w = 0: one slice
    (2, 3, ["z1^2-z2^4", "z2^5"]),          # no multiple within degree N
])
def test_svd_slice_ranks_equal_pivoted_qr_ranks(family, m, N, texts):
    # a slice's rank of several generators is its count of singular values
    # above the cut-off; the pivoted QR of every multiple (scipy, the
    # oracle) keeps as many
    w = family(enumerate_basis(m, N))
    gens = _generators(m, texts)
    weight = submodules.homogeneity_weight(gens, m)
    S = submodule(w, gens)
    expected = _slice_ranks_of_one_ambient_qr(w, gens, weight)
    ranks = S.sub.sizes if any(weight) else [S.sub.dimension]
    assert np.array_equal(ranks, expected)


@pytest.mark.parametrize("family", [bergman_ball_weights, drury_arveson_weights,
                                    hardy_ball_weights])
def test_weight_zero_reproduces_the_single_ambient_qr_bit_for_bit(family):
    # z1-z2^2-z2^3 has no positive weight: the whole basis is one slice, and
    # the frames are the complete QR of all the lambda-scaled multiples,
    # rows sorted by decreasing lambda
    w = family(enumerate_basis(2, 14))
    g = parse_polynomial("z1-z2^2-z2^3", 2)
    S = submodule(w, [g])
    b = w.basis
    ordinal = {tuple(int(a) for a in e): j for j, e in enumerate(b.exponents)}
    qs = b.exponents[:b.slice_bounds[b.max_degree - g.max_degree + 1]]
    X = np.zeros((b.dimension, len(qs)))
    for c, q in enumerate(qs):
        for alpha, _, coef in g.terms:
            row = ordinal[tuple(int(x) for x in np.add(q, alpha))]
            X[row, c] = coef * w.lam[row]
    order = np.argsort(-w.lam, kind="stable")
    Q = np.linalg.qr(X[order], mode="complete")[0][np.argsort(order)]
    assert np.array_equal(S.sub.columns, Q[:, :len(qs)])
    assert np.array_equal(S.comp.columns, Q[:, len(qs):])
    assert S.sub.shapes is None and S.comp.shapes is None


def test_sliced_frames_allocate_little_beside_themselves():
    # the two frames store one square block per weighted slice, 8 * sum n_s^2
    # bytes (0.78 MB at dimension 3,486, where the ambient square took
    # 97.2 MB); the build peaks at 1.34 MB under tracemalloc
    w = bergman_ball_weights(enumerate_basis(2, 82))
    g = parse_polynomial("z1-z2^2", 2)
    S, peak = traced_peak(submodule, w, [g])
    sizes = np.bincount(w.basis.exponents @ np.array([2, 1]))
    assert np.array_equal(S.sub.shapes[:, 0], sizes)
    assert np.array_equal(S.comp.shapes[:, 0], sizes)
    frames = S.sub.columns.nbytes + S.comp.columns.nbytes
    assert frames == 8 * int(sizes @ sizes) == 776_384
    assert peak <= 1.25 * 1_335_191


@pytest.mark.parametrize("m, N, text, measured", [(2, 82, "z1-z2^2", 299_526),
                                                 (3, 16, "z1-z2*z3", 256_172)])
def test_sliced_compressions_allocate_no_ambient_temporary(m, N, text, measured):
    # the compressions of the shifts to a sliced complement read Z_i one
    # slice pair at a time: no D x r array (the ambient frames' compressions
    # peaked at 18.4 MB and 9.3 MB here)
    w = bergman_ball_weights(enumerate_basis(m, N))
    S = submodule(w, [parse_polynomial(text, m)])
    shifts = [coordinate_shift(w, i) for i in range(1, m + 1)]
    compressions, peak = traced_peak(lambda: [compress_to_frame(Z, S.comp) for Z in shifts])
    assert len(compressions) == m
    assert peak <= 1.25 * measured
    assert peak < 8 * w.basis.dimension * S.comp.dimension
