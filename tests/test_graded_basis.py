import math

import numpy as np
import pytest

from shiftlab import enumerate_basis
from shiftlab.graded_basis import count_up_to_degree


def compositions(n, m):
    """All m-tuples of non-negative ints summing to n, leading exponent descending:
    the graded-lex order of one degree slice, written out one tuple at a time."""
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


@pytest.mark.parametrize("m,N", [(1, 0), (1, 7), (2, 5), (3, 4), (4, 3)])
@pytest.mark.parametrize("k", [1, 2])
def test_dimension_formula(m, N, k):
    basis = enumerate_basis(m, N, k)
    assert basis.dimension == k * math.comb(N + m, m)
    assert basis.dimension == k * count_up_to_degree(m, N)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 9), (2, 6), (3, 5), (5, 4)])
def test_degree_slice_count(m, n):
    basis = enumerate_basis(m, n)
    assert len(basis.degree_slice(n)) == math.comb(n + m - 1, m - 1)


def test_degree_slice_out_of_range():
    basis = enumerate_basis(2, 4)
    assert basis.degree_slice(4) == range(10, 15)
    for n in (-1, 5):
        with pytest.raises(ValueError, match=rf"degree {n} out of range \[0, 4\]"):
            basis.degree_slice(n)

def test_ordering_is_degree_major():
    basis = enumerate_basis(3, 5)
    degs = np.asarray(basis.degrees)
    assert np.all(np.diff(degs) >= 0)
    # slices are contiguous and cover everything
    total = 0
    for n in range(basis.max_degree + 1):
        sl = basis.degree_slice(n)
        assert sl.start == total
        assert np.all(degs[sl.start:sl.stop] == n)
        total = sl.stop
    assert total == basis.dimension


def test_component_varies_fastest():
    basis = enumerate_basis(2, 3, k=3)
    for j in range(0, basis.dimension, 3):
        alphas = {tuple(int(a) for a in basis.exponents[j + c]) for c in range(3)}
        comps = [int(basis.components[j + c]) for c in range(3)]
        assert len(alphas) == 1
        assert comps == [0, 1, 2]


@pytest.mark.parametrize("m,N,k", [(0, 3, 1), (2, -1, 1), (2, 3, 0)])
def test_rejects_bad_parameters(m, N, k):
    with pytest.raises(ValueError):
        enumerate_basis(m, N, k)


def test_dimension_cap():
    # C(25,5) = 53130 exceeds the cap
    with pytest.raises(ValueError, match="basis dimension 53130 exceeds cap 50000"):
        enumerate_basis(5, 20)


def test_basis_equality_by_shape():
    a = enumerate_basis(2, 5)
    b = enumerate_basis(2, 5)
    c = enumerate_basis(2, 6)
    assert a == b and hash(a) == hash(b)
    assert a != c


def _ordinals_by_enumeration(m, N, k):
    """(alpha, c) -> ordinal, from the compositions generator in graded-lex order."""
    rows = [(alpha, c) for n in range(N + 1) for alpha in compositions(n, m)
            for c in range(k)]
    return {row: j for j, row in enumerate(rows)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [0, 1, 7])
@pytest.mark.parametrize("k", [1, 3])
def test_rank_matches_enumeration_oracle(m, N, k):
    basis = enumerate_basis(m, N, k)
    ordinal = _ordinals_by_enumeration(m, N, k)
    rows = list(ordinal)
    assert np.array_equal(basis.exponents, np.array([a for a, _ in rows]).reshape(-1, m))
    assert np.array_equal(basis.components, [c for _, c in rows])
    assert np.array_equal(basis.degrees, [sum(a) for a, _ in rows])
    assert np.array_equal(basis.rank(basis.exponents, basis.components),
                          np.arange(basis.dimension))
    # rows in any order rank to their own ordinals
    perm = np.random.default_rng(m * 100 + N * 10 + k).permutation(len(rows))
    shuffled = [rows[j] for j in perm]
    got = basis.rank(np.array([a for a, _ in shuffled]).reshape(-1, m),
                     [c for _, c in shuffled])
    assert np.array_equal(got, [ordinal[row] for row in shuffled])


@pytest.mark.parametrize("alpha,component,message", [
    ((1,), 0, "has 1 exponents, expected 2"),
    ((1, 1, 1), 0, "has 3 exponents, expected 2"),
    ((-1, 2), 0, "negative exponent"),
    ((3, 2), 0, "has degree 5 > max degree 4"),
    ((1, 1), 2, "component 2 out of range"),
    ((1, 1), -1, "component -1 out of range"),
])
def test_rank_rejects_non_elements(alpha, component, message):
    basis = enumerate_basis(2, 4, k=2)
    with pytest.raises(ValueError, match=message):
        basis.rank([alpha], [component])
    # in a batch, the first row that is no basis element is named
    batch = [(0, 0), alpha] if len(alpha) == 2 else [alpha]
    with pytest.raises(ValueError, match=message):
        basis.rank(batch, [0] * (len(batch) - 1) + [component])
