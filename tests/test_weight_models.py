import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import qmc

from shiftlab import (WeightSet, bergman_ball_weights, coordinate_shift,
                      drury_arveson_weights, enumerate_basis, ramp_weights,
                      factorial_delta_weights, family_weights, hardy_ball_weights,
                      schatten_norm)
from shiftlab.weight_models import log_gamma_table

from random_instances import shift_weight


def _alpha_rows(basis):
    for j in range(basis.dimension):
        if basis.components[j] == 0:
            yield j, tuple(int(a) for a in basis.exponents[j])


def test_drury_arveson_multinomial_identity():
    # sum over |alpha| = n of (n!/alpha!) lambda_alpha^2 = C(n+m-1, m-1):
    # the multinomial theorem applied to ||z||^(2n) on the symmetric Fock space
    basis = enumerate_basis(3, 10)
    w = drury_arveson_weights(basis)
    lam2 = w.lam ** 2
    for n in range(basis.max_degree + 1):
        total = 0.0
        for j in basis.degree_slice(n):
            alpha = basis.exponents[j]
            multinom = math.factorial(n) / math.prod(
                math.factorial(int(a)) for a in alpha)
            total += multinom * lam2[j]
        assert total == pytest.approx(math.comb(n + 2, 2), rel=1e-12)


def test_bergman_ball_weights_match_volume_integrals():
    # lambda_alpha^2 = average of |z^alpha|^2 over the unit ball of C^2
    # (normalized volume measure); estimated by quasi-Monte Carlo over the
    # bounding cube with rejection
    basis = enumerate_basis(2, 4)
    w = bergman_ball_weights(basis)
    sob = qmc.Sobol(d=4, seed=5, scramble=True)
    pts = (sob.random(2 ** 18) - 0.5) * 2.0
    z = pts[:, :2] + 1j * pts[:, 2:]
    z = z[np.sum(np.abs(z) ** 2, axis=1) < 1.0]
    for j, alpha in _alpha_rows(basis):
        est = float(np.mean(np.prod(np.abs(z) ** (2 * np.asarray(alpha)), axis=1)))
        assert est == pytest.approx(w.lam[j] ** 2, rel=2e-2)


def test_hardy_ball_weights_match_sphere_integrals(rng):
    # lambda_alpha^2 = average of |z^alpha|^2 over the unit sphere S^3
    basis = enumerate_basis(2, 4)
    w = hardy_ball_weights(basis)
    g = rng.normal(size=(200_000, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    z = g[:, :2] + 1j * g[:, 2:]
    for j, alpha in _alpha_rows(basis):
        est = float(np.mean(np.prod(np.abs(z) ** (2 * np.asarray(alpha)), axis=1)))
        assert est == pytest.approx(w.lam[j] ** 2, rel=2e-2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_forms(m):
    basis = enumerate_basis(m, 6)
    da = drury_arveson_weights(basis)
    berg = bergman_ball_weights(basis)
    hardy = hardy_ball_weights(basis)
    for j, alpha in _alpha_rows(basis):
        n = sum(alpha)
        fact = math.prod(math.factorial(a) for a in alpha)
        assert da.lam[j] ** 2 == pytest.approx(fact / math.factorial(n), rel=1e-12)
        assert berg.lam[j] ** 2 == pytest.approx(
            fact * math.factorial(m) / math.factorial(n + m), rel=1e-12)
        assert hardy.lam[j] ** 2 == pytest.approx(
            fact * math.factorial(m - 1) / math.factorial(n + m - 1), rel=1e-12)


def test_factorial_delta_shift_weight_depends_on_degree_only():
    basis = enumerate_basis(2, 8)
    w = factorial_delta_weights(basis, delta=0.75)
    for alpha in [(0, 0), (1, 2), (4, 1), (0, 6)]:
        n = sum(alpha)
        for i in (1, 2):
            assert shift_weight(w, alpha, i) == pytest.approx(
                (2.0 + n) ** (-0.75), rel=1e-12)


def test_ramp_weight_profile():
    n = 6
    basis = enumerate_basis(1, 20)
    w = ramp_weights(n, basis)
    # shift weight sqrt(k/n) up to k = n, then 1
    ws = [shift_weight(w, (k - 1,), 1) for k in range(1, basis.max_degree + 1)]
    for k, val in enumerate(ws, start=1):
        expected = math.sqrt(k / n) if k <= n else 1.0
        assert val == pytest.approx(expected, rel=1e-12)


def test_family_lookup():
    basis = enumerate_basis(2, 3)
    assert family_weights("drury-arveson", basis).label == "drury-arveson"
    assert family_weights("factorial-delta", basis, 0.5).label.startswith("factorial")
    with pytest.raises(ValueError):
        family_weights("factorial-delta", basis)
    with pytest.raises(ValueError):
        family_weights("no-such-family", basis)


def test_weight_set_validation():
    basis = enumerate_basis(1, 3)
    with pytest.raises(ValueError):
        WeightSet(basis, np.zeros(basis.dimension + 1), "bad")
    with pytest.raises(ValueError):
        WeightSet(basis, np.array([0.0, np.inf, 0.0, 0.0]), "bad")


def test_shifts_bounded_and_contractive():
    # Drury-Arveson shift weights sqrt((alpha_i + 1) / (|alpha| + 1)) are at
    # most 1, reached on z_i^n; weights growing like e^(|alpha| / 2) give
    # every shift weight e^0.5: bounded, but not a contraction
    basis = enumerate_basis(2, 10)
    da = drury_arveson_weights(basis)
    grow = WeightSet(basis, 0.5 * np.asarray(basis.degrees, dtype=float), "growing")
    for i in (1, 2):
        assert schatten_norm(coordinate_shift(da, i), np.inf) == pytest.approx(1.0, rel=1e-12)
        assert schatten_norm(coordinate_shift(grow, i), np.inf) == pytest.approx(
            math.exp(0.5), rel=1e-12)

@pytest.mark.parametrize("m,N,k", [(1, 10, 1), (2, 12, 2), (3, 9, 1), (4, 7, 1), (5, 5, 1)])
def test_ball_families_are_bit_identical_to_scalar_formula(m, N, k):
    # log lambda_alpha = (log alpha! + log c - log (|alpha| + s)!) / 2, one row at a time
    scalar = {drury_arveson_weights: (None, 1),
              bergman_ball_weights: (m + 1, m + 1),
              hardy_ball_weights: (m, m)}
    basis = enumerate_basis(m, N, k)
    for family, (c, s) in scalar.items():
        expected = np.empty(basis.dimension)
        for j in range(basis.dimension):
            alpha, n = basis.exponents[j], int(basis.degrees[j])
            log_fact = float(np.sum(gammaln(alpha + 1)))
            if c is not None:
                log_fact = log_fact + float(gammaln(c))
            expected[j] = 0.5 * (log_fact - float(gammaln(n + s)))
        assert np.array_equal(family(basis).log_lambda, expected), family.__name__


def test_log_gamma_table_is_gammaln_at_the_integers():
    # scipy.special serves only as the oracle: the library never imports it
    table = log_gamma_table(100_001)
    assert table.shape == (100_001,) and table[0] == np.inf
    assert np.array_equal(table[1:], gammaln(np.arange(1, 100_001, dtype=float)))
    assert log_gamma_table(0).size == 0 and np.array_equal(log_gamma_table(3), [np.inf, 0, 0])


@pytest.mark.parametrize("m,N", [(1, 1500), (2, 60), (3, 24), (4, 14)])
def test_log_lambda_is_the_gammaln_formula_bit_for_bit(m, N):
    basis = enumerate_basis(m, N)
    for family, s in ((drury_arveson_weights, 1), (bergman_ball_weights, m + 1),
                      (hardy_ball_weights, m)):
        expected = 0.5 * (gammaln(basis.exponents + 1).sum(axis=1) + float(gammaln(s))
                          - gammaln(basis.degrees + s))
        assert np.array_equal(family(basis).log_lambda, expected), family.__name__
    for delta in (0.25, 1.0, 2.0):
        expected = -delta * gammaln(np.asarray(basis.degrees, dtype=float) + 2.0)
        assert np.array_equal(factorial_delta_weights(basis, delta).log_lambda, expected)
