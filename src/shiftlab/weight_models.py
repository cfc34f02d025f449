"""Weight sets defining the Hilbert-module norm of each monomial.

A weight set assigns a positive number lambda_alpha to every multi-index of
the basis; the monomial z^alpha has norm lambda_alpha.  The coordinate shift
Z_i then carries the single matrix entry lambda_{alpha+e_i} / lambda_alpha
from alpha to alpha + e_i.  All built-in families are computed through
log-gamma to avoid factorial overflow, read at positive integers from
log_gamma_table: a port of the Cephes lgam behind scipy.special.gammaln, bit
for bit the same there, so scipy.special is never imported.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graded_basis import GradedBasis

# Cephes lgam: log sqrt(2 pi), and the coefficients of its Stirling series in 1/x^2
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
             -2.77777777730099687205E-3, 8.33333333333331927722E-2)


def log_gamma_table(n: int) -> np.ndarray:
    """log Gamma(k) for k = 0, ..., n - 1 (+inf at the pole k = 0), rounded as
    Cephes lgam rounds it: log of the exact factorial below 13, its Stirling
    series above, with libm's log (math.log).  Cephes' two-term form from 1000
    up gives the same doubles at every integer from 1000 to 2,000,000."""
    x = np.arange(13, max(n, 13), dtype=float)
    p, series = 1.0 / (x * x), 0.0
    for a in _STIRLING:         # Horner in p, as Cephes' polevl
        series = series * p + a
    stirling = (x - 0.5) * np.fromiter(map(math.log, x), float, x.size) - x + _LS2PI + series / x
    exact = [math.inf] + [math.log(math.factorial(k - 1)) for k in range(1, 13)]
    return np.concatenate([exact, stirling])[:n]


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Positive monomial norms lambda_alpha on a graded basis.

    log_lambda is indexed by basis ordinal; it depends only on the
    multi-index, so components of the same alpha share a value.
    """

    basis: GradedBasis
    log_lambda: np.ndarray  # (dimension,)
    label: str

    def __post_init__(self):
        if self.log_lambda.shape != (self.basis.dimension,):
            raise ValueError("log_lambda length does not match basis dimension")
        if not np.all(np.isfinite(self.log_lambda)):
            raise ValueError("non-finite log weight")

    @cached_property
    def lam(self) -> np.ndarray:
        """lambda values per basis ordinal (computed once)."""
        return np.exp(self.log_lambda)


def _ball_weights(basis: GradedBasis, s: int, label: str) -> WeightSet:
    """lambda_alpha^2 = alpha! Gamma(s) / Gamma(|alpha| + s)."""
    lg = log_gamma_table(basis.max_degree + s + 1)
    logw = 0.5 * (lg[basis.exponents + 1].sum(axis=1) + lg[s] - lg[basis.degrees + s])
    return WeightSet(basis, logw, label)


def drury_arveson_weights(basis: GradedBasis) -> WeightSet:
    """Symmetric-Fock normalization: lambda_alpha = sqrt(alpha! / |alpha|!)."""
    return _ball_weights(basis, 1, "drury-arveson")


def bergman_ball_weights(basis: GradedBasis) -> WeightSet:
    """Bergman space of the ball, normalized: lambda_alpha^2 = alpha! m! / (|alpha| + m)!."""
    return _ball_weights(basis, basis.num_vars + 1, "bergman-ball")


def hardy_ball_weights(basis: GradedBasis) -> WeightSet:
    """Hardy space of the sphere, normalized: lambda_alpha^2 = alpha! (m-1)! / (|alpha| + m-1)!."""
    return _ball_weights(basis, basis.num_vars, "hardy-ball")


def factorial_delta_weights(basis: GradedBasis, delta: float) -> WeightSet:
    """lambda_alpha = ((1 + |alpha|)!)^(-delta).

    The shift weight at alpha is then (2 + |alpha|)^(-delta), a function of
    the degree alone.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    logw = -delta * log_gamma_table(basis.max_degree + 3)[basis.degrees + 2]
    return WeightSet(basis, logw, f"factorial-delta({delta})")


def ramp_weights(n: int, basis: GradedBasis) -> WeightSet:
    """One-variable shift with weight sqrt(k/n) on e_k for k <= n, then weight 1.

    e_k is identified with the monomial z^(k-1); lambda_0 = 1 and lambda is
    the running product of the shift weights.
    """
    if basis.num_vars != 1:
        raise ValueError("ramp weights require a single-variable basis")
    if n < 1:
        raise ValueError(f"block parameter n must be >= 1, got {n}")
    k = np.arange(1, basis.max_degree + 1)
    # the weight on e_k is the step z^(k-1) -> z^k
    logw = np.concatenate([[0.0], np.cumsum(np.log(np.where(k <= n, np.sqrt(k / n), 1.0)))])
    vals = logw[np.asarray(basis.degrees)]
    return WeightSet(basis, vals, f"ramp(n={n})")


FAMILIES = {
    "drury-arveson": drury_arveson_weights,
    "bergman-ball": bergman_ball_weights,
    "hardy-ball": hardy_ball_weights,
}
FAMILY_IDS = sorted(FAMILIES) + ["factorial-delta"]


def family_weights(family: str, basis: GradedBasis, delta: float | None = None) -> WeightSet:
    """Look up a built-in family by id; factorial-delta requires delta."""
    if family == "factorial-delta":
        if delta is None:
            raise ValueError("family factorial-delta requires a delta value")
        return factorial_delta_weights(basis, delta)
    try:
        return FAMILIES[family](basis)
    except KeyError:
        raise ValueError(f"unknown weight family {family!r}; "
                         f"known: {FAMILY_IDS}") from None

