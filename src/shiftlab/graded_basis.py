"""Graded monomial bases for C[z_1..z_m] (x) C^k truncated at a total degree.

Basis elements are pairs (multi-index, component).  The ordering is graded
lexicographic: degree-major, lexicographic (leading exponent first) within a
degree, component varying fastest.  Degree slices are therefore contiguous,
which every downstream module relies on.  Ordinals are ranks of compositions
in closed form (GradedBasis.rank); no per-monomial table is kept.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

DIMENSION_CAP = 50_000


def count_up_to_degree(m: int, N: int) -> int:
    """Number of monomials in m variables of total degree <= N (stars and bars)."""
    return comb(N + m, m)


@dataclass(frozen=True)
class GradedBasis:
    """Enumerated monomial basis of C[z_1..z_m] (x) C^k up to total degree N."""

    num_vars: int
    max_degree: int
    multiplicity: int
    exponents: np.ndarray = field(repr=False, compare=False)   # (dimension, m) int
    components: np.ndarray = field(repr=False, compare=False)  # (dimension,) int
    degrees: np.ndarray = field(repr=False, compare=False)     # (dimension,) int
    slice_bounds: np.ndarray = field(repr=False, compare=False)  # (N+2,) cumulative

    @property
    def dimension(self) -> int:
        return self.exponents.shape[0]

    @cached_property
    def binomials(self) -> np.ndarray:
        """binomials[b, a] = C(a, b) for b < m, a < N + m - 1: exact
        integers, the table rank reads, built once per basis."""
        m, N = self.num_vars, self.max_degree
        binom = np.array([[comb(a, b) for a in range(N + m - 1)] for b in range(m)],
                         dtype=np.int64)
        binom.setflags(write=False)
        return binom

    def rank(self, exponents, components) -> np.ndarray:
        """Ordinals of the rows (exponents[r], components[r]), in closed form.

        With n = |alpha| and r_t = n - alpha_0 - ... - alpha_{t-1}, the
        ordinal is slice_bounds[n] + k * sum_{t < m-1} C(r_t - alpha_t + m - t - 2,
        m - t - 1) + c: the t-th term counts the compositions of r_t with a
        larger leading exponent.  ValueError names the first non-element row.
        """
        m, N, k = self.num_vars, self.max_degree, self.multiplicity
        exps = np.asarray(exponents, dtype=np.int64)
        comps = np.asarray(components, dtype=np.int64)
        if exps.ndim != 2 or exps.shape[1] != m:
            raise ValueError(f"multi-index has {exps.shape[-1]} exponents, expected {m}")
        # tails[:, t] = alpha_t + ... + alpha_{m-1}; tails[:, 0] is the degree
        tails = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
        bad = (exps < 0).any(axis=1) | (tails[:, 0] > N) | (comps < 0) | (comps >= k)
        if bad.any():
            r = int(np.argmax(bad))
            self._reject(tuple(int(a) for a in exps[r]), int(comps[r]))
        binom = self.binomials
        within = np.zeros(len(exps), dtype=np.int64)
        for t in range(m - 1):
            within += binom[m - t - 1, tails[:, t + 1] + m - t - 2]
        return self.slice_bounds[tails[:, 0]] + k * within + comps

    def _reject(self, alpha, component):
        """Raise the ValueError that says why (alpha, component) is no basis element."""
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in multi-index {alpha}")
        if sum(alpha) > self.max_degree:
            raise ValueError(f"multi-index {alpha} has degree {sum(alpha)} > max degree {self.max_degree}")
        raise ValueError(f"component {component} out of range [0, {self.multiplicity})")

    def degree_slice(self, n: int) -> range:
        """Half-open ordinal range of the elements of total degree exactly n."""
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} out of range [0, {self.max_degree}]")
        return range(int(self.slice_bounds[n]), int(self.slice_bounds[n + 1]))


def enumerate_basis(m: int, N: int, k: int = 1) -> GradedBasis:
    """Build the graded basis for m variables, degree <= N, multiplicity k.

    Deterministic: equal (m, N, k) always produce identical orderings.
    A dimension above DIMENSION_CAP is refused before anything is built.
    """
    if m < 1:
        raise ValueError(f"number of variables must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"max degree must be >= 0, got {N}")
    if k < 1:
        raise ValueError(f"multiplicity must be >= 1, got {k}")
    dim = k * count_up_to_degree(m, N)
    if dim > DIMENSION_CAP:
        raise ValueError(f"basis dimension {dim} exceeds cap {DIMENSION_CAP}; "
                         f"lower --degrees or --m")

    # one variable: slice n is z^n.  Adding a leading variable, slice n lists
    # (n - |beta|, beta) for every beta of the old slices 0..n in order.
    exps = np.arange(N + 1)[:, None]
    degs = np.arange(N + 1)
    bounds = np.arange(N + 2)
    for _ in range(m - 1):
        lengths = bounds[1:]
        ends = np.cumsum(lengths)
        beta = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
        n = np.repeat(np.arange(N + 1), lengths)
        exps = np.column_stack([n - degs[beta], exps[beta]])
        degs = n
        bounds = np.concatenate([[0], ends])
    exps = np.repeat(exps, k, axis=0)
    comps = np.tile(np.arange(k), len(degs))
    degs = np.repeat(degs, k)
    bounds = k * bounds
    assert exps.shape == (dim, m)
    for a in (exps, comps, degs, bounds):
        a.setflags(write=False)
    return GradedBasis(num_vars=m, max_degree=N, multiplicity=k,
                       exponents=exps, components=comps, degrees=degs,
                       slice_bounds=bounds)
