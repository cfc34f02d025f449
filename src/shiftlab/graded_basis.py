"""Graded monomial bases for C[z_1..z_m] (x) C^k truncated at a total degree.

Basis elements are pairs (multi-index, component).  The ordering is graded
lexicographic: degree-major, lexicographic (leading exponent first) within a
degree, component varying fastest.  Degree slices are therefore contiguous,
which every downstream module relies on.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

DEFAULT_DIMENSION_CAP = 50_000

MultiIndex = tuple  # tuple of non-negative ints, length m


def degree(alpha) -> int:
    """Total degree |alpha| = sum of exponents."""
    return int(sum(alpha))


def compositions(n, m):
    """All m-tuples of non-negative ints summing to n, leading exponent descending."""
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def count_degree_slice(m: int, n: int) -> int:
    """Number of monomials in m variables of total degree exactly n."""
    return comb(n + m - 1, m - 1)


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
    _lookup: dict = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.exponents.shape[0]

    def __eq__(self, other):
        return (isinstance(other, GradedBasis)
                and (self.num_vars, self.max_degree, self.multiplicity)
                == (other.num_vars, other.max_degree, other.multiplicity))

    def __hash__(self):
        return hash((self.num_vars, self.max_degree, self.multiplicity))

    def index_of(self, alpha, component: int = 0) -> int:
        """Ordinal of the basis element (alpha, component)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.num_vars:
            raise ValueError(f"multi-index has {len(alpha)} exponents, expected {self.num_vars}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in multi-index {alpha}")
        if degree(alpha) > self.max_degree:
            raise ValueError(f"multi-index {alpha} has degree {degree(alpha)} > max degree {self.max_degree}")
        if not 0 <= component < self.multiplicity:
            raise ValueError(f"component {component} out of range [0, {self.multiplicity})")
        return self._lookup[(alpha, component)]

    def element_at(self, i: int):
        """Inverse of index_of: returns (multi-index, component)."""
        if not 0 <= i < self.dimension:
            raise ValueError(f"ordinal {i} out of range [0, {self.dimension})")
        return tuple(int(a) for a in self.exponents[i]), int(self.components[i])

    def degree_slice(self, n: int) -> range:
        """Half-open ordinal range of the elements of total degree exactly n."""
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} out of range [0, {self.max_degree}]")
        return range(int(self.slice_bounds[n]), int(self.slice_bounds[n + 1]))

    def contains(self, alpha) -> bool:
        alpha = tuple(int(a) for a in alpha)
        return (len(alpha) == self.num_vars and all(a >= 0 for a in alpha)
                and degree(alpha) <= self.max_degree)


def enumerate_basis(m: int, N: int, k: int = 1,
                    dimension_cap: int = DEFAULT_DIMENSION_CAP) -> GradedBasis:
    """Build the graded basis for m variables, degree <= N, multiplicity k.

    Deterministic: equal (m, N, k) always produce identical orderings.
    """
    if m < 1:
        raise ValueError(f"number of variables must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"max degree must be >= 0, got {N}")
    if k < 1:
        raise ValueError(f"multiplicity must be >= 1, got {k}")
    dim = k * count_up_to_degree(m, N)
    if dim > dimension_cap:
        raise ValueError(
            f"basis dimension {dim} exceeds cap {dimension_cap}; "
            f"raise dimension_cap explicitly if this is intentional")

    exps = np.empty((dim, m), dtype=np.int64)
    comps = np.empty(dim, dtype=np.int64)
    degs = np.empty(dim, dtype=np.int64)
    bounds = np.zeros(N + 2, dtype=np.int64)
    lookup = {}
    i = 0
    for n in range(N + 1):
        bounds[n] = i
        for alpha in compositions(n, m):
            for c in range(k):
                exps[i] = alpha
                comps[i] = c
                degs[i] = n
                lookup[(alpha, c)] = i
                i += 1
    bounds[N + 1] = i
    assert i == dim
    exps.setflags(write=False)
    comps.setflags(write=False)
    degs.setflags(write=False)
    bounds.setflags(write=False)
    return GradedBasis(num_vars=m, max_degree=N, multiplicity=k,
                       exponents=exps, components=comps, degrees=degs,
                       slice_bounds=bounds, _lookup=lookup)
