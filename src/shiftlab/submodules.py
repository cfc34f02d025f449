"""Submodules of a weighted module from monomial or polynomial generators.

For homogeneous generators the submodule splits degree by degree; each slice
carries an orthonormal basis of the intersection with the homogeneous
polynomials of that degree, plus the complementary orthonormal set.  Graded
frames store these per-slice blocks as one sparse block-diagonal matrix
(monomial submodules: coordinate columns); ungraded frames store a dense
ndarray and no degree labels.  All
vectors are in the orthonormal monomial coordinates (z^alpha scaled by
1/lambda_alpha), so projections and restrictions are plain matrix algebra.
"""

from dataclasses import dataclass
import enum

import numpy as np
import scipy.sparse as sp

from . import schatten
from .polynomials import PolynomialGenerator, monomial_generator
from .shift_operators import SparseColumns, SubspaceFrame
from .weight_models import WeightSet

DEFAULT_RANK_TOL = 1e-10


class Side(enum.Enum):
    SUBMODULE = "submodule"
    COMPLEMENT = "complement"


class RankCollapseError(ValueError):
    """Spanning vectors are numerically dependent beyond the rank tolerance."""

    def __init__(self, message, condition_number):
        self.condition_number = condition_number
        super().__init__(f"{message} (condition number {condition_number:.3e})")


@dataclass(frozen=True, eq=False)
class SubmoduleBasis:
    """Orthonormal bases of a submodule S and its orthocomplement.

    Both frames are graded when the construction is degreewise
    (monomial/homogeneous generators); their degrees then label each
    column with its degree.
    """

    weights: WeightSet
    sub: SubspaceFrame
    comp: SubspaceFrame

    def frame(self, side: Side) -> SubspaceFrame:
        return self.sub if side is Side.SUBMODULE else self.comp


def projection_matrix(S: SubmoduleBasis, side: Side) -> np.ndarray:
    """Orthogonal projection onto the requested side, on the full basis."""
    F = S.frame(side).dense()
    return F @ F.conj().T


def _normalize_monomial_generators(generators, num_vars):
    out = []
    for g in generators:
        if isinstance(g, PolynomialGenerator):
            if len(g.terms) != 1:
                raise ValueError("monomial_submodule requires single-term generators")
            alpha, c, _ = g.terms[0]
            out.append((tuple(alpha), c))
        elif isinstance(g, tuple) and len(g) == 2 and isinstance(g[1], int) \
                and not isinstance(g[0], int):
            out.append((tuple(int(a) for a in g[0]), g[1]))
        else:
            out.append((tuple(int(a) for a in g), 0))
    for alpha, _ in out:
        if len(alpha) != num_vars:
            raise ValueError(f"generator {alpha} has wrong number of exponents")
    return out


def monomial_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Submodule generated by monomials: spanned by all componentwise multiples."""
    b = w.basis
    gens = _normalize_monomial_generators(generators, b.num_vars)
    if not gens:
        raise ValueError("empty generator list")
    member = np.zeros(b.dimension, dtype=bool)
    for alpha, c in gens:
        member |= (b.components == c) & np.all(b.exponents >= alpha, axis=1)

    def coordinate_frame(idx):
        cols = SparseColumns((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                             shape=(b.dimension, idx.size))
        return SubspaceFrame(cols, np.asarray(b.degrees)[idx])

    return SubmoduleBasis(w, coordinate_frame(np.nonzero(member)[0]),
                          coordinate_frame(np.nonzero(~member)[0]))


def multiple_vectors(w: WeightSet, g: PolynomialGenerator, lo: int, hi: int,
                     scaled: bool = True) -> sp.csr_matrix:
    """Columns z^q * g in orthonormal coordinates (coefficients scaled by
    lambda), one per multi-index q with lo <= |q| <= hi, in basis order;
    with scaled=False, the plain coefficient vectors in monomial coordinates.

    A CSR matrix, so that callers densify only the rows they need; real when
    every coefficient of g is real, complex otherwise.
    """
    b = w.basis
    coefs = np.array([complex(coef) for _, _, coef in g.terms])
    if not coefs.imag.any():
        coefs = coefs.real
    alphas = np.array([alpha for alpha, _, _ in g.terms])
    shifts = b.exponents[b.slice_bounds[lo]:b.slice_bounds[max(hi + 1, lo)]:b.multiplicity]
    rows = b.rank((shifts[:, None, :] + alphas).reshape(-1, b.num_vars),
                  np.tile([c for _, c, _ in g.terms], len(shifts)))
    cols = np.repeat(np.arange(len(shifts)), len(alphas))
    vals = np.tile(coefs, len(shifts))
    if scaled:
        vals = vals * w.lam[rows]
    return sp.csr_matrix((vals, (rows, cols)), shape=(b.dimension, len(shifts)))


def _orthonormalize(columns: np.ndarray):
    """SVD orthonormalization with a relative rank decision.

    Returns (orthonormal basis of the column span, orthonormal basis of its
    complement within the columns' coordinate space).
    """
    U, s, _ = np.linalg.svd(columns, full_matrices=True)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return U[:, :rank], U[:, rank:]


def homogeneous_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Submodule generated by homogeneous polynomials, built degree by degree.

    Degree-n slice: orthonormalize { z^q * g : deg g + |q| = n } in the
    lambda-weighted inner product and complete to the full slice.
    """
    b = w.basis
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    for t, g in enumerate(generators):
        if not g.is_homogeneous:
            raise ValueError(f"generator #{t} is not homogeneous")
        if g.num_vars != b.num_vars:
            raise ValueError(f"generator #{t} has {g.num_vars} variables, basis has {b.num_vars}")
    degrees = [g.homogeneous_degree for g in generators]
    blocks = []
    for n in range(b.max_degree + 1):
        sl = b.degree_slice(n)
        span = [multiple_vectors(w, g, n - d, n - d)[sl.start:sl.stop].toarray()
                for g, d in zip(generators, degrees) if d <= n]
        block = np.hstack(span) if span else np.zeros((len(sl), 0))
        blocks.append(_orthonormalize(block))
    sub_blocks, comp_blocks = zip(*blocks)

    def pack(per_slice):
        degs = np.repeat(np.arange(len(per_slice)), [B.shape[1] for B in per_slice])
        return SubspaceFrame(SparseColumns(sp.block_diag(per_slice, format="csc")), degs)

    return SubmoduleBasis(w, pack(sub_blocks), pack(comp_blocks))


def kernel_columns(w: WeightSet, points, components):
    """Truncated evaluation vectors in orthonormal coordinates: conj(z)^beta / lambda_beta."""
    b = w.basis
    cols = []
    for z in points:
        z = tuple(complex(c) for c in z)
        if len(z) != b.num_vars:
            raise ValueError(f"point {z} has wrong dimension, expected {b.num_vars}")
        if sum(abs(c) ** 2 for c in z) >= 1.0:
            raise ValueError(f"point {z} is not inside the open unit ball")
        mono = np.ones(b.dimension, dtype=complex)
        for t in range(b.num_vars):
            mono *= np.conj(z[t]) ** b.exponents[:, t]
        for comp in components:
            v = np.where(b.components == comp, mono / w.lam, 0.0)
            cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def check_distinct_points(s):
    """Reject evaluation vectors, with singular values s in descending order,
    that are numerically dependent: their points nearly coincide."""
    if s[-1] <= DEFAULT_RANK_TOL * s[0]:
        cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        raise RankCollapseError("nearly coincident evaluation points", cond)


def ungraded_submodule(w: WeightSet, generators) -> SubmoduleBasis:
    """Span of { z^q * g : |q| + deg g <= N } for arbitrary generators.

    Used for non-homogeneous ideals; no graded decomposition is claimed.

    The rank is decided on the unscaled coefficient vectors X of the
    multiples, never on lambda-scaled values, whose entries span the whole
    range of the weights.  The multiples of one nonzero polynomial are
    linearly independent, so a principal ideal's rank is its number of
    multiples, C(N - deg g + m, m); with several generators a pivoted QR of
    X keeps the columns above DEFAULT_RANK_TOL * |R_11|.  The kept columns
    are scaled by lambda and orthonormalized by one complete Householder QR
    with the ambient rows sorted by decreasing lambda, which is accurate
    for row-scaled matrices (Cox & Higham, 1998); its first r columns span
    the submodule and the rest its complement.

    The span is I cap P_<=N only for a principal ideal: with several
    generators, a combination of top-degree multiples can cancel into a
    low-degree element of the ideal that no multiple listed here reaches.
    """
    b = w.basis
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    schatten.check_dense_svd_size(b.dimension, "ambient")
    X = sp.hstack([multiple_vectors(w, g, 0, b.max_degree - g.max_degree, scaled=False)
                   for g in generators], format="csc")
    if len(generators) > 1 and X.shape[1]:   # no multiple within degree N: {0}
        import scipy.linalg  # not at module level: the import adds ~5 MB to every run
        R, piv = scipy.linalg.qr(X.toarray(), mode="r", pivoting=True)
        diag = np.abs(np.diag(R))
        del R
        X = X[:, np.sort(piv[:np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0])])]
    order = np.argsort(-w.lam, kind="stable")
    Q = np.linalg.qr((sp.diags(w.lam[order]) @ X[order]).toarray(), mode="complete")[0]
    r = X.shape[1]
    del X
    Q = Q[np.argsort(order)]
    return SubmoduleBasis(w, SubspaceFrame(Q[:, :r]), SubspaceFrame(Q[:, r:]))
