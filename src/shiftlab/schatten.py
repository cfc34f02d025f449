"""Singular values, Schatten norms, spectral splits and convergence verdicts.

Everything here reads an operator's interior window (TruncatedOperator.window),
optionally cut to degrees <= d.  Graded windows go block by degree block
(shift_operators.block_singular_values), and a sweep of nested windows takes
one pass over the widest: window d keeps the block values labelled <= d.
window_norms derives every (d, p) norm of a sweep from those spectra.  An
operator on an ungraded space is a plain r x r ndarray with no boundary
strip: it is its own window, and singular_values and ap_witness take it whole.

singular_values is the full dense spectrum of a window.  It refuses windows
wider than DENSE_SVD_LIMIT before densifying; there is no sparse-iteration
fallback.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .shift_operators import TruncatedOperator, block_singular_values

DENSE_SVD_LIMIT = 5_000
# ap_witness: largest |M - M*| entry, relative to the largest |M| entry (or 1)
SELF_ADJOINT_TOL = 1e-10
# decay_exponent_fit: rank window [FIT_START*n, FIT_STOP*n] of the n nonzero
# singular values, and the fewest values it fits
FIT_START, FIT_STOP, MIN_TAIL = 0.05, 0.4, 20
# convergence_diagnostic, reported with every verdict: tail relative increments
# below STALL_REL converge, increments decaying faster than a power-law exponent
# SUMMABLE_EXPONENT are summable, and growth by DOUBLING_FACTOR without that diverges
STALL_REL, SUMMABLE_EXPONENT, DOUBLING_FACTOR = 1e-3, 1.3, 2.0


class Verdict(enum.Enum):
    CONVERGING = "converging"
    DIVERGING = "diverging"
    INCONCLUSIVE = "inconclusive"


@dataclass
class DecayFit:
    """Least-squares power-law fit sigma_k ~ k^(-beta) over a tail window."""

    beta: float
    residual: float
    critical_exponent: float
    window: tuple  # (first k, last k), 1-based


def check_dense_svd_size(n: int, what: str = "window"):
    """Refuse a dense SVD n wide above DENSE_SVD_LIMIT, before anything is allocated."""
    if n > DENSE_SVD_LIMIT:
        raise ValueError(f"{what} dimension {n} exceeds DENSE_SVD_LIMIT={DENSE_SVD_LIMIT}; "
                         f"refusing a dense SVD of that size")


def _check_finite(M: np.ndarray):
    if not np.all(np.isfinite(M)):
        raise ValueError("operator has non-finite entries")


def singular_values(T, max_window_degree=None) -> np.ndarray:
    """Descending singular values of the interior window, by dense SVD; an
    ndarray is its own window."""
    W = T if isinstance(T, np.ndarray) else T.window(max_window_degree)
    check_dense_svd_size(W.shape[0])
    M = W if isinstance(W, np.ndarray) else W.toarray()
    _check_finite(M)
    if min(M.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def window_spectra(T: TruncatedOperator, degrees) -> dict:
    """{d: singular values of the interior window d} for every d of degrees,
    in no fixed order and up to zeros, from one block pass.

    Graded windows take the blocks of the widest window once
    (shift_operators.block_singular_values, which refuses an operator mixing
    degree offsets) and are never densified whole; window d keeps the values
    labelled <= d, which are exactly its own blocks' values in the same
    order.  A degree None stands for the whole interior window.
    """
    degrees = list(degrees)
    W = T.window(None if None in degrees else max(degrees))
    s, labels = block_singular_values(W, np.asarray(T.space.degrees)[:W.shape[0]])
    return {d: s if d is None else s[labels <= d] for d in degrees}


def check_p(p):
    """Reject p < 1 and NaN: (sum sigma_k^p)^(1/p) is a norm only for p >= 1."""
    if not p >= 1:
        raise ValueError(f"Schatten p-norm requires p >= 1, got {p}")


def spectrum_norm(s: np.ndarray, p: float) -> float:
    """(sum s_k^p)^(1/p) of a spectrum; p = inf gives its largest value."""
    check_p(p)
    if s.size == 0:
        return 0.0
    if p == np.inf:
        return float(s.max())
    return float(np.sum(s ** p) ** (1.0 / p))


def window_norms(T: TruncatedOperator, degrees, p_values) -> dict:
    """{(d, p): Schatten p-norm of T's interior window d}, from one spectral pass."""
    return {(d, p): spectrum_norm(s, p)
            for d, s in window_spectra(T, degrees).items() for p in p_values}


def schatten_norm(T: TruncatedOperator, p: float, max_window_degree=None) -> float:
    """(sum sigma_k^p)^(1/p) of the interior window; p = inf gives its operator norm."""
    return window_norms(T, [max_window_degree], [p])[max_window_degree, p]


@dataclass(frozen=True, eq=False)
class ApWitness:
    """Spectral split [T*,T] = P + C with P >= 0 and C <= 0.

    This is one canonical witness; minimality of ||C||_p over all admissible
    splits is not claimed.
    """

    positive_part: np.ndarray
    compact_part: np.ndarray
    p: float
    p_norm_of_c: float


def ap_witness(M: np.ndarray, p: float) -> ApWitness:
    """Split a self-adjoint commutator, an ungraded space's r x r ndarray,
    into positive and negative spectral parts."""
    _check_finite(M)
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if np.abs(M - M.conj().T).max(initial=0.0) > SELF_ADJOINT_TOL * scale:
        raise ValueError("ap_witness requires a self-adjoint input")
    M = (M + M.conj().T) / 2
    vals, vecs = np.linalg.eigh(M)
    pos = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.conj().T
    neg = vecs @ np.diag(np.minimum(vals, 0.0)) @ vecs.conj().T
    return ApWitness(pos, neg, p, spectrum_norm(np.abs(np.minimum(vals, 0.0)), p))


def decay_exponent_fit(sigma) -> DecayFit | None:
    """Fit log sigma_k vs log k over a central rank window; None when too short.

    The window [FIT_START*n, FIT_STOP*n] skips the non-asymptotic head and,
    crucially, the deep tail: in a finite section the smallest singular
    values are truncation artifacts that decay far faster than the operator's
    true spectrum (calibrated on the m-shift cross-commutator, where the
    deep-tail slope is ~-3.5 against a true -0.5).
    """
    s = np.asarray(sigma, dtype=float)
    s = s[s > 0]
    n = s.size
    k0 = max(0, int(np.floor(n * FIT_START)))
    k1 = max(k0, int(np.ceil(n * FIT_STOP)))
    tail = s[k0:k1]
    if tail.size < MIN_TAIL:
        return None
    ks = np.arange(k0 + 1, k1 + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(ks), np.log(tail), 1)
    fit = slope * np.log(ks) + intercept
    residual = float(np.sqrt(np.mean((np.log(tail) - fit) ** 2)))
    beta = -float(slope)
    critical = 1.0 / beta if beta > 0 else np.inf
    return DecayFit(beta=beta, residual=residual, critical_exponent=critical,
                    window=(k0 + 1, k1))


def sweep_degrees(degrees) -> list:
    """The sorted truncation degrees of a sweep; a negative or repeated degree
    is a usage error (a repeat would be a zero gap in the trend)."""
    sweep = sorted(degrees)
    if sweep[0] < 0:
        raise ValueError(f"sweep degree {sweep[0]} is negative")
    for a, b in zip(sweep, sweep[1:]):
        if a == b:
            raise ValueError(f"sweep degree {a} is repeated")
    return sweep


def convergence_diagnostic(values_by_degree):
    """Heuristic trend verdict over truncation degrees.

    Returns (verdict, details); details records the thresholds used and the
    fitted increment decay, so reports can cite them.
    """
    pts = sorted((float(d), float(v)) for d, v in values_by_degree)
    thresholds = {"stall_rel": STALL_REL, "summable_exponent": SUMMABLE_EXPONENT,
                  "doubling_factor": DOUBLING_FACTOR}
    details = {"thresholds": thresholds, "points": len(pts)}
    if len(pts) < 4:
        details["reason"] = "fewer than 4 degrees"
        return Verdict.INCONCLUSIVE, details

    degs = np.array([d for d, _ in pts])
    vals = np.array([v for _, v in pts])
    incs = np.diff(vals)
    scale = np.maximum(np.abs(vals[1:]), 1e-300)
    rel = np.abs(incs) / scale

    q = max(1, len(rel) // 4)
    if np.all(rel[-q:] < STALL_REL):
        details["reason"] = "tail relative increments stalled"
        return Verdict.CONVERGING, details

    # power-law fit of the per-degree increment rate over the tail half;
    # dividing by the gap makes non-uniform sweeps comparable
    half = max(3, len(incs) // 2)
    gaps = np.diff(degs)
    tail_inc = (incs / gaps)[-half:]
    tail_mid = (degs[1:] * 0.5 + degs[:-1] * 0.5)[-half:]
    if np.all(tail_inc <= 0):
        details["reason"] = "tail non-increasing"
        return Verdict.CONVERGING, details
    pos = tail_inc > 0
    if np.count_nonzero(pos) >= 3:
        slope, _ = np.polyfit(np.log(tail_mid[pos]), np.log(tail_inc[pos]), 1)
        s_fit = -float(slope)
        details["increment_decay_exponent"] = s_fit
        if s_fit >= SUMMABLE_EXPONENT:
            details["reason"] = "increments decay at a summable rate"
            return Verdict.CONVERGING, details

    if vals[0] > 0 and vals[-1] / vals[0] >= DOUBLING_FACTOR:
        details["reason"] = "non-summable increments and overall growth"
        return Verdict.DIVERGING, details
    details["reason"] = "no clear trend"
    return Verdict.INCONCLUSIVE, details
