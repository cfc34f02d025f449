"""Canned experiments reproducing the operator-theoretic examples and probes.

Each experiment returns an ExperimentReport: flat parameters, named CSV
tables, and verdicts that carry the diagnostic thresholds they were decided
with.  Reports are byte-stable for a fixed (parameters, seed): wall-clock
runtime is kept on the in-memory report only and never written to disk.
"""

import bisect
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import schatten, shift_operators as ops, submodules, weight_models as wm
from .graded_basis import DIMENSION_CAP, count_up_to_degree, enumerate_basis
from .schatten import Verdict
from .shift_operators import SubspaceFrame, TheoremViolationError

DEFAULT_SWEEP_M2 = (8, 12, 16, 20, 28, 40)
DEFAULT_SWEEP_M3 = (6, 9, 12, 16, 20)

# trace-inequality check: slack on both sides of 0 <= Tr P_n <= ||C_n||_1, and
# the invariance tolerance of the closed subspaces it restricts to
INEQUALITY_SLACK = 1e-8
CLOSURE_INVARIANCE_TOL = 1e-8
# adjoint closure: relative rank cut-off and bound on the closing rounds
CLOSURE_RANK_TOL = 1e-10
CLOSURE_MAX_ROUNDS = 200
# identity check: largest entry of [Y*,Y] - (diagonal + corner) that passes
IDENTITY_RESIDUAL_TOL = 1e-10


@dataclass
class Table:
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *row):
        assert len(row) == len(self.columns)
        self.rows.append(tuple(row))


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    tables: dict = field(default_factory=dict)     # name -> Table
    verdicts: dict = field(default_factory=dict)   # name -> dict
    seed: int = 0
    runtime_seconds: float = 0.0                   # not serialized

    def table(self, name, columns) -> Table:
        t = Table(list(columns))
        self.tables[name] = t
        return t

    def set_verdict(self, name, verdict: Verdict, details: dict):
        self.verdicts[name] = {"verdict": verdict.value, **details}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_report(report: ExperimentReport, outdir) -> Path:
    """Write report.json plus one CSV per table into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, tab in sorted(report.tables.items()):
        lines = [",".join(tab.columns)]
        lines += [",".join(_fmt(x) for x in row) for row in tab.rows]
        (outdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    meta = {
        "name": report.name,
        "parameters": {k: _fmt(v) if not isinstance(v, (list, tuple))
                       else [_fmt(x) for x in v]
                       for k, v in report.parameters.items()},
        "verdicts": report.verdicts,
        "seed": report.seed,
        "tables": sorted(report.tables),
    }
    (outdir / "report.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=_fmt) + "\n")
    return outdir


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.runtime_seconds = time.perf_counter() - t0
        return rep
    return wrapper


def _check_p_values(p_values):
    for p in p_values:
        schatten.check_p(p)


def _ramp_block(n: int, N: int):
    basis = enumerate_basis(1, N)
    w = wm.ramp_weights(n, basis)
    S = ops.coordinate_shift(w, 1)
    comm = ops.self_commutator(S)
    tail = submodules.monomial_submodule(w, [(n - 1,)]).sub
    restricted = ops.restrict_to_invariant(S, tail)
    comm_restr = ops.self_commutator(restricted)
    return comm, comm_restr


@_timed
def run_ramp_block_norms(n_values, p_values, N: int) -> ExperimentReport:
    """Single-block weighted shift: computed vs stated commutator p-norms."""
    _check_p_values(p_values)
    n_values = sorted(int(n) for n in n_values)
    if N <= max(n_values) + 5:
        raise ValueError(f"truncation N={N} too small; need N > max(n) + 5 = {max(n_values) + 5}")
    rep = ExperimentReport("ramp_block_norms", {
        "n_values": n_values, "p_values": list(p_values), "N": N})
    tab = rep.table("norms", ["n", "p", "computed", "closed_form",
                              "stated_value", "stated_matches", "restricted_norm"])
    for n in n_values:
        comm, comm_restr = _ramp_block(n, N)
        for p in p_values:
            computed = schatten.schatten_norm(comm, p)
            closed = float(n) ** ((1.0 - p) / p) if p != np.inf else 1.0 / n
            stated = float(n) ** (1.0 - p) if p != np.inf else None
            restr = schatten.schatten_norm(comm_restr, p)
            matches = stated is not None and abs(computed - stated) <= 1e-10
            tab.add(n, p, computed, closed,
                    stated if stated is not None else "n/a", matches, restr)
    return rep


@_timed
def run_direct_sum_trends(max_blocks: int, p_values) -> ExperimentReport:
    """Partial direct sums of the weighted-shift blocks vs their restrictions."""
    if max_blocks < 8:
        raise ValueError(f"max_blocks must be >= 8, got {max_blocks}")
    _check_p_values(p_values)
    # block n's commutator window holds degrees <= n + 6: refuse the widest
    # before the first SVD
    schatten.check_dense_svd_size(max_blocks + 7)
    rep = ExperimentReport("direct_sum_trends", {
        "max_blocks": max_blocks, "p_values": list(p_values)})

    sigmas_full, sigmas_restr = [], []
    for n in range(1, max_blocks + 1):
        comm, comm_restr = _ramp_block(n, n + 8)
        sigmas_full.append(schatten.singular_values(comm))
        sigmas_restr.append(schatten.singular_values(comm_restr))

    tab_f = rep.table("full_norms", ["B", "p", "value"])
    tab_r = rep.table("restricted_norms", ["B", "p", "value"])
    for p in p_values:
        seq_f, seq_r = [], []
        for B in range(1, max_blocks + 1):
            if p == np.inf:
                vf = max(float(s[0]) if s.size else 0.0 for s in sigmas_full[:B])
                vr = max(float(s[0]) if s.size else 0.0 for s in sigmas_restr[:B])
            else:
                vf = float(sum(np.sum(s ** p) for s in sigmas_full[:B]) ** (1.0 / p))
                vr = float(sum(np.sum(s ** p) for s in sigmas_restr[:B]) ** (1.0 / p))
            tab_f.add(B, p, vf)
            tab_r.add(B, p, vr)
            seq_f.append((B, vf))
            seq_r.append((B, vr))
        for label, seq in (("full", seq_f), ("restricted", seq_r)):
            verdict, details = schatten.convergence_diagnostic(seq)
            rep.set_verdict(f"{label}_p={_fmt(p)}", verdict, details)
    return rep


@_timed
def run_factorial_thresholds(m: int, delta_values, degree_sweep=None) -> ExperimentReport:
    """Factorial weight family: trace-norm and Hilbert-Schmidt trends per delta."""
    if m < 2:
        raise ValueError(f"factorial thresholds require m >= 2, got {m}")
    sweep = schatten.sweep_degrees(
        degree_sweep or (DEFAULT_SWEEP_M2 if m == 2 else DEFAULT_SWEEP_M3))
    N = max(sweep) + 2
    basis = enumerate_basis(m, N)
    rep = ExperimentReport("factorial_thresholds", {
        "m": m, "delta_values": list(delta_values), "degree_sweep": sweep,
        "threshold_1_reductive": (m - 1) / 2, "threshold_s2": m / 2})
    tab = rep.table("cross_commutator_trace_norms", ["delta", "i", "j", "degree", "value"])
    tab_hs = rep.table("shift_hs_norms", ["delta", "i", "degree", "value"])
    summary = rep.table("summary", ["delta", "trace_norm_verdict", "hs_norm_verdict",
                                    "above_1_reductive_threshold", "above_s2_threshold"])
    for delta in delta_values:
        w = wm.factorial_delta_weights(basis, delta)
        shifts = [ops.coordinate_shift(w, i) for i in range(1, m + 1)]
        comms = ops.cross_commutators(shifts)
        tr = {key: schatten.window_norms(C, sweep, [1]) for key, C in comms.items()}
        hs = {i: schatten.window_norms(Z, sweep, [2]) for i, Z in enumerate(shifts, start=1)}
        trend_tr, trend_hs = [], []
        for d in sweep:
            for (i, j), v in sorted(tr.items()):
                tab.add(delta, i, j, d, v[d, 1])
            trend_tr.append((d, max(v[d, 1] for v in tr.values())))
            for i, v in sorted(hs.items()):
                tab_hs.add(delta, i, d, v[d, 2])
            trend_hs.append((d, max(v[d, 2] for v in hs.values())))
        v_tr, det_tr = schatten.convergence_diagnostic(trend_tr)
        v_hs, det_hs = schatten.convergence_diagnostic(trend_hs)
        rep.set_verdict(f"trace_norm_delta={_fmt(delta)}", v_tr, det_tr)
        rep.set_verdict(f"hs_norm_delta={_fmt(delta)}", v_hs, det_hs)
        summary.add(delta, v_tr.value, v_hs.value,
                    delta > (m - 1) / 2, delta > m / 2)
    return rep


def _build_submodule(w, generators):
    if all(len(g.terms) == 1 for g in generators):
        return submodules.monomial_submodule(w, generators)
    return submodules.homogeneous_submodule(w, generators)


@_timed
def run_submodule_probe(family: str, m: int, k: int, generators, p_values,
                      degree_sweep=None, delta: float | None = None) -> ExperimentReport:
    """Cross-commutator trends for restrictions to a graded submodule."""
    _check_p_values(p_values)
    sweep = schatten.sweep_degrees(
        degree_sweep or (DEFAULT_SWEEP_M2 if m == 2 else DEFAULT_SWEEP_M3))
    N = max(sweep) + 2
    basis = enumerate_basis(m, N, k)
    w = wm.family_weights(family, basis, delta)
    generators = list(generators)
    for g in generators:
        if not g.is_homogeneous:
            raise ValueError("submodule probe requires homogeneous or monomial generators")
    S = _build_submodule(w, generators)
    # each side's decay fits read the window of degrees <= max(sweep): refuse
    # an oversize one before any restriction is built
    for frame in (S.sub, S.comp):
        schatten.check_dense_svd_size(int(np.searchsorted(frame.degrees, sweep[-1], "right")))

    rep = ExperimentReport("submodule_probe", {
        "family": family, "m": m, "k": k, "delta": delta,
        "generators": [str(sorted(g.terms)) for g in generators],
        "p_values": list(p_values), "degree_sweep": sweep})

    shifts = [ops.coordinate_shift(w, i) for i in range(1, m + 1)]
    sides = {
        "restriction": [ops.restrict_to_invariant(Z, S.sub) for Z in shifts],
        "complement": [ops.restrict_to_invariant(ops.adjoint(Z), S.comp) for Z in shifts],
    }
    tab = rep.table("cross_commutator_norms", ["side", "i", "j", "p", "degree", "value"])
    fits = rep.table("decay_fits", ["side", "i", "j", "beta", "critical_exponent",
                                    "fit_residual"])
    for side, Ys in sides.items():
        comms = ops.cross_commutators(Ys)
        norms = {key: schatten.window_norms(C, sweep, p_values) for key, C in comms.items()}
        for p in p_values:
            trend = []
            for d in sweep:
                vals = {key: v[d, p] for key, v in norms.items()}
                for (i, j), v in sorted(vals.items()):
                    tab.add(side, i, j, p, d, v)
                trend.append((d, max(vals.values())))
            verdict, details = schatten.convergence_diagnostic(trend)
            rep.set_verdict(f"{side}_p={_fmt(p)}", verdict, details)
        for (i, j), C in comms.items():
            fit = schatten.decay_exponent_fit(schatten.singular_values(C))
            if fit is not None:
                fits.add(side, i, j, fit.beta, fit.critical_exponent, fit.residual)
    return rep


def _adjoint_closure(Tmat, vectors):
    """Close a span under a degree-lowering sparse operator; terminates since
    degree drops.  Tmat stays sparse: its dense form is an ambient square."""
    M = np.column_stack([v / np.linalg.norm(v) for v in vectors])
    for _ in range(CLOSURE_MAX_ROUNDS):
        cand = np.column_stack([M, Tmat @ M])
        U, s, _ = np.linalg.svd(cand, full_matrices=False)
        rank = int(np.count_nonzero(s > CLOSURE_RANK_TOL * s[0]))
        Q = U[:, :rank]
        if rank == M.shape[1]:
            return Q
        M = Q
    raise RuntimeError("adjoint closure did not stabilize")


def _nested_frames(family, m, N, delta, points, generators):
    """(Z_1*, frame) at truncation degree N, the frame spanning the first n
    points' kernel vectors or the adjoint closure of the first n generators,
    for n = 1, 2, ..."""
    w = wm.family_weights(family, enumerate_basis(m, N), delta)
    T = ops.adjoint(ops.coordinate_shift(w, 1))
    if points:
        K = submodules.kernel_columns(w, points, [0])
    else:
        K = np.hstack([submodules.multiple_vectors(w, g, 0, 0).toarray() for g in generators])
    for n in range(1, K.shape[1] + 1):
        if points:
            # kernel vectors are joint eigenvectors of the adjoint shifts:
            # their span is already invariant, no closure needed
            cols, s, _ = np.linalg.svd(K[:, :n], full_matrices=False)
            submodules.check_distinct_points(s)
        else:
            cols = _adjoint_closure(T.mat, list(K[:, :n].T))
        yield T, SubspaceFrame(cols)


def _point_sweep(family, m, points, delta, sweep):
    """The sweep shifted up by the fewest steps k after which the kernel vectors
    truncated at its smallest degree pass the invariance check (their residual
    falls roughly like max|z|^(2N)); k doubles, then bisects."""
    step = sweep[1] - sweep[0]

    def stop(k):    # past the cap, or passing: both stay true as k grows
        N = sweep[0] + k * step
        return count_up_to_degree(m, N) > DIMENSION_CAP or all(
            ops.invariance_residual(T, frame) <= CLOSURE_INVARIANCE_TOL
            for T, frame in _nested_frames(family, m, N, delta, points, None))

    lo, hi = -1, 0      # stop(lo) is false: no shift below 0
    while not stop(hi):
        lo, hi = hi, max(1, 2 * hi)
    hi = bisect.bisect_left(range(hi), True, lo=lo + 1, key=stop)
    sweep = [d + hi * step for d in sweep]
    if count_up_to_degree(m, sweep[0]) > DIMENSION_CAP:
        raise ValueError(f"these points need truncation degree N={sweep[0]} or more, past "
                         f"the basis dimension cap {DIMENSION_CAP}")
    return sweep


@_timed
def run_trace_inequality_check(family: str, m: int, points=None, generators=None,
                          degree_sweep=None, delta: float | None = None) -> ExperimentReport:
    """Trace inequality 0 <= Tr P_n <= ||C_n||_1 along nested invariant subspaces."""
    if (points is None) == (generators is None):
        raise ValueError("provide exactly one of points / generators")
    sweep = schatten.sweep_degrees(degree_sweep or ((24, 32, 40) if m == 1 else (12, 16, 20)))
    if points and not degree_sweep:
        sweep = _point_sweep(family, m, points, delta, sweep)
    rep = ExperimentReport("trace_inequality_check", {
        "family": family, "m": m, "delta": delta,
        "points": [str(p) for p in points] if points else [],
        "generators": [str(sorted(g.terms)) for g in generators] if generators else [],
        "degree_sweep": sweep, "inequality_slack": INEQUALITY_SLACK})
    tab = rep.table("trace_inequality", ["degree", "n", "trace_P", "trace_norm_C", "holds"])
    trend = rep.table("c_norm_trend", ["degree", "value"])

    for N in sweep:
        frames = _nested_frames(family, m, N, delta, points, generators)
        last = None
        for n, (T, frame) in enumerate(frames, start=1):
            try:
                Tn = ops.restrict_to_invariant(T, frame, tol=CLOSURE_INVARIANCE_TOL)
            except ops.InvarianceError as exc:
                if not points:
                    raise
                r = max(np.linalg.norm(np.asarray(z, dtype=complex)) for z in points)
                raise ValueError(
                    f"{exc} at truncation degree N={N}: kernel vectors truncated at "
                    f"degree N are invariant only up to a tail that falls roughly like "
                    f"max|z|^(2N) = {r ** (2 * N):.1e}; try a larger --degrees"
                ) from None
            comm = ops.self_commutator(Tn)
            wit = schatten.ap_witness(comm, p=1)
            tr_p = float(np.real(np.trace(wit.positive_part)))
            c1 = wit.p_norm_of_c
            holds = -INEQUALITY_SLACK <= tr_p <= c1 + INEQUALITY_SLACK
            tab.add(N, n, tr_p, c1, holds)
            if not holds:
                raise TheoremViolationError(
                    f"trace inequality violated at N={N}, n={n}: "
                    f"Tr P = {tr_p!r}, ||C||_1 = {c1!r}")
            last = c1
        trend.add(N, last)
    rep.verdicts["trace_inequality"] = {
        "holds": True, "instances": len(sweep) * len(points or generators),
        "slack": INEQUALITY_SLACK}
    return rep


def _check_coinvariant(shifts, frame):
    """The quotient's frame must be invariant under every adjoint shift; a
    frame that is not is a defect of its builder, not of the input."""
    for i, Z in enumerate(shifts, start=1):
        resid = ops.invariance_residual(ops.adjoint(Z), frame)
        if resid > ops.INVARIANCE_TOL:
            raise TheoremViolationError(
                f"complement frame is not invariant under Z_{i}*: residual "
                f"{resid:.3e} exceeds tolerance {ops.INVARIANCE_TOL:.1e}")


@_timed
def run_quotient_smoothness_probe(generators, m: int, p_values, degree_sweep=None,
                                  variety_dimension=None, family: str = "bergman-ball",
                                  delta: float | None = None) -> ExperimentReport:
    """Quotient-module cross-commutator decay for an ideal's submodule.

    The zero-variety dimension is user-supplied and only echoed in the report.
    For homogeneous ideals the complement frame must be invariant under every
    Z_i* (TheoremViolationError otherwise).  Non-homogeneous ideals are not
    checked: truncating z_i*f at degree N drops its top-degree part, so the
    truncated complement is not Z*-invariant even when the frame is exact.
    """
    if m not in (2, 3):
        raise ValueError(f"quotient probe supports m in {{2, 3}}, got {m}")
    _check_p_values(p_values)
    sweep = schatten.sweep_degrees(
        degree_sweep or (DEFAULT_SWEEP_M2[:4] if m == 2 else DEFAULT_SWEEP_M3[:4]))
    generators = list(generators)
    homogeneous = all(g.is_homogeneous for g in generators)
    rep = ExperimentReport("quotient_smoothness_probe", {
        "family": family, "m": m, "delta": delta,
        "generators": [str(sorted(g.terms)) for g in generators],
        "p_values": list(p_values), "degree_sweep": sweep,
        "homogeneous": homogeneous,
        "variety_dimension_as_supplied":
            variety_dimension if variety_dimension is not None else "not supplied"})
    tab = rep.table("quotient_commutator_norms", ["i", "j", "p", "degree", "value"])
    fits = rep.table("decay_fits", ["i", "j", "beta", "critical_exponent", "fit_residual"])

    # largest degree first: an oversize sweep fails at once, and the fit reads live commutators
    spectra = {N: _quotient_spectra(generators, m, N, homogeneous, family, delta,
                                    fits if N == sweep[-1] else None) for N in reversed(sweep)}
    trends = {p: [] for p in p_values}
    for N in sweep:
        for p in p_values:
            norms = {key: schatten.spectrum_norm(s, p) for key, s in spectra[N].items()}
            for (i, j), norm in norms.items():
                tab.add(i, j, p, N, norm)
            trends[p].append((N, max(norms.values())))
    for p, trend in trends.items():
        verdict, details = schatten.convergence_diagnostic(trend)
        rep.set_verdict(f"quotient_p={_fmt(p)}", verdict, details)
    return rep


def _quotient_spectra(generators, m, N, homogeneous, family, delta, fits=None):
    """{(i, j): spectrum of the window N of [R_i*, R_j]}, R_i the quotient's shifts
    at truncation degree N + 2, adding their decay fits to a given fits table.
    Nothing built for this degree outlives the call."""
    w = wm.family_weights(family, enumerate_basis(m, N + 2), delta)
    S = (_build_submodule if homogeneous else submodules.ungraded_submodule)(w, generators)
    shifts = [ops.coordinate_shift(w, i) for i in range(1, m + 1)]
    if homogeneous:
        _check_coinvariant(shifts, S.comp)
    # quotient-module action = compression of the shifts to the complement
    comms = ops.cross_commutators([ops.compress_to_frame(Z, S.comp) for Z in shifts])
    # a graded window's norms read its block spectra and its fit the dense one;
    # an ungraded commutator is one ndarray whose dense spectrum serves both
    spectra = {key: schatten.window_spectra(C, [N])[N] if homogeneous
               else schatten.singular_values(C) for key, C in comms.items()}
    if fits is None:
        return spectra
    for (i, j), C in comms.items():
        s = schatten.singular_values(C, N) if homogeneous else spectra[i, j]
        fit = schatten.decay_exponent_fit(s)
        if fit is not None:
            fits.add(i, j, fit.beta, fit.critical_exponent, fit.residual)
    return spectra


@_timed
def run_restriction_identity_check(trials: int = 200, seed: int = 0) -> ExperimentReport:
    """Random check of the restricted self-commutator block identity."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    rep = ExperimentReport("restriction_identity_check", {
        "trials": trials, "residual_tol": IDENTITY_RESIDUAL_TOL}, seed=seed)
    tab = rep.table("residuals", ["trial", "m", "N", "residual"])
    worst = 0.0
    for t in range(trials):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(3, 9 if m == 3 else 13))
        basis = enumerate_basis(m, N)
        w = wm.WeightSet(basis, rng.uniform(-0.7, 0.7, basis.dimension), "random")
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        T = ops.shift_combination(w, coeffs)
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            d = int(rng.integers(0, max(1, N // 2) + 1))
            gens.append(tuple(int(x) for x in rng.multinomial(d, np.ones(m) / m)))
        S = submodules.monomial_submodule(w, gens)
        decomp = ops.restricted_commutator_decomposition(T, S.sub)
        Y = decomp.restricted
        lhs = Y.conj().T @ Y
        lhs -= Y @ Y.conj().T
        lhs -= decomp.diagonal_part + decomp.corner_part
        residual = float(np.abs(lhs).max(initial=0.0))
        del decomp, Y, lhs   # dense r x r blocks: free them before the next trial
        tab.add(t, m, N, residual)
        worst = max(worst, residual)
    passed = worst < IDENTITY_RESIDUAL_TOL
    rep.set_verdict("identity", Verdict.CONVERGING if passed else Verdict.INCONCLUSIVE,
                    {"max_residual": worst, "tol": IDENTITY_RESIDUAL_TOL, "passed": passed})
    if not passed:
        raise TheoremViolationError(f"lemma 1 identity residual {worst!r} "
                                    f"exceeds {IDENTITY_RESIDUAL_TOL!r}")
    return rep
