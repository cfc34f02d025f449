"""Acceptance gate: one test per top-level criterion, each printing a
pass/fail line with the measured quantities."""

import math
import time

import numpy as np
import pytest

from shiftlab import (Verdict, coordinate_shift, decay_exponent_fit,
                      drury_arveson_weights, enumerate_basis, monomial_generator,
                      schatten_norm, self_commutator, singular_values)
from shiftlab.cli import main as cli_main
from shiftlab.experiments import (run_submodule_probe, run_trace_inequality_check,
                                  run_direct_sum_trends, run_ramp_block_norms,
                                  run_factorial_thresholds, run_restriction_identity_check)

from random_instances import random_weight_set


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_restricted_commutator_identity():
    t0 = time.perf_counter()
    rep = run_restriction_identity_check(trials=200, seed=0)
    dt = time.perf_counter() - t0
    v = rep.verdicts["identity"]
    ok = v["passed"] and v["max_residual"] < 1e-10 and dt < 30
    _line("criterion 1 (restriction identity, 200 instances)", ok,
          f"max residual {v['max_residual']:.2e}, {dt:.1f}s")


def test_criterion_2_single_block_exact_norms():
    t0 = time.perf_counter()
    rep = run_ramp_block_norms([1, 5, 25, 100], [1.0, 2.0, 3.0], N=110)
    dt = time.perf_counter() - t0
    cols = rep.tables["norms"].columns
    worst = worst_restr = 0.0
    flagged = True
    for row in rep.tables["norms"].rows:
        r = dict(zip(cols, row))
        n, p = r["n"], r["p"]
        closed = float(n) ** ((1.0 - p) / p)
        worst = max(worst, abs(r["computed"] - closed))
        worst_restr = max(worst_restr, abs(r["restricted_norm"] - 1.0))
        # the stated n^(1-p) must appear alongside, flagged when unmatched
        if p > 1.0 and n > 1 and r["stated_matches"]:
            flagged = False
    ok = worst < 1e-10 and worst_restr < 1e-12 and flagged and dt < 10
    _line("criterion 2 (single-block exact norms)", ok,
          f"closed-form err {worst:.2e}, restricted err {worst_restr:.2e}, {dt:.1f}s")


def test_criterion_3_direct_sum_trends():
    t0 = time.perf_counter()
    rep = run_direct_sum_trends(64, [3.0])
    dt = time.perf_counter() - t0
    full = rep.verdicts["full_p=3.0"]["verdict"]
    restr = rep.verdicts["restricted_p=3.0"]["verdict"]
    worst = max(abs(v - B ** (1.0 / 3.0))
                for B, _, v in rep.tables["restricted_norms"].rows)
    ok = (full == "converging" and restr == "diverging"
          and worst < 1e-12 and dt < 60)
    _line("criterion 3 (direct-sum trends, B=64, p=3)", ok,
          f"full {full}, restricted {restr}, B^(1/3) err {worst:.1e}, {dt:.1f}s")


def test_criterion_4_factorial_family_thresholds():
    t0 = time.perf_counter()
    rep = run_factorial_thresholds(2, [0.25, 1.0, 1.25], degree_sweep=(8, 12, 16, 20, 28, 40))
    dt = time.perf_counter() - t0
    tr_low = rep.verdicts["trace_norm_delta=0.25"]["verdict"]
    tr_mid = rep.verdicts["trace_norm_delta=1.0"]["verdict"]
    hs_high = rep.verdicts["hs_norm_delta=1.25"]["verdict"]
    ok = (tr_mid == "converging" and tr_low != "converging"
          and hs_high == "converging" and dt < 300)
    _line("criterion 4 (factorial-weight thresholds, m=2)", ok,
          f"trace d=1.0 {tr_mid}, trace d=0.25 {tr_low}, "
          f"hs d=1.25 {hs_high}, {dt:.0f}s")


def test_criterion_5_trace_inequality_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    rows = 0
    worst_margin = np.inf
    for trial in range(10):
        family = ["bergman-ball", "hardy-ball", "drury-arveson"][trial % 3]
        pts = []
        while len(pts) < 3:
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
            # keep |z| well below 1 so the truncated kernel tail |z|^N is
            # negligible against the invariance tolerance
            if abs(z) < 0.5 and all(abs(z - q[0]) > 0.05 for q in pts):
                pts.append((z,))
        rep = run_trace_inequality_check(family, m=1, points=pts,
                                    degree_sweep=[30, 40])
        for (_, _, tr_p, c1, holds) in rep.tables["trace_inequality"].rows:
            rows += 1
            assert holds
            worst_margin = min(worst_margin, c1 + 1e-8 - tr_p, tr_p + 1e-8)
    dt = time.perf_counter() - t0
    ok = rows >= 50 and worst_margin >= 0 and dt < 60
    _line("criterion 5 (trace inequality, randomized)", ok,
          f"{rows} instances, worst margin {worst_margin:.2e}, {dt:.1f}s")


def test_criterion_6_critical_schatten_exponent():
    t0 = time.perf_counter()
    basis = enumerate_basis(2, 40)
    w = drury_arveson_weights(basis)
    C = self_commutator(coordinate_shift(w, 1))
    fit = decay_exponent_fit(singular_values(C))
    dt = time.perf_counter() - t0
    ok = fit is not None and 1.7 <= fit.critical_exponent <= 2.3 and dt < 180
    _line("criterion 6 (critical Schatten exponent, m=2)", ok,
          f"critical exponent {fit.critical_exponent:.3f} "
          f"(target [1.7, 2.3]), {dt:.1f}s")


def test_criterion_7_monomial_submodule_probe():
    t0 = time.perf_counter()
    rep = run_submodule_probe("drury-arveson", m=2, k=1,
                            generators=[monomial_generator((1, 1), num_vars=2)],
                            p_values=[3.0])
    dt = time.perf_counter() - t0
    verdict = rep.verdicts["restriction_p=3.0"]["verdict"]
    ok = verdict == "converging" and dt < 180
    _line("criterion 7 (monomial submodule probe)", ok,
          f"restriction verdict {verdict}, {dt:.1f}s")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # Schatten axioms on random matrices
    for _ in range(100):
        n = int(rng.integers(2, 15))
        import scipy.sparse as sp
        from shiftlab.shift_operators import SubspaceFrame, TruncatedOperator
        mk = lambda M: TruncatedOperator(
            SubspaceFrame(np.eye(M.shape[0]), np.zeros(M.shape[0], dtype=np.int64)),
            sp.csr_matrix(M), interior_degree=0, degree_raise=0)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        n1, n2, ninf = (schatten_norm(mk(A), p) for p in (1.0, 2.0, np.inf))
        assert ninf <= n2 * (1 + 1e-12) <= n1 * (1 + 1e-12)
        assert schatten_norm(mk(A + B), 2) <= (
            schatten_norm(mk(A), 2) + schatten_norm(mk(B), 2)) * (1 + 1e-12)
        U = np.linalg.qr(rng.normal(size=(n, n)))[0]
        assert schatten_norm(mk(U @ A), 1) == pytest.approx(n1, rel=1e-10)
        d = rng.normal(size=n)
        assert schatten_norm(mk(np.diag(d)), 1) == pytest.approx(
            np.abs(d).sum(), rel=1e-12)

    # trace-zero of finite commutators
    for _ in range(100):
        m = int(rng.integers(1, 4))
        w = random_weight_set(rng, m, int(rng.integers(3, 7)))
        C = self_commutator(coordinate_shift(w, int(rng.integers(1, m + 1))))
        assert abs(np.trace(C.mat.toarray())) < 1e-12

    # graded basis counts
    for _ in range(100):
        m = int(rng.integers(1, 5))
        N = int(rng.integers(0, 8))
        k = int(rng.integers(1, 4))
        basis = enumerate_basis(m, N, k)
        assert basis.dimension == k * math.comb(N + m, m)

    # projection idempotency
    from shiftlab import monomial_submodule, projection_matrix
    from shiftlab.submodules import Side
    for _ in range(100):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 7))
        w = random_weight_set(rng, m, N)
        alpha = tuple(rng.multinomial(int(rng.integers(0, N + 1)), np.ones(m) / m))
        S = monomial_submodule(w, [monomial_generator(alpha, num_vars=m)])
        P = projection_matrix(S, Side.SUBMODULE)
        assert np.abs(P @ P - P).max(initial=0.0) < 1e-12
        assert np.abs(P - P.conj().T).max(initial=0.0) < 1e-12

    dt = time.perf_counter() - t0
    ok = dt < 60
    _line("criterion 8 (property suites, 4 x 100 instances)", ok, f"{dt:.1f}s")


def test_criterion_9_byte_identical_reports(tmp_path):
    args = ["direct-sum", "--blocks", "8", "--p", "3", "--seed", "5",
            "--out", str(tmp_path)]
    assert cli_main(args + ["--tag", "a"]) == 0
    assert cli_main(args + ["--tag", "b"]) == 0
    da = tmp_path / "direct_sum_trends-a"
    db = tmp_path / "direct_sum_trends-b"
    names = sorted(p.name for p in da.iterdir())
    identical = names == sorted(p.name for p in db.iterdir()) and all(
        (da / n).read_bytes() == (db / n).read_bytes() for n in names)
    _line("criterion 9 (byte-identical reports)", identical,
          f"{len(names)} files compared")
