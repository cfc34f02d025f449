import filecmp
import gc
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from shiftlab import (cli, experiments, monomial_generator, parse_generators, parse_polynomial,
                      schatten, shift_operators as ops, submodules)
from shiftlab.experiments import (TheoremViolationError, run_submodule_probe,
                                  run_trace_inequality_check,
                                  run_direct_sum_trends, run_ramp_block_norms,
                                  run_factorial_thresholds, run_restriction_identity_check,
                                  run_quotient_smoothness_probe, write_report)


def _rows(rep, table):
    return rep.tables[table].rows


def test_ramp_block_table_shape_and_flag():
    rep = run_ramp_block_norms([2, 4], [1.0, 2.0], N=30)
    rows = _rows(rep, "norms")
    assert len(rows) == 4
    cols = rep.tables["norms"].columns
    by = {tuple(r[:2]): dict(zip(cols, r)) for r in rows}
    # p = 1: the stated value and the computed closed form coincide (n^0 = 1)
    assert by[(2, 1.0)]["stated_matches"]
    # p = 2: computed 2^(-1/2) differs from the stated 2^(-1)
    assert not by[(2, 2.0)]["stated_matches"]
    assert by[(2, 2.0)]["computed"] == pytest.approx(2 ** -0.5, abs=1e-12)
    assert by[(2, 2.0)]["restricted_norm"] == pytest.approx(1.0, abs=1e-12)


def test_ramp_block_rejects_small_truncation():
    with pytest.raises(ValueError):
        run_ramp_block_norms([10], [1.0], N=12)


def test_direct_sum_requires_enough_blocks():
    with pytest.raises(ValueError):
        run_direct_sum_trends(4, [3.0])


def test_direct_sum_refuses_oversize_blocks_before_any_svd(monkeypatch, tmp_path, capsys):
    # block n's commutator window is n + 7 wide: the widest is refused before
    # the first SVD of any block, by the call and by the CLI (exit 2)
    widths = []
    real = schatten.singular_values

    def counted(*args, **kwargs):
        s = real(*args, **kwargs)
        widths.append(s.size)
        return s
    monkeypatch.setattr(schatten, "singular_values", counted)
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 60)
    with pytest.raises(ValueError, match="window dimension 87 exceeds DENSE_SVD_LIMIT=60"):
        run_direct_sum_trends(80, [3.0])
    code = cli.main(["direct-sum", "--blocks", "80", "--out", str(tmp_path), "--tag", "t"])
    assert code == 2 and "DENSE_SVD_LIMIT=60" in capsys.readouterr().err
    assert widths == [] and not any(tmp_path.iterdir())
    # the bound is tight: at max_blocks + 7 the widest window passes
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 15)
    run_direct_sum_trends(8, [3.0])
    assert max(widths) == 15


def test_submodule_probe_refuses_oversize_fit_window_before_any_restriction(
        monkeypatch, tmp_path, capsys):
    # each side's decay fits read its window of degrees <= max(sweep): 21 wide
    # for z1*z2 at degree 7 (15 on the complement), refused right after the frames
    def refuse(*args, **kwargs):
        raise AssertionError("restriction built before the fit window was checked")
    with monkeypatch.context() as patched:
        patched.setattr(ops, "restrict_to_invariant", refuse)
        patched.setattr(schatten, "DENSE_SVD_LIMIT", 20)
        code = cli.main(["submodule-probe", "--m", "2", "--gens", "z1*z2", "--p", "1,3",
                         "--degrees", "4,5,6,7", "--out", str(tmp_path), "--tag", "t"])
    assert code == 2
    assert "error: window dimension 21 exceeds DENSE_SVD_LIMIT=20" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # the bound is tight: at 21 the widest fit window passes
    widths = []
    real = schatten.singular_values

    def counted(*args, **kwargs):
        s = real(*args, **kwargs)
        widths.append(s.size)
        return s
    monkeypatch.setattr(schatten, "singular_values", counted)
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 21)
    run_submodule_probe("drury-arveson", 2, 1, parse_generators("z1*z2", 2), [1.0],
                        [4, 5, 6, 7])
    assert max(widths) == 21


def test_factorial_thresholds_reject_one_variable():
    with pytest.raises(ValueError):
        run_factorial_thresholds(1, [1.0])


def test_identity_check_verdict_fields():
    rep = run_restriction_identity_check(25, seed=3)
    v = rep.verdicts["identity"]
    assert v["passed"] and v["max_residual"] < 1e-10


def test_trace_inequality_records_rows():
    rep = run_trace_inequality_check("bergman-ball", m=1,
                                points=[(0.4,), (-0.2 + 0.1j,)],
                                degree_sweep=[20, 26])
    rows = _rows(rep, "trace_inequality")
    assert len(rows) == 4  # 2 degrees x 2 nested spans
    for (_, _, tr_p, c1, holds) in rows:
        assert holds and -1e-8 <= tr_p <= c1 + 1e-8


def test_generator_closure_keeps_the_shift_sparse():
    # the adjoint closure multiplies by the sparse Z1*: its dense form at
    # m=2, N=80 (dimension 3,321) would be 88 MB, four times the bound
    dim = math.comb(82, 2)
    tracemalloc.start()
    try:
        rep = run_trace_inequality_check("bergman-ball", m=2,
                                         generators=parse_generators("z1;z2", 2),
                                         degree_sweep=[80])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row[4] for row in _rows(rep, "trace_inequality")] == [True, True]
    assert peak < dim * dim * 8 / 4


def test_trace_inequality_input_validation():
    with pytest.raises(ValueError):
        run_trace_inequality_check("bergman-ball", m=1)
    with pytest.raises(ValueError):
        run_trace_inequality_check("bergman-ball", m=1, points=[(0.1,)],
                              generators=[monomial_generator((1,), num_vars=1)])


def test_quotient_probe_rejects_large_m():
    with pytest.raises(ValueError):
        run_quotient_smoothness_probe([monomial_generator((1, 0, 0, 0), num_vars=4)],
                                      m=4, p_values=[2.0])


def test_submodule_probe_rejects_nonhomogeneous_generator():
    g = parse_polynomial("z1 - 1", num_vars=2)
    with pytest.raises(ValueError):
        run_submodule_probe("bergman-ball", m=2, k=1, generators=[g],
                          p_values=[2.0], degree_sweep=[6, 8, 10, 12])


def test_submodule_probe_homogeneous_generator_runs():
    g = parse_polynomial("z1^2 - z2^2", num_vars=2)
    rep = run_submodule_probe("bergman-ball", m=2, k=1, generators=[g],
                            p_values=[2.0], degree_sweep=[6, 8, 10, 12])
    assert "restriction_p=2.0" in rep.verdicts
    assert "complement_p=2.0" in rep.verdicts


def test_write_report_is_byte_stable(tmp_path):
    a = write_report(run_ramp_block_norms([3], [1.0, 3.0], N=25), tmp_path / "a")
    b = write_report(run_ramp_block_norms([3], [1.0, 3.0], N=25), tmp_path / "b")
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_report_json_has_no_runtime(tmp_path):
    rep = run_ramp_block_norms([2], [1.0], N=20)
    assert rep.runtime_seconds > 0.0
    out = write_report(rep, tmp_path / "r")
    meta = json.loads((out / "report.json").read_text())
    assert "runtime" not in json.dumps(meta)
    assert set(meta) == {"name", "parameters", "verdicts", "seed", "tables"}


def test_csv_floats_roundtrip(tmp_path):
    rep = run_ramp_block_norms([5], [2.0], N=25)
    out = write_report(rep, tmp_path / "r")
    lines = (out / "norms.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["computed"]) == rep.tables["norms"].rows[0][2]


@pytest.mark.parametrize("probe", ["submodule", "factorial", "quotient-graded",
                                   "quotient-ungraded"])
def test_sweeps_take_one_spectrum_per_window(probe, monkeypatch):
    # every (d, p) of a sweep is derived from one spectral pass per operator;
    # the quotient probe builds new operators per degree, one window each
    calls, dense_calls, commutators = [], [], []
    real, real_dense = schatten.window_spectra, schatten.singular_values
    real_commutators = ops.cross_commutators

    def counted(T, degrees, *args, **kwargs):
        calls.append(tuple(degrees))
        return real(T, degrees, *args, **kwargs)

    def counted_dense(T, *args, **kwargs):
        dense_calls.append(T)
        return real_dense(T, *args, **kwargs)

    def kept(operators):
        commutators.append(real_commutators(operators))
        return commutators[-1]
    monkeypatch.setattr(schatten, "window_spectra", counted)
    monkeypatch.setattr(schatten, "singular_values", counted_dense)
    monkeypatch.setattr(ops, "cross_commutators", kept)
    sweeps = [[4, 5, 6, 7], [3, 5, 6, 7, 8, 9]]
    if probe == "quotient-ungraded":
        sweeps.append([10, 20, 30, 40])       # wide enough for decay fits
    for sweep in sweeps:
        for p_values in ([1.0], [1.0, 2.0, 3.0, np.inf]):
            calls.clear()
            dense_calls.clear()
            # three pairs (1,1), (1,2), (2,2) at m=2
            if probe == "submodule":
                run_submodule_probe("drury-arveson", m=2, k=1,
                                    generators=[parse_polynomial("z1^2 - z2^2", 2)],
                                    p_values=p_values, degree_sweep=sweep)
                expected = [tuple(sweep)] * 3 * 2      # per (side, pair)
            elif probe == "factorial":
                # the factorial sweep has fixed p values: 1 and 2
                run_factorial_thresholds(2, [0.5, 2.0], degree_sweep=sweep)
                expected = [tuple(sweep)] * 5 * 2      # per (operator, delta)
            else:
                gen = "z1^2 - z2^2" if probe == "quotient-graded" else "z1 - z2^2"
                rep = run_quotient_smoothness_probe([parse_polynomial(gen, 2)], m=2,
                                                    p_values=p_values, degree_sweep=sweep)
                # per (degree, pair); an ungraded commutator is one ndarray,
                # which takes no block pass
                expected = [(d,) for d in sweep] * 3 if probe == "quotient-graded" else []
            assert sorted(calls) == sorted(expected)
            if probe == "quotient-ungraded":
                # one dense spectrum per window: the decay fit reuses the largest
                # degree's, which is singular_values itself on ungraded windows
                assert len(dense_calls) == len(sweep) * 3
                largest = max(commutators, key=lambda comms: comms[1, 1].shape[0])
                fits = [(i, j, fit.beta, fit.critical_exponent, fit.residual)
                        for (i, j), C in largest.items()
                        if (fit := schatten.decay_exponent_fit(real_dense(C, sweep[-1])))]
                assert rep.tables["decay_fits"].rows == fits
                assert fits or sweep[-1] < 40      # the short sweeps fit nothing


@pytest.mark.parametrize("gen", ["z1-z2^2", "z1^2-z2^2"])
def test_quotient_sweep_holds_one_degree_at_a_time(gen, monkeypatch):
    # when a degree's submodule is built, every frame of the degrees before
    # it is already freed: only their spectra are carried
    built, alive = [], []

    def tracked(build):
        def wrapper(w, generators):
            gc.collect()
            alive.append([N for N, ref in built if ref() is not None])
            S = build(w, generators)
            built.extend((w.basis.max_degree, weakref.ref(f)) for f in (S.sub, S.comp))
            return S
        return wrapper
    monkeypatch.setattr(experiments, "_build_submodule", tracked(experiments._build_submodule))
    monkeypatch.setattr(submodules, "ungraded_submodule", tracked(submodules.ungraded_submodule))
    rep = run_quotient_smoothness_probe([parse_polynomial(gen, 2)], m=2, p_values=[1.0],
                                        degree_sweep=[4, 6, 8, 10])
    assert [N for N, _ in built[::2]] == [12, 10, 8, 6]     # largest degree first
    assert alive == [[]] * 4
    # the rows are still written in ascending degree order
    assert [row[3] for row in rep.tables["quotient_commutator_norms"].rows] == \
        [d for d in (4, 6, 8, 10) for _ in range(3)]
