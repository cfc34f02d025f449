import filecmp
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from shiftlab import (adjoint, bergman_ball_weights, cli, coordinate_shift, enumerate_basis,
                      experiments, monomial_generator, parse_generators, parse_polynomial,
                      schatten, shift_operators as ops, submodules)
from shiftlab.experiments import (TheoremViolationError, run_submodule_probe,
                                  run_trace_inequality_check,
                                  run_direct_sum_trends, run_ramp_block_norms,
                                  run_factorial_thresholds, run_restriction_identity_check,
                                  run_quotient_smoothness_probe, write_report)

from random_instances import traced_peak


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


def _assert_same_verdict(a, b):
    """Verdict dicts equal, but for the increment exponent, which is fitted to
    differences of the norms and moves with their summation order."""
    a, b = dict(a), dict(b)
    ea, eb = a.pop("increment_decay_exponent", None), b.pop("increment_decay_exponent", None)
    assert a == b
    assert (ea is None) == (eb is None)
    if ea is not None:
        assert ea == pytest.approx(eb, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("blocks", [64, 200])
def test_direct_sum_reads_block_spectra_without_svd(blocks, monkeypatch):
    # the ramp commutators are diagonal, so their block spectra are exact: no
    # dense SVD runs.  Each block keeps one sum of sigma^p per p, and every
    # (B, p) value and verdict matches those of the first B spectra put together
    oracle = {}
    for n in range(1, blocks + 1):
        comm, comm_restr = experiments._ramp_block(n, n + 8)
        for label, C in (("full", comm), ("restricted", comm_restr)):
            oracle.setdefault(label, []).append(
                np.linalg.svd(C.window().toarray(), compute_uv=False))

    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD in direct-sum")
    monkeypatch.setattr(schatten, "singular_values", refuse)
    p_values = [1.0, 1.5, 2.0, 3.0, np.inf]
    rep = run_direct_sum_trends(blocks, p_values)
    for label in ("full", "restricted"):
        rows = _rows(rep, f"{label}_norms")
        assert [(B, p) for B, p, _ in rows] == \
            [(B, p) for p in p_values for B in range(1, blocks + 1)]
        for k, p in enumerate(p_values):
            seq = []
            for B, _, value in rows[k * blocks:(k + 1) * blocks]:
                s = np.concatenate(oracle[label][:B])
                seq.append((B, s.max() if p == np.inf else np.sum(s ** p) ** (1 / p)))
                assert value == pytest.approx(seq[-1][1], rel=1e-13)
            verdict, details = schatten.convergence_diagnostic(seq)
            _assert_same_verdict(rep.verdicts[f"{label}_p={experiments._fmt(p)}"],
                                 {"verdict": verdict.value, **details})


def test_submodule_probe_allocates_one_commutator_at_a_time():
    # each commutator's norms and decay fit are taken in one pass before the
    # next is built: the call peaked at 4.42 MB under tracemalloc (6.51 MB
    # holding all six commutators of a side), and at 3.44 MB once the frames
    # were dropped after the restrictions and each commutator stored only its
    # window; what is left at the peak is the six restrictions, one
    # commutator's window and its dense fit window
    gens = [parse_polynomial("z1^2-z2^2", 3)]
    rep, peak = traced_peak(run_submodule_probe, "drury-arveson", 3, 1, gens, [1, 3],
                            [6, 8, 10, 12, 14])
    assert len(_rows(rep, "cross_commutator_norms")) == 2 * 2 * 5 * 6
    assert peak <= 1.25 * 3_435_235


@pytest.mark.parametrize("probe", ["submodule", "factorial", "quotient-graded",
                                   "quotient-ungraded"])
def test_sweeps_hold_at_most_two_commutators(probe, monkeypatch):
    # a sweep reads each commutator and drops it: only the one it reads and
    # the one being built are alive, never a whole side's m(m+1)/2
    refs, alive, real = [], [], ops.commutator

    def tracked(A, B):
        C = real(A, B)
        refs.append(weakref.ref(C))
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return C
    monkeypatch.setattr(ops, "commutator", tracked)
    sweep = [4, 5, 6, 7]
    if probe == "submodule":
        run_submodule_probe("drury-arveson", m=3, k=1, p_values=[1.0], degree_sweep=sweep,
                            generators=[parse_polynomial("z1^2 - z2^2", 3)])
        count = 2 * 6
    elif probe == "factorial":
        run_factorial_thresholds(3, [0.5, 2.0], degree_sweep=sweep)
        count = 2 * 6
    else:
        gen = "z1^2 - z2^2" if probe == "quotient-graded" else "z1 - z2*z3"
        run_quotient_smoothness_probe([parse_polynomial(gen, 3)], m=3, p_values=[1.0],
                                      degree_sweep=sweep)
        count = 4 * 6
    assert len(alive) == count
    assert max(alive) <= 2


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


def test_submodule_probe_refuses_an_oversize_ambient_window_before_any_frame(
        monkeypatch, tmp_path, capsys):
    # the two sides' fit windows add up to the ambient window of degrees <=
    # max(sweep), k C(d + m, m): past 2 DENSE_SVD_LIMIT one side is over the
    # limit, refused before any frame is built (z1^2-z2^2 to degree 40 at
    # m=3 was refused only after both frames, a process of 236 MB)
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was built before the ambient window was checked")
    with monkeypatch.context() as patched:
        patched.setattr(submodules, "submodule", refuse)
        for degrees, ambient in (("10,20,40", 12_341), ("10,20,30,50", 23_426)):
            code = cli.main(["submodule-probe", "--m", "3", "--gens", "z1^2-z2^2",
                             "--degrees", degrees, "--out", str(tmp_path), "--tag", "t"])
            assert code == 2
            assert (f"error: ambient window dimension {ambient} exceeds "
                    f"2*DENSE_SVD_LIMIT=10000") in capsys.readouterr().err
        patched.setattr(schatten, "DENSE_SVD_LIMIT", 17)
        with pytest.raises(ValueError, match="ambient window dimension 36 exceeds "
                                             "2\\*DENSE_SVD_LIMIT=34"):
            run_submodule_probe("drury-arveson", 2, 1, parse_generators("z1*z2", 2), [1.0],
                                [4, 5, 6, 7])
    assert not any(tmp_path.iterdir())
    # the bound is tight: with the ambient window at exactly twice the limit
    # the frames are built, and the exact per-side check refuses the wider side
    monkeypatch.setattr(schatten, "DENSE_SVD_LIMIT", 18)
    with pytest.raises(ValueError, match="^window dimension 21 exceeds DENSE_SVD_LIMIT=18"):
        run_submodule_probe("drury-arveson", 2, 1, parse_generators("z1*z2", 2), [1.0],
                            [4, 5, 6, 7])


@pytest.mark.parametrize("probe", ["submodule", "quotient-graded", "quotient-ungraded"])
def test_sweeps_free_the_frames_columns_before_the_first_commutator(probe, monkeypatch):
    # an operator on a frame keeps its degree labels, not its columns, and
    # the sweeps drop their frames once the operators exist: no frame's
    # columns are alive when the first commutator is built
    columns, alive, real = [], [], ops.commutator

    def tracked(build):
        def wrapper(*args):
            S = build(*args)
            columns.extend(weakref.ref(f.columns) for f in (S.sub, S.comp))
            return S
        return wrapper

    def first(A, B):
        if not alive:
            gc.collect()
            alive.append(sum(ref() is not None for ref in columns))
        return real(A, B)
    monkeypatch.setattr(submodules, "submodule", tracked(submodules.submodule))
    monkeypatch.setattr(ops, "commutator", first)
    if probe == "submodule":
        run_submodule_probe("drury-arveson", 3, 1, [parse_polynomial("z1^2-z2^2", 3)], [1.0],
                            [4, 5, 6])
    else:
        gen = "z1^2 - z2^2" if probe == "quotient-graded" else "z1 - z2*z3"
        experiments._quotient_spectra([parse_polynomial(gen, 3)], 3, 8,
                                      probe == "quotient-graded", "bergman-ball", None)
    assert len(columns) == 2 and alive == [0]


def test_factorial_thresholds_reject_one_variable():
    with pytest.raises(ValueError):
        run_factorial_thresholds(1, [1.0])


def test_identity_check_verdict_fields():
    rep = run_restriction_identity_check(25, seed=3)
    v = rep.verdicts["identity"]
    assert v["passed"] and v["max_residual"] < 1e-10


def test_identity_check_holds_no_r_by_r_array():
    # the decomposition's parts and its residual are degree blocks: the call
    # peaked at 2.78 MB under tracemalloc with dense r x r parts and [Y*,Y],
    # and at 0.92 MB on blocks.  A short run first keeps numpy's one-time
    # set-up (0.75 MB) out of the trace whatever ran before
    run_restriction_identity_check(3, seed=0)
    rep, peak = traced_peak(run_restriction_identity_check, 300, seed=3000)
    assert rep.verdicts["identity"]["passed"]
    assert peak <= 1.25 * 916_034


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
    rep, peak = traced_peak(run_trace_inequality_check, "bergman-ball", m=2,
                            generators=parse_generators("z1;z2", 2), degree_sweep=[80])
    assert [row[4] for row in _rows(rep, "trace_inequality")] == [True, True]
    assert peak < dim * dim * 8 / 4


def test_generator_closure_maps_each_direction_once():
    # each round maps only the directions the last one added: z1^210 at m=1
    # needs 211 rounds and 211 columns through Z1*, not one per column per round
    w = bergman_ball_weights(enumerate_basis(1, 210))
    Zs = adjoint(coordinate_shift(w, 1))

    class Counted:
        columns = 0

        def __matmul__(self, X):
            Counted.columns += X.shape[1]
            return Zs.mat @ X
    v = np.zeros(w.basis.dimension)
    v[210] = 1.0
    Q = experiments._adjoint_closure(Counted(), [v])
    assert Q.shape[1] == 211 and Counted.columns == 211
    assert np.abs(Q.T @ Q - np.eye(211)).max() < 1e-13


def test_generator_closure_runs_until_its_rank_stops_growing():
    # each round adds the next lower power of z1: z1^210 needs 211 rounds,
    # past any small bound on them
    (_, frame), = experiments._nested_frames("bergman-ball", 1, 210, None, None,
                                             parse_generators("z1^210", 1))
    assert frame.dimension == 211
    # a repeated generator starts from a rank below its vector count
    frames = experiments._nested_frames("bergman-ball", 1, 8, None, None,
                                        parse_generators("z1^2;z1^2", 1))
    assert [frame.dimension for _, frame in frames] == [3, 3]


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
        commutators.append(dict(real_commutators(operators)))
        return iter(commutators[-1].items())
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
                # per (degree, pair): a graded commutator's window N, an
                # ungraded one, which has no interior, whole
                expected = [(d,) for d in sweep] * 3
            assert sorted(calls) == sorted(expected)
            if probe == "quotient-ungraded":
                # no dense spectrum: the windows read weighted-degree blocks, and
                # the decay fit counts all r values of the largest degree's
                # commutators, as the dense SVD of each r x r array holds them
                assert dense_calls == []
                largest = max(commutators, key=lambda comms: comms[1, 1].dimension)
                fits = [(i, j, fit.beta, fit.critical_exponent, fit.residual)
                        for (i, j), C in largest.items()
                        if (fit := schatten.decay_exponent_fit(
                            np.linalg.svd(C.mat.toarray(), compute_uv=False)))]
                rows = rep.tables["decay_fits"].rows
                assert [row[:2] for row in rows] == [row[:2] for row in fits]
                assert np.allclose([row[2:] for row in rows], [row[2:] for row in fits],
                                   rtol=1e-10, atol=0)
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
    monkeypatch.setattr(submodules, "submodule", tracked(submodules.submodule))
    rep = run_quotient_smoothness_probe([parse_polynomial(gen, 2)], m=2, p_values=[1.0],
                                        degree_sweep=[4, 6, 8, 10])
    assert [N for N, _ in built[::2]] == [12, 10, 8, 6]     # largest degree first
    assert alive == [[]] * 4
    # the rows are still written in ascending degree order
    assert [row[3] for row in rep.tables["quotient_commutator_norms"].rows] == \
        [d for d in (4, 6, 8, 10) for _ in range(3)]


@pytest.mark.parametrize("gen, builder", [("z1^2 - z2^2", "_homogeneous_submodule"),
                                          ("z1*z2", "_monomial_submodule"),
                                          ("z1 - z2*z3", "_ungraded_submodule")])
def test_quotient_drops_the_submodule_frame_before_compressing(gen, builder, monkeypatch):
    # the quotient reads the complement only: the submodule's frame (29.3 of
    # 33.0 MB of frames for z1-z2*z3 at m=3, N=42) is freed before the first
    # compression, not held through the sweep
    subs, freed = [], []
    real_build, real_compress = getattr(submodules, builder), ops.compress_to_frame

    def build(*args):
        S = real_build(*args)
        subs.append(weakref.ref(S.sub))
        return S

    def compress(T, frame):
        freed.append(subs[-1]() is None)
        return real_compress(T, frame)
    monkeypatch.setattr(submodules, builder, build)
    monkeypatch.setattr(ops, "compress_to_frame", compress)
    experiments._quotient_spectra([parse_polynomial(gen, 3)], 3, 8,
                                  builder != "_ungraded_submodule", "bergman-ball", None)
    assert len(subs) == 1 and freed == [True] * 3


def _kept_commutators(monkeypatch):
    """The commutators of every cross_commutators call, in call order, each
    call's as one dict (which keeps them all alive)."""
    kept, real = [], ops.cross_commutators

    def keep(operators):
        kept.append(dict(real(operators)))
        return iter(kept[-1].items())
    monkeypatch.setattr(ops, "cross_commutators", keep)
    return kept


@pytest.mark.parametrize("N", [8, 12, 14])
def test_ungraded_block_spectra_match_the_dense_svd(N, monkeypatch):
    # the quotient-ungraded-m3 ideal: each commutator's weighted-degree block
    # spectrum, sorted and padded with the zeros it leaves out, is the dense
    # SVD of its r x r array; no dense spectrum is taken
    kept = _kept_commutators(monkeypatch)
    monkeypatch.setattr(schatten, "singular_values", None)
    spectra = experiments._quotient_spectra([parse_polynomial("z1-z2*z3", 3)], 3, N, False,
                                            "bergman-ball", None)
    (comms,) = kept
    assert spectra.keys() == comms.keys()
    for key, C in comms.items():
        dense = np.linalg.svd(C.mat.toarray(), compute_uv=False)
        s = np.sort(spectra[key])[::-1]
        assert s.size <= dense.size
        assert np.abs(np.pad(s, (0, dense.size - s.size)) - dense).max() <= 1e-13 * dense[0]


def _counting_spectrum(r):
    """A synthetic spectrum with exact zeros, not a power law: its decay fit
    depends on the rank window, that is on how many values count."""
    s = np.exp(-np.arange(r) / 10.0)
    s[-r // 4:] = 0.0
    return s


def test_decay_fit_counts_every_value_it_is_given():
    s = _counting_spectrum(200)
    window = s[10:80]      # [0.05 n, 0.4 n] of all n = 200 values
    slope = np.polyfit(np.log(np.arange(11, 81)), np.log(window), 1)[0]
    assert schatten.decay_exponent_fit(s).beta == pytest.approx(-slope, rel=1e-12)
    assert schatten.decay_exponent_fit(s).beta != schatten.decay_exponent_fit(s[s > 0]).beta
    # a window that reaches an exact zero fits nothing
    s[50:] = 0.0
    assert schatten.decay_exponent_fit(s) is None


def _fit_rows(fits):
    return [(i, j, fit.beta, fit.critical_exponent, fit.residual) for (i, j), fit in fits]


def test_graded_callers_fit_the_positive_values(monkeypatch):
    # the submodule probe and the homogeneous quotient drop the zeros of the
    # dense window before fitting
    s = _counting_spectrum(120)
    monkeypatch.setattr(schatten, "singular_values", lambda T, d=None: s)
    expected = schatten.decay_exponent_fit(s[s > 0])
    assert expected != schatten.decay_exponent_fit(s)
    gens = [parse_polynomial("z1^2 - z2^2", 2)]
    rep = run_submodule_probe("drury-arveson", m=2, k=1, generators=gens, p_values=[1.0],
                              degree_sweep=[4, 5, 6, 7])
    assert [row[3:] for row in rep.tables["decay_fits"].rows] == \
        [(expected.beta, expected.critical_exponent, expected.residual)] * 6
    rep = run_quotient_smoothness_probe(gens, m=2, p_values=[1.0], degree_sweep=[4, 5, 6, 7])
    assert rep.tables["decay_fits"].rows == _fit_rows(
        ((i, j), expected) for i, j in ((1, 1), (1, 2), (2, 2)))


def test_ungraded_quotient_fits_all_r_values(monkeypatch):
    # an ungraded fit pads the block spectrum with zeros to r values
    kept = _kept_commutators(monkeypatch)
    widths = []

    def synthetic(W, labels=None):
        widths.append(W.shape[0])
        s = _counting_spectrum(W.shape[0])
        return s[s > 0][::-1], np.zeros(np.count_nonzero(s), np.int64)
    monkeypatch.setattr(schatten, "block_singular_values", synthetic)
    rep = run_quotient_smoothness_probe([parse_polynomial("z1 - z2^2", 2)], m=2,
                                        p_values=[1.0], degree_sweep=[10, 20, 30, 40])
    r = kept[0][1, 1].dimension
    assert widths[:3] == [r] * 3
    expected = schatten.decay_exponent_fit(_counting_spectrum(r))
    assert expected is not None
    assert rep.tables["decay_fits"].rows == _fit_rows(
        ((i, j), expected) for i, j in ((1, 1), (1, 2), (2, 2)))


def _same_to_round_off(a, b, rel=1e-12, zero=1e-12):
    """perfbench/checks.py's float rule: equal to rel relative to the larger
    magnitude, and two values both below zero are round-off around 0."""
    scale = max(abs(a), abs(b))
    return a == b or scale < zero or abs(a - b) <= rel * scale


@pytest.mark.parametrize("family, delta, m, gens", [
    ("drury-arveson", None, 2, "z1^2-z2^2"),
    ("hardy-ball", None, 3, "z1^2-z2^2"),
    ("bergman-ball", None, 3, "z1*z2"),
    ("drury-arveson", None, 3, "z1^2-z2^2;z1*z3"),
    ("bergman-ball", None, 2, "z1^3-2.5*z1*z2^2"),
    ("factorial-delta", 1.5, 2, "z1^2-z2^2"),
])
def test_quotient_and_complement_side_norms_agree(family, delta, m, gens):
    # two code paths to one spectrum: the quotient compresses Z_i to the
    # complement Q of a homogeneous ideal, R_i = Q*Z_iQ, one truncation per
    # degree; the submodule probe restricts Z_i* to it at one truncation,
    # Y_i = Q*Z_i*Q = R_i*.  Then [R_i*, R_j] = -[Y_i*, Y_j]*, so their norm
    # tables agree on every window (the decay fits are left out: they read
    # round-off)
    generators = parse_generators(gens, m)
    sweep, p_values = ([4, 6, 8, 10] if m == 2 else [4, 5, 6, 7]), [1.0, 2.0, np.inf]
    quotient = run_quotient_smoothness_probe(generators, m, p_values, sweep,
                                             family=family, delta=delta)
    probe = run_submodule_probe(family, m, 1, generators, p_values, sweep, delta=delta)
    q = {tuple(row[:4]): row[4] for row in _rows(quotient, "quotient_commutator_norms")}
    c = {tuple(row[1:5]): row[5] for row in _rows(probe, "cross_commutator_norms")
         if row[0] == "complement"}
    assert q.keys() == c.keys() and len(q) == len(sweep) * len(p_values) * m * (m + 1) // 2
    assert max(q.values()) > 0
    assert all(_same_to_round_off(q[key], c[key]) for key in q), \
        max(abs(q[key] - c[key]) / max(abs(q[key]), abs(c[key]), 1e-300) for key in q)
