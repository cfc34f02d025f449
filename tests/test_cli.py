import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab
from shiftlab import experiments as xp, submodules
from shiftlab.cli import (GLOBAL_KEYS, SCHEMAS, ConfigError, build_config,
                          load_config_file, main, parse_args)


def run_cli(args, tmp_path, tag="t"):
    return main(list(args) + ["--out", str(tmp_path), "--tag", tag])


def test_ramp_block_end_to_end(tmp_path, capsys):
    code = run_cli(["ramp-block", "--n", "1,3", "--p", "1,2", "--N", "30"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    # the run's wall time is printed, never written to the report
    assert re.match(rf"ramp_block_norms: report written to {re.escape(str(tmp_path))}\S+ "
                    r"\(\d+\.\d\ds\)\n", out)
    rep_dir = tmp_path / "ramp_block_norms-t"
    assert (rep_dir / "report.json").exists()
    assert (rep_dir / "norms.csv").exists()


def test_reports_are_reproducible(tmp_path):
    run_cli(["identity-check", "--trials", "10", "--seed", "4"], tmp_path, tag="a")
    run_cli(["identity-check", "--trials", "10", "--seed", "4"], tmp_path, tag="b")
    da, db = tmp_path / "restriction_identity_check-a", tmp_path / "restriction_identity_check-b"
    # the tag only names the directory; contents must be byte-identical
    names = sorted(p.name for p in da.iterdir())
    assert names == sorted(p.name for p in db.iterdir())
    for name in names:
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_list_families(capsys):
    assert main(["list-families"]) == 0
    out = capsys.readouterr().out.split()
    assert "drury-arveson" in out and "factorial-delta" in out


def test_missing_required_option_is_usage_error(capsys):
    assert main(["factorial-family"]) == 2
    assert "missing required option --m" in capsys.readouterr().err


def test_bad_polynomial_is_usage_error(tmp_path, capsys):
    code = run_cli(["submodule-probe", "--m", "2", "--gens", "z1*+"], tmp_path)
    assert code == 2
    assert "position" in capsys.readouterr().err


def test_bad_value_is_usage_error(tmp_path, capsys):
    # truncation too small for the requested blocks
    code = run_cli(["ramp-block", "--n", "50", "--N", "20"], tmp_path)
    assert code == 2


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1,3\np = 1.0,2.0\nN = 30  # comment\nseed = 7\n")
    config = parse_args(["ramp-block", "--config", str(cfg)])
    assert config.params["n"] == [1, 3]
    assert config.params["p"] == [1.0, 2.0]
    assert config.params["N"] == 30
    assert config.seed == 7


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 30\n")
    config = parse_args(["ramp-block", "--config", str(cfg), "--N", "40"])
    assert config.params["N"] == 40


# one non-default value per option kind, as typed on a command line or in a config file
SAMPLE_VALUES = {"int": "3", "float": "0.5", "str": "z1*z2", "family": "hardy-ball",
                 "int_list": "4,6", "float_list": "1.5,2", "points": "0.1,0.2;0.3,-0.1j"}


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_every_flag_matches_its_config_key(experiment, tmp_path):
    options = {**SCHEMAS[experiment][1], **GLOBAL_KEYS}
    values = {key: SAMPLE_VALUES[kind] for key, (kind, *_) in options.items()}
    flags = [arg for key, v in values.items() for arg in (f"--{key}", v)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {v}\n" for key, v in values.items()))
    from_flags = parse_args([experiment] + flags)
    assert from_flags == parse_args([experiment, "--config", str(cfg)])
    given = {**from_flags.params, **{key: getattr(from_flags, key) for key in GLOBAL_KEYS}}
    for key, (_, default, *_) in options.items():
        assert given[key] != default, key


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("bogus", "threads"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError):
            parse_args(["ramp-block", "--config", str(cfg)])
        assert main(["ramp-block", "--config", str(cfg)]) == 2
        assert f"unknown config keys for ramp-block: ['{key}']" in capsys.readouterr().err


def test_threads_flag_is_usage_error(tmp_path):
    # the sweeps are sequential; there is no --threads flag
    src = str(Path(shiftlab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "ramp-block",
                           "--threads", "2", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "--threads" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError) as exc:
        load_config_file(str(cfg))
    assert ":1:" in str(exc.value)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-experiment"])
    assert exc.value.code == 2


def test_points_parsing(tmp_path):
    config = parse_args(["trace-inequality", "--m", "2",
                         "--points", "0.1,0.2; 0.3j,0.1"])
    assert config.params["points"] == [(0.1 + 0j, 0.2 + 0j), (0.3j, 0.1 + 0j)]


def test_verdicts_printed_in_summary(tmp_path, capsys):
    code = run_cli(["direct-sum", "--blocks", "8", "--p", "3"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict" in out and "DIVERGING" in out


def test_direct_sum_refuses_blocks_past_the_cap_before_any_block(tmp_path, capsys,
                                                                 monkeypatch):
    # block n's basis has n + 9 monomials, so the last block of --blocks 49992
    # is past the cap; that is refused before the first block is built
    def refuse(*args, **kwargs):
        raise AssertionError("block built before --blocks was checked")
    monkeypatch.setattr(xp, "enumerate_basis", refuse)
    assert run_cli(["direct-sum", "--blocks", "49992", "--p", "3"], tmp_path) == 2
    err = capsys.readouterr().err
    assert f"error: --blocks 49992 needs a basis of dimension 50001, past the basis " \
           f"dimension cap {xp.DIMENSION_CAP}" in err
    assert not any(tmp_path.iterdir())
    with pytest.raises(AssertionError, match="block built"):
        xp.run_direct_sum_trends(49991, [3.0])      # the largest accepted


@pytest.mark.parametrize("argv", [
    ["ramp-block"],
    ["direct-sum"],
    ["submodule-probe", "--m", "2", "--gens", "z1*z2", "--degrees", "4,5,6,7"],
    ["quotient-probe", "--m", "2", "--gens", "z1-z2^2", "--degrees", "4,5,6,7"],
])
@pytest.mark.parametrize("p", ["0.5", "nan", "1,0.99"])
def test_bad_p_is_usage_error_before_any_work(argv, p, tmp_path, capsys, monkeypatch):
    # (sum sigma^p)^(1/p) is a Schatten norm only for p >= 1
    def refuse(*args, **kwargs):
        raise AssertionError("basis built before p was checked")
    monkeypatch.setattr(xp, "enumerate_basis", refuse)
    assert run_cli(argv + ["--p", p], tmp_path) == 2
    assert "error: Schatten p-norm requires p >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["factorial-family", "--m", "2", "--delta", "1", "--degrees=-2,3"],
    ["submodule-probe", "--m", "2", "--gens", "z1", "--degrees=-2,3"],
    ["quotient-probe", "--m", "2", "--gens", "z1-z2", "--degrees=-2,3"],
    ["trace-inequality", "--m", "1", "--points", "0.3", "--degrees=-2,3"],
])
def test_negative_sweep_degree_is_usage_error(argv, tmp_path, capsys):
    assert run_cli(argv, tmp_path) == 2
    assert "error: sweep degree -2 is negative" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["factorial-family", "--m", "2", "--delta", "1.0"],
    ["submodule-probe", "--m", "2", "--gens", "z1^2-z2^2"],
    ["quotient-probe", "--m", "2", "--gens", "z1-z2"],
    ["trace-inequality", "--m", "1", "--points", "0.3"],
])
def test_repeated_sweep_degree_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # a repeat would duplicate table rows and put a zero gap into the trend
    def refuse(*args, **kwargs):
        raise AssertionError("basis built before the sweep was checked")
    monkeypatch.setattr(xp, "enumerate_basis", refuse)
    assert run_cli(argv + ["--degrees", "8,8,12,16"], tmp_path) == 2
    assert "error: sweep degree 8 is repeated" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flag", [
    (["ramp-block", "--n", ","], "n"),
    (["ramp-block", "--p", ","], "p"),
    (["direct-sum", "--p", ","], "p"),
    (["factorial-family", "--m", "2", "--delta", ","], "delta"),
    (["submodule-probe", "--m", "2", "--gens", "z1*z2", "--p", ","], "p"),
    (["quotient-probe", "--m", "2", "--gens", "z1-z2", "--p", ","], "p"),
    (["ramp-block", "--config", "{config}"], "p"),
])
def test_empty_list_is_usage_error_before_any_work(argv, flag, tmp_path, capsys, monkeypatch):
    # an empty list would write a report with empty tables; only --degrees
    # (and --points) read an empty list as their default
    def refuse(*args, **kwargs):
        raise AssertionError("basis built before the lists were checked")
    monkeypatch.setattr(xp, "enumerate_basis", refuse)
    config = tmp_path / "empty.cfg"
    config.write_text("p = ,\n")
    out = tmp_path / "out"
    assert run_cli([a.format(config=config) for a in argv], out) == 2
    assert f"error: empty list for --{flag} of {argv[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,value,flag", [
    (["ramp-block", "--n", "5,5", "--p", "1", "--N", "12"], "5", "n"),
    (["direct-sum", "--p", "1,3,inf,3"], "3.0", "p"),
    (["factorial-family", "--m", "2", "--delta", "1,1"], "1.0", "delta"),
    (["submodule-probe", "--m", "2", "--gens", "z1*z2", "--p", "3,3",
      "--degrees", "4,5,6,7"], "3.0", "p"),
    (["quotient-probe", "--m", "2", "--gens", "z1-z2", "--p", "inf,inf"], "inf", "p"),
    (["ramp-block", "--config", "{config}"], "2.0", "p"),
])
def test_repeated_list_value_is_usage_error_before_any_work(argv, value, flag, tmp_path,
                                                           capsys, monkeypatch):
    # a repeat would write its table rows twice, as a repeated --degrees would
    def refuse(*args, **kwargs):
        raise AssertionError("basis built before the lists were checked")
    monkeypatch.setattr(xp, "enumerate_basis", refuse)
    config = tmp_path / "repeated.cfg"
    config.write_text("p = 2,1,2\n")
    out = tmp_path / "out"
    assert run_cli([a.format(config=config) for a in argv], out) == 2
    assert (f"error: repeated value {value} in --{flag} of {argv[0]}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_empty_degrees_is_the_default_sweep():
    cfg = parse_args(["submodule-probe", "--m", "2", "--gens", "z1", "--degrees", ","])
    assert cfg.params["degrees"] == []


def test_quotient_probe_rejects_non_coinvariant_complement(tmp_path, capsys):
    # at degree 60 the homogeneous frame of z1^2-z2^2 has lost exactness: a
    # defect of the frame builder, so exit 1, not wrong numbers with exit 0
    code = run_cli(["quotient-probe", "--m", "2", "--gens", "z1^2-z2^2", "--p", "1,3",
                    "--degrees", "60"], tmp_path)
    assert code == 1
    assert "complement frame is not invariant under Z_" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_submodule_probe_rejects_non_invariant_frame(tmp_path, capsys):
    # the same frame defect in the submodule probe is a theorem failure too:
    # truncated at degree 72, the sub frame of z1-z2 is off by 0.75 under Z_1
    code = run_cli(["submodule-probe", "--m", "2", "--family", "drury-arveson",
                    "--gens", "z1-z2", "--p", "1", "--degrees", "40,50,60,70"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "THEOREM CHECK FAILED: restriction frame is not invariant under Z_1: " \
           "invariance residual" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("gens,degrees,reason", [
    ("z1-z2^2", "40,60,3000", "basis dimension 4510506 exceeds cap 50000"),
    ("z1^2-z2^2", "40,60,3000", "basis dimension 4510506 exceeds cap 50000"),
    # with no positive weight the frames fill an ambient square
    ("z1-z2^2-z2^3", "4,6,100", "ambient dimension 5356 exceeds DENSE_SVD_LIMIT=5000"),
])
def test_oversize_quotient_sweep_is_refused_before_any_submodule(gens, degrees, reason,
                                                                tmp_path, capsys, monkeypatch):
    # the sweep runs from its largest degree down: the smaller ones never run
    def refuse(*args, **kwargs):
        raise AssertionError("submodule built before the largest degree was refused")
    monkeypatch.setattr(submodules, "multiple_vectors", refuse)
    monkeypatch.setattr(submodules, "SubmoduleBasis", refuse)
    assert run_cli(["quotient-probe", "--m", "2", "--gens", gens, "--degrees", degrees],
                   tmp_path) == 2
    err = capsys.readouterr().err
    assert f"error: {reason}" in err
    # no flag or config key sets a library parameter of that name
    assert "dimension_cap" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("m, gens, degrees", [(2, "z1-z2^2", "20,40,60,100"),
                                              (3, "z1-z2*z3", "10,16,22,28")])
def test_sliced_quotients_run_past_the_ambient_limit(m, gens, degrees, tmp_path):
    # sliced frames hold no ambient square: these bases (5,356 and 5,456
    # wide) are past DENSE_SVD_LIMIT, their widest weighted slices are not
    code = run_cli(["quotient-probe", "--m", str(m), "--gens", gens, "--p", "1,3",
                    "--degrees", degrees], tmp_path)
    assert code == 0
    out = tmp_path / "quotient_smoothness_probe-t"
    with open(out / "quotient_commutator_norms.csv") as f:
        rows = list(csv.DictReader(f))
    pairs = m * (m + 1) // 2
    assert [r["degree"] for r in rows] == [d for d in degrees.split(",") for _ in range(2 * pairs)]
    assert all(float(r["value"]) > 0 for r in rows)
    assert json.loads((out / "report.json").read_text())["parameters"]["homogeneous"] == "false"


def test_ungraded_quotient_norms_settle_at_large_degree(tmp_path):
    # the ungraded frame keeps every multiple of z1-z2^2 out to degree 62,
    # where the bergman-ball weights fall to 3e-11: the largest p=1 norm
    # barely moves from degree 40 to 60
    code = run_cli(["quotient-probe", "--m", "2", "--gens", "z1-z2^2", "--p", "1",
                    "--degrees", "40,60"], tmp_path)
    assert code == 0
    with open(tmp_path / "quotient_smoothness_probe-t" / "quotient_commutator_norms.csv") as f:
        rows = list(csv.DictReader(f))
    largest = {N: max(float(r["value"]) for r in rows if r["degree"] == str(N))
               for N in (40, 60)}
    assert abs(largest[60] - largest[40]) <= 0.05 * largest[40]


def test_ungraded_fit_counts_round_off_as_zeros(tmp_path):
    # at degree 12, [R_1*, R_3] and [R_2*, R_3] of the quotient by
    # (z1 - z2 z3, z1 z2) have 15 values above s_max r eps among r = 56; the
    # rest are round-off, which were once fitted as beta 20.4 and 20.6 with
    # residual 10.1.  Zeroed, they reach into the rank window: no fit
    code = run_cli(["quotient-probe", "--m", "3", "--gens", "z1-z2*z3;z1*z2", "--p", "1,3",
                    "--degrees", "6,8,10,12"], tmp_path)
    assert code == 0
    with open(tmp_path / "quotient_smoothness_probe-t" / "decay_fits.csv") as f:
        rows = list(csv.DictReader(f))
    assert [(r["i"], r["j"]) for r in rows] == [("1", "1"), ("1", "2"), ("2", "2"), ("3", "3")]
    assert all(0 < float(r["beta"]) < 2 and float(r["fit_residual"]) < 0.1 for r in rows)


def test_quotient_by_generators_with_no_multiple_in_range_is_the_whole_space(tmp_path):
    # no multiple of either generator fits in degree 12: the submodule is {0}
    code = run_cli(["quotient-probe", "--m", "2", "--gens", "z1^20+z2;z2^20+z1", "--p", "1",
                    "--degrees", "6,8,10,12"], tmp_path)
    assert code == 0
    assert (tmp_path / "quotient_smoothness_probe-t" / "report.json").exists()


def test_trace_inequality_rejects_coincident_points(tmp_path, capsys):
    assert run_cli(["trace-inequality", "--m", "1", "--points", "0.5;0.5"], tmp_path) == 2
    assert "nearly coincident evaluation points" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("points,message", [
    ("0.3,0.1;0.9,0.9", "is not inside the open unit ball"),
    ("0.3,0.1;0.1", "has wrong dimension, expected 2"),
])
def test_trace_inequality_rejects_points_without_kernel_vectors(points, message, tmp_path,
                                                                capsys):
    assert run_cli(["trace-inequality", "--m", "2", "--points", points], tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())

def test_trace_inequality_names_truncation_tail(tmp_path, capsys):
    # truncated kernel vectors are invariant only up to a tail that falls
    # roughly like max|z|^(2N): too large at N=12, small enough further out
    argv = ["trace-inequality", "--m", "2", "--points", "0.3,0.1;0.1,-0.2j;0.5,0.2"]
    assert run_cli(argv + ["--degrees", "12,16,20"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "invariance residual 4.863e-05 exceeds tolerance 1.0e-08" in err
    assert "truncation degree N=12" in err and "max|z|^(2N) = 3.5e-07" in err
    assert "larger --degrees" in err
    assert not any(tmp_path.iterdir())
    assert run_cli(argv + ["--degrees", "30,40,50"], tmp_path) == 0
    assert "verdict trace_inequality: RECORDED" in capsys.readouterr().out


def test_trace_inequality_default_sweep_follows_the_points(tmp_path, capsys):
    # max|z| = 0.54: the residual is 4.9e-5 at N=12 and 6.0e-9 at N=20, so the
    # default sweep (12, 16, 20) moves up by its step until it starts at 20
    argv = ["trace-inequality", "--family", "bergman-ball", "--m", "2",
            "--points", "0.3,0.1;0.1,-0.2j;0.5,0.2"]
    assert run_cli(argv, tmp_path) == 0
    report = json.loads((tmp_path / "trace_inequality_check-t" / "report.json").read_text())
    assert report["parameters"]["degree_sweep"] == ["20", "24", "28"]
    with open(tmp_path / "trace_inequality_check-t" / "trace_inequality.csv") as f:
        assert sorted({row["degree"] for row in csv.DictReader(f)}) == ["20", "24", "28"]
    # a point this close to the sphere needs a degree past the basis cap
    assert run_cli(["trace-inequality", "--m", "2", "--points", "0.99,0"], tmp_path, "u") == 2
    assert "truncation degree N=316" in capsys.readouterr().err


def _count_nested_frames(monkeypatch):
    calls = []
    real = xp._nested_frames

    def counted(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(xp, "_nested_frames", counted)
    return calls


def test_trace_inequality_sweep_shift_doubles_then_bisects(tmp_path, capsys, monkeypatch):
    # stepping by 8 from (24, 32, 40) would take 929 evaluations to reach 7456
    calls = _count_nested_frames(monkeypatch)
    assert run_cli(["trace-inequality", "--m", "1", "--points", "0.999"], tmp_path) == 0
    report = json.loads((tmp_path / "trace_inequality_check-t" / "report.json").read_text())
    assert report["parameters"]["degree_sweep"] == ["7456", "7464", "7472"]
    assert len(calls) <= 30 and calls[-3:] == [7456, 7464, 7472]
    # and 6,247 to reach the cap, whose first stepped degree the error names
    calls.clear()
    assert run_cli(["trace-inequality", "--m", "1", "--points", "0.9999"], tmp_path, "u") == 2
    assert "truncation degree N=50000 or more" in capsys.readouterr().err
    assert len(calls) <= 40 and max(calls) < 50000


@pytest.mark.parametrize("line,key", [("m = abc", "m"), ("seed = x", "seed"),
                                      ("degrees = 4,x", "degrees")])
def test_bad_config_value_is_usage_error(line, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 2\ndelta = 1.0\n" + line + "\n")
    with pytest.raises(ConfigError):
        parse_args(["factorial-family", "--config", str(cfg)])
    assert main(["factorial-family", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and f"bad value for {key}:" in err


def test_missing_config_file_is_usage_error(tmp_path):
    src = str(Path(shiftlab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    missing = tmp_path / "no-such.cfg"
    proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "factorial-family",
                           "--config", str(missing), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_factorial_family_m4_end_to_end(tmp_path, capsys):
    code = run_cli(["factorial-family", "--m", "4", "--delta", "2.0",
                    "--degrees", "12,16,20"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict hs_norm_delta=2.0:" in out and "verdict trace_norm_delta=2.0:" in out
    rep_dir = tmp_path / "factorial_thresholds-t"
    verdicts = json.loads((rep_dir / "report.json").read_text())["verdicts"]
    assert set(verdicts) == {"hs_norm_delta=2.0", "trace_norm_delta=2.0"}
    # factorial weights depend on the degree alone: the four shifts agree
    rows = (rep_dir / "shift_hs_norms.csv").read_text().splitlines()[1:]
    by_degree = {}
    for row in rows:
        _, i, deg, value = row.split(",")
        by_degree.setdefault(int(deg), set()).add(value)
    assert sorted(by_degree) == [12, 16, 20]
    assert all(len(values) == 1 for values in by_degree.values())


def _cli_subprocess(argv):
    src = str(Path(shiftlab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# (argv, exit code): a run that would repeat rows, ignore an option or fail
# to write its report is a usage error, and a generator closure of more than
# 200 rounds a success; {out} is a fresh output root, {file} a regular file
# and {config} a config file naming another experiment
BAD_INVOCATIONS = [
    (["submodule-probe", "--m", "2", "--gens", "z1*z2", "--p", "3,3",
      "--degrees", "4,5,6,7", "--out", "{out}"], 2),
    (["ramp-block", "--n", "5,5", "--p", "1", "--N", "12", "--out", "{out}"], 2),
    (["factorial-family", "--m", "2", "--delta", "1,1", "--out", "{out}"], 2),
    (["submodule-probe", "--family", "hardy-ball", "--m", "2", "--gens", "z1",
      "--delta", "2", "--degrees", "4,5,6,7", "--out", "{out}"], 2),
    (["quotient-probe", "--family", "hardy-ball", "--m", "2", "--gens", "z1",
      "--delta", "2", "--degrees", "4,5,6,7", "--out", "{out}"], 2),
    (["trace-inequality", "--m", "1", "--points", "0.3", "--delta", "2",
      "--out", "{out}"], 2),
    (["direct-sum", "--config", "{config}", "--out", "{out}"], 2),
    (["ramp-block", "--n", "1", "--p", "1", "--N", "12", "--out", "{file}"], 2),
    (["ramp-block", "--n", "1", "--p", "1", "--N", "12", "--out", "{file}/sub"], 2),
    (["trace-inequality", "--m", "1", "--gens", "z1^200", "--degrees", "200",
      "--out", "{out}"], 0),
]


@pytest.mark.parametrize("argv,code", BAD_INVOCATIONS)
def test_bad_invocations_exit_without_traceback(argv, code, tmp_path):
    config, regular = tmp_path / "ramp.cfg", tmp_path / "regular"
    config.write_text("experiment = ramp-block\n")
    regular.write_text("")
    out = tmp_path / "out"
    proc = _cli_subprocess([a.format(out=out, config=config, file=regular)
                            for a in argv] + ["--tag", "t"])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error: ")
        assert not out.exists() and regular.is_file()
    else:
        assert (out / "trace_inequality_check-t" / "report.json").is_file()


@pytest.mark.parametrize("delta", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["factorial-family", "--m", "2", "--degrees", "4,5,6,7"],
    ["submodule-probe", "--family", "factorial-delta", "--m", "2", "--gens", "z1*z2",
     "--degrees", "4,5,6,7"],
])
def test_non_finite_delta_is_usage_error_without_warning(argv, delta, tmp_path):
    # refused before any weight arithmetic: no numpy RuntimeWarning reaches stderr
    out = tmp_path / "out"
    proc = _cli_subprocess(argv + ["--delta", delta, "--out", str(out), "--tag", "t"])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
