import copy

import pytest

import checks
from checks import CheckResult, check_repetition, compare_report, rel_dev

REFERENCE = {
    "verdicts": {"trend": {"verdict": "converging", "points": 5,
                           "increment_decay_exponent": 1.5, "reason": "x"}},
    "tables": {"norms": [["side", "degree", "value"],
                         ["restriction", "6", "7.142857142857142"],
                         ["restriction", "8", "0.0088"],
                         ["complement", "8", "true"]]},
}


def compare(report):
    res = CheckResult()
    compare_report(REFERENCE, report, res)
    return res


def perturbed(row, col, value):
    rep = copy.deepcopy(REFERENCE)
    rep["tables"]["norms"][row][col] = value
    return rep


def test_rel_dev():
    assert rel_dev(2.0, 2.0) == 0.0
    assert rel_dev(float("nan"), float("nan")) == 0.0
    assert rel_dev(float("inf"), float("inf")) == 0.0
    assert rel_dev(1.0, 1.0 + 1e-12) == pytest.approx(1e-12, rel=1e-3)
    assert rel_dev(-1.0368470629181874e-14, 3e-15) == 0.0      # round-off zeros
    assert rel_dev(1e-14, 2e-12) > 0.99


def test_identical_report_passes_every_check():
    res = compare(copy.deepcopy(REFERENCE))
    assert (res.attempted, res.failed, res.worst_rel_dev) == (4 + 12, 0, 0.0)
    assert checks.expected_checks(REFERENCE) == 1 + res.attempted


def test_numeric_cells_agree_to_1e_12_relative():
    small = compare(perturbed(1, 2, repr(7.142857142857142 * (1 + 3e-13))))
    assert small.failed == 0 and 1e-13 < small.worst_rel_dev < 1e-12
    large = compare(perturbed(1, 2, repr(7.142857142857142 * (1 + 3e-12))))
    assert large.failed == 1 and large.worst_rel_dev > 1e-12


def test_small_cells_are_compared_relative_to_themselves():
    # not loosened by the larger values of the same column
    assert compare(perturbed(2, 2, repr(0.0088 * (1 + 3e-13)))).failed == 0
    assert compare(perturbed(2, 2, "0.008800000001")).failed == 1
    assert compare(perturbed(2, 2, "-3e-15")).failed == 1


def test_non_numeric_and_missing_cells_must_match_exactly():
    assert compare(perturbed(3, 2, "false")).failed == 1
    assert compare(perturbed(1, 0, "complement")).failed == 1
    rep = copy.deepcopy(REFERENCE)
    rep["tables"]["norms"].pop()
    assert compare(rep).failed == 1 + 3       # the table's shape and three cells


def test_extra_output_fails():
    rep = copy.deepcopy(REFERENCE)
    rep["tables"]["norms"].append(["complement", "10", "2.5"])
    assert compare(rep).failed == 1
    rep = copy.deepcopy(REFERENCE)
    rep["tables"]["norms"][1].append("0.5")
    assert compare(rep).failed == 1
    rep = copy.deepcopy(REFERENCE)
    rep["tables"]["extra"] = [["a"], ["1"]]
    assert compare(rep).failed == 1
    rep = copy.deepcopy(REFERENCE)
    rep["verdicts"]["extra"] = {"verdict": "converging"}
    assert compare(rep).failed == 1


def test_verdict_mismatches_fail():
    for key, value in (("verdict", "diverging"), ("points", 4),
                       ("increment_decay_exponent", 1.5 + 1e-9), ("reason", "y")):
        rep = copy.deepcopy(REFERENCE)
        rep["verdicts"]["trend"][key] = value
        assert compare(rep).failed == 1, key
    rep = copy.deepcopy(REFERENCE)
    del rep["verdicts"]["trend"]
    assert compare(rep).failed == 2         # the verdict names and the verdict


def test_failed_run_fails_every_check(tmp_path):
    for result in ({"exit_code": 1, "raised": None}, {"exit_code": None, "raised": "boom"}):
        res = check_repetition(REFERENCE, result, tmp_path)
        assert res.attempted == res.failed == checks.expected_checks(REFERENCE)
    res = check_repetition(REFERENCE, {"exit_code": 0, "raised": None}, tmp_path)
    assert res.failed == res.attempted - 1      # exit 0 but no report
