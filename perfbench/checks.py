"""Output checks of one repetition against the reference recorded in reference/.

One check each for the exit code, the set of verdict names, the set of
table names, the shape of every table (row count and each row's length),
every verdict and every CSV cell, so that missing and extra output both
fail.  Verdict labels, strings, booleans and integers must match exactly;
floats must agree to REL_TOL relative to the larger magnitude of the pair.
A pair whose magnitudes are both below ZERO_ABS is round-off around an exact
zero and compares equal.  The worst relative deviation is reported even when
every check passes.

identity-check draws its problems from the seed, so it has no reference: it
is gated by exit 0 and max_residual < IDENTITY_TOL instead.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-12
ZERO_ABS = 1e-12    # e.g. the increment exponent -1.04e-14 of submodule-m3
IDENTITY_TOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    worst_rel_dev: float = 0.0
    messages: list = field(default_factory=list)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


def _number(text):
    """The float a CSV cell holds, or None for a non-numeric cell."""
    if text in ("true", "false"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def rel_dev(a, b):
    """|a - b| relative to max(|a|, |b|); 0 for equal values, NaN == NaN and
    a pair of round-off zeros."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale >= ZERO_ABS else 0.0


def _same(ref, got, res):
    """Recursive comparison of JSON values; floats by rel_dev."""
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)) \
                or isinstance(ref, bool) or isinstance(got, bool):
            return False
        d = rel_dev(float(ref), float(got))
        res.worst_rel_dev = max(res.worst_rel_dev, d)
        return d <= REL_TOL
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(_same(ref[k], got[k], res) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(_same(a, b, res) for a, b in zip(ref, got))
    return type(ref) is type(got) and ref == got


def read_report(outdir):
    """{'verdicts': ..., 'tables': {name: rows of cells}} of a report directory."""
    outdir = Path(outdir)
    meta = json.loads((outdir / "report.json").read_text())
    tables = {}
    for name in meta["tables"]:
        with open(outdir / f"{name}.csv", newline="") as fh:
            tables[name] = list(csv.reader(fh))
    return {"verdicts": meta["verdicts"], "tables": tables}


def _shape(rows):
    return [len(row) for row in rows]


def expected_checks(reference):
    """How many checks compare_report makes against this reference."""
    return 3 + len(reference["tables"]) + len(reference["verdicts"]) + sum(
        len(row) for rows in reference["tables"].values() for row in rows)


def compare_report(reference, report, res):
    for part in ("verdicts", "tables"):
        res.check(report[part].keys() == reference[part].keys(),
                  f"{part}: {sorted(report[part])} != {sorted(reference[part])}")
    for name, ref_v in reference["verdicts"].items():
        got_v = report["verdicts"].get(name)
        res.check(got_v is not None and _same(ref_v, got_v, res),
                  f"verdict {name}: {got_v!r} != {ref_v!r}")
    for tname, ref_rows in reference["tables"].items():
        got_rows = report["tables"].get(tname, [])
        res.check(_shape(got_rows) == _shape(ref_rows),
                  f"{tname}.csv: {len(got_rows)} rows or a row's length differ from the "
                  f"reference's {len(ref_rows)} rows")
        for r, ref_row in enumerate(ref_rows):
            got_row = got_rows[r] if r < len(got_rows) else []
            for c, ref_cell in enumerate(ref_row):
                got_cell = got_row[c] if c < len(got_row) else None
                res.check(_same_cell(ref_cell, got_cell, res),
                          f"{tname}.csv row {r} col {c}: {got_cell!r} != {ref_cell!r}")


def _same_cell(ref, got, res):
    if got is None:
        return False
    a, b = _number(ref), _number(got)
    if a is None or b is None:
        return ref == got
    return _same(a, b, res)


def load_reference(workload):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check_repetition(reference, child_result, outdir):
    """CheckResult of one repetition; a crash or nonzero exit fails every check.

    reference None selects the identity-check gate.
    """
    res = CheckResult()
    n_checks = expected_checks(reference) if reference else 2
    ok = child_result.get("exit_code") == 0 and child_result.get("raised") is None
    if not ok:
        res.attempted = res.failed = n_checks
        res.messages.append(f"exit code {child_result.get('exit_code')}, "
                            f"raised {child_result.get('raised')}")
        return res
    res.check(True, "exit code")
    try:
        report = read_report(outdir)
    except (OSError, ValueError, KeyError) as exc:
        res.attempted, res.failed = n_checks, n_checks - 1
        res.messages.append(f"unreadable report: {exc!r}")
        return res
    if reference is not None:
        compare_report(reference, report, res)
    else:
        v = report["verdicts"].get("identity", {})
        worst = v.get("max_residual")
        res.check(isinstance(worst, float) and worst < IDENTITY_TOL,
                  f"max_residual {worst!r} not below {IDENTITY_TOL}")
    return res
