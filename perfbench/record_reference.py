"""Record the reference outputs of the deterministic workloads.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the reference.
Writes perfbench/reference/<workload>.json: the verdicts of report.json and
the cells of every CSV table, as checks.py compares them.
"""

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS


def main():
    run.WORK.mkdir(exist_ok=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        if w.seeded:
            continue
        out_root = run.WORK / "out"
        shutil.rmtree(out_root, ignore_errors=True)
        result, _ = run.run_child(w.argv(0, 0) + ["--out", str(out_root), "--tag", "ref"])
        if result is None or result["exit_code"] != 0 or result["raised"]:
            print(f"{w.name}: failed: {result}", file=sys.stderr)
            return 1
        (report_dir,) = out_root.iterdir()
        path = checks.REFERENCE_DIR / f"{w.name}.json"
        path.write_text(json.dumps(checks.read_report(report_dir), indent=1) + "\n")
        print(f"{w.name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
