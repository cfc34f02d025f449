"""The benchmark's referenced workloads pass every reference check.

Each workload with a recorded reference (perfbench/reference/) runs as its
own CLI process with BLAS pinned to one thread, as the benchmark runs it, and
its report goes through perfbench/checks.py.  A change that moves a
reference cell past checks.REL_TOL fails here, not first in the benchmark.
perfbench/ is only read; reports go to a temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS.values() if not w.seeded])
def test_referenced_workload_passes_every_check(name, tmp_path):
    src = str(Path(shiftlab.__file__).parents[1])
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", *WORKLOADS[name].argv(0, 0),
                           "--out", str(out), "--tag", "ref"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (report_dir,) = out.iterdir()
    reference = checks.load_reference(name)
    res = checks.check_repetition(reference, {"exit_code": proc.returncode, "raised": None},
                                  report_dir)
    assert res.attempted == checks.expected_checks(reference)
    assert res.failed == 0, res.messages
