import json
import subprocess
import sys

import calibration
import layers
import run
from workloads import WORKLOADS

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.RESULT_LINE
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_no_cli_threads_flag_is_passed():
    for w in WORKLOADS.values():
        assert "--threads" not in w.argv(1, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                          "factorial-m3", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_times_are_scaled_by_the_median_kernel_time():
    kernel_s = [0.020, 0.040, 0.005, 0.020, 0.030, 0.010]   # median 0.020
    assert calibration.scale(kernel_s) == calibration.REFERENCE_S / 0.020
