"""The CI workflow agrees with the files it tests against, read as text:
its floor pins with pyproject.toml's floors, its test step with ROADMAP's
tier-1 command, and its oldest Python with every source module's syntax;
and the job has a time limit and the single-thread BLAS pin; a runtime
warning fails the tests.  The YAML is read as text: PyYAML is no declared
test dependency."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _step(workflow: str, name: str) -> str:
    """The text of the workflow step of this name, up to the next step."""
    start = workflow.index(f"- name: {name}\n")
    end = workflow.find("- name:", start + 1)
    return workflow[start:end if end > 0 else None]


def _versions(text: str):
    return tuple(int(x) for x in text.split("."))


def test_workflow_matches_the_floors_the_tier1_command_and_the_oldest_python():
    workflow, pyproject = WORKFLOW.read_text(), (ROOT / "pyproject.toml").read_text()
    # every "name>=floor" of pyproject.toml (build system, runtime, test
    # extra) is pinned to that floor in the floor job: "name==floor.*"
    floors = dict(re.findall(r'"([\w-]+)>=([\d.]+)"', pyproject))
    step = _step(workflow, "Install the declared floors")
    pins = {**dict(re.findall(r'"([\w-]+)==([\d.]+)\.\*"', step)),
            **dict(re.findall(r'"([\w-]+)>=([\d.]+)"', step))}
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= floors.keys()
    assert pins == floors
    # the test step runs ROADMAP's tier-1 command as written
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    run = re.search(r"run: (.+)", _step(workflow, "Tier-1 tests"))
    assert tier1 and run and run.group(1).strip() == tier1.group(1)
    # the matrix's oldest Python is the floor of requires-python, and every
    # module parses under its grammar
    matrix = re.search(r"python: \[([^\]]*)\]", workflow).group(1)
    oldest = min(_versions(v.strip(' "')) for v in matrix.split(","))
    assert oldest == _versions(re.search(r'requires-python = ">=([\d.]+)"', pyproject).group(1))
    sources = sorted((ROOT / "src" / "shiftlab").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)


def test_tier1_job_has_a_time_limit_and_one_blas_thread():
    # a hung run would hold a runner for GitHub's default 360 minutes; the
    # bit-for-bit tests pin BLAS products that one OpenBLAS thread sums
    job = WORKFLOW.read_text().split("\n  tier1:\n", 1)[1].split("\n    steps:\n", 1)[0]
    assert re.search(r"^    timeout-minutes: 20$", job, re.M)
    assert re.search(r'^    env:\n      OPENBLAS_NUM_THREADS: "1"$', job, re.M)


def test_runtime_warnings_fail_tier1():
    # a numpy overflow, invalid-value or divide warning fails the tests,
    # locally and in the tier1 job, which runs pytest from the repository
    # root and so reads pyproject.toml's options
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = pyproject.split("[tool.pytest.ini_options]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^filterwarnings = \["error::RuntimeWarning"\]$', section, re.M)
    run = re.search(r"run: (.+)", _step(WORKFLOW.read_text(), "Tier-1 tests")).group(1)
    assert "python -m pytest" in run and "-W" not in run and "-p no:warnings" not in run
