"""shiftlab benchmark: four CLI workloads, each repetition a fresh process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root; the program is imported from ./src.  For each
workload the run spends about S seconds on repetitions, one process at a
time, and reports medians:

    wall_raw_s   parsed config -> finished report directory, in the child
    setup_raw_s  child start -> shiftlab imported and config parsed
    kernel_s     the calibration kernel's time beside the CLI call
                 (perfbench/calibration.py)
    setup_s      setup_raw_s * calibration.REFERENCE_S / kernel_s
    peak_rss_mb  the child's ru_maxrss / 1024
    wall_s       median wall_raw_s * REFERENCE_S / median kernel_s, per run

wall_s and setup_s are the times at the host speed where the kernel takes
REFERENCE_S; they are the end-to-end metrics, because on a shared host the
raw times move with the host's speed level.  setup_s is scaled by the
kernel time of its own repetition, taken right after it; a CLI call lasts
seconds, longer than the host holds a level at times, so wall_s is scaled
by the kernel time of the whole run.

An unmeasured warm-up process first records the environment.  Every
repetition's report is checked (perfbench/checks.py); check_fail_frac is
failed / attempted checks.
--trace 1 adds one traced repetition, on the input of repetition 0, and
prints the per-layer split (perfbench/layers.py) instead of the end-to-end
metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Results and span dumps go to .perfbench-work/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import layers
from workloads import WORKLOADS, rep_seed

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
WORKLOAD_LIMIT_S = 150     # no new repetition would end after this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SAMPLED = {"setup_s": "s", "peak_rss_mb": "MB", "wall_raw_s": "s", "setup_raw_s": "s",
           "kernel_s": "s"}       # one value per repetition


class HarnessError(RuntimeError):
    """The benchmark cannot measure at all (e.g. shiftlab is missing)."""


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(cli_args, *opts):
    """Run child.py once; returns (result dict or None, spawn time)."""
    result_path = WORK / "child-result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), *opts,
           "--", *cli_args]
    start = time.monotonic()
    with open(WORK / "child.log", "w") as log:
        try:
            subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                           timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            pass    # run() has killed and reaped the child; no result file
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return result, start


def _median(values):
    return statistics.median(values) if values else None


class WorkloadRun:
    """Samples and checks of one workload in one benchmark run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reference = None if workload.seeded else checks.load_reference(workload.name)
        self.samples = {name: [] for name in SAMPLED}
        self.checks = checks.CheckResult()
        self.rows = []
        self.env = {}
        self.layers = None
        self.traced = None

    def measure(self, seconds, trace):
        w = self.workload
        warm, _ = run_child([], "--env")
        if warm is None or "env" not in warm:
            raise HarnessError(f"{w.name}: shiftlab did not start; see {WORK / 'child.log'}")
        self.env = environment(self.seed, warm["env"])
        began = time.monotonic()
        rep, durations = 0, []
        while True:
            start = time.monotonic()
            ok = self._repetition(rep)
            rep += 1
            now = time.monotonic()
            durations.append(now - start)
            typical = statistics.median(durations)
            if not ok or now + typical > began + WORKLOAD_LIMIT_S:
                break
            if rep >= MIN_REPS and now + typical > began + seconds:
                break
        if trace and self.checks.failed == 0:
            self._repetition(0, traced=True)     # the input of repetition 0

    def _repetition(self, rep, traced=False):
        out_root = WORK / "out"
        shutil.rmtree(out_root, ignore_errors=True)
        out_root.mkdir(parents=True)
        args = self.workload.argv(self.seed, rep) + ["--out", str(out_root), "--tag", "bench"]
        spans = WORK / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        opts = ("--spans", str(spans)) if traced else ()
        result, start = run_child(args, *opts)
        result = result or {"exit_code": None, "raised": "no result (crashed or timed out)"}
        reports = [p for p in out_root.iterdir() if p.is_dir()]
        res = checks.check_repetition(self.reference, result,
                                      reports[0] if len(reports) == 1 else out_root)
        self.checks.attempted += res.attempted
        self.checks.failed += res.failed
        self.checks.worst_rel_dev = max(self.checks.worst_rel_dev, res.worst_rel_dev)
        self.checks.messages += res.messages
        sample = None
        if "report_done" in result:
            setup = result["config_parsed"] - start
            sample = {"setup_s": setup * calibration.scale(result["kernel_s"]),
                      "peak_rss_mb": result["peak_rss_kb"] / 1024,
                      "wall_raw_s": result["report_done"] - result["execute_start"],
                      "setup_raw_s": setup,
                      "kernel_s": statistics.median(result["kernel_s"])}
        if traced:
            self.layers = result.get("layers")
            self.traced = sample
        elif sample is not None:
            for name, value in sample.items():
                self.samples[name].append(value)
        self.rows.append((rep, "traced" if traced else "", sample, res))
        return res.failed == 0

    def run_scale(self):
        """Calibration factor of the whole run, for the seconds-long CLI calls."""
        return calibration.scale(self.samples["kernel_s"]) if self.samples["kernel_s"] else None

    def medians(self):
        m = {name: _median(values) for name, values in self.samples.items()}
        scale = self.run_scale()
        return {"wall_s": None if scale is None else m["wall_raw_s"] * scale, **m}

    def per_layer(self):
        if self.layers is None:
            return {name: None for name in layers.PER_LAYER}
        scale = self.run_scale()
        overhead = None if self.traced is None or scale is None \
            else (self.traced["wall_raw_s"] - _median(self.samples["wall_raw_s"])) * scale
        return {**self.layers, "trace.overhead_s": overhead}


def environment(seed, child_env_record):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=False)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **child_env_record, "thread_env": THREAD_ENV,
            "seed": seed, "commit": commit}


def _fmt(value, digits=4):
    if value is None:
        return "n/a"
    return f"{value:.{digits}g}" if isinstance(value, float) else str(value)


def print_workload(run, trace):
    w = run.workload
    print(f"== {w.name}: {w.why}")
    if w.seeded:
        print(f"   seed {run.seed}: repetition r runs --seed {rep_seed(run.seed, 0)} + r")
    else:
        print(f"   seed {run.seed} not used: this workload has no random input")
    print("   cli: shiftlab " + " ".join(w.argv(run.seed, 0)))
    print("   env: " + json.dumps(run.env, sort_keys=True))
    print("   rep         " + "  ".join(f"{name:>11s}" for name in SAMPLED)
          + "  checks(failed/attempted)")
    for rep, label, sample, res in run.rows:
        cells = [_fmt(sample and sample[name]) for name in SAMPLED]
        print(f"   {rep:3d} {label:6s} " + "  ".join(f"{cell:>11s}" for cell in cells)
              + f"  {res.failed}/{res.attempted}")
    for name, value in run.medians().items():
        source = "raw median x REFERENCE_S / kernel_s median" if name == "wall_s" \
            else f"median of {len(run.samples[name])}"
        print(f"   {name:16s} {_fmt(value):>9s} {SAMPLED.get(name, 's'):3s} ({source})")
    c = run.checks
    frac = c.failed / c.attempted if c.attempted else None
    print(f"   check_fail_frac  {_fmt(frac):>9s}     ({c.failed} of {c.attempted} checks "
          f"failed; worst relative deviation from reference {c.worst_rel_dev:.3g})")
    for message in c.messages[:5]:
        print(f"   check failed: {message}")
    if trace:
        print_layers(run)


def print_layers(run):
    m = run.per_layer()
    if run.layers is None:
        print("   traced repetition did not run")
        return
    busy = m["trace.busy_s"]
    traced_wall = run.traced and run.traced["wall_raw_s"]
    print(f"   per layer (traced repetition; busy {busy:.4f} s over "
          f"{m['trace.threads']} thread(s), traced wall_raw_s {_fmt(traced_wall)}, "
          f"trace.overhead_s {_fmt(m['trace.overhead_s'])})")
    print("   layer              calls     self_s   share  errors")
    for layer in layers.LAYERS:
        self_s = m[f"{layer}.self_s"]
        share = self_s / busy if busy else 0.0
        print(f"   {layer:16s} {m[f'{layer}.calls']:7d} {self_s:10.4f} {share:7.1%} "
              f"{m[f'{layer}.errors']:7d}")
    shown = {f"{layer}.{k}" for layer in layers.LAYERS for k in ("calls", "self_s", "errors")}
    for name, unit in layers.PER_LAYER.items():
        if name not in shown:
            print(f"   {name:44s} {_fmt(m[name], 6):>12s} {unit}")


def result_line(runs, trace, prefix):
    attempted = sum(r.checks.attempted for r in runs)
    failed = sum(r.checks.failed for r in runs)
    metrics = {}
    for r in runs:
        values, units = (r.per_layer(), layers.RESULT_LINE) if trace \
            else (r.medians(), END_TO_END)
        for name, unit in units.items():
            key = f"{r.workload.name}.{name}" if prefix else name
            metrics[key] = {"value": values[name], "unit": unit}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/shiftlab/cli.py").is_file():
        print("error: run from the repository root (src/shiftlab not found)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    trace = args.trace == 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            run = WorkloadRun(WORKLOADS[name], args.seed)
            run.measure(args.seconds, trace)
            print_workload(run, trace)
            runs.append(run)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(runs) > 1:
        print("== summary")
        for r in runs:
            e = r.medians()
            c = r.checks
            print(f"   {r.workload.name:22s} wall_s {_fmt(e['wall_s'])} s  "
                  f"setup_s {_fmt(e['setup_s'])} s  peak_rss_mb {_fmt(e['peak_rss_mb'])} MB  "
                  f"check_fail_frac {c.failed}/{c.attempted}")
    line = result_line(runs, trace, prefix=len(runs) > 1)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "env": runs[0].env,
                    "samples": {r.workload.name: r.samples for r in runs},
                    "per_layer": {r.workload.name: r.per_layer() for r in runs if trace}},
                   indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
