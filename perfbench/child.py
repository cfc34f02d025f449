"""One benchmark repetition: a fresh process running one shiftlab CLI call.

    python3 perfbench/child.py RESULT.json [--spans SPANS.jsonl] -- <shiftlab CLI args>
    python3 perfbench/child.py RESULT.json --env --

The parent starts this process with src/ on PYTHONPATH and BLAS threads
pinned.  It writes RESULT.json with monotonic-clock marks: config_parsed
(shiftlab imported and the config parsed, i.e. cli.execute entered) and
report_done (cli.execute returned), plus the CLI exit code, any exception
the CLI raised, and ru_maxrss.  --spans traces the layers
(perfbench/layers.py) and writes the spans there.  --env imports shiftlab,
records the Python/numpy/scipy/BLAS versions and runs no CLI call.
"""

import json
import resource
import sys
import time
import traceback

import calibration


def _environment():
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _traced(cli, argv, spans_path, marks):
    """Install the tracer, run the CLI, write spans; returns (code, layer metrics)."""
    import layers
    import tracer

    layer_modules = {name: sys.modules[f"shiftlab.{name}"] for name in layers.LAYERS}
    all_modules = [m for n, m in sys.modules.items()
                   if n == "shiftlab" or n.startswith("shiftlab.")]
    counters = layers.Counters()
    tr = tracer.Tracer(observe=counters)
    with tracer.propagate_to_pools(), \
            tracer.installed(tr, layer_modules, all_modules) as wrappers:
        missed = tracer.unwrapped_bindings(all_modules, wrappers)
        if missed:
            raise RuntimeError(f"unwrapped bindings: {missed}")
        code = _run(cli, argv, marks)
    tr.dump(spans_path)
    metrics = layers.layer_metrics(tr.spans, tracer.self_times(tr.spans),
                                   counters.snapshot())
    return code, metrics


def _run(cli, argv, marks):
    execute = cli.execute

    def timed_execute(config):
        marks["config_parsed"] = time.monotonic()
        calibration.warm_up()
        before = calibration.sample()
        marks["execute_start"] = time.monotonic()
        try:
            return execute(config)
        finally:
            marks["report_done"] = time.monotonic()
            marks["kernel_s"] = before + calibration.sample()

    cli.execute = timed_execute
    try:
        return cli.main(argv)
    finally:
        cli.execute = execute


if __name__ == "__main__":
    sep = sys.argv.index("--")
    opts, cli_args = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import shiftlab.cli as cli

    marks, result = {}, {"raised": None, "exit_code": None}
    if "--env" in opts:
        result = {"env": _environment()}
    else:
        try:
            if spans_path:
                result["exit_code"], result["layers"] = _traced(cli, cli_args, spans_path,
                                                                marks)
            else:
                result["exit_code"] = _run(cli, cli_args, marks)
        except Exception:  # a CLI crash is a result to report, not a harness failure
            result["raised"] = traceback.format_exc()
        result.update(marks)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
