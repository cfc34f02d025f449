"""The shiftlab layers the traced run measures, and their per-layer metrics.

Layers are named after the modules.  Counters are taken from the values the
wrapped functions return (see Counters); times come from the spans.  This
file imports nothing from shiftlab, so the parent process can use it too.
"""

import os
import threading
import weakref

LAYERS = ("cli", "experiments", "graded_basis", "weight_models", "polynomials",
          "shift_operators", "submodules", "schatten")

# Groups of functions whose summed self time is reported as one metric.
SELF_TIME_GROUPS = {
    "schatten.singular_values.self_s": ("schatten.singular_values",),
    "schatten.trend.self_s": ("schatten.convergence_diagnostic",
                              "schatten.decay_exponent_fit"),
    "shift_operators.invariance_residual.self_s": ("shift_operators.invariance_residual",),
    "shift_operators.restrict.self_s": ("shift_operators.restrict_to_invariant",
                                        "shift_operators.compress_to_frame",
                                        "shift_operators.compress"),
    "shift_operators.multiply.self_s": ("shift_operators.multiply",),
    "shift_operators.decomposition.self_s": (
        "shift_operators.restricted_commutator_decomposition",),
    "shift_operators.coordinate_shift.self_s": ("shift_operators.coordinate_shift",),
    "experiments.write_report.self_s": ("experiments.write_report",),
}

COUNTERS = {
    "schatten.sv_calls": "count",
    "schatten.window_dim_sum": "count",
    "schatten.window_dim_max": "count",
    "schatten.window_useful_frac": "ratio",
    "shift_operators.out_nnz": "count",
    "submodules.frame_bytes": "B",
    "graded_basis.dim_max": "count",
    "experiments.report_bytes": "B",
}

TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.busy_s": "s",
    "trace.threads": "count",
    "trace.spans": "count",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    **{name: "s" for name in SELF_TIME_GROUPS},
    **COUNTERS,
    **TRACE_METRICS,
}

# Self times of code that some workload never calls (schatten on
# identity-check, submodules on factorial-m3, ...) read exactly 0 on every
# run of that workload.  They are printed and saved with the run; the result
# line, and BENCHMARK.json, keep every count but only the self times that all
# workloads measure.
MEASURED_EVERYWHERE = ("cli.self_s", "experiments.self_s", "graded_basis.self_s",
                       "shift_operators.self_s", "shift_operators.multiply.self_s",
                       "shift_operators.coordinate_shift.self_s",
                       "experiments.write_report.self_s", "trace.overhead_s",
                       "trace.busy_s")
RESULT_LINE = {name: unit for name, unit in PER_LAYER.items()
               if unit != "s" or name in MEASURED_EVERYWHERE}


class Counters:
    """Observer for Tracer: accumulates counts from returned values.

    - every singular_values result is one SVD window of len(result) rows;
    - window_useful_frac: sum over distinct operators of their largest
      window, divided by the sum of all windows (1.0 when no SVD ran);
    - out_nnz: stored entries of every operator a shift_operators function
      returns;
    - frame_bytes: bytes of both frames of every submodule built;
    - dim_max: largest basis enumerated;
    - report_bytes: bytes of the files in each report directory written.
    """

    def __init__(self):
        self.values = {name: 0 for name in COUNTERS if name != "schatten.window_useful_frac"}
        self._lock = threading.Lock()
        self._largest = {}        # id(operator) -> (weakref to it, largest window)
        self._largest_done = 0    # largest windows of operators no longer alive

    def __call__(self, name, args, result):
        with self._lock:
            if name == "schatten.singular_values":
                self._window(args[0], len(result))
            elif name.startswith("shift_operators.") and hasattr(result, "mat"):
                self.values["shift_operators.out_nnz"] += int(result.mat.nnz)
            elif name.startswith("submodules.") and hasattr(result, "comp"):
                self.values["submodules.frame_bytes"] += int(
                    result.sub.columns.nbytes + result.comp.columns.nbytes)
            elif name == "graded_basis.enumerate_basis":
                self.values["graded_basis.dim_max"] = max(
                    self.values["graded_basis.dim_max"], int(result.dimension))
            elif name == "experiments.write_report":
                self.values["experiments.report_bytes"] += sum(
                    e.stat().st_size for e in os.scandir(result) if e.is_file())

    def _window(self, operator, dim):
        v = self.values
        v["schatten.sv_calls"] += 1
        v["schatten.window_dim_sum"] += dim
        v["schatten.window_dim_max"] = max(v["schatten.window_dim_max"], dim)
        # an id can be reused once its operator is gone: the weakref tells
        ref, best = self._largest.get(id(operator), (None, 0))
        if ref is None or ref() is not operator:
            self._largest_done += best
            best = 0
        self._largest[id(operator)] = (weakref.ref(operator), max(best, dim))

    def snapshot(self):
        out = dict(self.values)
        useful = self._largest_done + sum(best for _, best in self._largest.values())
        total = out["schatten.window_dim_sum"]
        out["schatten.window_useful_frac"] = useful / total if total else 1.0
        return out


def layer_metrics(spans, self_time, counters):
    """Per-layer metrics of one traced run, except trace.overhead_s.

    self_time maps span id to self time; counters is a Counters snapshot.
    """
    out = {f"{layer}.{kind}": 0.0 if kind == "self_s" else 0
           for layer in LAYERS for kind in ("calls", "self_s", "errors")}
    by_name = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_time[s.id]
        out[f"{layer}.errors"] += int(s.error)
        by_name[s.name] = by_name.get(s.name, 0.0) + self_time[s.id]
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    out.update(counters)
    out["trace.busy_s"] = sum(self_time.values())
    out["trace.threads"] = len({s.thread for s in spans})
    out["trace.spans"] = len(spans)
    return out
