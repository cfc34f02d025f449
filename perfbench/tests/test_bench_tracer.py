import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import tracer
from tracer import Span, Tracer, self_times, union_length


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0, False)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([(2, 3), (1, 5)], 0, 10) == 4       # nested
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [span(1, 0, 10), span(2, 1, 4, 1), span(3, 3, 6, 1), span(4, 8, 12, 1),
             span(5, 1.5, 2.5, 2)]
    st = self_times(spans)
    assert st[1] == pytest.approx(3)        # 10 - |[1,6] u [8,10]|
    assert st[2] == pytest.approx(2)        # grandchild counts against its parent only
    assert st[5] == pytest.approx(1)


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(x):
        time.sleep(0.05)
        return x

    def fan_out(items):
        with ThreadPoolExecutor(max_workers=len(items)) as pool:
            return list(pool.map(mod.leaf, items))

    def boom():
        raise ValueError("boom")

    for fn in (leaf, fan_out, boom):
        fn.__module__ = "toy"
        setattr(mod, fn.__name__, fn)
    return mod


def test_worker_thread_spans_take_the_submitting_span_as_parent():
    mod = _toy_module()
    tr = Tracer()
    with tracer.propagate_to_pools(), tracer.installed(tr, {"toy": mod}, [mod]):
        assert mod.fan_out([1, 2, 3]) == [1, 2, 3]
    (outer,) = [s for s in tr.spans if s.name == "toy.fan_out"]
    leaves = [s for s in tr.spans if s.name == "toy.leaf"]
    assert len(leaves) == 3
    assert all(s.parent == outer.id for s in leaves)
    assert all(s.thread != outer.thread for s in leaves)
    st = self_times(tr.spans)
    # the three sleeps ran concurrently: the union, not the sum, is subtracted
    assert st[outer.id] < 0.04
    assert sum(st[s.id] for s in leaves) > outer.end - outer.start


def test_without_propagation_worker_spans_have_no_parent():
    mod = _toy_module()
    tr = Tracer()
    with tracer.installed(tr, {"toy": mod}, [mod]):
        mod.fan_out([1, 2])
    assert all(s.parent is None for s in tr.spans)


def test_raised_calls_are_recorded_as_errors_and_bindings_restored():
    mod = _toy_module()
    original = mod.boom
    tr = Tracer()
    with tracer.installed(tr, {"toy": mod}, [mod]):
        with pytest.raises(ValueError):
            mod.boom()
    assert [s.error for s in tr.spans] == [True]
    assert mod.boom is original
    m = layers.layer_metrics([Span(1, "schatten.x", 0, 1, None, 0, True)], {1: 1.0},
                             layers.Counters().snapshot())
    assert m["schatten.errors"] == 1 and m["schatten.calls"] == 1
    # the parent adds trace.overhead_s; together they are every per-layer metric
    assert set(m) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def _shiftlab_modules():
    import shiftlab.cli  # noqa: F401  (imports every layer)
    layer_modules = {n: sys.modules[f"shiftlab.{n}"] for n in layers.LAYERS}
    everything = [m for n, m in sys.modules.items()
                  if n == "shiftlab" or n.startswith("shiftlab.")]
    return layer_modules, everything


def test_every_import_binding_of_a_wrapped_function_is_wrapped():
    layer_modules, everything = _shiftlab_modules()
    originals = {fn for mod in layer_modules.values()
                 for fn in tracer.public_functions(mod).values()}
    before = tracer.unwrapped_bindings(everything, originals)
    for name in ("shiftlab.cli.write_report", "shiftlab.cli.parse_generators",
                 "shiftlab.experiments.enumerate_basis", "shiftlab.enumerate_basis",
                 "shiftlab.schatten.singular_values"):
        assert name in before
    with tracer.installed(Tracer(), layer_modules, everything) as wrappers:
        assert set(wrappers) == originals
        assert tracer.unwrapped_bindings(everything, wrappers) == []
        cli = sys.modules["shiftlab.cli"]
        wrapped = cli.write_report
        cli.write_report = wrapped.__wrapped__      # a binding the tracer missed
        try:
            assert tracer.unwrapped_bindings(everything, wrappers) == [
                "shiftlab.cli.write_report"]
        finally:
            cli.write_report = wrapped
    assert tracer.unwrapped_bindings(everything, originals) == before


def test_window_useful_frac_counts_each_live_operator_once():
    class Op:
        pass

    c = layers.Counters()
    a, b = Op(), Op()
    for op, dim in ((a, 10), (a, 20), (b, 5), (a, 30)):
        c("schatten.singular_values", (op,), [0.0] * dim)
    del a                                   # its id may now be reused
    d = Op()
    c("schatten.singular_values", (d,), [0.0] * 7)
    snap = c.snapshot()
    assert snap["schatten.sv_calls"] == 5
    assert snap["schatten.window_dim_sum"] == 72
    assert snap["schatten.window_dim_max"] == 30
    assert snap["schatten.window_useful_frac"] == pytest.approx((30 + 5 + 7) / 72)
    assert layers.Counters().snapshot()["schatten.window_useful_frac"] == 1.0
