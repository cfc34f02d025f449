"""Span recording from outside the program, for the traced benchmark run.

A Tracer wraps functions; each call of a wrapped function records one Span
(name, start, end, parent, thread, whether it raised).  Spans are kept in
memory and written out by the caller when the run ends.

The parent of a span is the span open in the same context when it started.
Work submitted to a ThreadPoolExecutor runs in a copy of the submitter's
context (see propagate_to_pools), so spans on pool worker threads take the
span that submitted them as parent.

Self time is a span's duration minus the union of the intervals its children
cover, so overlapping or concurrent children are not subtracted twice.
"""

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: bool


class Tracer:
    """Collects spans of wrapped calls; observe(name, args, result) sees each return."""

    def __init__(self, observe=None):
        self.spans = []
        self._observe = observe
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            start = time.perf_counter()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), error))
            if self._observe is not None:
                self._observe(name, args, result)
            return result
        return traced

    def dump(self, path):
        """Write the spans as JSON lines, ordered by start time."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


@contextlib.contextmanager
def propagate_to_pools():
    """Run every ThreadPoolExecutor task in a copy of its submitter's context."""
    original = ThreadPoolExecutor.submit

    def submit(pool, fn, /, *args, **kwargs):
        return original(pool, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit
    try:
        yield
    finally:
        ThreadPoolExecutor.submit = original


def public_functions(module):
    """Functions defined in the module under a name without a leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def unwrapped_bindings(modules, originals):
    """'module.attr' for every module global still bound to an original function."""
    originals = set(originals)
    return sorted(f"{mod.__name__}.{attr}" for mod in modules
                  for attr, value in vars(mod).items()
                  if inspect.isfunction(value) and value in originals)


@contextlib.contextmanager
def installed(tracer, layers, modules):
    """Wrap the public functions of each layer module, at every binding.

    layers maps a layer name to its module; modules are all modules whose
    globals may hold a binding (the module attribute itself or a
    ``from ... import`` copy).  Yields {original: wrapper}; restores on exit.
    """
    wrappers = {}
    for layer, module in layers.items():
        for name, fn in public_functions(module).items():
            wrappers[fn] = tracer.wrap(fn, f"{layer}.{name}")
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
    try:
        yield wrappers
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end)
            for s in spans}
