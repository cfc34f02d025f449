"""No shiftlab module reaches into another module's private names, every
test module imports, the benchmark's traced groups name real functions and
its frame-bytes counter reads every builder's frames, numpy is the one
runtime dependency: neither importing the CLI nor any run loads scipy,
fractions, decimal or numpy.ma, and the commands call every public function
but a listed few."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab
import shiftlab.cli

SRC = Path(shiftlab.__file__).parent
SIBLINGS = {p.stem for p in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _internal(node: ast.ImportFrom):
    return node.level >= 1 or (node.module or "").split(".")[0] == "shiftlab"


def private_imports(source: str, filename: str = "<module>"):
    """Lines that import or access a private name of a sibling shiftlab module."""
    tree = ast.parse(source, filename=filename)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _internal(node):
            package = node.module in (None, "shiftlab")
            for alias in node.names:
                if package and alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{filename}:{node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{filename}:{node.lineno}: uses {node.value.id}.{node.attr}")
    return found


def test_no_cross_module_private_names():
    found = [line for path in sorted(SRC.glob("*.py"))
             for line in private_imports(path.read_text(), path.name)]
    assert found == []


def test_private_names_are_detected():
    source = ("from .graded_basis import _compositions, enumerate_basis\n"
              "from . import submodules as sm, schatten\n"
              "def f():\n"
              "    from shiftlab import shift_operators\n"
              "    return sm._kernel_columns, schatten.__name__, shift_operators._norm_scale\n")
    assert private_imports(source) == [
        "<module>:1: imports _compositions",
        "<module>:5: uses sm._kernel_columns",
        "<module>:5: uses shift_operators._norm_scale",
    ]


@pytest.mark.parametrize("name", sorted(p.stem for p in Path(__file__).parent.glob("test_*.py")))
def test_every_test_module_imports(name):
    # a test module that no longer imports is a collection error, which a run
    # that continues on collection errors would report apart from its failures
    importlib.import_module(name)


def _benchmark_layers():
    """perfbench/layers.py, which imports nothing from shiftlab."""
    path = Path(__file__).parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_public_function(qualname):
    module, _, name = qualname.partition(".")
    if module not in SIBLINGS or _private(name):
        return False
    return inspect.isfunction(getattr(importlib.import_module(f"shiftlab.{module}"), name, None))


def groups_without_a_function(groups):
    """Self-time groups none of whose names is a public shiftlab function:
    a rename would silently read their metric as 0."""
    return [metric for metric, names in groups.items()
            if not any(_is_public_function(n) for n in names)]


def test_every_traced_self_time_group_names_a_function():
    assert groups_without_a_function(_benchmark_layers().SELF_TIME_GROUPS) == []


def test_stale_self_time_groups_are_detected():
    groups = {"ok": ("shift_operators.coordinate_shift", "shift_operators.gone"),
              "renamed": ("shift_operators.gone",),
              "private": ("shift_operators._norm_scale",),
              "not_a_function": ("shift_operators.INVARIANCE_TOL",),
              "no_module": ("nowhere.coordinate_shift",)}
    assert groups_without_a_function(groups) == ["renamed", "private", "not_a_function",
                                                  "no_module"]


def test_traced_frame_bytes_count_every_builders_frames():
    # the traced run counts submodules.frame_bytes from each frame's columns
    # buffer: coordinate, graded, sliced and unlabelled frames alike
    from random_instances import point_evaluation_submodule
    from shiftlab import drury_arveson_weights, enumerate_basis, parse_generators, submodule
    w = drury_arveson_weights(enumerate_basis(2, 8))
    builds = [(submodule, parse_generators(text, 2))
              for text in ("z1*z2", "z1^2 - z2^2", "z1 - z2^2", "z1 - z2^2 - z2^3")]
    builds.append((point_evaluation_submodule, [(0.3, 0.1), (0.2 - 0.3j, 0.4j)]))
    for build, gens in builds:
        counters = _benchmark_layers().Counters()
        S = build(w, gens)
        counters(f"submodules.{build.__name__}", (w, gens), S)
        frame_bytes = counters.snapshot()["submodules.frame_bytes"]
        assert frame_bytes == S.sub.columns.nbytes + S.comp.columns.nbytes > 0


# every subcommand at a tiny size; the quotient probe with one and two generators
TINY_RUNS = [
    ["ramp-block", "--n", "1,2", "--p", "1", "--N", "12"],
    ["direct-sum", "--blocks", "8", "--p", "3"],
    ["factorial-family", "--m", "2", "--delta", "1", "--degrees", "2,3,4,5"],
    ["submodule-probe", "--m", "2", "--gens", "z1^2-z2^2", "--p", "1", "--degrees", "3,4"],
    ["submodule-probe", "--family", "factorial-delta", "--delta", "1", "--m", "2",
     "--gens", "z1*z2", "--p", "1", "--degrees", "3,4"],
    ["trace-inequality", "--m", "2", "--points", "0.1,0.1", "--degrees", "6,8"],
    ["quotient-probe", "--m", "2", "--gens", "z1-z2^2", "--p", "1", "--degrees", "3,4"],
    ["quotient-probe", "--m", "2", "--gens", "z1-z2^2;z1*z2", "--p", "1", "--degrees", "3,4"],
    ["identity-check", "--trials", "2"],
    ["list-families"],
]


def scipy_after_each(runs, out, roots=("scipy",)):
    """In one fresh interpreter: the modules under the given packages
    (scipy by default) loaded by import shiftlab.cli, then after each run
    in turn (each must exit 0)."""
    code = ("import json, sys\n"
            f"under = lambda m: any(f'{{m}}.'.startswith(f'{{r}}.') for r in {roots!r})\n"
            "loaded = lambda: sorted(m for m in sys.modules if under(m))\n"
            "from shiftlab.cli import main\n"
            "found = [loaded()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            f"    assert main(argv + ['--out', {str(out)!r}]) == 0, argv\n"
            "    found.append(loaded())\n"
            "print(json.dumps(found))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy and the standard library are the runtime: scipy.sparse cost every
    # run about 0.2 s and 24 MB of set-up
    assert scipy_after_each([], tmp_path) == [[]]


def test_no_run_loads_scipy(tmp_path):
    # nor does a run: operators are numpy arrays, the weights' log-gamma is
    # weight_models.log_gamma_table (scipy.special, 0.07 s and 6 MB, is out)
    # and a slice's rank of several generators comes from numpy's SVD
    assert {argv[0] for argv in TINY_RUNS} == set(shiftlab.cli.SCHEMAS)
    assert scipy_after_each(TINY_RUNS, tmp_path) == [[]] * (len(TINY_RUNS) + 1)


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test oracle only: pyproject.toml lists it under the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_no_import_or_run_loads_fractions_or_decimal(tmp_path):
    # the weight search of an ungraded quotient is exact in Python ints and
    # adds no import to the set-up every command pays; nor does numpy.ma,
    # which a plain np.unique imports lazily in numpy 2.4 (9-13 ms and 1.3 MB
    # of peak RSS on a 2-core Xeon)
    found = scipy_after_each(TINY_RUNS, tmp_path, ("fractions", "decimal", "numpy.ma"))
    assert found == [[]] * (len(TINY_RUNS) + 1)


# public names that no command calls, each with the reason it stays
UNCALLED = {
    "shift_operators.multiply": "perfbench/layers.py's shift_operators.multiply.self_s names it",
    "shift_operators.SparseEntries.toarray": "a dense window, as DegreeBlocks.toarray; no "
                                             "command takes the dense spectrum of an ambient "
                                             "window",
    "submodules.projection_matrix": "the acceptance gate's projection checks",
}


def _function_of(member):
    """The function behind a class attribute: a method, a property's getter,
    a cached property's function or a class/static method's; else None."""
    if isinstance(member, property):
        return member.fget
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    member = getattr(member, "func", member)        # functools.cached_property
    return member if inspect.isfunction(member) else None


def _code_key(fn):
    code = inspect.unwrap(fn).__code__
    return Path(code.co_filename).name, code.co_firstlineno


def public_functions():
    """{qualified name: (file, first line)} of every public function defined in
    src/shiftlab and every public method of its public classes."""
    found = {}
    for stem in sorted(SIBLINGS - {"__init__"}):
        module = importlib.import_module(f"shiftlab.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{stem}.{name}"] = _code_key(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = _function_of(member)
                    if fn is not None and not attr.startswith("_"):
                        found[f"{stem}.{name}.{attr}"] = _code_key(fn)
    return found


def test_every_public_function_is_called_by_a_command(tmp_path):
    # TINY_RUNS, the one family they leave out, a run configured from a
    # file and the default sweep of points, which checks their invariance,
    # in one process under sys.setprofile: the functions whose code ran
    config = tmp_path / "run.cfg"
    config.write_text("m = 2\ndelta = 1\ndegrees = 2,3,4,5\n")
    runs = TINY_RUNS + [
        ["quotient-probe", "--family", "hardy-ball", "--m", "2", "--gens", "z1*z2",
         "--p", "1", "--degrees", "3,4"],
        ["factorial-family", "--config", str(config)],
        ["trace-inequality", "--m", "2", "--points", "0.1,0.1"],
    ]
    code = ("import json, sys\nfrom pathlib import Path\nfrom shiftlab.cli import main\n"
            f"src = {str(SRC)!r}\nran = set()\n"
            "def profile(frame, event, arg):\n"
            "    c = frame.f_code\n"
            "    if event == 'call' and c.co_filename.startswith(src):\n"
            "        ran.add((Path(c.co_filename).name, c.co_firstlineno))\n"
            "sys.setprofile(profile)\n"
            f"codes = [main(argv + ['--out', {str(tmp_path)!r}]) for argv in {runs!r}]\n"
            "sys.setprofile(None)\n"
            "print(json.dumps([codes, sorted(ran)]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    codes, ran = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    ran = {tuple(key) for key in ran}
    uncalled = sorted(name for name, key in public_functions().items() if key not in ran)
    assert uncalled == sorted(UNCALLED), f"public functions no command calls: {uncalled}"
