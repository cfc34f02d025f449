"""Command-line front end for the experiments.

Every subcommand accepts ``--config FILE`` (flat ``key = value`` text,
``#`` comments, comma-separated lists); explicit flags override config
values.  Reports are written as a directory ``<out>/<experiment>-<tag>``
containing ``report.json`` plus one CSV per table.

Exit codes: 0 success, 1 theorem-backed assertion failure,
2 usage/configuration error.

Polynomial grammar (``--gens``, ';'-separated):
    polynomial := [sign] term (sign term)*
    term       := factor ('*' factor)* ['(' 'c' index ')']
    factor     := number | 'z' index ['^' exponent]
e.g. ``z1^2+z2^2`` or ``2.5*z1^2*z2 (c0); z1-z2``.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiments as xp
from .experiments import TheoremViolationError, write_report
from .polynomials import PolynomialSyntaxError, parse_generators
from .weight_models import FAMILY_IDS


class ConfigError(ValueError):
    pass


def _parse_scalar(kind, text):
    text = text.strip()
    if kind == "int":
        return int(text)
    if kind == "float":
        return np.inf if text in ("inf", "Inf") else float(text)
    if kind in ("str", "family"):
        return text
    if kind in ("int_list", "float_list"):
        item = "int" if kind == "int_list" else "float"
        return [_parse_scalar(item, t) for t in text.split(",") if t.strip()]
    if kind == "points":
        pts = []
        for part in text.split(";"):
            if not part.strip():
                continue
            pts.append(tuple(complex(c.strip()) for c in part.split(",")))
        return pts
    raise AssertionError(kind)


# The one option table: experiment -> (summary, {key: (kind, default[, help])}).
# Each key is both the flag --key and the config-file key; None default = required.
SCHEMAS = {
    "ramp-block": ("single-block weighted shift norms", {
        "n": ("int_list", [1, 5, 25, 100]),
        "p": ("float_list", [1.0, 2.0, 3.0]),
        "N": ("int", 110, "truncation degree (must exceed max n + 5)")}),
    "direct-sum": ("direct-sum vs restriction norm trends", {
        "blocks": ("int", 64),
        "p": ("float_list", [3.0])}),
    "factorial-family": ("factorial weight family thresholds", {
        "m": ("int", None),
        "delta": ("float_list", None),
        "degrees": ("int_list", [])}),
    "submodule-probe": ("submodule cross-commutator trends", {
        "family": ("family", "drury-arveson"),
        "m": ("int", None),
        "k": ("int", 1),
        "gens": ("str", None, "';'-separated polynomial generators (see epilog)"),
        "p": ("float_list", [3.0]),
        "degrees": ("int_list", []),
        "delta": ("float", np.nan)}),
    "trace-inequality": ("trace inequality along nested subspaces", {
        "family": ("family", "bergman-ball"),
        "m": ("int", None),
        "points": ("points", [], "';'-separated points, coordinates comma-separated"),
        "gens": ("str", ""),
        "degrees": ("int_list", []),
        "delta": ("float", np.nan)}),
    "quotient-probe": ("quotient-module smoothness probe", {
        "family": ("family", "bergman-ball"),
        "m": ("int", None),
        "gens": ("str", None),
        "p": ("float_list", [3.0]),
        "degrees": ("int_list", []),
        "variety-dim": ("float", np.nan,
                        "dimension of the zero variety (echoed, never computed)"),
        "delta": ("float", np.nan)}),
    "identity-check": ("restricted self-commutator identity", {
        "trials": ("int", 200)}),
    "list-families": ("list built-in weight families", {}),
}

GLOBAL_KEYS = {"seed": ("int", 0, "seed for all randomness"),
               "tag": ("str", "", "report directory suffix (default: timestamp)"),
               "out": ("str", "", "output root (or env SHIFTLAB_OUT; default ./out)")}


@dataclass
class RunConfig:
    experiment: str
    params: dict
    seed: int = 0
    tag: str = ""
    out: str = ""


def load_config_file(path: str) -> dict:
    raw = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read config file: {reason}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def build_config(experiment: str, file_values: dict, flag_values: dict,
                 source: str = "config") -> RunConfig:
    """Merge the values of config file `source` and flags (flags win) against the schema."""
    schema = SCHEMAS[experiment][1]
    file_values = dict(file_values)
    file_values.pop("experiment", None)
    unknown = set(file_values) - set(schema) - set(GLOBAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")

    values = {}
    for key, (kind, default, *_) in {**schema, **GLOBAL_KEYS}.items():
        if flag_values.get(key) is not None:
            values[key] = flag_values[key]
        elif key in file_values:
            try:
                values[key] = _parse_scalar(kind, file_values[key])
            except ValueError:
                raise ConfigError(f"{source}: bad value for {key}: {file_values[key]!r} "
                                  f"(expected {kind.replace('_', ' ')})") from None
        elif default is not None:
            values[key] = default
        else:
            raise ConfigError(f"missing required option --{key} for {experiment}")
        # an empty list stands for the default only where the default is []
        if kind.endswith("_list") and default != [] and not values[key]:
            raise ConfigError(f"empty list for --{key} of {experiment}")
    return RunConfig(experiment=experiment, params={key: values[key] for key in schema},
                     **{key: values[key] for key in GLOBAL_KEYS})


def _add_flag(parser, key, kind, default, help_text=None):
    """Flag --key of one table entry; it stays None unless given (flags win)."""
    if kind == "family":
        parser.add_argument(f"--{key}", dest=key, choices=FAMILY_IDS, help=help_text)
        return
    flag_type = {"int": int, "float": float, "str": str}.get(kind) \
        or (lambda t: _parse_scalar(kind, t))
    parser.add_argument(f"--{key}", dest=key, metavar=key.upper().replace("-", "_"),
                        type=flag_type, help=help_text)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftlab",
        description="Finite-truncation experiments on commuting weighted shifts.",
        epilog=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="experiment", required=True)
    for experiment, (summary, schema) in SCHEMAS.items():
        s = sub.add_parser(experiment, help=summary)
        for key, spec in schema.items():
            _add_flag(s, key, *spec)
        s.add_argument("--config", help="flat key = value config file")
        for key, spec in GLOBAL_KEYS.items():
            _add_flag(s, key, *spec)
    return ap


def parse_args(argv) -> RunConfig:
    ns = make_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(ns).items() if k not in ("experiment", "config")}
    file_values = load_config_file(ns.config) if ns.config else {}
    return build_config(ns.experiment, file_values, flag_values, source=ns.config)


def _nan_to_none(x):
    return None if x is None or (isinstance(x, float) and np.isnan(x)) else x


def execute(config: RunConfig) -> int:
    """Run one experiment, write its report directory, print a summary."""
    if config.experiment == "list-families":
        for name in FAMILY_IDS:
            print(name)
        return 0

    p = config.params
    delta = _nan_to_none(p.get("delta"))
    if p.get("gens"):
        gens = parse_generators(p["gens"], p.get("m", 1), p.get("k", 1))
    else:
        gens = []

    if config.experiment == "ramp-block":
        rep = xp.run_ramp_block_norms(p["n"], p["p"], p["N"])
    elif config.experiment == "direct-sum":
        rep = xp.run_direct_sum_trends(p["blocks"], p["p"])
    elif config.experiment == "factorial-family":
        rep = xp.run_factorial_thresholds(p["m"], p["delta"], p["degrees"] or None)
    elif config.experiment == "submodule-probe":
        rep = xp.run_submodule_probe(p["family"], p["m"], p["k"], gens, p["p"],
                                   p["degrees"] or None, delta=delta)
    elif config.experiment == "trace-inequality":
        rep = xp.run_trace_inequality_check(
            p["family"], p["m"],
            points=p["points"] or None, generators=gens or None,
            degree_sweep=p["degrees"] or None, delta=delta)
    elif config.experiment == "quotient-probe":
        rep = xp.run_quotient_smoothness_probe(
            gens, p["m"], p["p"], p["degrees"] or None,
            variety_dimension=_nan_to_none(p.get("variety-dim")),
            family=p["family"], delta=delta)
    elif config.experiment == "identity-check":
        rep = xp.run_restriction_identity_check(p["trials"], seed=config.seed)
    else:
        raise ConfigError(f"unknown experiment {config.experiment}")

    rep.seed = config.seed
    out_root = Path(config.out or os.environ.get("SHIFTLAB_OUT", "out"))
    tag = config.tag or time.strftime("%Y%m%dT%H%M%S")
    outdir = write_report(rep, out_root / f"{rep.name}-{tag}")
    _print_summary(rep, outdir)
    return 0


def _print_summary(rep, outdir):
    print(f"{rep.name}: report written to {outdir} "
          f"({rep.runtime_seconds:.2f}s)")
    for key, value in rep.parameters.items():
        print(f"  {key} = {value}")
    for name, v in sorted(rep.verdicts.items()):
        extras = {k: val for k, val in v.items() if k != "verdict"}
        label = str(v.get("verdict", "recorded")).upper()
        print(f"  verdict {name}: {label}  {extras}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except (ConfigError, PolynomialSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(config)
    except TheoremViolationError as exc:
        print(f"THEOREM CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, PolynomialSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
