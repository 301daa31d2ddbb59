"""Command line entry point for simulation, estimation, and diagnostics.

Datasets travel as headed CSV files with 17-significant-digit numbers so a
write/read/write cycle is byte identical.  Every JSON output embeds the
fully resolved run configuration; feeding that block back through
``--config`` reproduces the run.  Exit codes: 0 success, 2 usage or
validation failure, 3 I/O failure, 4 estimation failure, 5 diagnostic
threshold failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import get_args, get_type_hints

import numpy as np

from ._checks import REALS, _check_choice, _check_int, _check_real
from .errors import ConfigurationError, EstimationError, InputError
from .estimators import (
    default_final_config,
    default_learner_spec,
    estimate_ate,
    estimate_cate,
    estimate_cde,
    estimate_dte,
    report_to_dict,
)
from .nnet import mlp_to_dict
from .scores import CateData, DteData
from .simlab import (
    CATE_KINDS,
    DTE_KINDS,
    LEARNER_FAMILIES,
    MAX_REPS,
    DgpConfig,
    coverage_study,
    double_robustness_study,
    generate,
    orthogonality_study,
    rate_slope_study,
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    seed: int = 0
    out: str | None = None
    data: str | None = None
    estimand: str | None = None
    dgp: str | None = None
    n: int = 1000
    K: int = 5
    alpha: float = 0.05
    reps: int | None = None
    probe: str | None = None
    study: str | None = None
    scale: float = 0.3
    learner_family: str = "lasso"
    t_level: int = 1
    m_level: int = 1
    n_grid: tuple = ()
    dgp_fields: dict = field(default_factory=dict)


# ------------------------------------------------------------------ CSV I/O

# Each estimand's data file as (stem, field) pairs in column order.  A stem
# ending in "*" is a numbered block (a1, a2, ...) holding a 2-D field.
_CATE_LAYOUT = (("s*", "s"), ("t", "t"), ("y", "y"))
_DTE_LAYOUT = (("a*", "s1"), ("t1", "t1"), ("b*", "s2"), ("t2", "t2"))
_LAYOUTS = {
    "ate": _CATE_LAYOUT,
    "cate": _CATE_LAYOUT,
    "dte": _DTE_LAYOUT + (("y", "y"),),
    "cde": _DTE_LAYOUT + (("m", "m"), ("y", "y")),
}
ESTIMANDS = tuple(_LAYOUTS)


def _table(data, estimand: str):
    """Header fields and value matrix of ``data`` in the estimand's layout."""
    columns, blocks = [], []
    for stem, name in _LAYOUTS[estimand]:
        values = getattr(data, name)
        if stem.endswith("*"):
            columns += [f"{stem[:-1]}{j + 1}" for j in range(values.shape[1])]
        else:
            columns.append(stem)
        blocks.append(values)
    return columns, np.column_stack(blocks)


def write_csv(path: str, columns: list, matrix: np.ndarray) -> None:
    with open(path, "w") as fh:
        np.savetxt(fh, matrix, fmt="%.17g", delimiter=",",
                   header=",".join(columns), comments="")


def read_csv(path: str):
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # An empty body is reported below; numpy's own warning would only repeat it.
            warnings.simplefilter("ignore", UserWarning)
            names = fh.readline().strip().split(",")
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})")
    except ValueError as exc:
        raise InputError(f"{path}: malformed numeric row ({exc})")
    if matrix.size == 0:
        raise InputError(f"{path}: no data rows")
    if matrix.shape[1] != len(names):
        raise InputError(f"{path}: {len(names)} header fields but rows have "
                         f"{matrix.shape[1]} values")
    return names, matrix


def _columns(names: list, layout) -> dict:
    """Check the header against ``layout`` field by field; map each field to its columns."""
    out, i = {}, 0
    for stem, name in layout:
        start, block = i, stem.endswith("*")
        if block:
            stem = stem[:-1]
            while i < len(names) and names[i] == f"{stem}{i - start + 1}":
                i += 1
            stem += "1"  # the field reported when the block is empty
        elif i < len(names) and names[i] == stem:
            i += 1
        if i == start:
            got = names[i] if i < len(names) else "<missing>"
            raise InputError(f"column {i + 1}: expected {stem!r}, found {got!r}")
        out[name] = slice(start, i) if block else start
    if len(names) > i:
        raise InputError(f"column {i + 1}: unexpected trailing column {names[i]!r}")
    return out


def _read_data(path: str, estimand: str):
    names, matrix = read_csv(path)
    values = {name: matrix[:, cols]
              for name, cols in _columns(names, _LAYOUTS[estimand]).items()}
    return (CateData if estimand in ("ate", "cate") else DteData)(**values)


def _write_json(out: str | None, run: RunConfig, doc: dict) -> None:
    """Write doc with the resolved run configuration embedded under "config"."""
    text = json.dumps({"config": asdict(run), **doc}, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ------------------------------------------------------------- resolution


_STUDY_DEFAULTS = {
    "orthogonality": {"dgp": "cate_sparse_smooth", "n": 100_000},
    "coverage": {"dgp": "dte_linear", "n": 2000, "reps": 500,
                 "dgp_fields": {"noise_sd": 1.0}},
    "rate_slope": {"dgp": "cate_sparse_smooth", "reps": 20,
                   "n_grid": (500, 1000, 2000, 4000), "learner_family": "mlp"},
    "double_robustness": {"dgp": "cate_sparse_smooth", "reps": 30,
                          "n_grid": (1000, 4000)},
}
STUDIES = tuple(_STUDY_DEFAULTS)

_CONFIG_TYPES = get_type_hints(RunConfig)


def _finite_float(text: str) -> float:
    """json's hook for float literals and for NaN and Infinity, which no setting
    takes; a literal such as 1e400 overflows to infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge explicit flags over config-file values over study defaults."""
    values: dict = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{args.config}: not UTF-8 text ({exc})")
            except (ValueError, RecursionError) as exc:  # or too many digits, or too deep
                raise ConfigurationError(f"invalid config JSON: {exc}")
        if isinstance(loaded, dict):  # a report's embedded block, or the values alone
            loaded = loaded.get("config", loaded)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _CONFIG_TYPES:
                raise ConfigurationError(f"unknown config key {key!r}")
            # Float fields also take ints, n_grid a list of ints; no field takes a bool.
            hint = _CONFIG_TYPES[key]
            allowed = (get_args(hint) or (hint,)) + {float: (int,), tuple: (list,)}.get(hint, ())
            if type(value) not in allowed or (
                    type(value) is list and any(type(v) is not int for v in value)):
                expected = hint if get_args(hint) else hint.__name__
                raise ConfigurationError(f"config key {key!r} must be {expected}, got {value!r}")
            values[key] = tuple(value) if type(value) is list else value
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if args.command == "diagnose":
        _check_choice("study", values.get("study"), STUDIES)
        values = {**_STUDY_DEFAULTS[values["study"]], **values}
    run = RunConfig(**values)

    # Every setting reaches the output JSON, so each is checked here under the name
    # and bounds of the code that reads it.  Two studies read a setting under a
    # stricter bound and are left to check it themselves: coverage reps, orthogonality n.
    _check_int("seed", run.seed, 0)
    _check_real("alpha", run.alpha, "(0, 1)")
    _check_real("perturbation_scale", run.scale, REALS)
    _check_int("n_folds", run.K, 2)
    if run.study != "orthogonality":
        _check_int("n", run.n, 1)
    if run.reps is not None and run.study != "coverage":
        _check_int("reps", run.reps, 1, MAX_REPS)
    _check_int("exposure level", run.t_level, 0, 1)
    _check_int("mediator level", run.m_level, -2**53, 2**53)
    for i, v in enumerate(run.n_grid):
        _check_int(f"n_grid[{i}]", v, 1)
    if run.command == "estimate" or run.estimand is not None:
        _check_choice("estimand", run.estimand, ESTIMANDS)
    if run.study is not None:
        _check_choice("study", run.study, STUDIES)
    _check_choice("learner family", run.learner_family, LEARNER_FAMILIES)
    if run.command == "estimate":  # it takes the families default_learner_spec builds
        default_learner_spec(run.learner_family)
    elif run.study not in ("coverage", "rate_slope") and (
            run.learner_family != RunConfig.learner_family):
        raise ConfigurationError(
            "learner_family applies only to estimate, diagnose coverage and diagnose rate_slope")
    if run.probe is not None and (run.command, run.estimand) != ("estimate", "cate"):
        raise ConfigurationError("probe applies only to estimate --estimand cate")
    for key in {"simulate": ("dgp", "out"), "estimate": ("data",)}.get(run.command, ()):
        if getattr(run, key) is None:
            raise ConfigurationError(f"{run.command} requires --{key}")
    _dgp_config(run)  # every output embeds dgp_fields
    return run


def _dgp_config(run: RunConfig) -> DgpConfig:
    kind = run.dgp
    if kind is None and run.command == "estimate":  # fields of the data's family of processes
        kind = (CATE_KINDS if run.estimand in ("ate", "cate") else DTE_KINDS)[0]
    try:
        return DgpConfig(kind=kind, **run.dgp_fields)
    except TypeError as exc:
        raise ConfigurationError(f"bad dgp_fields: {exc}")


# --------------------------------------------------------------- commands


def cmd_simulate(run: RunConfig) -> int:
    config = _dgp_config(run)
    data, truth = generate(config, run.n, run.seed)
    if config.kind in CATE_KINDS:
        estimand, theta = "ate", truth.theta_ate
    else:
        estimand, theta = ("dte" if data.m is None else "cde"), truth.theta
    columns, matrix = _table(data, estimand)
    write_csv(run.out, columns, matrix)
    _write_json(run.out + ".json", run,
                {"columns": columns, "n": run.n, "theta_true": float(theta)})
    return 0


def cmd_estimate(run: RunConfig) -> int:
    data = _read_data(run.data, run.estimand)
    learners = default_learner_spec(run.learner_family, data.n, run.seed)
    final = default_final_config(data.n, run.seed)
    if run.probe is not None:  # a cate run's; read and checked before any fit
        names, grid = read_csv(run.probe)
        _columns(names, _CATE_LAYOUT[:1])
        if grid.shape[1] != data.s.shape[1]:
            raise InputError(f"{run.probe}: {grid.shape[1]} covariate columns, "
                             f"the data has {data.s.shape[1]}")

    if run.estimand == "cate":
        est = estimate_cate(data, learners, final, seed=run.seed)
        doc = {
            "provenance": est.provenance,
            "model_half1": mlp_to_dict(est.model_half1),
            "model_half2": mlp_to_dict(est.model_half2),
        }
        if run.probe is not None:
            doc["probe"] = {"path": run.probe,
                            "predictions": est.predict(grid).tolist()}
        _write_json(run.out, run, doc)
        return 0

    if run.estimand == "ate":
        report = estimate_ate(data, learners, n_folds=run.K, alpha=run.alpha,
                              seed=run.seed)
    elif run.estimand == "dte":
        report = estimate_dte(data, learners, final, n_folds=run.K,
                              alpha=run.alpha, seed=run.seed)
    else:
        report = estimate_cde(data, (run.t_level, run.m_level), learners,
                              final, n_folds=run.K, alpha=run.alpha,
                              seed=run.seed)
    _write_json(run.out, run, {"report": report_to_dict(report)})
    return 0


def cmd_diagnose(run: RunConfig) -> int:
    config = _dgp_config(run)
    if run.study == "orthogonality":
        result = orthogonality_study(config, run.scale, run.n, run.seed)
        passed = all(abs(m["mean"]) <= 4.0 * m["se"] for m in result["delta1_moments"].values())
    elif run.study == "coverage":
        result = coverage_study(config, learner_family=run.learner_family,
                                reps=run.reps, n=run.n, alpha=run.alpha,
                                seed=run.seed, n_folds=run.K)
        passed = abs(result["coverage"] - (1.0 - run.alpha)) <= 0.03
    elif run.study == "rate_slope":
        result = rate_slope_study(config, list(run.n_grid), reps=run.reps,
                                  seed=run.seed, learner_family=run.learner_family)
        passed = result["slope"] <= -0.3
    else:
        result = {misspec: double_robustness_study(config, misspec, list(run.n_grid),
                                                   reps=run.reps, seed=run.seed)
                  for misspec in ("mu_wrong", "pi_wrong", "both_wrong")}
        per_n = result["both_wrong"]["per_n_mse"]
        passed = per_n[-1] >= 0.5 * per_n[0] and all(
            result[m]["share_decreasing"] >= 0.8 for m in ("mu_wrong", "pi_wrong"))
    _write_json(run.out, run, {"study": run.study, "result": result, "passed": passed})
    return 0 if passed else 5


# ------------------------------------------------------------------ driver


# Each command's help line, handler and flags, in --help order.  A flag's type
# is its RunConfig annotation; "study" is diagnose's positional argument.
_COMMANDS = {
    "simulate": ("draw a synthetic dataset", cmd_simulate, ("dgp", "n")),
    "estimate": ("run an estimator on a CSV file", cmd_estimate,
                 ("estimand", "data", "K", "alpha", "probe")),
    "diagnose": ("run a Monte Carlo study", cmd_diagnose,
                 ("study", "dgp", "reps", "n", "alpha", "scale")),
}
_CHOICES = {"dgp": CATE_KINDS + DTE_KINDS, "estimand": ESTIMANDS}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are refusals: one stderr line, exit 2."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drnets",
        description="Doubly robust treatment-effect estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for key in keys + ("seed", "out"):
            if key == "study":
                cmd.add_argument(key, nargs="?")
            else:
                hint = _CONFIG_TYPES[key]
                cmd.add_argument(f"--{key}", type=(get_args(hint) or (hint,))[0],
                                 choices=_CHOICES.get(key))
        cmd.add_argument("--config")
    return parser


def main(argv=None) -> int:
    try:
        run = _resolve(build_parser().parse_args(argv))
        return _COMMANDS[run.command][1](run)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ConfigurationError, InputError, EstimationError, OSError, MemoryError) as exc:
        # MemoryError: e.g. an --n that passes every check but cannot be drawn.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4 if isinstance(exc, EstimationError) else 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
