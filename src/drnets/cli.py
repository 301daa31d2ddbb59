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
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

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
    DgpConfig,
    coverage_study,
    double_robustness_study,
    gen_cate,
    gen_dte,
    orthogonality_study,
    rate_slope_study,
)

STUDIES = ("orthogonality", "coverage", "rate_slope", "double_robustness")
ESTIMANDS = ("ate", "cate", "dte", "cde")


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

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["n_grid"] = list(self.n_grid)
        return doc


# ------------------------------------------------------------------ CSV I/O


def _columns_for(kind_or_estimand: str, d: int, d1: int = 0, d2: int = 0,
                 mediator: bool = False) -> list:
    if kind_or_estimand in ("ate", "cate") or kind_or_estimand in CATE_KINDS:
        return [f"s{j + 1}" for j in range(d)] + ["t", "y"]
    cols = [f"a{j + 1}" for j in range(d1)] + ["t1"]
    cols += [f"b{j + 1}" for j in range(d2)] + ["t2"]
    if mediator:
        cols.append("m")
    cols.append("y")
    return cols


def write_csv(path: str, columns: list, matrix: np.ndarray) -> None:
    with open(path, "w") as fh:
        np.savetxt(fh, matrix, fmt="%.17g", delimiter=",",
                   header=",".join(columns), comments="")


def read_csv(path: str):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        try:
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: malformed numeric row ({exc})")
    if matrix.size == 0:
        raise InputError(f"{path}: no data rows")
    if matrix.shape[1] != len(names):
        raise InputError(f"{path}: {len(names)} header fields but rows have "
                         f"{matrix.shape[1]} values")
    return names, matrix


def _check_columns(names: list, expected: list) -> None:
    for i, want in enumerate(expected):
        got = names[i] if i < len(names) else "<missing>"
        if got != want:
            raise InputError(f"column {i + 1}: expected {want!r}, found {got!r}")
    if len(names) > len(expected):
        raise InputError(f"column {len(expected) + 1}: unexpected trailing "
                         f"column {names[len(expected)]!r}")


def _count_prefix(names: list, stem: str) -> int:
    k = 0
    while k < len(names) and names[k] == f"{stem}{k + 1}":
        k += 1
    return k


def _parse_cate_csv(path: str) -> CateData:
    names, matrix = read_csv(path)
    d = _count_prefix(names, "s")
    if d == 0:
        raise InputError(f"column 1: expected 's1', found {names[0]!r}")
    _check_columns(names, _columns_for("ate", d))
    return CateData(matrix[:, :d], matrix[:, d], matrix[:, d + 1])


def _parse_dte_csv(path: str, mediator: bool) -> DteData:
    names, matrix = read_csv(path)
    d1 = _count_prefix(names, "a")
    if d1 == 0:
        raise InputError(f"column 1: expected 'a1', found {names[0]!r}")
    d2 = _count_prefix(names[d1 + 1:], "b")
    if d2 == 0:
        raise InputError(f"column {d1 + 2}: expected 'b1', found "
                         f"{names[d1 + 1] if d1 + 1 < len(names) else '<missing>'!r}")
    _check_columns(names, _columns_for("dte", 0, d1, d2, mediator))
    s1 = matrix[:, :d1]
    t1 = matrix[:, d1]
    s2 = matrix[:, d1 + 1:d1 + 1 + d2]
    t2 = matrix[:, d1 + 1 + d2]
    # The columns were checked above: y is last, and m precedes it when present.
    return DteData(s1, t1, s2, t2, matrix[:, -1], m=matrix[:, -2] if mediator else None)


def _write_json(out: str | None, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
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
                   "n_grid": (500, 1000, 2000, 4000)},
    "double_robustness": {"dgp": "cate_sparse_smooth", "reps": 30,
                          "n_grid": (1000, 4000)},
}

_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
_CONFIG_TYPES = get_type_hints(RunConfig)


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge explicit flags over config-file values over defaults."""
    file_values: dict = {}
    if getattr(args, "config", None) is not None:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"invalid config JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        source = loaded.get("config", loaded)
        for key, value in source.items():
            if key not in _CONFIG_KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            # Float fields also take ints, n_grid a list of ints; no field takes a bool.
            hint = _CONFIG_TYPES[key]
            allowed = (get_args(hint) or (hint,)) + {float: (int,), tuple: (list,)}.get(hint, ())
            if type(value) not in allowed or (
                    type(value) is list and any(type(v) is not int for v in value)):
                expected = hint if get_args(hint) else hint.__name__
                raise ConfigurationError(f"config key {key!r} must be {expected}, got {value!r}")
            file_values[key] = value

    values = dict(file_values)
    values["command"] = args.command
    if args.command == "diagnose":
        study = args.study or values.get("study")
        if study not in STUDIES:
            raise ConfigurationError(
                f"unknown study {study!r}; choose from {', '.join(STUDIES)}")
        values["study"] = study
        for key, default in _STUDY_DEFAULTS[study].items():
            values.setdefault(key, default)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values.pop("command", None)
    command = args.command

    if "n_grid" in values:
        values["n_grid"] = tuple(values["n_grid"])

    if command == "simulate":
        if values.get("dgp") is None:
            raise ConfigurationError("simulate requires --dgp")
        if values.get("out") is None:
            raise ConfigurationError("simulate requires --out")
    if command == "estimate":
        if values.get("estimand") not in ESTIMANDS:
            raise ConfigurationError(
                f"estimate requires --estimand from {', '.join(ESTIMANDS)}")
        if values.get("data") is None:
            raise ConfigurationError("estimate requires --data")
    try:
        return RunConfig(command=command, **values)
    except TypeError as exc:
        raise ConfigurationError(str(exc))


def _dgp_config(run: RunConfig) -> DgpConfig:
    if run.dgp is None:
        raise ConfigurationError("a DGP kind is required")
    try:
        return DgpConfig(kind=run.dgp, **run.dgp_fields)
    except TypeError as exc:
        raise ConfigurationError(f"bad dgp_fields: {exc}")


# --------------------------------------------------------------- commands


def cmd_simulate(run: RunConfig) -> int:
    config = _dgp_config(run)
    if run.n < 1:
        raise ConfigurationError(f"n must be >= 1, got {run.n}")
    if config.kind in CATE_KINDS:
        data, truth = gen_cate(config, run.n, run.seed)
        columns = _columns_for(config.kind, config.d)
        matrix = np.column_stack([data.s, data.t, data.y])
        theta = truth.theta_ate
    else:
        data, truth = gen_dte(config, run.n, run.seed)
        mediator = config.kind == "cde_binary"
        columns = _columns_for(config.kind, 0, config.d1, config.d2, mediator)
        parts = [data.s1, data.t1[:, None], data.s2, data.t2[:, None]]
        if mediator:
            parts.append(data.m[:, None])
        parts.append(data.y[:, None])
        matrix = np.column_stack(parts)
        theta = truth.theta
    write_csv(run.out, columns, matrix)
    _write_json(run.out + ".json", {
        "config": run.to_dict(),
        "columns": columns,
        "n": run.n,
        "theta_true": float(theta),
    })
    return 0


def cmd_estimate(run: RunConfig) -> int:
    if run.estimand in ("ate", "cate"):
        data = _parse_cate_csv(run.data)
    else:
        data = _parse_dte_csv(run.data, mediator=run.estimand == "cde")
    learners = default_learner_spec(run.learner_family, data.n, run.seed)
    final = default_final_config(data.n, run.seed)

    if run.estimand == "cate":
        est = estimate_cate(data, learners, final, seed=run.seed)
        doc = {
            "config": run.to_dict(),
            "provenance": est.provenance,
            "model_half1": mlp_to_dict(est.model_half1),
            "model_half2": mlp_to_dict(est.model_half2),
        }
        if run.probe is not None:
            names, grid = read_csv(run.probe)
            _check_columns(names, [f"s{j + 1}" for j in range(data.s.shape[1])])
            doc["probe"] = {"path": run.probe,
                            "predictions": est.predict(grid).tolist()}
        _write_json(run.out, doc)
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
    _write_json(run.out, {"config": run.to_dict(),
                          "report": report_to_dict(report)})
    return 0


def cmd_diagnose(run: RunConfig) -> int:
    config = _dgp_config(run)
    if run.study == "orthogonality":
        result = orthogonality_study(config, run.scale, run.n, run.seed)
        passed = abs(result["mean_delta1"]) <= 4.0 * result["se_delta1"] and all(
            abs(m["mean"]) <= 4.0 * m["se"]
            for m in result["delta1_moments"].values())
    elif run.study == "coverage":
        result = coverage_study(config, learner_family=run.learner_family,
                                reps=run.reps, n=run.n, alpha=run.alpha,
                                seed=run.seed, n_folds=run.K)
        passed = abs(result["coverage"] - (1.0 - run.alpha)) <= 0.03
    elif run.study == "rate_slope":
        result = rate_slope_study(config, list(run.n_grid), reps=run.reps,
                                  seed=run.seed)
        passed = result["slope"] <= -0.3
    else:
        result = {}
        passed = True
        for misspec in ("mu_wrong", "pi_wrong", "both_wrong"):
            table = double_robustness_study(config, misspec,
                                            list(run.n_grid),
                                            reps=run.reps, seed=run.seed)
            result[misspec] = table
            if misspec == "both_wrong":
                per_n = table["per_n_mse"]
                passed = passed and per_n[-1] >= 0.5 * per_n[0]
            else:
                passed = passed and table["share_decreasing"] >= 0.8
    _write_json(run.out, {"config": run.to_dict(), "study": run.study,
                          "result": result, "passed": passed})
    return 0 if passed else 5


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drnets",
        description="Doubly robust treatment-effect estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim.add_argument("--dgp", choices=CATE_KINDS + DTE_KINDS)
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out")
    sim.add_argument("--config")

    est = sub.add_parser("estimate", help="run an estimator on a CSV file")
    est.add_argument("--estimand", choices=ESTIMANDS)
    est.add_argument("--data")
    est.add_argument("--out")
    est.add_argument("--K", type=int)
    est.add_argument("--alpha", type=float)
    est.add_argument("--seed", type=int)
    est.add_argument("--probe")
    est.add_argument("--config")

    diag = sub.add_parser("diagnose", help="run a Monte Carlo study")
    diag.add_argument("study", nargs="?")
    diag.add_argument("--dgp", choices=CATE_KINDS + DTE_KINDS)
    diag.add_argument("--reps", type=int)
    diag.add_argument("--n", type=int)
    diag.add_argument("--alpha", type=float)
    diag.add_argument("--seed", type=int)
    diag.add_argument("--scale", type=float)
    diag.add_argument("--out")
    diag.add_argument("--config")
    return parser


_DISPATCH = {"simulate": cmd_simulate, "estimate": cmd_estimate,
             "diagnose": cmd_diagnose}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _resolve(args)
        return _DISPATCH[run.command](run)
    except (ConfigurationError, InputError, EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, EstimationError) else 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
