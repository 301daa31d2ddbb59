"""Write a fixed set of drnets outputs to a directory, for byte-identity checks.

The committed ``tools/output_digest.sha256`` holds the hash of every file this
script writes, so a tree is checked against the record in one line, run from
the repository root after writing OUT:

    PYTHONPATH=src python3 tools/output_digest.py OUT
    (cd OUT && sha256sum -c --quiet "$OLDPWD/tools/output_digest.sha256")

The hashes hold for Python 3.11.7 and numpy 2.4.6 with its bundled OpenBLAS
(scipy-openblas 0.3.31); another build may move the last bits of a float.  A
change that moves output bytes regenerates the record, ``(cd OUT && sha256sum
* > "$OLDPWD/tools/output_digest.sha256")``, and lists the changed files in
CHANGES.md.  Two trees can also be compared directly:

    PYTHONPATH=/path/to/old/src python3 tools/output_digest.py /tmp/old
    PYTHONPATH=src python3 tools/output_digest.py /tmp/new
    diff -r /tmp/old /tmp/new

drnets is imported from PYTHONPATH, so the script runs unchanged against any
checkout.  BLAS runs on one thread and DRNETS_THREADS=1, so the outputs do
not depend on the machine's CPU count.  Every output file and the exit code
(and stderr) of every run are written; an empty ``diff -r`` is the check.
tests/test_output_record.py writes the same files through ``cli_runs`` and
``api_runs`` and checks them against the record.

The CLI runs call ``drnets.cli.main`` in this process, with OUTDIR as the
working directory and stdout and stderr captured, so each relative path in a
recorded report is the one the command was given.

CLI runs: ``drnets --help`` and each command's ``--help`` (at 80 columns),
``simulate`` then ``estimate`` for ate, cate, cde and dte at p=6 and p=26
and for the two kinds those leave out (cate_rough_outcome, dte_sparse_smooth)
at p=6, a dte estimate with MLP nuisances, ``simulate`` then ``estimate`` on
dte_linear with d1=40, d2=10, q=2, noise_sd=1 at n=300 and n=80 (seed 3000),
where the lasso strata have about as many rows as columns or fewer, an ate
estimate on an n=80 cate_linear file whose first two y cells are set to
1e12, an ate estimate with MLP nuisances on an n=400 cate_linear file whose
first three y cells are set to 1e100, and a rate-slope study at n_grid
[100, 200, 400] with one replication.
API runs: ``estimate_dte`` with the nested MLP stage-one regression,
``estimate_cate`` with MLP nuisances, ``estimate_ate`` with a ConstantSpec
mu and with an oracle pi that returns an (n, 1) column, a 100-replication
lasso ``coverage_study`` at n=400 and an oracle one on cate_rough_outcome,
direct ``mlp_fit`` runs that reach the network step's slower branches
(non-unit sample weights, and a clamp that binds in some training steps and
not in others, under each loss), ``oracle_theta`` for every kind, and the
orthogonality, rate-slope and three double-robustness studies at small sizes.

Refused runs are not recorded here: each refusal is a row of a ``_REFUSED``
table under tests/, which pins its exit code or error class and its text.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

# Set before numpy loads, so the script imports neither numpy nor drnets at
# module level.  argparse wraps --help text at COLUMNS.
ENVIRONMENT = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "DRNETS_THREADS": "1", "COLUMNS": "80"}

N = 400
# (estimand, dgp kind, p, dgp_fields giving that p)
CLI_CASES = [
    ("ate", "cate_linear", 6, {"d": 6}),
    ("ate", "cate_linear", 26, {"d": 26}),
    ("cate", "cate_sparse_smooth", 6, {"d": 6}),
    ("cate", "cate_sparse_smooth", 26, {"d": 26}),
    ("cde", "cde_binary", 6, {"d1": 4, "d2": 2}),
    ("cde", "cde_binary", 26, {"d1": 20, "d2": 6}),
    ("dte", "dte_linear", 6, {"d1": 4, "d2": 2}),
    ("dte", "dte_linear", 26, {"d1": 20, "d2": 6}),
    ("ate", "cate_rough_outcome", 6, {"d": 6}),
    ("dte", "dte_sparse_smooth", 6, {"d1": 4, "d2": 2}),
]


def _cli(out: Path, name: str, *args: str) -> None:
    """Run the drnets CLI; record its exit code, stderr and any stdout."""
    from drnets.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(args))
    (out / f"{name}.exit").write_text(f"{code}\n{stderr.getvalue()}")
    if stdout.getvalue():
        (out / f"{name}.stdout").write_text(stdout.getvalue())


def _api(out: Path, name: str, fn) -> None:
    """Write fn()'s JSON document, or the error it raised, and an exit code."""
    try:
        text = json.dumps(fn(), sort_keys=True, indent=2) + "\n"
        code = "0\n"
    except Exception:
        text, code = "", "1\n" + traceback.format_exc(limit=0)
    (out / f"{name}.json").write_text(text)
    (out / f"{name}.exit").write_text(code)


def _set_first_y(path: Path, k: int, value: str) -> None:
    """Set y (the last column) to value in the first k rows of a CSV file."""
    header, *rows = path.read_text().splitlines()
    rows[:k] = [row.rsplit(",", 1)[0] + "," + value for row in rows[:k]]
    path.write_text("\n".join([header, *rows]) + "\n")


def cli_runs(out: Path) -> None:
    cwd = os.getcwd()
    os.chdir(out)
    try:
        _cli_cases(out)
    finally:
        os.chdir(cwd)


def _cli_cases(out: Path) -> None:
    _cli(out, "help_drnets", "--help")
    for command in ("simulate", "estimate", "diagnose"):
        _cli(out, f"help_{command}", command, "--help")
    for estimand, kind, p, fields in CLI_CASES:
        stem = f"{kind}_p{p}"
        (out / f"{stem}_dgp.json").write_text(json.dumps({"dgp_fields": fields}))
        _cli(out, f"{stem}_simulate", "simulate", "--dgp", kind, "--n", str(N), "--seed", "3",
             "--config", f"{stem}_dgp.json", "--out", f"{stem}.csv")
        _cli(out, f"{stem}_estimate", "estimate", "--estimand", estimand,
             "--data", f"{stem}.csv", "--seed", "5", "--out", f"{stem}_report.json")
    # Columns near the stratum size: about 50 nu training rows for p=50 at n=300, 16 at n=80.
    (out / "near_stratum_dgp.json").write_text(json.dumps(
        {"dgp_fields": {"d1": 40, "d2": 10, "q": 2, "noise_sd": 1.0}}))
    for n in (300, 80):
        stem = f"near_stratum_n{n}"
        _cli(out, f"{stem}_simulate", "simulate", "--dgp", "dte_linear", "--n", str(n),
             "--seed", "3000", "--config", "near_stratum_dgp.json", "--out", f"{stem}.csv")
        _cli(out, f"{stem}_estimate", "estimate", "--estimand", "dte", "--data", f"{stem}.csv",
             "--out", f"{stem}_report.json")
    (out / "mlp.json").write_text(json.dumps({"learner_family": "mlp"}))
    _cli(out, "dte_p6_mlp_estimate", "estimate", "--estimand", "dte",
         "--data", "dte_linear_p6.csv", "--seed", "5", "--config", "mlp.json",
         "--out", "dte_p6_mlp_report.json")
    # Outcomes beyond 2**33, which the lasso fits at a power-of-two scale.
    _cli(out, "ate_y_1e12_simulate", "simulate", "--dgp", "cate_linear", "--n", "80",
         "--seed", "1", "--out", "ate_y_1e12.csv")
    _set_first_y(out / "ate_y_1e12.csv", 2, "1e12")
    _cli(out, "ate_y_1e12", "estimate", "--estimand", "ate", "--data", "ate_y_1e12.csv",
         "--out", "ate_y_1e12_report.json")
    # Networks fit to outcomes of 1e100 overflow when they predict.
    _cli(out, "ate_mlp_y_1e100_simulate", "simulate", "--dgp", "cate_linear", "--n", "400",
         "--seed", "3", "--out", "ate_mlp_y_1e100.csv")
    _set_first_y(out / "ate_mlp_y_1e100.csv", 3, "1e100")
    _cli(out, "ate_mlp_y_1e100", "estimate", "--estimand", "ate", "--data", "ate_mlp_y_1e100.csv",
         "--seed", "0", "--config", "mlp.json", "--out", "ate_mlp_y_1e100_report.json")
    (out / "rate_slope_small.json").write_text(json.dumps({"n_grid": [100, 200, 400], "reps": 1}))
    _cli(out, "rate_slope_small", "diagnose", "rate_slope", "--config", "rate_slope_small.json",
         "--out", "rate_slope_small_report.json")


def api_runs(out: Path) -> None:
    import numpy as np

    from drnets import (
        ConstantSpec,
        DgpConfig,
        FixedSpec,
        LassoSpec,
        LearnerSpec,
        MLPConfig,
        coverage_study,
        default_final_config,
        default_learner_spec,
        double_robustness_study,
        estimate_ate,
        estimate_cate,
        estimate_dte,
        gen_cate,
        gen_dte,
        mlp_fit,
        oracle_learner_spec,
        oracle_theta,
        orthogonality_study,
        rate_slope_study,
        report_to_dict,
    )
    from drnets.nnet import mlp_to_dict
    from drnets.simlab import CATE_KINDS, DTE_KINDS

    def dte_nested_mlp():
        data, _ = gen_dte(DgpConfig(kind="dte_linear", noise_sd=1.0), N, 11)
        learners = replace(default_learner_spec("mlp", N, seed=11), mu=None)
        return report_to_dict(estimate_dte(data, learners, default_final_config(N, seed=11),
                                           seed=11))

    def ate_constant_mu():
        data, _ = gen_cate(DgpConfig(kind="cate_linear"), N, 12)
        learners = LearnerSpec(pi=LassoSpec(), mu=ConstantSpec())
        return report_to_dict(estimate_ate(data, learners, seed=12))

    def ate_column_pi():
        """An oracle pi whose predictions come as an (n, 1) column."""
        data, truth = gen_cate(DgpConfig(kind="cate_linear"), N, 3)
        learners = replace(oracle_learner_spec(truth),
                           pi=FixedSpec(lambda s: truth.pi0(s)[:, None]))
        return report_to_dict(estimate_ate(data, learners, n_folds=2))

    def coverage():
        return coverage_study(DgpConfig(kind="dte_linear", noise_sd=1.0), "lasso",
                              reps=100, n=N, seed=13)

    def cate_mlp():
        data, _ = gen_cate(DgpConfig(kind="cate_sparse_smooth"), N, 14)
        est = estimate_cate(data, default_learner_spec("mlp", N, seed=14),
                            default_final_config(N, seed=14), seed=14)
        return {"provenance": est.provenance, "model_half1": mlp_to_dict(est.model_half1),
                "model_half2": mlp_to_dict(est.model_half2)}

    def fit(loss, weighted, clamp_bound=None):
        """One mlp_fit on a fixed draw: its parameters and loss traces."""
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, (N, 4))
        y = x[:, 0] - x[:, 1] ** 2 + 0.5 * rng.normal(size=N)
        if loss == "logistic":
            y = (y > 0).astype(np.float64)
        w = None
        if weighted:
            w = rng.uniform(0.1, 2.0, N)
            w[rng.uniform(size=N) < 0.2] = 0.0
        cfg = MLPConfig(depth=2, width=8, loss=loss, epochs=30, batch_size=32, step_size=0.1,
                        seed=15, clamp_bound=clamp_bound)
        model = mlp_fit(x, y, cfg, sample_weight=w)
        return {**mlp_to_dict(model), "training_loss": list(model.training_loss),
                "validation_loss": list(model.validation_loss)}

    _api(out, "api_dte_nested_mlp", dte_nested_mlp)
    _api(out, "api_cate_mlp", cate_mlp)
    _api(out, "api_mlp_fit_weighted", lambda: fit("square", weighted=True))
    # Bounds at which the clamp binds in some training steps and not in others.
    _api(out, "api_mlp_fit_clamped_square",
         lambda: fit("square", weighted=False, clamp_bound=1.5))
    _api(out, "api_mlp_fit_clamped_logistic",
         lambda: fit("logistic", weighted=False, clamp_bound=2.0))
    _api(out, "api_ate_constant_mu", ate_constant_mu)
    _api(out, "api_ate_column_pi", ate_column_pi)
    _api(out, "api_coverage_lasso", coverage)
    for kind in CATE_KINDS + DTE_KINDS:
        _api(out, f"api_oracle_theta_{kind}",
             lambda: oracle_theta(DgpConfig(kind=kind), 10_000, 16))
    smooth = DgpConfig(kind="cate_sparse_smooth")
    _api(out, "api_orthogonality", lambda: orthogonality_study(smooth, 0.3, 5000, 17))
    _api(out, "api_rate_slope_lasso",
         lambda: rate_slope_study(smooth, (200, 300, 400), 2, 18, learner_family="lasso"))
    for misspec in ("mu_wrong", "pi_wrong", "both_wrong"):
        _api(out, f"api_double_robustness_{misspec}",
             lambda: double_robustness_study(smooth, misspec, (200, 400), 2, 19))
    _api(out, "api_coverage_oracle_rough",
         lambda: coverage_study(DgpConfig(kind="cate_rough_outcome"), "oracle",
                                reps=100, n=N, seed=20))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digest.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    cli_runs(out)
    api_runs(out)
    return 0


if __name__ == "__main__":
    os.environ.update(ENVIRONMENT)
    sys.exit(main(sys.argv[1:]))
