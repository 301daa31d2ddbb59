"""Write a fixed set of drnets outputs to a directory, for byte-identity checks.

A refactor that must not change any number is checked by running this script
on two source trees and comparing the directories:

    PYTHONPATH=/path/to/old/src python3 tools/output_digest.py /tmp/old
    PYTHONPATH=src python3 tools/output_digest.py /tmp/new
    diff -r /tmp/old /tmp/new

drnets is imported from PYTHONPATH, so the script runs unchanged against any
checkout.  BLAS runs on one thread and DRNETS_THREADS=1, so the outputs do
not depend on the machine's CPU count.  Every output file and the exit code
(and stderr) of every run are written; an empty ``diff -r`` is the check.

CLI runs: ``drnets --help`` and each command's ``--help`` (at 80 columns),
``simulate`` then ``estimate`` for ate, cate, cde and dte at p=6 and p=26
and for the two kinds those leave out (cate_rough_outcome, dte_sparse_smooth)
at p=6, a dte estimate with MLP nuisances, and eight hostile runs that must
exit 2 with one line: a string ``alpha`` in ``--config``, ``--seed -1``, an
orthogonality ``scale`` of 10**400, an ``m_level`` of 10**400, a ``d`` of
10**30, an orthogonality ``--scale 1e308``, and an ate and a cde file with
one treated row's y set to 1e308 and -1e308.  API runs: ``estimate_dte``
with the nested MLP stage-one regression, ``estimate_cate`` with MLP
nuisances, ``estimate_ate`` with a ConstantSpec mu, a 100-replication lasso
``coverage_study`` at n=400 and an oracle one on cate_rough_outcome, direct
``mlp_fit`` runs that reach the network step's slower branches (non-unit
sample weights, and a clamp that binds in some training steps and not in
others, under each loss), ``oracle_theta`` for every kind, and the
orthogonality, rate-slope and three double-robustness studies at small sizes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["DRNETS_THREADS"] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps --help text at the terminal width
# The CLI runs start in OUTDIR, so a relative PYTHONPATH entry must be made absolute.
os.environ["PYTHONPATH"] = os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

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
    """Run the drnets CLI in a fresh interpreter; record its exit code, stderr
    and any stdout."""
    proc = subprocess.run([sys.executable, "-m", "drnets.cli", *args],
                          capture_output=True, text=True, cwd=out)
    (out / f"{name}.exit").write_text(f"{proc.returncode}\n{proc.stderr}")
    if proc.stdout:
        (out / f"{name}.stdout").write_text(proc.stdout)


def _api(out: Path, name: str, fn) -> None:
    """Write fn()'s JSON document, or the error it raised, and an exit code."""
    try:
        text = json.dumps(fn(), sort_keys=True, indent=2) + "\n"
        code = "0\n"
    except Exception:
        text, code = "", "1\n" + traceback.format_exc(limit=0)
    (out / f"{name}.json").write_text(text)
    (out / f"{name}.exit").write_text(code)


def _set_treated_y(text: str, value: str) -> str:
    """CSV text with y (the last column) set to value in the first row whose
    treatment columns (t, or t1 and t2) all hold 1, so the cell enters every score."""
    header, *rows = text.splitlines()
    treated = [j for j, name in enumerate(header.split(",")) if name in ("t", "t1", "t2")]
    i = next(i for i, row in enumerate(rows)
             if all(row.split(",")[j] == "1" for j in treated))
    rows[i] = rows[i].rsplit(",", 1)[0] + "," + value
    return "\n".join([header, *rows]) + "\n"


def cli_runs(out: Path) -> None:
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
    (out / "mlp.json").write_text(json.dumps({"learner_family": "mlp"}))
    _cli(out, "dte_p6_mlp_estimate", "estimate", "--estimand", "dte",
         "--data", "dte_linear_p6.csv", "--seed", "5", "--config", "mlp.json",
         "--out", "dte_p6_mlp_report.json")
    # Hostile settings: each run's exit code and one-line error are recorded.
    (out / "alpha_string.json").write_text(json.dumps({"alpha": "0.05"}))
    _cli(out, "hostile_alpha_string", "estimate", "--estimand", "ate",
         "--data", "cate_linear_p6.csv", "--config", "alpha_string.json")
    _cli(out, "hostile_negative_seed", "simulate", "--dgp", "dte_linear", "--seed", "-1",
         "--out", "never.csv")
    (out / "huge_scale.json").write_text(json.dumps({"scale": 10**400}))
    _cli(out, "hostile_huge_scale", "diagnose", "orthogonality", "--n", "1000",
         "--config", "huge_scale.json")
    (out / "huge_m_level.json").write_text(json.dumps({"m_level": 10**400}))
    _cli(out, "hostile_huge_m_level", "estimate", "--estimand", "cde",
         "--data", "cde_binary_p6.csv", "--config", "huge_m_level.json")
    (out / "huge_d.json").write_text(json.dumps({"dgp_fields": {"d": 10**30}}))
    _cli(out, "hostile_huge_d", "diagnose", "orthogonality", "--config", "huge_d.json")
    _cli(out, "hostile_scale_1e308", "diagnose", "orthogonality", "--scale", "1e308",
         "--n", "2000")
    for estimand, kind, n, seed, value in (("ate", "cate_linear", 400, 2, "1e308"),
                                           ("cde", "cde_binary", 300, 1, "-1e308")):
        stem = f"hostile_{estimand}_y"
        _cli(out, f"{stem}_simulate", "simulate", "--dgp", kind, "--n", str(n),
             "--seed", str(seed), "--out", f"{stem}.csv")
        (out / f"{stem}.csv").write_text(_set_treated_y((out / f"{stem}.csv").read_text(), value))
        _cli(out, stem, "estimate", "--estimand", estimand, "--data", f"{stem}.csv")


def api_runs(out: Path) -> None:
    import numpy as np

    from drnets import (
        ConstantSpec,
        DgpConfig,
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
    sys.exit(main(sys.argv[1:]))
