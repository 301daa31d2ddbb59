"""Output checks for the drbench workloads.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks use their own arithmetic (``statistics.NormalDist``
for the normal quantile, a tanh-based logistic function, plain numpy for the
KKT conditions) so that they do not share code with the program they test.
Margins come from properties the doubly robust estimator must have, scaled
by its own standard error, never from stored copies of earlier output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

KKT_TOL = 1e-6
CI_REL_TOL = 1e-9
FOLD_MEAN_TOL = 1e-12
TRUTH_SE = 4.0
COVERAGE_LEVEL = 0.95
COVERAGE_SE = 4.0


def dte_report_failures(report: dict, theta_true: float, n_rows: int, alpha: float,
                        returncode: int = 0) -> list[str]:
    """Properties every cross-fitted DTE report must have.

    ``report`` carries ``theta_hat``, ``sigma_hat``, ``ci``, ``n``, ``alpha``
    and ``per_fold`` as the CLI writes them.
    """
    fails = []
    if returncode != 0:
        fails.append(f"cli.main returned {returncode}")
        return fails
    theta = float(report["theta_hat"])
    sigma = float(report["sigma_hat"])
    lower, upper = (float(v) for v in report["ci"])
    n = int(report["n"])
    if n != n_rows:
        fails.append(f"report n={n} but the data has {n_rows} rows")
    if float(report["alpha"]) != alpha:
        fails.append(f"report alpha={report['alpha']} but {alpha} was requested")
    if not sigma > 0:
        fails.append(f"sigma_hat={sigma} is not positive")
        return fails
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * sigma / math.sqrt(n)
    scale = abs(theta) + half
    for name, got, want in (("lower", lower, theta - half), ("upper", upper, theta + half)):
        if not abs(got - want) <= CI_REL_TOL * scale:
            fails.append(f"ci {name}={got!r} but theta_hat -/+ z*sigma/sqrt(n) gives {want!r}")
    per_fold = [float(v) for v in report["per_fold"]]
    fold_mean = math.fsum(per_fold) / len(per_fold) if per_fold else math.nan
    if not abs(fold_mean - theta) <= FOLD_MEAN_TOL:
        fails.append(f"mean of per_fold {fold_mean!r} differs from theta_hat {theta!r}")
    if not abs(theta - theta_true) <= TRUTH_SE * sigma / math.sqrt(n):
        fails.append(f"theta_hat={theta:.6g} is more than {TRUTH_SE:g} SE from "
                     f"theta={theta_true:.6g}")
    return fails


def coverage_failures(result: dict, reps: int) -> list[str]:
    """A coverage study's 95% coverage, estimates and bookkeeping."""
    fails = []
    theta_hats = np.asarray(result["theta_hats"], dtype=np.float64)
    sigma_hats = np.asarray(result["sigma_hats"], dtype=np.float64)
    if theta_hats.shape != (reps,) or sigma_hats.shape != (reps,):
        fails.append(f"study returned {theta_hats.size} estimates for {reps} replications")
        return fails
    if not np.all(np.isfinite(theta_hats)):
        fails.append("a replication returned a non-finite theta_hat")
    coverage = float(result["coverage"])
    band = COVERAGE_SE * math.sqrt(COVERAGE_LEVEL * (1.0 - COVERAGE_LEVEL) / reps)
    if not abs(coverage - COVERAGE_LEVEL) <= band:
        fails.append(f"coverage {coverage:.3f} outside {COVERAGE_LEVEL} +/- {band:.3f}")
    # Recount coverage from the per-replication estimates.
    half = (NormalDist().inv_cdf(1.0 - float(result["alpha"]) / 2.0)
            * sigma_hats / math.sqrt(int(result["n"])))
    recount = float(np.mean(np.abs(theta_hats - float(result["theta_true"])) <= half))
    if abs(recount - coverage) > 0.5 / reps:
        fails.append(f"reported coverage {coverage} but the estimates give {recount}")
    return fails


def study_identity_failures(serial: bytes, parallel: bytes) -> list[str]:
    """Study output must not depend on the worker count."""
    if serial != parallel:
        return ["study JSON differs between the serial and the parallel run"]
    return []


def _logistic(eta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def kkt_residual(x, y, lam, sample_weight, coefficients, intercept, link) -> float:
    """Largest violation of the weighted lasso's subgradient conditions.

    The objective is (1/sum w) sum_i w_i loss_i + lam * ||beta||_1 with an
    unpenalized intercept; the residual covers the intercept derivative too.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(x.shape[0]) if sample_weight is None else np.asarray(sample_weight, np.float64)
    w = w / w.sum()
    beta = np.asarray(coefficients, dtype=np.float64)
    eta = intercept + x @ beta
    if link == "identity":
        dloss = -2.0 * w * (y - eta)
    else:
        dloss = w * (_logistic(eta) - y)
    grad = x.T @ dloss
    worst = abs(float(dloss.sum()))
    zero = beta == 0
    if np.any(zero):
        worst = max(worst, float(np.max(np.abs(grad[zero]) - lam)))
    if np.any(~zero):
        worst = max(worst, float(np.max(np.abs(grad[~zero] + lam * np.sign(beta[~zero])))))
    return worst


def mlp_fit_failures(model) -> list[str]:
    losses = np.asarray(model.training_loss, dtype=np.float64)
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        return ["mlp_fit returned missing or non-finite training losses"]
    return []


def mlp_predict_failures(model, output) -> list[str]:
    out = np.asarray(output, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        return ["mlp_predict returned non-finite values"]
    bound = model.config.clamp_bound
    if bound is not None and np.any(np.abs(out) > bound):
        return [f"mlp_predict output exceeds the clamp bound {bound}"]
    return []
