"""Acceptance gate: one test per release criterion.

Each test states its criterion, asserts the binding thresholds, and is
independent of the others; `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.  Monte Carlo criteria pin their master seeds
so reruns are bit-stable.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from references import assert_stationary, draw_kink_free, fd_gradient, flat_params
from scipy.special import expit, ndtri

from drnets.estimators import (
    FixedSpec,
    LassoSpec,
    LearnerSpec,
    estimate_ate,
    estimate_dte,
)
from drnets.linmod import lasso_fit, logistic_lasso_fit
from drnets.nnet import MLPConfig, mlp_init, mlp_loss_grad
from drnets.scores import (
    CateData,
    CateNuisance,
    DteData,
    cate_pseudo_outcome,
    delta_decomposition,
)
from drnets.simlab import (
    DgpConfig,
    coverage_study,
    double_robustness_study,
    gen_cate,
    gen_dte,
    oracle_learner_spec,
    orthogonality_study,
    rate_slope_study,
)


# --------------------------------------------------- criterion 1: gradients


def test_criterion_1_gradient_matches_finite_differences():
    """Analytic gradients vs central differences: rel err <= 1e-5,
    20 model/batch pairs, under 10 seconds."""
    start = time.time()
    rng = np.random.default_rng(42)
    h = 1e-6
    for pair in range(20):
        config = MLPConfig(depth=int(rng.integers(1, 4)),
                           width=int(rng.integers(3, 7)),
                           loss="square" if pair % 2 == 0 else "logistic",
                           clamp_bound=3.0,
                           seed=int(rng.integers(10_000)))
        model = mlp_init(config, input_dim=int(rng.integers(1, 5)))
        x = draw_kink_free(rng, model, n=8)
        y = (rng.random(8).round() if config.loss == "logistic"
             else rng.normal(size=8))
        w = rng.uniform(0.2, 2.0, 8)
        _, gw, gb = mlp_loss_grad(model, x, y, w)
        analytic = flat_params(gw, gb)
        fd = fd_gradient(model, x, y, w, h=h)
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        rel = float(np.linalg.norm(analytic - fd)) / denom
        assert rel <= 1e-5, f"pair {pair}: rel err {rel:.2e}"
    assert time.time() - start < 10.0


# --------------------------------------------------------- criterion 2: KKT


def test_criterion_2_kkt_stationarity_and_analytic_case():
    """Every converged fit passes subgradient stationarity at 1e-6; the
    two-point analytic solution beta = 2 - lam/2 matches a grid oracle."""
    rng = np.random.default_rng(7)
    for trial in range(12):
        n, p = int(rng.integers(25, 120)), int(rng.integers(1, 6))
        x = rng.uniform(-1.0, 1.0, (n, p))
        w = rng.uniform(0.1, 2.0, n)
        lam = float(rng.uniform(0.003, 0.3))
        y = x @ rng.normal(size=p) + 0.3 * rng.normal(size=n)
        m = lasso_fit(x, y, lam, sample_weight=w)
        assert_stationary(m, x, y, lam, w, tol=1e-6)
        yb = (rng.random(n) < expit(x @ rng.normal(size=p))).astype(float)
        if yb.min() == yb.max():
            continue
        mb = logistic_lasso_fit(x, yb, lam, sample_weight=w)
        assert_stationary(mb, x, yb, lam, w, tol=1e-6)

    x = np.array([[1.0], [-1.0]])
    y = np.array([2.0, -2.0])
    lam = 1.0
    m = lasso_fit(x, y, lam)
    assert m.coefficients[0] == pytest.approx(2.0 - lam / 2.0, abs=1e-10)
    grid = np.linspace(-4.0, 4.0, 800_001)
    objective = (2.0 - grid) ** 2 + lam * np.abs(grid)
    oracle = grid[np.argmin(objective)]
    assert abs(m.coefficients[0] - oracle) <= 1e-4


# ------------------------------------------- criterion 3: error components


def test_criterion_3_error_components_sum_exactly():
    """The two error components reproduce the pseudo-outcome difference to
    1e-10 on ten thousand random rows."""
    rng = np.random.default_rng(19)
    n = 10_000
    s = rng.uniform(-1.0, 1.0, (n, 3))
    t = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n) * 2.0
    data = CateData(s, t, y)

    def rand_fn(k, lo=-1.0, hi=1.0):
        coef = np.random.default_rng(k).normal(size=3)
        return lambda v, _c=coef: np.clip(v @ _c, lo, hi)

    nuis_hat = CateNuisance(pi=rand_fn(1, 0.2, 0.8), mu1=rand_fn(2), mu0=rand_fn(3))
    nuis_true = CateNuisance(pi=rand_fn(4, 0.15, 0.85), mu1=rand_fn(5), mu0=rand_fn(6))
    d1, d2 = delta_decomposition(data, nuis_hat, nuis_true)
    gap = (cate_pseudo_outcome(data, nuis_hat)
           - cate_pseudo_outcome(data, nuis_true))
    assert float(np.max(np.abs(d1 + d2 - gap))) <= 1e-10


# ------------------------------------------- criterion 4: orthogonality


def test_criterion_4_first_order_insensitivity_and_quadratic_decay():
    """Perturbation scale 0.3 at n = 1e5: every first-order moment within
    4 SE of zero; halving the scale shrinks the second-order term's RMS by
    a factor in [3, 5]; under a minute."""
    start = time.time()
    config = DgpConfig(kind="cate_sparse_smooth")
    full = orthogonality_study(config, 0.3, 100_000, seed=11)
    assert abs(full["mean_delta1"]) <= 4.0 * full["se_delta1"]
    for moment in full["delta1_moments"].values():
        assert abs(moment["mean"]) <= 4.0 * moment["se"]
    half = orthogonality_study(config, 0.15, 100_000, seed=11)
    ratio = full["rms_delta2"] / half["rms_delta2"]
    assert 3.0 <= ratio <= 5.0
    assert time.time() - start < 60.0


# --------------------------------------------- criterion 5: oracle shortcut


def test_criterion_5_oracle_shortcut_exact_for_ate_and_dte():
    """Exact nuisances plus deterministic outcomes pin the point estimate to
    the analytic value within 1e-10 with a zero standard error."""
    null_cate = DgpConfig(kind="cate_linear", noise_sd=0.0, effect_scale=0.0,
                          baseline_scale=0.0)
    data, truth = gen_cate(null_cate, 900, seed=3)
    report = estimate_ate(data, oracle_learner_spec(truth), seed=1)
    assert abs(report.theta_hat - truth.theta_ate) <= 1e-10
    assert report.sigma_hat == 0.0

    flat_dte = DgpConfig(kind="dte_linear", noise_sd=0.0, baseline_scale=0.0)
    data2, truth2 = gen_dte(flat_dte, 900, seed=4)
    final = MLPConfig(depth=1, width=4, epochs=5, batch_size=64, step_size=0.05)
    report2 = estimate_dte(data2, oracle_learner_spec(truth2), final, seed=1)
    assert truth2.theta != 0.0
    assert abs(report2.theta_hat - truth2.theta) <= 1e-10
    # Nonzero constant scores round at the last ulp when fold means are
    # combined, so the std error is zero only up to machine precision here.
    assert report2.sigma_hat <= 1e-12

    rng = np.random.default_rng(6)
    n = 400
    hand = DteData(rng.uniform(-1.0, 1.0, (n, 4)),
                   (rng.random(n) < 0.5).astype(float),
                   rng.uniform(-1.0, 1.0, (n, 2)),
                   (rng.random(n) < 0.5).astype(float),
                   np.ones(n))
    half = FixedSpec(lambda x: np.full(x.shape[0], 0.5))
    one = FixedSpec(lambda x: np.ones(x.shape[0]))
    spec = LearnerSpec(pi=half, mu=one, rho=half, nu=one)
    report3 = estimate_dte(hand, spec, final, seed=2)
    assert report3.theta_hat == 1.0
    assert report3.sigma_hat == 0.0


# --------------------------------------------------- criterion 6: coverage


def test_criterion_6_sequential_estimator_ci_coverage():
    """Lasso nuisances on the correctly specified two-stage linear process,
    n = 2000, 500 replications: 95 percent intervals cover in [0.92, 0.98]
    and 50 percent intervals in [0.44, 0.56]."""
    config = DgpConfig(kind="dte_linear", noise_sd=1.0)
    out = coverage_study(config, learner_family="lasso", reps=500, n=2000,
                         alpha=0.05, seed=1)
    assert 0.92 <= out["coverage"] <= 0.98, f"coverage {out['coverage']}"
    theta = np.array(out["theta_hats"])
    half = ndtri(0.75) * np.array(out["sigma_hats"]) / np.sqrt(out["n"])
    cov50 = float(np.mean(np.abs(theta - out["theta_true"]) <= half))
    assert 0.44 <= cov50 <= 0.56, f"alpha=0.5 coverage {cov50}"


# --------------------------------------- criterion 7: double robustness


def test_criterion_7_double_robustness_single_and_double_misspec():
    """With one nuisance replaced by a fitted constant the effect-regression
    MSE still drops from n = 1000 to n = 4000 in at least 80 percent of 30
    replications; with both replaced it fails to halve."""
    config = DgpConfig(kind="cate_sparse_smooth")
    for misspec in ("mu_wrong", "pi_wrong"):
        res = double_robustness_study(config, misspec, [1000, 4000],
                                      reps=30, seed=7)
        assert res["share_decreasing"] >= 0.8, (
            f"{misspec}: {res['share_decreasing']}")
    neg = double_robustness_study(config, "both_wrong", [1000, 4000],
                                  reps=30, seed=7)
    assert neg["per_n_mse"][-1] >= 0.5 * neg["per_n_mse"][0], (
        f"negative control decayed: {neg['per_n_mse']}")


# ------------------------------------------------- criterion 8: rate slope


def test_criterion_8_effect_regression_rate_slope():
    """Log-log MSE slope over n in {500, 1000, 2000, 4000}, 20 replications
    each, is at most -0.3 on the smooth sparse process."""
    config = DgpConfig(kind="cate_sparse_smooth")
    out = rate_slope_study(config, [500, 1000, 2000, 4000], reps=20, seed=5)
    assert out["slope"] <= -0.3, f"slope {out['slope']}"


# ------------------------------------------------ criterion 9: determinism


def test_criterion_9_byte_reproducibility(tmp_path, monkeypatch):
    """Same config and seed give byte-identical artifacts, and study output
    does not depend on the worker cap."""
    from drnets.cli import main

    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert main(["simulate", "--dgp", "dte_sparse_smooth", "--n", "400",
                     "--seed", "13", "--out", out]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()

    config = DgpConfig(kind="dte_linear", noise_sd=0.0, effect_scale=0.0,
                       baseline_scale=0.0)
    runs = []
    for cap in ("1", "3"):
        monkeypatch.setenv("DRNETS_THREADS", cap)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out = coverage_study(config, learner_family="oracle", reps=100,
                             n=200, seed=3)
        runs.append(json.dumps(out, sort_keys=True))
    assert runs[0] == runs[1]

    data, truth = gen_dte(DgpConfig(kind="dte_linear"), 600, seed=9)
    learners = LearnerSpec(pi=LassoSpec(grid_size=6), mu=LassoSpec(grid_size=6),
                           rho=LassoSpec(grid_size=6), nu=LassoSpec(grid_size=6))
    final = MLPConfig(depth=1, width=4, epochs=10, batch_size=64, step_size=0.05)
    r1 = estimate_dte(data, learners, final, n_folds=2, seed=5)
    r2 = estimate_dte(data, learners, final, n_folds=2, seed=5)
    assert r1.theta_hat == r2.theta_hat and r1.sigma_hat == r2.sigma_hat
