"""Tests of the benchmark itself: a tiny pass of every workload, and cases
showing that every output check can fail.

Run from the root of the repository:

    python3 -m pytest drbench/test_drbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from drnets import estimators, linmod, nnet, simlab  # noqa: E402

# ------------------------------------------------------------ tiny passes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass(name, trace):
    result = run.run(name, seed=1, seconds=0.1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    if name == "dte-mlp-nested":
        assert values["nnet.mlp_fit.calls"] == 45
        assert all(values[f"linmod.{fn}.calls"] == 0
                   for fn in ("lasso_fit", "logistic_lasso_fit", "select_lambda"))
    else:
        assert values["nnet.mlp_fit.calls"] == 0
        assert values["linmod.select_lambda.calls"] > 0
        assert values["linmod.kkt_residual_max"] <= checks.KKT_TOL
    if name == "coverage-lasso":
        assert values["parallel.workers"] == os.cpu_count()
        assert values["simlab.generate.s"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert spec["paths"] == [HERE.name]


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dte-mlp-nested",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------- tracing layers


def test_wrappers_reach_every_namespace_and_self_times_add_up():
    tracer = tracing.Tracer()
    original = linmod.lasso_fit
    tracer.install()
    try:
        assert estimators.lasso_fit is linmod.lasso_fit is not original
        data, truth = simlab.gen_dte(simlab.DgpConfig(kind="dte_linear"), 300, 5)
        span = tracer.begin("bench.op")
        estimators.estimate_dte(data, estimators.default_learner_spec("lasso", 300),
                                estimators.default_final_config(300), seed=5)
        tracer.end(span)
    finally:
        tracer.uninstall()
    assert linmod.lasso_fit is original and estimators.lasso_fit is original
    metrics = tracer.layer_metrics()
    assert tracer.failures == []
    # select_lambda's own calls to lasso_fit are seen, not only estimators' calls.
    assert metrics["linmod.lasso_fit.calls"] > metrics["linmod.select_lambda.calls"]
    parts = sum(metrics[f"{layer.lstrip('_')}.self_s"] for layer in tracing.LAYERS)
    parts += metrics["trace.unattributed_s"] + metrics["trace.check_s"]
    assert parts == pytest.approx(metrics["trace.op_s"], rel=1e-9)


# ------------------------------------------------- DTE report checks fail


@pytest.fixture(scope="module")
def oracle_report():
    data, truth = simlab.gen_dte(simlab.DgpConfig(kind="dte_linear"), 2000, 11)
    report = estimators.estimate_dte(data, simlab.oracle_learner_spec(truth),
                                     estimators.default_final_config(2000), seed=11)
    return workloads._report_doc(report), truth.theta, data.n


def test_valid_report_passes(oracle_report):
    doc, theta, n = oracle_report
    assert checks.dte_report_failures(doc, theta, n, 0.05) == []


def test_theta_moved_by_ten_se_fails(oracle_report):
    doc, theta, n = oracle_report
    shift = 10 * doc["sigma_hat"] / math.sqrt(n)
    moved = {**doc, "theta_hat": doc["theta_hat"] + shift,
             "ci": [v + shift for v in doc["ci"]],
             "per_fold": [v + shift for v in doc["per_fold"]]}
    fails = checks.dte_report_failures(moved, theta, n, 0.05)
    assert len(fails) == 1 and "SE from" in fails[0]


def test_interval_disagreeing_with_sigma_fails(oracle_report):
    doc, theta, n = oracle_report
    fails = checks.dte_report_failures({**doc, "sigma_hat": doc["sigma_hat"] * 1.001},
                                       theta, n, 0.05)
    assert fails and all(f.startswith("ci ") for f in fails)


@pytest.mark.parametrize("mutate, expect", [
    (lambda d: {**d, "per_fold": [v + 1e-9 for v in d["per_fold"]]}, "per_fold"),
    (lambda d: {**d, "sigma_hat": 0.0}, "not positive"),
    (lambda d: {**d, "n": 1999}, "rows"),
    (lambda d: {**d, "alpha": 0.1}, "alpha"),
])
def test_each_report_property_can_fail(oracle_report, mutate, expect):
    doc, theta, n = oracle_report
    fails = checks.dte_report_failures(mutate(doc), theta, n, 0.05)
    assert any(expect in f for f in fails)


def test_nonzero_exit_code_fails():
    assert checks.dte_report_failures({}, 0.0, 0, 0.05, returncode=4)


# ------------------------------------------------------ study checks fail


def _study(theta_hats, sigma_hats, theta_true=0.0, n=1000):
    half = 1.959963984540054 * np.asarray(sigma_hats) / math.sqrt(n)
    covered = np.abs(np.asarray(theta_hats) - theta_true) <= half
    return {"theta_hats": list(theta_hats), "sigma_hats": list(sigma_hats), "n": n,
            "alpha": 0.05, "theta_true": theta_true, "coverage": float(covered.mean())}


def test_coverage_of_one_half_fails():
    sigma = np.ones(100)
    theta = np.where(np.arange(100) < 50, 0.0, 1.0)  # half the intervals miss
    result = _study(theta, sigma)
    assert result["coverage"] == 0.5
    assert any("outside" in f for f in checks.coverage_failures(result, 100))
    ok = _study(np.where(np.arange(100) < 95, 0.0, 1.0), sigma)
    assert checks.coverage_failures(ok, 100) == []


def test_non_finite_estimate_and_wrong_coverage_count_fail():
    theta = np.zeros(100)
    theta[3] = np.nan
    assert any("non-finite" in f for f in checks.coverage_failures(_study(theta, np.ones(100)), 100))
    result = _study(np.zeros(100), np.ones(100))
    result["coverage"] = 0.96
    assert any("estimates give" in f for f in checks.coverage_failures(result, 100))


def test_study_output_differing_between_worker_counts_fails(monkeypatch):
    config = simlab.DgpConfig(kind="dte_linear")
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("DRNETS_THREADS", workers)
        result = simlab.coverage_study(config, "oracle", reps=100, n=200, seed=4)
        outputs[workers] = json.dumps(result, sort_keys=True).encode()
    assert checks.study_identity_failures(outputs["1"], outputs["2"]) == []
    altered = outputs["2"].replace(b'"coverage": ', b'"coverage": 1', 1)
    assert checks.study_identity_failures(outputs["1"], altered)


# ---------------------------------------------- solver and network checks


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_kkt_residual_passes_fits_and_fails_perturbed_ones(link):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (400, 6))
    eta = x[:, 0] - 0.5 * x[:, 1]
    y = eta + rng.standard_normal(400) if link == "identity" else (
        rng.random(400) < 1 / (1 + np.exp(-eta))).astype(float)
    w = rng.uniform(0.5, 2.0, 400)
    fit = linmod.lasso_fit if link == "identity" else linmod.logistic_lasso_fit
    model = fit(x, y, 0.01, sample_weight=w)
    assert checks.kkt_residual(x, y, 0.01, w, model.coefficients, model.intercept,
                               link) <= checks.KKT_TOL
    bumped = model.coefficients.copy()
    bumped[0] += 1e-3
    assert checks.kkt_residual(x, y, 0.01, w, bumped, model.intercept,
                               link) > checks.KKT_TOL


def test_network_checks_fail_on_bad_losses_and_unclamped_output():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (200, 3))
    model = nnet.mlp_fit(x, x[:, 0], nnet.MLPConfig(epochs=3))
    assert checks.mlp_fit_failures(model) == []
    out = nnet.mlp_predict(model, x)
    assert checks.mlp_predict_failures(model, out) == []
    broken = nnet.MLPModel(model.config, model.input_dim, model.weights, model.biases,
                           training_loss=(1.0, math.inf))
    assert checks.mlp_fit_failures(broken)
    bound = model.config.clamp_bound
    assert checks.mlp_predict_failures(model, np.full(5, 2 * bound))
    assert checks.mlp_predict_failures(model, np.full(5, math.nan))
