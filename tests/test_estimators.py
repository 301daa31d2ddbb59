"""Estimator pipeline tests.

Exact cases (injected nuisances, degenerate outcomes) are asserted bitwise
or near machine precision; statistical behavior is checked by seeded Monte
Carlo against analytic truths with wide, pre-registered thresholds.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from drnets import estimators
from drnets.errors import (
    ConfigurationError,
    ConvergenceError,
    EstimationError,
    FoldError,
    InputError,
    SeparationError,
    SplitError,
    StratumError,
)
from drnets.estimators import (
    CateEstimate,
    ConstantSpec,
    FixedSpec,
    LassoSpec,
    LearnerSpec,
    default_final_config,
    default_learner_spec,
    estimate_ate,
    estimate_cate,
    estimate_cde,
    estimate_dte,
    estimate_mu_dr,
    normal_quantile,
    report_to_dict,
    report_to_json,
)
from drnets.linmod import lasso_fit, select_lambda
from drnets.nnet import MLPConfig, mlp_fit, mlp_predict
from drnets.scores import CateData, CateNuisance, DteData, make_folds
from drnets.simlab import DgpConfig, coverage_study, gen_dte, oracle_theta, orthogonality_study


def const_fn(value):
    return lambda s: np.full(s.shape[0], float(value))


def mixed_binary(rng, n, p):
    """Bernoulli column guaranteed to contain both values."""
    t = (rng.random(n) < p).astype(np.float64)
    t[0], t[1] = 0.0, 1.0
    return t


SMALL_FINAL = MLPConfig(depth=1, width=4, epochs=15, batch_size=32, step_size=0.05)


# ----------------------------------------------------------- exact cases


def test_ate_oracle_shortcut_is_exact():
    rng = np.random.default_rng(5)
    n = 40
    s = rng.uniform(-1.0, 1.0, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    data = CateData(s, t, t.copy())
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        mu=(FixedSpec(const_fn(1.0)), FixedSpec(const_fn(0.0))),
    )
    rep = estimate_ate(data, learners, n_folds=5, seed=0)
    assert rep.theta_hat == 1.0
    assert rep.sigma_hat == 0.0
    assert rep.ci_lower == 1.0 and rep.ci_upper == 1.0
    assert all(m == 1.0 for m in rep.fold_means)


def test_dte_oracle_shortcut_is_exact():
    rng = np.random.default_rng(6)
    n = 60
    s1 = rng.uniform(-1.0, 1.0, (n, 2))
    s2 = rng.uniform(-1.0, 1.0, (n, 1))
    t1 = mixed_binary(rng, n, 0.6)
    t2 = mixed_binary(rng, n, 0.6)
    t2[np.flatnonzero(t1 == 1)[:2]] = [0.0, 1.0]
    data = DteData(s1, t1, s2, t2, np.full(n, 2.0))
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        rho=FixedSpec(const_fn(0.5)),
        nu=FixedSpec(const_fn(2.0)),
        mu=FixedSpec(const_fn(2.0)),
    )
    rep = estimate_dte(data, learners, SMALL_FINAL, n_folds=3, seed=1)
    assert rep.theta_hat == 2.0
    assert rep.sigma_hat == 0.0
    assert rep.ci_lower == 2.0 and rep.ci_upper == 2.0


def test_cde_oracle_deterministic_outcome_zero_variance():
    rng = np.random.default_rng(7)
    n = 60
    s1 = rng.uniform(-1.0, 1.0, (n, 2))
    s2 = rng.uniform(-1.0, 1.0, (n, 1))
    t1 = mixed_binary(rng, n, 0.5)
    m = mixed_binary(rng, n, 0.5)
    m[np.flatnonzero(t1 == 1)[:2]] = [0.0, 1.0]
    data = DteData(s1, t1, s2, m.copy(), np.full(n, 1.5), m=m)
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        rho=FixedSpec(const_fn(0.5)),
        nu=FixedSpec(const_fn(1.5)),
        mu=FixedSpec(const_fn(1.5)),
    )
    rep = estimate_cde(data, (1, 1), learners, SMALL_FINAL, n_folds=3, seed=2)
    assert rep.theta_hat == 1.5
    assert rep.sigma_hat == 0.0
    assert rep.estimand == "cde_t1_m1"


def test_ate_ci_width_matches_quantile_arithmetic():
    rng = np.random.default_rng(8)
    n = 2000
    s = rng.uniform(-1.0, 1.0, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = t + 0.1 * rng.standard_normal(n)
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        mu=(FixedSpec(const_fn(1.0)), FixedSpec(const_fn(0.0))),
    )
    rep = estimate_ate(data=CateData(s, t, y), learners=learners, n_folds=4, seed=3)
    width = rep.ci_upper - rep.ci_lower
    assert abs(width - 2.0 * 1.959964 * rep.sigma_hat / np.sqrt(n)) <= 1e-9


def test_report_ci_reconstructs_from_fields():
    rng = np.random.default_rng(9)
    n = 200
    s = rng.uniform(-1.0, 1.0, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = t * s[:, 0] + rng.standard_normal(n)
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    rep = estimate_ate(CateData(s, t, y), learners, n_folds=5, alpha=0.1, seed=4)
    z = normal_quantile(1.0 - rep.alpha / 2.0)
    half = z * rep.sigma_hat / np.sqrt(rep.n)
    assert abs(rep.ci_lower - (rep.theta_hat - half)) <= 1e-12
    assert abs(rep.ci_upper - (rep.theta_hat + half)) <= 1e-12
    assert rep.ci_lower <= rep.theta_hat <= rep.ci_upper


def test_normal_quantile_reference_values():
    assert abs(normal_quantile(0.975) - 1.959963984540054) <= 1e-9
    assert abs(normal_quantile(0.75) - 0.6744897501960817) <= 1e-9
    assert abs(normal_quantile(0.3) + normal_quantile(0.7)) <= 1e-12


@pytest.mark.parametrize("q", [0.0, 1.0, 1.5, float("nan")])
def test_normal_quantile_outside_unit_interval_is_named_error(q):
    with pytest.raises(ConfigurationError, match=rf"q in \(0, 1\), got {q!r}"):
        normal_quantile(q)


def test_constant_learner_cross_fit_matches_manual_replay():
    """Replays the ATE pipeline by hand: fold constants come only from the
    training complement, scores only from the held-out fold."""
    rng = np.random.default_rng(10)
    n = 50
    s = rng.uniform(-1.0, 1.0, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = rng.standard_normal(n) + 2.0 * t
    data = CateData(s, t, y)
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    rep = estimate_ate(data, learners, n_folds=5, seed=7)

    plan = make_folds(n, 5, 7)
    chunks = []
    for k in range(5):
        tr = plan.complement_indices(k)
        c1 = np.sum(t[tr] * y[tr]) / np.sum(t[tr])
        c0 = np.sum((1 - t[tr]) * y[tr]) / np.sum(1 - t[tr])
        held = plan.fold_indices(k)
        th, yh = t[held], y[held]
        psi = c1 + th * (yh - c1) / 0.5 - c0 - (1 - th) * (yh - c0) / 0.5
        chunks.append(psi)
    manual = np.concatenate(chunks)
    assert rep.theta_hat == pytest.approx(float(manual.mean()), abs=1e-12)
    assert rep.sigma_hat == pytest.approx(float(np.sqrt(np.mean((manual - manual.mean()) ** 2))), abs=1e-12)
    for k in range(5):
        assert rep.fold_means[k] == pytest.approx(float(chunks[k].mean()), abs=1e-12)


def test_report_dict_keys_and_json_determinism():
    rng = np.random.default_rng(11)
    n = 60
    s = rng.uniform(-1.0, 1.0, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = t + rng.standard_normal(n)
    data = CateData(s, t, y)
    learners = LearnerSpec(pi=LassoSpec(lam=0.1), mu=LassoSpec(lam=0.1))
    rep1 = estimate_ate(data, learners, n_folds=3, seed=5)
    rep2 = estimate_ate(data, learners, n_folds=3, seed=5)
    doc = report_to_dict(rep1)
    assert set(doc) == {"estimand", "theta_hat", "sigma_hat", "ci", "alpha", "K",
                        "n", "seed", "per_fold", "learner_configs"}
    assert doc["ci"][0] <= doc["theta_hat"] <= doc["ci"][1]
    assert report_to_json(rep1) == report_to_json(rep2)
    parsed = json.loads(report_to_json(rep1))
    assert parsed["K"] == 3 and parsed["n"] == n


# ------------------------------------------------------------ error paths


def test_ate_single_arm_fold_error_names_fold():
    rng = np.random.default_rng(12)
    n = 30
    data = CateData(rng.uniform(-1, 1, (n, 2)), np.zeros(n), rng.standard_normal(n))
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    with pytest.raises(FoldError, match="fold 0"):
        estimate_ate(data, learners, n_folds=3, seed=0)


def test_cate_split_error_when_single_arm():
    rng = np.random.default_rng(13)
    n = 12
    data = CateData(rng.uniform(-1, 1, (n, 2)), np.ones(n), rng.standard_normal(n))
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    with pytest.raises(SplitError):
        estimate_cate(data, learners, SMALL_FINAL, seed=0)


def test_missing_roles_raise_configuration_error():
    rng = np.random.default_rng(14)
    n = 24
    s = rng.uniform(-1, 1, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    cdata = CateData(s, t, rng.standard_normal(n))
    ddata = DteData(s, t, rng.uniform(-1, 1, (n, 1)), mixed_binary(rng, n, 0.5),
                    rng.standard_normal(n))
    spec = LearnerSpec(pi=FixedSpec(const_fn(0.5)))
    with pytest.raises(ConfigurationError, match="mu"):
        estimate_ate(cdata, spec, n_folds=2, seed=0)
    with pytest.raises(ConfigurationError, match="rho"):
        estimate_dte(ddata, spec, SMALL_FINAL, n_folds=2, seed=0)


def test_alpha_must_lie_in_unit_interval():
    rng = np.random.default_rng(15)
    n = 30
    data = CateData(rng.uniform(-1, 1, (n, 2)), mixed_binary(rng, n, 0.5),
                    rng.standard_normal(n))
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    with pytest.raises(ConfigurationError, match="alpha"):
        estimate_ate(data, learners, n_folds=3, alpha=1.5, seed=0)


@pytest.mark.parametrize("k", [2.5, np.float64(3.0), True, 1])
def test_fold_count_must_be_an_integer_of_at_least_two(k):
    """make_folds owns the rule, so every estimator rejects a bad K through it."""
    rng = np.random.default_rng(15)
    n = 30
    data = CateData(rng.uniform(-1, 1, (n, 2)), mixed_binary(rng, n, 0.5),
                    rng.standard_normal(n))
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=ConstantSpec())
    with pytest.raises(ConfigurationError, match="n_folds must be an integer >= 2"):
        make_folds(n, k, 0)
    with pytest.raises(ConfigurationError, match="n_folds must be an integer >= 2"):
        estimate_ate(data, learners, n_folds=k, seed=0)


def test_half_split_estimators_check_the_clip_before_any_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance was fit before propensity_clip was checked")

    monkeypatch.setattr(estimators, "_fit_learner", no_fit)
    d, _ = gen_dte(DgpConfig(kind="dte_linear"), 80, 2)
    cate = CateData(d.s1, d.t1, d.y)
    lasso = LassoSpec(grid_size=4)
    with pytest.raises(ConfigurationError, match="propensity_clip"):
        estimate_cate(cate, LearnerSpec(pi=lasso, mu=lasso), SMALL_FINAL, propensity_clip=0.7)
    with pytest.raises(ConfigurationError, match="propensity_clip"):
        estimate_mu_dr(d, LearnerSpec(pi=lasso, rho=lasso, nu=lasso), SMALL_FINAL,
                       propensity_clip=0.0)


@pytest.mark.parametrize("seed", [-1, True, 1.5, np.float64(2.0), "3"])
def test_every_estimator_checks_the_seed_before_any_fit(monkeypatch, seed):
    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance was fit before the seed was checked")

    monkeypatch.setattr(estimators, "_fit_learner", no_fit)
    monkeypatch.setattr(estimators, "mlp_fit", no_fit)
    d, _ = gen_dte(DgpConfig(kind="cde_binary"), 80, 2)
    cate = CateData(d.s1, d.t1, d.y)
    lasso = LassoSpec(grid_size=4)
    learners = LearnerSpec(pi=lasso, mu=lasso, rho=lasso, nu=lasso)
    runs = [lambda: make_folds(80, 5, seed),
            lambda: estimate_ate(cate, learners, seed=seed),
            lambda: estimate_cate(cate, learners, SMALL_FINAL, seed=seed),
            lambda: estimate_mu_dr(d, learners, SMALL_FINAL, seed=seed),
            lambda: estimate_dte(d, learners, SMALL_FINAL, seed=seed),
            lambda: estimate_cde(d, (1, 1), learners, SMALL_FINAL, seed=seed)]
    for run in runs:
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            run()


def test_mu_dr_stratum_errors():
    rng = np.random.default_rng(16)
    n = 40
    s1 = rng.uniform(-1, 1, (n, 2))
    s2 = rng.uniform(-1, 1, (n, 1))
    y = rng.standard_normal(n)
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)),
                           rho=FixedSpec(const_fn(0.5)), nu=ConstantSpec())
    all_control = DteData(s1, np.zeros(n), s2, mixed_binary(rng, n, 0.5), y)
    with pytest.raises(StratumError, match="t1=1"):
        estimate_mu_dr(all_control, learners, SMALL_FINAL, seed=0)
    one_arm_t2 = DteData(s1, np.ones(n), s2, np.zeros(n), y)
    with pytest.raises(StratumError):
        estimate_mu_dr(one_arm_t2, learners, SMALL_FINAL, seed=0)


def test_dte_fold_error_on_single_t1_arm():
    rng = np.random.default_rng(17)
    n = 40
    data = DteData(rng.uniform(-1, 1, (n, 2)), np.ones(n), rng.uniform(-1, 1, (n, 1)),
                   mixed_binary(rng, n, 0.5), rng.standard_normal(n))
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), rho=FixedSpec(const_fn(0.5)),
                           nu=ConstantSpec(), mu=ConstantSpec())
    with pytest.raises(FoldError, match="fold 0"):
        estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=0)


def test_cde_requires_mediator_and_observed_level():
    rng = np.random.default_rng(18)
    n = 40
    s1 = rng.uniform(-1, 1, (n, 2))
    s2 = rng.uniform(-1, 1, (n, 1))
    t1 = mixed_binary(rng, n, 0.5)
    m = mixed_binary(rng, n, 0.5)
    y = rng.standard_normal(n)
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), rho=FixedSpec(const_fn(0.5)),
                           nu=ConstantSpec(), mu=ConstantSpec())
    with pytest.raises(InputError, match="mediator"):
        estimate_cde(DteData(s1, t1, s2, m, y), (1, 1), learners, SMALL_FINAL,
                     n_folds=2, seed=0)
    data = DteData(s1, t1, s2, m.copy(), y, m=m)
    with pytest.raises(StratumError, match="m=2"):
        estimate_cde(data, (1, 2), learners, SMALL_FINAL, n_folds=2, seed=0)
    with pytest.raises(ConfigurationError, match="exposure"):
        estimate_cde(data, (3, 1), learners, SMALL_FINAL, n_folds=2, seed=0)


@pytest.mark.parametrize("mu", [None, LassoSpec(grid_size=4)])
def test_cde_with_mediator_t2_is_dte(mu):
    """CDE is DTE on relabelled data: with m := t2 the (1, 1) CDE report is
    the DTE report in every field but the estimand and the target config."""
    d, _ = gen_dte(DgpConfig(kind="dte_linear"), 400, 3)
    data = DteData(d.s1, d.t1, d.s2, d.t2, d.y, m=d.t2)
    lasso = LassoSpec(grid_size=4)
    learners = LearnerSpec(pi=lasso, rho=lasso, nu=lasso, mu=mu)
    cde = estimate_cde(data, (1, 1), learners, SMALL_FINAL, n_folds=2, seed=5)
    dte = estimate_dte(d, learners, SMALL_FINAL, n_folds=2, seed=5)
    assert cde.estimand == "cde_t1_m1"
    configs = dict(cde.learner_configs)
    assert configs.pop("target") == [1, 1]
    assert replace(cde, estimand="dte", learner_configs=configs) == dte


def test_nuisance_convergence_failure_names_fold_and_role(monkeypatch):
    def stuck(*args, **kwargs):
        raise ConvergenceError("lasso stopped with KKT residual 1.480e-05 > 1e-06")

    monkeypatch.setattr(estimators, "select_lambda", stuck)
    data, _ = gen_dte(DgpConfig(kind="dte_linear"), 200, 1)
    with pytest.raises(ConvergenceError, match="fold 0 pi: lasso stopped with KKT residual"):
        estimate_dte(data, default_learner_spec("lasso"), SMALL_FINAL, n_folds=2, seed=0)


def test_nuisance_separation_failure_names_fold_and_role():
    # Fold 0's t1=1 stratum has 7 rows with a single t2=1 row, which the rho
    # selection split holds out, leaving one class on its training side.
    data, _ = gen_dte(DgpConfig(kind="dte_linear"), 40, 1)
    with pytest.raises(SeparationError, match="^fold 0 rho: logistic fit needs both classes"):
        estimate_dte(data, default_learner_spec("lasso"), SMALL_FINAL, n_folds=2, seed=1)


def test_tiny_nested_stratum_is_a_stratum_error_naming_the_fold():
    data, _ = gen_dte(DgpConfig(kind="dte_linear"), 12, 1)
    learners = LearnerSpec(pi=ConstantSpec(), rho=ConstantSpec(), nu=ConstantSpec())
    with pytest.raises(StratumError, match="^fold 0 mu: estimate_mu_dr needs at least 4 rows"):
        estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=1)


@pytest.mark.parametrize("cls,kwargs,message", [
    (MLPConfig, {"depth": True}, "depth must be an integer >= 1, got True"),
    (MLPConfig, {"epochs": 2.5}, "epochs must be an integer >= 1, got 2.5"),
    (MLPConfig, {"width": 2.5}, "width must be an integer >= 1, got 2.5"),
    (MLPConfig, {"batch_size": 2.5}, "batch_size must be an integer >= 1, got 2.5"),
    (MLPConfig, {"step_size": "0.1"}, "step_size must be a number, got '0.1'"),
    (MLPConfig, {"clamp_bound": np.inf}, "clamp_bound must be finite, got inf"),
    (MLPConfig, {"seed": -1}, "seed must be an integer >= 0, got -1"),
    (LassoSpec, {"grid_size": 2.5}, "grid_size must be an integer >= 2, got 2.5"),
    (LassoSpec, {"lam": "0.1"}, "lam must be a number, got '0.1'"),
    (ConstantSpec, {"value": float("nan")}, "value must be finite, got nan"),
    (ConstantSpec, {"value": "1"}, "value must be a number, got '1'"),
    (ConstantSpec, {"value": True}, "value must be a number, got True"),
])
def test_config_fields_reject_wrong_types_at_construction(cls, kwargs, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        cls(**kwargs)


@pytest.mark.parametrize("estimand", ["ate", "dte"])
def test_non_finite_scores_fail_naming_the_first_bad_fold(estimand):
    """An injected outcome regression that is NaN at one row makes that row's
    fold fail with an estimation error, not a NaN report."""
    data, _ = gen_dte(DgpConfig(kind="dte_linear"), 200, 4)
    row = int(np.flatnonzero(make_folds(data.n, 5, 0).assignments == 3)[0])

    def mu(s):
        return np.where((s == data.s1[row]).all(axis=1), np.nan, 1.0)

    if estimand == "ate":
        run = lambda: estimate_ate(CateData(data.s1, data.t1, data.y),
                                   LearnerSpec(pi=FixedSpec(const_fn(0.5)), mu=FixedSpec(mu)))
    else:
        half = FixedSpec(const_fn(0.5))
        learners = LearnerSpec(pi=half, rho=half, nu=FixedSpec(const_fn(1.0)), mu=FixedSpec(mu))
        run = lambda: estimate_dte(data, learners, SMALL_FINAL)
    with pytest.raises(EstimationError, match="fold 3: scores are not finite"):
        run()


def _nan_fn(s):
    return np.full(s.shape[0], np.nan)


@pytest.mark.parametrize("path,message", [
    ("dte_nested_mu", "fold 0 mu: regression half 1 mu: pseudo-outcomes are not finite"),
    ("mu_dr", "regression half 1 mu: pseudo-outcomes are not finite"),
    ("dte_mlp_mu", "fold 0 mu: pseudo-outcomes are not finite"),
    ("dte_lasso_mu", "fold 0 mu: pseudo-outcomes are not finite"),
    ("cate", "half 1 final_stage: pseudo-outcomes are not finite"),
])
def test_non_finite_pseudo_outcomes_fail_naming_the_half_and_role(path, message):
    """A NaN nuisance makes the pseudo-outcomes of the first half or fold
    non-finite: an EstimationError naming where, never an input or stratum
    error."""
    data, _ = gen_dte(DgpConfig(kind="dte_linear"), 200, 4)
    half = FixedSpec(const_fn(0.5))
    learners = LearnerSpec(pi=half, rho=half, nu=FixedSpec(_nan_fn))
    runs = {
        "dte_nested_mu": lambda: estimate_dte(data, learners, SMALL_FINAL),
        "mu_dr": lambda: estimate_mu_dr(data, learners, SMALL_FINAL),
        "dte_mlp_mu": lambda: estimate_dte(data, replace(learners, mu=SMALL_FINAL), SMALL_FINAL),
        "dte_lasso_mu": lambda: estimate_dte(data, replace(learners, mu=LassoSpec(grid_size=4)),
                                             SMALL_FINAL),
        "cate": lambda: estimate_cate(CateData(data.s1, data.t1, data.y),
                                      LearnerSpec(pi=half, mu=FixedSpec(_nan_fn)), SMALL_FINAL),
    }
    with pytest.raises(EstimationError, match=f"^{re.escape(message)}$") as info:
        runs[path]()
    assert type(info.value) is EstimationError


def _no_fit(*args, **kwargs):
    raise AssertionError("a model was fit before the settings were checked")


@pytest.mark.parametrize("target,message", [
    ((1.5, 1), "exposure level must be an integer in [0, 1], got 1.5"),
    ((True, 1), "exposure level must be an integer in [0, 1], got True"),
    (("1", 1), "exposure level must be an integer in [0, 1], got '1'"),
    ((2, 1), "exposure level must be an integer in [0, 1], got 2"),
    ((1, 1.5), f"mediator level must be an integer in [{-2**53}, {2**53}], got 1.5"),
    ((1, 1, 0), "target must be a pair (t, m), got (1, 1, 0)"),
    (1, "target must be a pair (t, m), got 1"),
    ((1, 10**400), f"mediator level must be an integer in [{-2**53}, {2**53}], got {10**400}"),
])
def test_cde_target_is_checked_before_any_fit(monkeypatch, target, message):
    monkeypatch.setattr(estimators, "_fit_learner", _no_fit)
    monkeypatch.setattr(estimators, "mlp_fit", _no_fit)
    d, _ = gen_dte(DgpConfig(kind="cde_binary"), 80, 2)
    lasso = LassoSpec(grid_size=4)
    learners = LearnerSpec(pi=lasso, rho=lasso, nu=lasso)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        estimate_cde(d, target, learners, SMALL_FINAL, n_folds=2)


_LASSO_PAIR = LearnerSpec(pi=LassoSpec(grid_size=4), mu=LassoSpec(grid_size=4))


@pytest.mark.parametrize("name,run", [
    ("alpha", lambda d: estimate_ate(CateData(d.s1, d.t1, d.y), _LASSO_PAIR, alpha="0.05")),
    ("propensity_clip", lambda d: estimate_ate(CateData(d.s1, d.t1, d.y), _LASSO_PAIR,
                                               propensity_clip=None)),
    ("propensity_clip", lambda d: CateNuisance(const_fn(0.5), const_fn(0.0), const_fn(0.0),
                                               propensity_clip="x")),
    ("grid_size", lambda d: select_lambda(d.s1, d.y, grid_size="4")),
    ("lam", lambda d: lasso_fit(d.s1, d.y, lam="0.1")),
    ("n_mc", lambda d: oracle_theta(DgpConfig(kind="cate_linear"), "20000", 0)),
    ("reps", lambda d: coverage_study(DgpConfig(kind="dte_linear"), reps="100")),
    ("n", lambda d: orthogonality_study(DgpConfig(kind="cate_sparse_smooth"), 0.3, "100", 0)),
], ids=["alpha", "propensity_clip", "nuisance_clip", "grid_size", "lam", "n_mc", "reps", "n"])
def test_api_arguments_of_the_wrong_type_are_named_before_any_fit(monkeypatch, name, run):
    """A string or None where a number belongs is a ConfigurationError that
    names the setting, not a bare TypeError from deep inside a fit."""
    monkeypatch.setattr(estimators, "_fit_learner", _no_fit)
    monkeypatch.setattr(estimators, "mlp_fit", _no_fit)
    d, _ = gen_dte(DgpConfig(kind="dte_linear"), 80, 2)
    with pytest.raises(ConfigurationError, match=f"^{name} must be "):
        run(d)


def test_default_helpers():
    cfg = default_final_config(4000)
    assert cfg.width >= 8 and cfg.depth == 2
    spec = default_learner_spec("lasso")
    assert isinstance(spec.pi, LassoSpec) and isinstance(spec.nu, LassoSpec)
    spec_mlp = default_learner_spec("mlp", n=500)
    assert isinstance(spec_mlp.pi, MLPConfig)
    with pytest.raises(ConfigurationError):
        default_learner_spec("forest")


# ----------------------------------------------------- structural behavior


def test_cate_predict_is_the_half_average():
    rng = np.random.default_rng(19)
    n = 80
    s = rng.uniform(-1, 1, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = s[:, 0] + t + 0.2 * rng.standard_normal(n)
    est = estimate_cate(CateData(s, t, y),
                        LearnerSpec(pi=LassoSpec(lam=0.05), mu=LassoSpec(lam=0.05)),
                        SMALL_FINAL, seed=3)
    probe = rng.uniform(-1, 1, (50, 2))
    expected = 0.5 * (mlp_predict(est.model_half1, probe) + mlp_predict(est.model_half2, probe))
    assert np.array_equal(est.predict(probe), expected)
    assert est.provenance["reshuffled"] is False
    assert sum(est.provenance["half_sizes"]) == n


def test_cate_half_relabeling_leaves_prediction_unchanged():
    rng = np.random.default_rng(20)
    n = 80
    s = rng.uniform(-1, 1, (n, 2))
    t = mixed_binary(rng, n, 0.5)
    y = s[:, 0] + t + 0.2 * rng.standard_normal(n)
    est = estimate_cate(CateData(s, t, y),
                        LearnerSpec(pi=LassoSpec(lam=0.05), mu=LassoSpec(lam=0.05)),
                        SMALL_FINAL, seed=3)
    swapped = CateEstimate(est.model_half2, est.model_half1, est.provenance)
    probe = rng.uniform(-1, 1, (200, 2))
    assert np.array_equal(est.predict(probe), swapped.predict(probe))


def test_dte_same_seed_reproduces_bitwise():
    rng = np.random.default_rng(21)
    n = 120
    s1 = rng.uniform(-1, 1, (n, 2))
    t1 = mixed_binary(rng, n, 0.6)
    s2 = rng.uniform(-1, 1, (n, 1))
    t2 = mixed_binary(rng, n, 0.6)
    t2[np.flatnonzero(t1 == 1)[:2]] = [0.0, 1.0]
    y = 1.0 + s1[:, 0] + s2[:, 0] + t1 + 0.5 * t2 + 0.3 * rng.standard_normal(n)
    data = DteData(s1, t1, s2, t2, y)
    learners = LearnerSpec(pi=LassoSpec(lam=0.05), rho=LassoSpec(lam=0.05),
                           nu=LassoSpec(lam=0.05))
    rep_a = estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=9)
    rep_b = estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=9)
    assert report_to_json(rep_a) == report_to_json(rep_b)
    rep_c = estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=10)
    assert rep_c.theta_hat != rep_a.theta_hat


def test_mu_dr_predictions_respect_each_half_clamp():
    rng = np.random.default_rng(22)
    n = 200
    s1 = rng.uniform(-1, 1, (n, 2))
    t1 = mixed_binary(rng, n, 0.7)
    s2 = rng.uniform(-1, 1, (n, 1))
    t2 = mixed_binary(rng, n, 0.5)
    t2[np.flatnonzero(t1 == 1)[:2]] = [0.0, 1.0]
    y = 1.0 + s2[:, 0] + 0.2 * rng.standard_normal(n)
    data = DteData(s1, t1, s2, t2, y)
    learners = LearnerSpec(pi=FixedSpec(const_fn(0.5)), rho=FixedSpec(const_fn(0.5)),
                           nu=FixedSpec(lambda sb: 1.0 + sb[:, -1]))
    pair = estimate_mu_dr(data, learners, SMALL_FINAL, seed=4)
    probe = rng.uniform(-1, 1, (500, 2))
    for model in (pair.model_half1, pair.model_half2):
        bound = model.config.clamp_bound
        assert bound is not None
        assert np.all(np.abs(mlp_predict(model, probe)) <= bound + 1e-12)


# -------------------------------------------------------- statistical tests


def test_ate_randomized_dgp_within_four_se():
    """Antisymmetric outcome, true ATE 0; |theta| <= 4 sigma/sqrt(n) in >=95%."""
    hits = 0
    reps = 200
    for r in range(reps):
        rng = np.random.default_rng([100, r])
        n = 300
        s = rng.uniform(-1.0, 1.0, (n, 3))
        t = mixed_binary(rng, n, 0.5)
        y = (2.0 * t - 1.0) * s[:, 0] + 0.3 * rng.standard_normal(n)
        learners = LearnerSpec(pi=LassoSpec(grid_size=6), mu=LassoSpec(grid_size=6))
        rep = estimate_ate(CateData(s, t, y), learners, n_folds=3, seed=r)
        if abs(rep.theta_hat) <= 4.0 * rep.sigma_hat / np.sqrt(n):
            hits += 1
    assert hits >= int(0.95 * reps)


def test_cate_oracle_constant_effect_mse_small():
    """theta(s) = 0 everywhere; oracle nuisances; grid MSE <= 0.05 at n=4000."""
    rng = np.random.default_rng(23)
    n = 4000
    s = rng.uniform(-1.0, 1.0, (n, 3))
    t = mixed_binary(rng, n, 0.5)
    g = s[:, 0] + 0.5 * s[:, 1]
    y = g + 0.3 * rng.standard_normal(n)
    baseline = lambda q: q[:, 0] + 0.5 * q[:, 1]
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        mu=(FixedSpec(baseline), FixedSpec(baseline)),
    )
    final = MLPConfig(depth=2, width=12, epochs=80, batch_size=128, step_size=0.05)
    est = estimate_cate(CateData(s, t, y), learners, final, seed=0)
    grid = np.random.default_rng(24).uniform(-1.0, 1.0, (400, 3))
    mse = float(np.mean(est.predict(grid) ** 2))
    assert mse <= 0.05


def test_mu_dr_constant_truth_sup_norm():
    """Oracle rho/nu; mu is constant 1; fitted regression within 0.05 sup-norm."""
    rng = np.random.default_rng(25)
    n = 4000
    s1 = rng.uniform(-1.0, 1.0, (n, 2))
    t1 = mixed_binary(rng, n, 0.7)
    s2 = 0.12 * rng.uniform(-1.0, 1.0, (n, 1))
    t2 = mixed_binary(rng, n, 0.5)
    y = 1.0 + s2[:, 0] + 0.05 * rng.standard_normal(n)
    data = DteData(s1, t1, s2, t2, y)
    learners = LearnerSpec(
        pi=FixedSpec(const_fn(0.5)),
        rho=FixedSpec(const_fn(0.5)),
        nu=FixedSpec(lambda sb: 1.0 + sb[:, -1]),
    )
    # Full-batch descent to convergence; a held-out checkpoint would freeze
    # the surface early and leave init wiggle in place.
    final = MLPConfig(depth=2, width=32, epochs=800, batch_size=4096,
                      step_size=0.3, validation_fraction=0.0)
    pair = estimate_mu_dr(data, learners, final, seed=1)
    probe = np.vstack([
        np.random.default_rng(26).uniform(-1.0, 1.0, (256, 2)),
        np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
    ])
    sup = float(np.max(np.abs(pair.predict(probe) - 1.0)))
    assert sup <= 0.05


def test_dte_fold_seed_stability():
    """Different fold seeds move theta by less than 6 sigma/sqrt(n)."""
    rng = np.random.default_rng(27)
    n = 800
    s1 = rng.uniform(-1.0, 1.0, (n, 2))
    p1 = expit(0.5 * s1[:, 0])
    t1 = (rng.random(n) < p1).astype(np.float64)
    u = rng.uniform(-0.4, 0.4, n)
    s2 = np.clip(0.3 * t1 + 0.4 * s1[:, 0] + u, -1.0, 1.0)[:, None]
    p2 = expit(0.5 * (s1[:, 0] + s2[:, 0]))
    t2 = (rng.random(n) < p2).astype(np.float64)
    y = 1.0 + s1[:, 0] + 0.5 * s1[:, 1] + 1.5 * s2[:, 0] + t1 + 0.5 * t2 \
        + 0.4 * rng.standard_normal(n)
    data = DteData(s1, t1, s2, t2, y)
    learners = LearnerSpec(pi=LassoSpec(grid_size=6), rho=LassoSpec(grid_size=6),
                           nu=LassoSpec(grid_size=6), mu=LassoSpec(grid_size=6))
    for pair_idx in range(20):
        seed_a, seed_b = 2 * pair_idx, 2 * pair_idx + 1
        rep_a = estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=seed_a)
        rep_b = estimate_dte(data, learners, SMALL_FINAL, n_folds=2, seed=seed_b)
        assert not np.array_equal(make_folds(n, 2, seed_a).assignments,
                                  make_folds(n, 2, seed_b).assignments)
        spread = 6.0 * max(rep_a.sigma_hat, rep_b.sigma_hat) / np.sqrt(n)
        assert abs(rep_a.theta_hat - rep_b.theta_hat) <= spread


def test_cde_contrast_recovers_unit_effect():
    """M independent of everything, Y = t + noise; theta_{1,m} - theta_{0,m} near 1."""
    rng = np.random.default_rng(28)
    n = 2000
    s1 = rng.uniform(-1.0, 1.0, (n, 2))
    t1 = mixed_binary(rng, n, 0.5)
    s2 = rng.uniform(-1.0, 1.0, (n, 1))
    m = mixed_binary(rng, n, 0.5)
    y = t1 + 0.3 * rng.standard_normal(n)
    data = DteData(s1, t1, s2, m.copy(), y, m=m)
    learners = LearnerSpec(pi=LassoSpec(grid_size=6), rho=LassoSpec(grid_size=6),
                           nu=LassoSpec(grid_size=6), mu=LassoSpec(grid_size=6))
    rep1 = estimate_cde(data, (1, 1), learners, SMALL_FINAL, n_folds=2, seed=0)
    rep0 = estimate_cde(data, (0, 1), learners, SMALL_FINAL, n_folds=2, seed=0)
    diff = rep1.theta_hat - rep0.theta_hat
    se = np.sqrt((rep1.sigma_hat**2 + rep0.sigma_hat**2) / n)
    assert abs(diff - 1.0) <= 4.0 * se


def sawtooth(x):
    return 2.0 * (x - np.floor(x)) - 1.0


def rough_baseline(s, freqs, phases, amps):
    return (amps * sawtooth(s * freqs + phases)).sum(axis=1)


def test_cate_dr_beats_plugin_on_rough_baseline():
    """Rough dense outcome surfaces, smooth sparse effect and propensity:
    the corrected learner wins the test MSE comparison in >= 80% of reps."""
    gen = np.random.default_rng(30)
    freqs = gen.uniform(2.5, 4.0, 5)
    phases = gen.uniform(0.0, 1.0, 5)
    amps = gen.uniform(0.6, 1.0, 5)
    grid = gen.uniform(-1.0, 1.0, (500, 5))
    theta_grid = 1.0 + 0.5 * grid[:, 0]
    nuis_cfg = MLPConfig(depth=2, width=16, epochs=60, batch_size=128, step_size=0.05)
    final = MLPConfig(depth=2, width=12, epochs=60, batch_size=128, step_size=0.05)
    wins = 0
    reps = 50
    for r in range(reps):
        rng = np.random.default_rng([300, r])
        n = 4000
        s = rng.uniform(-1.0, 1.0, (n, 5))
        pi = expit(0.8 * s[:, 1])
        t = (rng.random(n) < pi).astype(np.float64)
        base = rough_baseline(s, freqs, phases, amps)
        theta = 1.0 + 0.5 * s[:, 0]
        y = base + t * theta + 0.5 * rng.standard_normal(n)
        data = CateData(s, t, y)
        learners = LearnerSpec(pi=LassoSpec(grid_size=6), mu=nuis_cfg)
        est = estimate_cate(data, learners, final, seed=r)
        mse_dr = float(np.mean((est.predict(grid) - theta_grid) ** 2))
        mu1 = mlp_fit(s, y, nuis_cfg, sample_weight=t)
        mu0 = mlp_fit(s, y, replace(nuis_cfg, seed=1), sample_weight=1.0 - t)
        plug = mlp_predict(mu1, grid) - mlp_predict(mu0, grid)
        mse_plug = float(np.mean((plug - theta_grid) ** 2))
        if mse_dr < mse_plug:
            wins += 1
    assert wins >= int(0.8 * reps)
