"""Generator invariants, oracle cross-checks, and study report contracts."""

import numpy as np
import pytest
from refusals import refusal_tests
from scipy.special import ndtri

from drnets.errors import ConfigurationError
from drnets.simlab import (
    CATE_KINDS,
    DTE_KINDS,
    DgpConfig,
    coverage_study,
    double_robustness_study,
    gen_cate,
    gen_dte,
    generate,
    oracle_learner_spec,
    oracle_theta,
    orthogonality_study,
    rate_slope_study,
)

ALL_KINDS = CATE_KINDS + DTE_KINDS
MAX = np.iinfo(np.intp).max // 8  # the most float64 entries one array can hold


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_propensities_stay_inside_band(kind):
    config = DgpConfig(kind=kind, propensity_offset=0.4)
    data, truth = generate(config, 3000, 11)
    grid_dim = config.d if kind in CATE_KINDS else config.d1
    grid = np.random.default_rng(1).uniform(-1.0, 1.0, (2000, grid_dim))
    for arr in (truth.pi0(grid),
                truth.pi0(data.s if kind in CATE_KINDS else data.s1)):
        assert arr.min() >= 0.1 and arr.max() <= 0.9
    if kind in DTE_KINDS:
        rho = truth.rho0(data.sbar2)
        assert rho.min() >= 0.1 and rho.max() <= 0.9


@pytest.mark.parametrize("kind", CATE_KINDS)
def test_realized_outcome_matches_potential_single_stage(kind):
    data, truth = gen_cate(DgpConfig(kind=kind), 2000, 3)
    selected = np.where(data.t == 1.0, truth.y1, truth.y0)
    assert np.array_equal(selected, data.y)


@pytest.mark.parametrize("kind", DTE_KINDS)
def test_realized_outcome_matches_potential_two_stage(kind):
    data, truth = gen_dte(DgpConfig(kind=kind), 2000, 3)
    second = data.m if kind == "cde_binary" else data.t2
    stacked = np.stack([truth.potential[(0, 0)], truth.potential[(0, 1)],
                        truth.potential[(1, 0)], truth.potential[(1, 1)]])
    rows = (2.0 * data.t1 + second).astype(np.intp)
    assert np.array_equal(stacked[rows, np.arange(data.n)], data.y)


def test_generation_is_byte_deterministic():
    config = DgpConfig(kind="dte_sparse_smooth")
    a, _ = gen_dte(config, 500, 9)
    b, _ = gen_dte(config, 500, 9)
    c, _ = gen_dte(config, 500, 10)
    for name in ("s1", "t1", "s2", "t2", "y"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.y.tobytes() != c.y.tobytes()


def test_treated_share_matches_propensity_mean():
    """Empirical E[T] agrees with the integral of pi0 at the million scale."""
    config = DgpConfig(kind="cate_linear", propensity_offset=0.3)
    data, truth = gen_cate(config, 1_000_000, 17)
    assert abs(data.t.mean() - truth.pi0(data.s).mean()) < 0.01


def test_zero_noise_outcome_equals_conditional_mean():
    data, truth = gen_cate(DgpConfig(kind="cate_linear", noise_sd=0.0), 400, 5)
    mu = np.where(data.t == 1.0, truth.mu1(data.s), truth.mu0(data.s))
    assert np.array_equal(data.y, mu)


def test_null_process_has_zero_estimand():
    config = DgpConfig(kind="dte_linear", effect_scale=0.0, baseline_scale=0.0,
                       noise_sd=1.0)
    data, truth = gen_dte(config, 500, 2)
    assert truth.theta == 0.0
    assert np.allclose(truth.mu0(data.s1), 0.0)


def test_mediator_kind_fills_mediator_column():
    data, _ = gen_dte(DgpConfig(kind="cde_binary"), 800, 4)
    assert data.m is not None
    assert np.array_equal(data.m, data.t2)
    assert set(np.unique(data.m)) <= {0.0, 1.0}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_theta_matches_brute_force_oracle(kind):
    config = DgpConfig(kind=kind)
    if kind in CATE_KINDS:
        analytic = gen_cate(config, 10, 0)[1].theta_ate
    else:
        analytic = gen_dte(config, 10, 0)[1].theta
    theta_mc, mc_se = oracle_theta(config, 200_000, 101)
    assert abs(analytic - theta_mc) <= max(4.0 * mc_se, 0.005)


def test_oracle_theta_million_draw_agreement():
    config = DgpConfig(kind="dte_linear")
    analytic = gen_dte(config, 10, 0)[1].theta
    theta_mc, _ = oracle_theta(config, 1_000_000, 31)
    assert abs(analytic - theta_mc) <= 0.005


def test_oracle_se_shrinks_like_root_n():
    config = DgpConfig(kind="cate_sparse_smooth")
    _, se1 = oracle_theta(config, 20_000, 7)
    _, se2 = oracle_theta(config, 40_000, 8)
    ratio = se2 / se1
    assert 0.8 / np.sqrt(2.0) <= ratio <= 1.2 / np.sqrt(2.0)


def test_orthogonality_zero_perturbation_is_exactly_zero():
    out = orthogonality_study(DgpConfig(kind="cate_sparse_smooth"), 0.0,
                              20_000, 11)
    assert out["mean_delta1"] == 0.0
    assert out["mean_delta2"] == 0.0
    assert out["rms_delta2"] == 0.0


@pytest.mark.parametrize("scale", [0.1, 0.3])
def test_orthogonality_first_order_term_centered(scale):
    out = orthogonality_study(DgpConfig(kind="cate_sparse_smooth"), scale,
                              100_000, 11)
    assert abs(out["mean_delta1"]) <= 4.0 * out["se_delta1"]
    for moment in out["delta1_moments"].values():
        assert abs(moment["mean"]) <= 4.0 * moment["se"]


def test_orthogonality_second_order_rms_scales_quadratically():
    config = DgpConfig(kind="cate_sparse_smooth")
    full = orthogonality_study(config, 0.3, 100_000, 11)
    half = orthogonality_study(config, 0.15, 100_000, 11)
    ratio = full["rms_delta2"] / half["rms_delta2"]
    assert 3.0 <= ratio <= 5.0


def test_coverage_degenerate_oracle_is_exact():
    config = DgpConfig(kind="dte_linear", noise_sd=0.0, effect_scale=0.0,
                       baseline_scale=0.0)
    out = coverage_study(config, learner_family="oracle", reps=100, n=400,
                         seed=5)
    assert out["coverage"] == 1.0
    assert out["mean_ci_width"] == 0.0
    assert out["theta_true"] == 0.0


def test_coverage_report_supports_recomputing_levels():
    """Stored per-replication estimates reproduce the reported coverage."""
    config = DgpConfig(kind="dte_linear", noise_sd=0.0, effect_scale=0.0,
                       baseline_scale=0.0)
    out = coverage_study(config, learner_family="oracle", reps=100, n=400,
                         seed=5, alpha=0.05)
    half = ndtri(0.975) * np.array(out["sigma_hats"]) / np.sqrt(out["n"])
    err = np.abs(np.array(out["theta_hats"]) - out["theta_true"])
    assert float(np.mean(err <= half)) == out["coverage"]


def test_rate_slope_smoke_report_shape():
    config = DgpConfig(kind="cate_sparse_smooth")
    out = rate_slope_study(config, [400, 800, 1600], reps=2, seed=3)
    assert len(out["per_n_mse"]) == 3
    assert np.array(out["per_rep_mse"]).shape == (2, 3)
    assert np.isfinite(out["slope"])


def test_double_robustness_smoke_report_shape():
    config = DgpConfig(kind="cate_sparse_smooth")
    out = double_robustness_study(config, "both_wrong", [400, 800], reps=3,
                                  seed=4)
    assert np.array(out["per_rep_mse"]).shape == (3, 2)
    assert 0.0 <= out["share_decreasing"] <= 1.0


def test_oracle_learner_spec_round_trip():
    from drnets.estimators import estimate_ate

    config = DgpConfig(kind="cate_linear", noise_sd=0.0)
    data, truth = gen_cate(config, 1200, 21)
    report = estimate_ate(data, oracle_learner_spec(truth), seed=1)
    # Exact nuisances and zero noise collapse the scores onto theta(s).
    manual = truth.theta_cate(data.s)
    assert abs(report.theta_hat - manual.mean()) <= 1e-10


def test_two_stage_q_is_bounded_by_d1_alone():
    config = DgpConfig(kind="dte_linear", d1=40, d2=10, q=6)
    assert gen_dte(config, 50, 0)[0].s1.shape == (50, 40)
    with pytest.raises(ConfigurationError, match=r"q must lie in \[1, d1\], got 5"):
        DgpConfig(kind="dte_linear", d1=4, q=5)
    # d does not enter a two-stage draw, so a d below q changes nothing.
    a, _ = gen_dte(DgpConfig(kind="dte_sparse_smooth", q=3), 30, 2)
    b, _ = gen_dte(DgpConfig(kind="dte_sparse_smooth", q=3, d=1), 30, 2)
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("s1", "t1", "s2", "t2", "y"))


def test_coverage_single_stage_oracle_reports_exact_truth():
    config = DgpConfig(kind="cate_sparse_smooth")
    out = coverage_study(config, learner_family="oracle", reps=100, n=200,
                         seed=3, n_folds=2)
    assert out["theta_true"] == gen_cate(config, 1, 0)[1].theta_ate
    assert 0.85 <= out["coverage"] <= 1.0


# ---------------------------------------------------------- refused calls

_SMOOTH, _DTE = DgpConfig(kind="cate_sparse_smooth"), DgpConfig(kind="dte_linear")
_E, _SIZE = ConfigurationError, f" must be an integer in [1, {MAX}], got "
_REPS0 = "reps must be an integer in [1, 100000], got 0"
_TARGET = "target must be one of ((0, 0), (0, 1), (1, 0), (1, 1)), got "
_KINDS = "('cate_linear', 'cate_sparse_smooth', 'cate_rough_outcome'"
# The refused calls by test name, in rows that tests/refusals.py states.
_REFUSED = {
    "test_config_validation": [(lambda kw=kw: DgpConfig(**kw), _E, message) for kw, message in (
        ({"kind": "banana"}, f"kind must be one of {_KINDS}, 'dte_linear', 'dte_sparse_smooth', "
         "'cde_binary'), got 'banana'"),
        ({"kind": "cate_linear", "d": 3, "q": 5}, "q must lie in [1, d], got 5"),
        ({"kind": "cate_linear", "noise_sd": -0.1}, "noise_sd must lie in [0, 1e100], got -0.1"),
        ({"kind": "cate_linear", "propensity_offset": 1.5},
         "propensity_offset must lie in [-1, 1], got 1.5"),
        ({"kind": "dte_linear", "d2": 0}, "d2" + _SIZE + "0"),
        # more entries than one array can hold
        ({"kind": "cate_linear", "d": MAX + 1}, f"d{_SIZE}{MAX + 1}"),
        ({"kind": "dte_linear", "d1": MAX + 1}, f"d1{_SIZE}{MAX + 1}"),
        ({"kind": "dte_linear", "d2": MAX + 1}, f"d2{_SIZE}{MAX + 1}"))],
    "test_oracle_theta_validates_sample_size": [(lambda: oracle_theta(
        _SMOOTH, 5000, 0), _E, "n_mc must be an integer >= 10000, got 5000")],
    "test_orthogonality_rejects_two_stage_kind": [(lambda: orthogonality_study(
        _DTE, 0.1, 1000, 0), _E, f"single-stage kind must be one of {_KINDS}), got 'dte_linear'")],
    "test_mse_studies_reject_two_stage_kind_before_any_worker": [
        (f.__name__, lambda f=f, args=args: f(_DTE, *args), _E,
         f"single-stage kind must be one of {_KINDS}), got 'dte_linear'") for f, args in (
            (rate_slope_study, ([100, 200, 400], 1, 0)),
            (double_robustness_study, ("mu_wrong", [100, 200], 1, 0)))],
    "test_coverage_study_validates_reps": [(lambda: coverage_study(_DTE, reps=50), _E,
                                            "reps must be an integer in [100, 100000], got 50")],
    "test_coverage_study_checks_every_argument_before_any_worker": [
        (f"{key}-{value}-{name}", lambda kw={key: value}: coverage_study(_DTE, reps=100, **kw), _E,
         f"{name} must {rest}, got {value!r}") for key, value, name, rest in (
            ("learner_family", "nested", "learner family", "be one of ('lasso', 'mlp', 'oracle')"),
            ("n_folds", 1, "n_folds", "be an integer >= 2"), ("n", 0, "n", "be an integer >= 5"),
            ("alpha", 1.5, "alpha", "lie in (0, 1)"))],
    "test_rate_slope_validates_grid": [
        (lambda grid=grid: rate_slope_study(_SMOOTH, grid, reps=2, seed=0), _E,
         "n_grid must be strictly increasing with >= 3 points") for grid in ([500, 400, 600],
                                                                             [500, 1000])],
    "test_double_robustness_validates_misspec": [
        (lambda: double_robustness_study(_SMOOTH, "nonsense", [500, 1000], reps=2, seed=0), _E,
         "misspec must be one of ('mu_wrong', 'pi_wrong', 'both_wrong'), got 'nonsense'")],
    "test_config_requires_integer_fields": [
        (f"fields{i}", lambda kw=kw: DgpConfig(kind="cate_linear", **kw), _E, message)
        for i, (kw, message) in enumerate([
            ({"d1": 2.5}, "d1 must be an integer, got 2.5"),
            ({"q": 1.5}, "q must be an integer, got 1.5"),
            ({"d": True}, "d" + _SIZE + "True"),
            ({"coef_seed": 1.5}, "coef_seed must be an integer >= 0, got 1.5"),
            ({"coef_seed": "0"}, "coef_seed must be an integer >= 0, got '0'")])],
    "test_config_rejects_negative_coef_seed": [(lambda: DgpConfig(kind="dte_linear", coef_seed=-1),
                                                _E, "coef_seed must be an integer >= 0, got -1")],
    "test_config_rejects_non_finite_scales": [
        (f"{value}-{name}", lambda kw={name: value}: DgpConfig(kind="cate_linear", **kw), _E,
         f"{name} must be finite, got {value}") for value in (np.nan, np.inf, -np.inf)
        for name in ("propensity_offset", "effect_scale", "baseline_scale")],
    "test_config_rejects_non_numbers_in_float_fields": [
        (f"{value}-{name}", lambda kw={name: value}: DgpConfig(kind="cate_linear", **kw), _E,
         f"{name} must be a number, got {value!r}") for value in (True, "a", None)
        for name in ("noise_sd", "propensity_offset", "effect_scale", "baseline_scale")],
    # the size bound is the most rows whose draw one array holds
    "test_generators_reject_negative_n_and_seed": [
        (f"{n}-{seed}-{prefix}-{gen.__name__}-{kind}",
         lambda gen=gen, kind=kind, n=n, seed=seed: gen(DgpConfig(kind=kind), n, seed), _E,
         prefix + (f" [0, {cap}]" if n < 0 else "") + ", got -1")
        for n, seed, prefix in ((-1, 0, "n must be an integer in"),
                                (5, -1, "seed must be an integer >= 0"))
        for gen, kind, cap in ((gen_cate, "cate_linear", MAX // 4),
                               (gen_dte, "dte_linear", MAX // 10))],
    # True and 1.0 compare equal to 1, so those pairs fail on their entries
    "test_oracle_theta_rejects_target_outside_the_four_paths": [
        (case, lambda t=t: oracle_theta(_DTE, 10_000, 0, target=t), _E, message)
        for case, t, message in (
            ("target0", (2, 2), _TARGET + "(2, 2)"), ("target1", (1, 2), _TARGET + "(1, 2)"),
            ("target2", (1, 1, 0), _TARGET + "(1, 1, 0)"), ("11", "11", _TARGET + "'11'"),
            ("target4", (True, 1), "target level must be an integer in [0, 1], got True"),
            ("target5", (1.0, 1.0), "target level must be an integer in [0, 1], got 1.0"))],
    # a kind's name in place of its DgpConfig
    "test_entry_points_name_a_config_of_the_wrong_type": [
        (f.__name__, lambda f=f, args=args: f("dte_linear", *args), _E,
         "config must be DgpConfig, got str") for f, args in (
            (generate, (10, 0)), (gen_cate, (10, 0)), (gen_dte, (10, 0)),
            (oracle_theta, (10_000, 0)), (orthogonality_study, (0.3, 100, 0)),
            (rate_slope_study, ([100, 200, 400], 1, 0)),
            (double_robustness_study, ("mu_wrong", [100, 200], 1, 0)), (coverage_study, ()))] + [
        ("oracle_learner_spec", lambda: oracle_learner_spec("x"), _E,
         "truth must be CateTruth or DteTruth, got str")],
    "test_studies_reject_degenerate_sizes": [
        (lambda: orthogonality_study(_SMOOTH, 0.3, 1, 0), _E, "n must be an integer >= 2, got 1"),
        (lambda: rate_slope_study(_SMOOTH, [400, 800, 1600], reps=0, seed=0), _E, _REPS0),
        (lambda: double_robustness_study(_SMOOTH, "mu_wrong", [400, 800], reps=0, seed=0), _E,
         _REPS0)],
}
refusal_tests(_REFUSED, globals())
