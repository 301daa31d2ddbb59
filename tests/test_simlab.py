"""Generator invariants, oracle cross-checks, and study report contracts."""

import numpy as np
import pytest
from scipy.special import ndtri

from drnets import simlab
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


def test_config_validation():
    with pytest.raises(ConfigurationError, match="kind"):
        DgpConfig(kind="banana")
    with pytest.raises(ConfigurationError, match="q"):
        DgpConfig(kind="cate_linear", d=3, q=5)
    with pytest.raises(ConfigurationError, match="noise_sd"):
        DgpConfig(kind="cate_linear", noise_sd=-0.1)
    with pytest.raises(ConfigurationError, match="offset"):
        DgpConfig(kind="cate_linear", propensity_offset=1.5)
    with pytest.raises(ConfigurationError, match=rf"d2 must be an integer in \[1, {MAX}\], got 0"):
        DgpConfig(kind="dte_linear", d2=0)
    for kind, name in (("cate_linear", "d"), ("dte_linear", "d1"), ("dte_linear", "d2")):
        with pytest.raises(ConfigurationError, match=rf"{name} must be an integer in \[1, {MAX}"):
            DgpConfig(kind=kind, **{name: MAX + 1})  # more entries than one array can hold


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


def test_oracle_theta_validates_sample_size():
    with pytest.raises(ConfigurationError, match="n_mc"):
        oracle_theta(DgpConfig(kind="cate_linear"), 5000, 0)


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


def test_orthogonality_rejects_two_stage_kind():
    with pytest.raises(ConfigurationError, match="single-stage"):
        orthogonality_study(DgpConfig(kind="dte_linear"), 0.1, 1000, 0)


def test_coverage_degenerate_oracle_is_exact():
    config = DgpConfig(kind="dte_linear", noise_sd=0.0, effect_scale=0.0,
                       baseline_scale=0.0)
    out = coverage_study(config, learner_family="oracle", reps=100, n=400,
                         seed=5)
    assert out["coverage"] == 1.0
    assert out["mean_ci_width"] == 0.0
    assert out["theta_true"] == 0.0


def test_coverage_study_validates_reps():
    with pytest.raises(ConfigurationError, match="reps"):
        coverage_study(DgpConfig(kind="dte_linear"), reps=50)


def test_coverage_report_supports_recomputing_levels():
    """Stored per-replication estimates reproduce the reported coverage."""
    config = DgpConfig(kind="dte_linear", noise_sd=0.0, effect_scale=0.0,
                       baseline_scale=0.0)
    out = coverage_study(config, learner_family="oracle", reps=100, n=400,
                         seed=5, alpha=0.05)
    half = ndtri(0.975) * np.array(out["sigma_hats"]) / np.sqrt(out["n"])
    err = np.abs(np.array(out["theta_hats"]) - out["theta_true"])
    assert float(np.mean(err <= half)) == out["coverage"]


def test_rate_slope_validates_grid():
    config = DgpConfig(kind="cate_sparse_smooth")
    with pytest.raises(ConfigurationError, match="increasing"):
        rate_slope_study(config, [500, 400, 600], reps=2, seed=0)
    with pytest.raises(ConfigurationError, match="increasing"):
        rate_slope_study(config, [500, 1000], reps=2, seed=0)


def test_rate_slope_smoke_report_shape():
    config = DgpConfig(kind="cate_sparse_smooth")
    out = rate_slope_study(config, [400, 800, 1600], reps=2, seed=3)
    assert len(out["per_n_mse"]) == 3
    assert np.array(out["per_rep_mse"]).shape == (2, 3)
    assert np.isfinite(out["slope"])


def test_double_robustness_validates_misspec():
    with pytest.raises(ConfigurationError, match="misspec"):
        double_robustness_study(DgpConfig(kind="cate_sparse_smooth"),
                                "nonsense", [500, 1000], reps=2, seed=0)


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


@pytest.mark.parametrize("fields", [{"d1": 2.5}, {"q": 1.5}, {"d": True},
                                    {"coef_seed": 1.5}, {"coef_seed": "0"}])
def test_config_requires_integer_fields(fields):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        DgpConfig(kind="cate_linear", **fields)


def test_config_rejects_negative_coef_seed():
    with pytest.raises(ConfigurationError, match="coef_seed"):
        DgpConfig(kind="dte_linear", coef_seed=-1)


def test_two_stage_q_is_bounded_by_d1_alone():
    config = DgpConfig(kind="dte_linear", d1=40, d2=10, q=6)
    assert gen_dte(config, 50, 0)[0].s1.shape == (50, 40)
    with pytest.raises(ConfigurationError, match=r"q must lie in \[1, d1\], got 5"):
        DgpConfig(kind="dte_linear", d1=4, q=5)
    # d does not enter a two-stage draw, so a d below q changes nothing.
    a, _ = gen_dte(DgpConfig(kind="dte_sparse_smooth", q=3), 30, 2)
    b, _ = gen_dte(DgpConfig(kind="dte_sparse_smooth", q=3, d=1), 30, 2)
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("s1", "t1", "s2", "t2", "y"))


@pytest.mark.parametrize("name", ["propensity_offset", "effect_scale", "baseline_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_scales(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        DgpConfig(kind="cate_linear", **{name: value})


@pytest.mark.parametrize("name", ["noise_sd", "propensity_offset", "effect_scale",
                                  "baseline_scale"])
@pytest.mark.parametrize("value", [True, "a", None])
def test_config_rejects_non_numbers_in_float_fields(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be a number, got {value!r}"):
        DgpConfig(kind="cate_linear", **{name: value})


@pytest.mark.parametrize("gen,kind", [(gen_cate, "cate_linear"), (gen_dte, "dte_linear")])
@pytest.mark.parametrize("n,seed,message", [(-1, 0, "n must be an integer in"),
                                            (5, -1, "seed must be an integer >= 0")])
def test_generators_reject_negative_n_and_seed(gen, kind, n, seed, message):
    with pytest.raises(ConfigurationError, match=message):
        gen(DgpConfig(kind=kind), n, seed)


@pytest.mark.parametrize("target", [(2, 2), (1, 2), (1, 1, 0), "11", (True, 1), (1.0, 1.0)])
def test_oracle_theta_rejects_target_outside_the_four_paths(monkeypatch, target):
    monkeypatch.setattr(simlab, "generate", None)  # the target is checked before any draw
    # True and 1.0 compare equal to 1, so those pairs fail on their entries.
    on_a_path = tuple(target) in ((0, 0), (0, 1), (1, 0), (1, 1))
    message = "target level must be an integer" if on_a_path else "target must be one of"
    with pytest.raises(ConfigurationError, match=message):
        oracle_theta(DgpConfig(kind="dte_linear"), 10_000, 0, target=target)


def test_studies_reject_degenerate_sizes():
    config = DgpConfig(kind="cate_sparse_smooth")
    with pytest.raises(ConfigurationError, match="n must be an integer >= 2, got 1"):
        orthogonality_study(config, 0.3, 1, 0)
    with pytest.raises(ConfigurationError, match="reps"):
        rate_slope_study(config, [400, 800, 1600], reps=0, seed=0)
    with pytest.raises(ConfigurationError, match="reps"):
        double_robustness_study(config, "mu_wrong", [400, 800], reps=0, seed=0)


def test_coverage_single_stage_oracle_reports_exact_truth():
    config = DgpConfig(kind="cate_sparse_smooth")
    out = coverage_study(config, learner_family="oracle", reps=100, n=200,
                         seed=3, n_folds=2)
    assert out["theta_true"] == gen_cate(config, 1, 0)[1].theta_ate
    assert 0.85 <= out["coverage"] <= 1.0
