"""Cross-fitted doubly robust estimators built on the score algebra.

Nuisances are fit per training set with role-specific learners (network,
L1-penalized linear model, fitted constant, or an injected fixed function)
and always through weighted losses: stratum restrictions enter as indicator
sample weights, which each fit drops where zero.  Final-stage regressions
(treatment effects, stage-one outcome regressions) are always networks fit
on two swapped halves whose predictions are averaged.

There is one two-stage pipeline, ``estimate_dte``.  The controlled direct
effect runs through it on relabelled data: 1{T=t} takes the place of t1 and
1{M=m} that of t2, with DTE's folds, seeds and score.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from statistics import NormalDist
from typing import Callable, Optional, Union, get_args

import numpy as np

from ._checks import (
    _check_choice,
    _check_finite,
    _check_int,
    _check_real,
    _check_type,
    _check_weights,
)
from .errors import (
    ConfigurationError,
    EstimationError,
    FoldError,
    InputError,
    SplitError,
    StratumError,
)
from .linmod import lasso_fit, logistic_lasso_fit, select_lambda
from .nnet import MLPConfig, MLPModel, _expit, mlp_fit, mlp_predict
from .scores import (
    CateData,
    CateNuisance,
    DteData,
    DteNuisance,
    PROPENSITY_CLIP,
    _relabel_cde,
    cate_pseudo_outcome,
    dte_score,
    dte_stage2_pseudo_outcome,
    make_folds,
)

# ------------------------------------------------------------ learner specs


@dataclass(frozen=True)
class LassoSpec:
    """L1 learner; lam=None selects the penalty on a log-spaced grid."""

    lam: float | None = None
    grid_size: int = 8

    def __post_init__(self):
        if self.lam is not None:
            _check_real("lam", self.lam, "[0, inf)")
        _check_int("grid_size", self.grid_size, 2)


@dataclass(frozen=True)
class ConstantSpec:
    """Predicts the weighted target mean: a deliberately inflexible learner."""

    value: float | None = None  # fixed level instead of the fitted mean

    def __post_init__(self):
        if self.value is not None:
            _check_real("value", self.value)


@dataclass(frozen=True)
class FixedSpec:
    """Injects a known prediction function (e.g. simulation truth); no fitting."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not callable(self.fn):
            raise ConfigurationError(f"fn must be callable, got {self.fn!r}")


LearnerConfig = Union[MLPConfig, LassoSpec, ConstantSpec, FixedSpec]


@dataclass(frozen=True)
class LearnerSpec:
    """Per-role nuisance learner assignment.

    ``pi`` is the first-stage propensity, ``mu`` the outcome regression used
    by single-stage estimators, ``rho``/``nu`` the second-stage propensity
    and outcome regression used by two-stage estimators.  For single-stage
    estimators ``mu`` may be one config shared by both arms or a pair
    ``(treated, control)``.
    """

    pi: LearnerConfig
    mu: Optional[LearnerConfig] = None
    rho: Optional[LearnerConfig] = None
    nu: Optional[LearnerConfig] = None

    def __post_init__(self):
        for role in ("pi", "mu", "rho", "nu"):
            cfg = getattr(self, role)
            if role == "mu" and isinstance(cfg, tuple):
                if len(cfg) != 2:
                    raise ConfigurationError("mu pair must be (treated, control) configs")
                for arm in cfg:
                    _check_type("LearnerSpec.mu", arm, *get_args(LearnerConfig))
            elif cfg is not None or role == "pi":
                _check_type(f"LearnerSpec.{role}", cfg, *get_args(LearnerConfig))


def _arm_configs(mu_cfg):
    return mu_cfg if isinstance(mu_cfg, tuple) else (mu_cfg, mu_cfg)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _describe(cfg) -> dict | None:
    if cfg is None:  # the nested stage-one regression stands in for an unset mu
        return None
    if isinstance(cfg, tuple):
        c1, c0 = _arm_configs(cfg)
        return {"treated": _describe(c1), "control": _describe(c0)}
    for family, spec in (("mlp", MLPConfig), ("lasso", LassoSpec), ("constant", ConstantSpec)):
        if isinstance(cfg, spec):
            return {"family": family, **asdict(cfg)}
    return {"family": "fixed"}


def _learner_record(learners, roles, **extras) -> dict:
    """Each role's described config, then ``extras`` as given."""
    return {**{role: _describe(getattr(learners, role)) for role in roles}, **extras}


def _fit_learner(cfg, x, y, w, kind, seed, role):
    """Fit one nuisance and return a mean-scale prediction closure.

    ``role`` names the fold (or half) and nuisance role, e.g. "fold 2 nu",
    in every estimation error raised while fitting: a weighted stratum too
    small to fit, a single class, a solver failure.
    """
    try:
        if isinstance(cfg, FixedSpec):
            return cfg.fn
        if isinstance(cfg, ConstantSpec):
            if cfg.value is not None:
                level = float(cfg.value)
            else:
                w = _check_weights(w, y.shape[0])
                level = float(np.dot(w, y) / w.sum())
            return lambda s, _v=level: np.full(s.shape[0], _v)
        if isinstance(cfg, MLPConfig):
            loss = "logistic" if kind == "propensity" else "square"
            model = mlp_fit(x, y, replace(cfg, loss=loss, seed=_derive_seed(seed, cfg.seed)), w)
            if kind == "propensity":
                return lambda s, _m=model: _expit(mlp_predict(_m, s))
            return lambda s, _m=model: mlp_predict(_m, s)
        link = "logistic" if kind == "propensity" else "identity"  # a LassoSpec
        lam = cfg.lam
        if lam is None:
            try:
                lam = select_lambda(x, y, link, grid_size=cfg.grid_size,
                                    seed=_derive_seed(seed, 1), sample_weight=w)
            except InputError as exc:  # the stratum is too small for the holdout split
                raise StratumError(str(exc)) from exc
        fit = logistic_lasso_fit if link == "logistic" else lasso_fit
        return fit(x, y, lam, sample_weight=w).predict
    except EstimationError as exc:
        raise type(exc)(f"{role}: {exc}") from exc


# ----------------------------------------------------------------- reports


def normal_quantile(q: float) -> float:
    """Standard normal quantile (inverse CDF) at q in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"normal quantile needs q in (0, 1), got {q!r}")
    return NormalDist().inv_cdf(q)


@dataclass(frozen=True)
class EstimateReport:
    estimand: str
    theta_hat: float
    sigma_hat: float
    ci_lower: float
    ci_upper: float
    alpha: float
    n_folds: int
    n: int
    seed: int
    fold_means: tuple[float, ...]
    learner_configs: dict = field(default_factory=dict)


def _check_settings(seed, propensity_clip, alpha=0.05, **typed):
    """Reject arguments of the wrong type, each given in ``typed`` as (value,
    class), then bad run settings, before any nuisance is fit; make_folds checks K."""
    for name, (value, cls) in typed.items():
        _check_type(name, value, cls)
    _check_real("alpha", alpha, "(0, 1)")
    _check_real("propensity_clip", propensity_clip, "(0, 0.5)")
    _check_int("seed", seed, 0)


def _make_report(estimand, scores_by_fold, theta, alpha, seed, learner_configs):
    for k, fold_scores in enumerate(scores_by_fold):
        _check_finite(fold_scores, f"fold {k}: scores")
    all_scores = np.concatenate(scores_by_fold)
    n = all_scores.size
    sigma = float(np.sqrt(np.mean((all_scores - theta) ** 2)))
    half = normal_quantile(1.0 - alpha / 2.0) * sigma / np.sqrt(n)
    return EstimateReport(
        estimand=estimand,
        theta_hat=float(theta),
        sigma_hat=sigma,
        ci_lower=float(theta - half),
        ci_upper=float(theta + half),
        alpha=float(alpha),
        n_folds=len(scores_by_fold),
        n=n,
        seed=seed,
        fold_means=tuple(float(np.mean(s)) for s in scores_by_fold),
        learner_configs=learner_configs,
    )


def report_to_dict(report: EstimateReport) -> dict:
    return {
        "estimand": report.estimand,
        "theta_hat": report.theta_hat,
        "sigma_hat": report.sigma_hat,
        "ci": [report.ci_lower, report.ci_upper],
        "alpha": report.alpha,
        "K": report.n_folds,
        "n": report.n,
        "seed": report.seed,
        "per_fold": list(report.fold_means),
        "learner_configs": report.learner_configs,
    }


def report_to_json(report: EstimateReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


# ------------------------------------------------------------------- ATE


def _require(cfg, role):
    if cfg is None:
        raise ConfigurationError(f"LearnerSpec is missing the {role!r} role")
    return cfg


def _cate_nuisance(learners, train, seed, tag, where, propensity_clip):
    """pi and both arm regressions fit on one training set; ``where`` names it."""
    mu1_cfg, mu0_cfg = _arm_configs(learners.mu)
    return CateNuisance(
        pi=_fit_learner(learners.pi, train.s, train.t, np.ones(train.n), "propensity",
                        _derive_seed(seed, tag, 1), f"{where} pi"),
        mu1=_fit_learner(mu1_cfg, train.s, train.y, train.t, "regression",
                         _derive_seed(seed, tag, 2), f"{where} mu (treated)"),
        mu0=_fit_learner(mu0_cfg, train.s, train.y, 1.0 - train.t, "regression",
                         _derive_seed(seed, tag, 3), f"{where} mu (control)"),
        propensity_clip=propensity_clip,
    )


def _stage2_nuisance(learners, train, seed, tag, base, where, propensity_clip):
    """rho (t1=1 rows) and nu (t1=t2=1 rows) fit on one training set through
    indicator weights, seeded by ``base`` and ``base + 1``; ``where`` names it."""
    sbar2 = train.sbar2
    return DteNuisance(
        rho=_fit_learner(learners.rho, sbar2, train.t2, train.t1, "propensity",
                         _derive_seed(seed, tag, base), f"{where} rho"),
        nu=_fit_learner(learners.nu, sbar2, train.y, train.t1 * train.t2, "regression",
                        _derive_seed(seed, tag, base + 1), f"{where} nu"),
        propensity_clip=propensity_clip,
    )


def estimate_ate(
    data: CateData,
    learners: LearnerSpec,
    n_folds: int = 5,
    alpha: float = 0.05,
    seed: int = 0,
    propensity_clip: float = PROPENSITY_CLIP,
) -> EstimateReport:
    """Cross-fitted mean of the bias-corrected outcome contrast."""
    _check_settings(seed, propensity_clip, alpha, data=(data, CateData),
                    learners=(learners, LearnerSpec))
    plan = make_folds(data.n, n_folds, seed)
    _require(learners.mu, "mu")
    scores_by_fold = []
    for k in range(n_folds):
        train = data.subset(plan.complement_indices(k))
        if train.t.min() == train.t.max():
            raise FoldError(f"fold {k}: training data has a single treatment arm")
        nuis = _cate_nuisance(learners, train, seed, k, f"fold {k}", propensity_clip)
        held = data.subset(plan.fold_indices(k))
        scores_by_fold.append(cate_pseudo_outcome(held, nuis))
    theta = float(np.mean(np.concatenate(scores_by_fold)))
    configs = _learner_record(learners, ("pi", "mu"), propensity_clip=propensity_clip)
    return _make_report("ate", scores_by_fold, theta, alpha, seed, configs)


# ------------------------------------------------------------------ CATE


@dataclass(frozen=True)
class MlpPair:
    """Two networks fit on swapped halves; predictions are averaged."""

    model_half1: MLPModel
    model_half2: MLPModel

    def predict(self, s: np.ndarray) -> np.ndarray:
        return 0.5 * (mlp_predict(self.model_half1, s) + mlp_predict(self.model_half2, s))


@dataclass(frozen=True)
class CateEstimate(MlpPair):
    provenance: dict = field(default_factory=dict)


def _check_split_rows(n, who, error=InputError):
    if n < 4:
        raise error(f"{who} needs at least 4 rows, got {n}")


def _two_way_split(n, seed, who):
    _check_split_rows(n, who)
    perm = np.random.default_rng([seed, 101]).permutation(n)
    return perm[: n // 2], perm[n // 2 :]


def estimate_cate(
    data: CateData,
    learners: LearnerSpec,
    final_stage: MLPConfig,
    seed: int = 0,
    propensity_clip: float = PROPENSITY_CLIP,
) -> CateEstimate:
    """Two-way sample split: nuisances on one half, effect regression on the other.

    Each half's pseudo-outcomes use nuisances fit on the opposite half; the
    two effect networks are averaged.  If a half lacks a treatment arm the
    split is redrawn once with seed+1 before failing.
    """
    _check_settings(seed, propensity_clip, data=(data, CateData),
                    learners=(learners, LearnerSpec), final_stage=(final_stage, MLPConfig))
    _require(learners.mu, "mu")
    for split_seed in (seed, seed + 1):
        idx_a, idx_b = _two_way_split(data.n, split_seed, "estimate_cate")
        if all(data.t[h].min() < data.t[h].max() for h in (idx_a, idx_b)):
            break
    else:
        raise SplitError("both split attempts left a half with a single arm")

    def fit_half(model_idx, train_idx, tag):
        train = data.subset(train_idx)
        nuis = _cate_nuisance(learners, train, seed, tag, f"half {tag}", propensity_clip)
        held = data.subset(model_idx)
        pseudo = _check_finite(cate_pseudo_outcome(held, nuis),
                               f"half {tag} final_stage: pseudo-outcomes")
        cfg = replace(final_stage, seed=_derive_seed(seed, tag, 4, final_stage.seed))
        return mlp_fit(held.s, pseudo, cfg)

    model1 = fit_half(idx_a, idx_b, 1)
    model2 = fit_half(idx_b, idx_a, 2)
    provenance = {
        "seed": seed,
        "half_sizes": [int(idx_a.size), int(idx_b.size)],
        "reshuffled": split_seed != seed,
        "propensity_clip": propensity_clip,
        "learner_configs": _learner_record(learners, ("pi", "mu"),
                                           final_stage=_describe(final_stage)),
    }
    return CateEstimate(model1, model2, provenance)


# ----------------------------------------------------- stage-one regression


def _check_stage2_strata(d: DteData, label: str):
    on1 = d.t1 == 1
    if not np.any(on1):
        raise StratumError(f"{label}: t1=1 stratum is empty")
    t2_on1 = d.t2[on1]
    if t2_on1.min() == t2_on1.max():  # else both t2 values occur, so some t1=1 row has t2=1
        raise StratumError(f"{label}: t1=1 stratum lacks both t2 arms")


def estimate_mu_dr(
    data: DteData,
    learners: LearnerSpec,
    final_stage: MLPConfig,
    seed: int = 0,
    propensity_clip: float = PROPENSITY_CLIP,
) -> MlpPair:
    """Stage-one outcome regression with a second-stage bias correction.

    The sample is split in two.  On each half the second-stage nuisances
    (rho on t1=1 rows, nu on t1=t2=1 rows, both via indicator weights) are
    fit and used to build corrected outcomes for the other half, where a
    network is fit with weights t1.  The swapped pair is averaged.
    """
    _check_settings(seed, propensity_clip, data=(data, DteData),
                    learners=(learners, LearnerSpec), final_stage=(final_stage, MLPConfig))
    _require(learners.rho, "rho")
    _require(learners.nu, "nu")
    idx_a, idx_b = _two_way_split(data.n, _derive_seed(seed, 201), "estimate_mu_dr")

    def fit_half(model_idx, train_idx, tag):
        train = data.subset(train_idx)
        _check_stage2_strata(train, f"nuisance half {tag}")
        nuis = _stage2_nuisance(learners, train, seed, tag, 11, f"nuisance half {tag}",
                                propensity_clip)
        held = data.subset(model_idx)
        if not np.any(held.t1 == 1):
            raise StratumError(f"regression half {tag}: t1=1 stratum is empty")
        pseudo = _check_finite(dte_stage2_pseudo_outcome(held, nuis),
                               f"regression half {tag} mu: pseudo-outcomes")
        cfg = replace(final_stage, seed=_derive_seed(seed, tag, 13, final_stage.seed))
        return mlp_fit(held.s1, pseudo, cfg, sample_weight=held.t1)

    model1 = fit_half(idx_a, idx_b, 1)
    model2 = fit_half(idx_b, idx_a, 2)
    return MlpPair(model1, model2)


# ------------------------------------------------------------------- DTE


def estimate_dte(
    data: DteData,
    learners: LearnerSpec,
    final_stage: MLPConfig,
    n_folds: int = 5,
    alpha: float = 0.05,
    seed: int = 0,
    propensity_clip: float = PROPENSITY_CLIP,
) -> EstimateReport:
    """Cross-fitted mean outcome under the always-treated two-stage path.

    Per fold: fit pi on the complement, rho/nu via indicator weights, and
    the stage-one regression mu on the complement's t1=1 rows (with its own
    nested two-way split); average the held-out scores, then average fold
    means and attach the plug-in normal interval.

    The mu role defaults to the nested network regression.  Setting
    ``learners.mu`` overrides it: the config is fit directly on the
    stage-two corrected outcomes with weights t1 (no nested split), so a
    FixedSpec injects its known function.
    """
    _check_settings(seed, propensity_clip, alpha, data=(data, DteData),
                    learners=(learners, LearnerSpec), final_stage=(final_stage, MLPConfig))
    if isinstance(learners.mu, tuple):
        raise ConfigurationError("estimate_dte takes one mu config, not a (treated, control) pair")
    plan = make_folds(data.n, n_folds, seed)
    _require(learners.rho, "rho")
    _require(learners.nu, "nu")
    scores_by_fold = []
    for k in range(n_folds):
        train = data.subset(plan.complement_indices(k))
        if train.t1.min() == train.t1.max():
            raise FoldError(f"fold {k}: training data has a single t1 arm")
        _check_stage2_strata(train, f"fold {k}")
        pi = _fit_learner(learners.pi, train.s1, train.t1, np.ones(train.n), "propensity",
                          _derive_seed(seed, k, 21), f"fold {k} pi")
        stage2 = _stage2_nuisance(learners, train, seed, k, 22, f"fold {k}", propensity_clip)
        if learners.mu is None:
            treated = train.subset(np.flatnonzero(train.t1 == 1))
            _check_split_rows(treated.n, f"fold {k} mu: estimate_mu_dr", StratumError)
            try:
                mu = estimate_mu_dr(treated, learners, final_stage, seed=_derive_seed(seed, k, 24),
                                    propensity_clip=propensity_clip).predict
            except EstimationError as exc:
                raise type(exc)(f"fold {k} mu: {exc}") from exc
        else:
            pseudo = _check_finite(dte_stage2_pseudo_outcome(train, stage2),
                                   f"fold {k} mu: pseudo-outcomes")
            mu = _fit_learner(learners.mu, train.s1, pseudo, train.t1, "regression",
                              _derive_seed(seed, k, 25), f"fold {k} mu")
        held = data.subset(plan.fold_indices(k))
        scores_by_fold.append(dte_score(held, replace(stage2, pi=pi, mu=mu)))
    theta = float(np.mean([np.mean(s) for s in scores_by_fold]))
    configs = _learner_record(learners, ("pi", "rho", "nu", "mu"),
                              final_stage=_describe(final_stage), propensity_clip=propensity_clip)
    return _make_report("dte", scores_by_fold, theta, alpha, seed, configs)


# ------------------------------------------------------------------- CDE


def estimate_cde(
    data: DteData,
    target: tuple[int, int],
    learners: LearnerSpec,
    final_stage: MLPConfig,
    n_folds: int = 5,
    alpha: float = 0.05,
    seed: int = 0,
    propensity_clip: float = PROPENSITY_CLIP,
) -> EstimateReport:
    """Mean outcome at exposure level t with the mediator held at level m.

    CDE is DTE on relabelled data: ``estimate_dte`` runs with 1{T=t} in
    place of t1 and 1{M=m} in place of t2, so it uses DTE's folds, seeds and
    score, and pi is fit on 1{T=t} directly.  Estimates for two exposure
    levels at the same mediator level difference to a controlled direct
    effect.
    """
    relabelled = _relabel_cde(data, target)
    t_level, m_level = int(target[0]), int(target[1])  # plain ints for the report
    if not np.any(relabelled.t2):
        raise StratumError(f"mediator level m={m_level} never occurs in the data")
    report = estimate_dte(relabelled, learners, final_stage, n_folds=n_folds, alpha=alpha,
                          seed=seed, propensity_clip=propensity_clip)
    return replace(report, estimand=f"cde_t{t_level}_m{m_level}",
                   learner_configs={**report.learner_configs, "target": [t_level, m_level]})


# ------------------------------------------------------------------ defaults

_FAMILIES = ("lasso", "mlp")  # the fitted families; simlab adds "oracle"


def default_final_config(n: int, seed: int = 0) -> MLPConfig:
    """Effect-regression network sized to the sample: width grows like n^(1/4)."""
    _check_int("n", n, 0)
    width = int(max(8, round(1.5 * n**0.25)))
    return MLPConfig(
        depth=2,
        width=width,
        epochs=120,
        batch_size=min(max(16, n // 8), 128),
        step_size=0.05,
        seed=seed,
        validation_fraction=0.2,
    )


def default_learner_spec(family: str = "lasso", n: int = 1000, seed: int = 0) -> LearnerSpec:
    """Uniform nuisance family across roles; 'mlp' uses sample-sized networks."""
    _check_choice("learner family", family, _FAMILIES)
    cfg = LassoSpec() if family == "lasso" else default_final_config(n, seed)
    return LearnerSpec(pi=cfg, mu=cfg, rho=cfg, nu=cfg)
