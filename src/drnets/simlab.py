"""Synthetic data lab: generators with exact nuisance truths, a brute-force
estimand oracle, and the diagnostic studies built on them.

Every generator keeps its propensities inside [0.1, 0.9] by scaling the
index before the squashing function, so the protective clip never binds and
logistic models on the raw index stay correctly specified.  Smooth sparse
truths are cosine products over the first q coordinates, which have exact
means under uniform covariates; rough baselines are dense sawtooth sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._checks import MAX_SIZE, REALS, _check_choice, _check_int, _check_real, _check_type
from ._parallel import parallel_map
from .errors import ConfigurationError
from .estimators import (
    ConstantSpec,
    FixedSpec,
    LassoSpec,
    LearnerSpec,
    _FAMILIES,
    _derive_seed,
    default_final_config,
    default_learner_spec,
    estimate_ate,
    estimate_cate,
    estimate_dte,
)
from .nnet import _expit
from .scores import CateData, CateNuisance, DteData, delta_decomposition

CATE_KINDS = ("cate_linear", "cate_sparse_smooth", "cate_rough_outcome")
DTE_KINDS = ("dte_linear", "dte_sparse_smooth", "cde_binary")

# Keeps |index| <= 2.0 < logit(0.9), so clip(expit(index), 0.1, 0.9) = expit(index).
INDEX_BOUND_CATE = 2.0
# Two-stage scores multiply two inverse propensities; a narrower band keeps
# their product (and hence the score variance) moderate.
INDEX_BOUND_DTE = 1.0
# The (first, second) treatment paths of a two-stage kind.
_PATHS = ((0, 0), (0, 1), (1, 0), (1, 1))
MAX_REPS = 100_000  # a study's replications: its task list is built before any work
LEARNER_FAMILIES = _FAMILIES + ("oracle",)


@dataclass(frozen=True)
class DgpConfig:
    """Generator settings.

    ``q`` active coordinates (always the leading ones) drive every sparse
    index.  ``propensity_offset`` shifts the treatment index to skew
    overlap.  ``effect_scale`` and ``baseline_scale`` multiply the drawn
    structural coefficients; zero gives the degenerate null process.
    """

    kind: str
    d: int = 4
    d1: int = 4
    d2: int = 2
    q: int = 2
    noise_sd: float = 0.5
    coef_seed: int = 0
    propensity_offset: float = 0.0
    effect_scale: float = 1.0
    baseline_scale: float = 1.0

    def __post_init__(self):
        _check_choice("kind", self.kind, CATE_KINDS + DTE_KINDS)
        dims = ("d",) if self.kind in CATE_KINDS else ("d1", "d2")
        for name in ("d", "d1", "d2", "q"):  # a kind's own dimensions lie in [1, MAX_SIZE]
            _check_int(name, getattr(self, name), *([1, MAX_SIZE] if name in dims else []))
        _check_int("coef_seed", self.coef_seed, 0)
        if not 1 <= self.q <= getattr(self, dims[0]):  # the active coordinates lie in s (or s1)
            raise ConfigurationError(f"q must lie in [1, {dims[0]}], got {self.q}")
        _check_real("noise_sd", self.noise_sd, "[0, 1e100]")
        _check_real("propensity_offset", self.propensity_offset, "[-1, 1]")
        _check_real("effect_scale", self.effect_scale, REALS)
        _check_real("baseline_scale", self.baseline_scale, REALS)


@dataclass(frozen=True)
class CateTruth:
    """Exact single-stage nuisances, effect closures, and potential outcomes."""

    pi0: Callable[[np.ndarray], np.ndarray]
    mu1: Callable[[np.ndarray], np.ndarray]
    mu0: Callable[[np.ndarray], np.ndarray]
    theta_cate: Callable[[np.ndarray], np.ndarray]
    theta_ate: float
    y1: np.ndarray = field(repr=False)
    y0: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DteTruth:
    """Exact two-stage nuisances, the path mean, and per-path outcomes.

    ``potential`` maps each (first, second) binary path to its row-aligned
    outcome array; for the mediator kind the second coordinate is the
    mediator level.
    """

    pi0: Callable[[np.ndarray], np.ndarray]
    rho0: Callable[[np.ndarray], np.ndarray]
    nu0: Callable[[np.ndarray], np.ndarray]
    mu0: Callable[[np.ndarray], np.ndarray]
    theta: float
    potential: dict = field(repr=False)


# ----------------------------------------------------------- index helpers


def _signed_uniform(rng, lo, hi, size):
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


def _sparse_linear_index(rng, q, d, offset, bound):
    """Random q-sparse linear score with |offset + s @ coef| <= bound."""
    raw = _signed_uniform(rng, 0.5, 1.0, q)
    coef = np.zeros(d)
    coef[:q] = raw * (bound - abs(offset)) / np.abs(raw).sum()
    return lambda s, _c=coef, _o=offset: _o + s @ _c


@dataclass(frozen=True)
class CosineProduct:
    """Product of cosines over a few coordinates; exact uniform mean."""

    coords: tuple
    freqs: tuple
    phases: tuple
    amplitude: float

    def __call__(self, s: np.ndarray) -> np.ndarray:
        out = np.full(s.shape[0], self.amplitude)
        for j, w, p in zip(self.coords, self.freqs, self.phases):
            out = out * np.cos(w * s[:, j] + p)
        return out

    def mean_uniform(self) -> float:
        # E cos(wU + p) over U ~ uniform[-1, 1] is cos(p) sin(w) / w.
        m = self.amplitude
        for w, p in zip(self.freqs, self.phases):
            m *= np.cos(p) * np.sin(w) / w
        return m


def _draw_cosine(rng, q, amplitude_range):
    return CosineProduct(
        coords=tuple(range(q)),
        freqs=tuple(rng.uniform(1.0, 2.0, q)),
        phases=tuple(rng.uniform(0.0, 2.0 * np.pi, q)),
        amplitude=float(rng.uniform(*amplitude_range)),
    )


def _sawtooth(x):
    return 2.0 * (x - np.floor(x)) - 1.0


def _draw_sawtooth_sum(rng, d, amplitude_range):
    freqs = rng.uniform(2.5, 4.0, d)
    shifts = rng.uniform(0.0, 1.0, d)
    amps = rng.uniform(*amplitude_range, d)

    def fn(s, _f=freqs, _c=shifts, _a=amps):
        return (_a * _sawtooth(s * _f + _c)).sum(axis=1)

    return fn


def _propensity(index_fn):
    return lambda s, _f=index_fn: np.clip(_expit(_f(s)), 0.1, 0.9)


# -------------------------------------------------------------- CATE kinds


def gen_cate(config: DgpConfig, n: int, seed: int):
    """Draw one single-stage dataset plus its exact truth.

    The coefficients come from their own generator, deterministic in
    coef_seed.  Covariates are uniform on [-1, 1]^d, the treatment follows
    pi0, and both potential outcomes share one noise draw so y equals the
    realized branch bit for bit.
    """
    _check_type("config", config, DgpConfig)
    _check_choice("single-stage kind", config.kind, CATE_KINDS)
    _check_int("n", n, 0, MAX_SIZE // config.d)  # s holds n * d entries
    _check_int("seed", seed, 0)
    crng = np.random.default_rng([config.coef_seed, 11])
    q, d = config.q, config.d
    es, bs = config.effect_scale, config.baseline_scale
    pi0 = _propensity(_sparse_linear_index(crng, q, d, config.propensity_offset,
                                           INDEX_BOUND_CATE))
    if config.kind == "cate_linear":
        gamma = np.zeros(d)
        gamma[:q] = _signed_uniform(crng, 0.4, 0.9, q) * es
        beta = np.zeros(d)
        beta[:q] = _signed_uniform(crng, 0.5, 1.0, q) * bs
        b0 = float(crng.uniform(-0.5, 0.5)) * bs
        theta = lambda s: s @ gamma
        mu0 = lambda s: b0 + s @ beta
        theta_ate = 0.0
    else:  # a cosine effect over a cosine (smooth) or sawtooth (rough) baseline
        eff = _draw_cosine(crng, q, (0.8, 1.2))
        base = (_draw_cosine(crng, q, (0.8, 1.2)) if config.kind == "cate_sparse_smooth"
                else _draw_sawtooth_sum(crng, d, (0.6, 1.0)))
        theta = lambda s: es * eff(s)
        mu0 = lambda s: bs * base(s)
        theta_ate = float(es * eff.mean_uniform())
    mu1 = lambda s: mu0(s) + theta(s)

    rng = np.random.default_rng([seed, 7])
    s = rng.uniform(-1.0, 1.0, (n, d))
    t = (rng.random(n) < pi0(s)).astype(np.float64)
    eps = rng.standard_normal(n)
    y1 = mu1(s) + config.noise_sd * eps
    y0 = mu0(s) + config.noise_sd * eps
    y = np.where(t == 1.0, y1, y0)
    truth = CateTruth(pi0=pi0, mu1=mu1, mu0=mu0, theta_cate=theta,
                      theta_ate=theta_ate, y1=y1, y0=y0)
    return CateData(s, t, y), truth


# --------------------------------------------------------------- DTE kinds


def gen_dte(config: DgpConfig, n: int, seed: int):
    """Draw one two-stage dataset plus its exact truth.

    The intermediate state is S2 = shift(t1) + carry(s1) + uniform noise,
    scaled so every coordinate stays inside [-1, 1]; that keeps its
    conditional means exact and the stage-one regression analytic.  Its
    potential versions S2(0), S2(1) share one noise draw; all four path
    outcomes share another.  For the mediator kind the second treatment
    column holds the mediator.
    """
    _check_type("config", config, DgpConfig)
    _check_choice("two-stage kind", config.kind, DTE_KINDS)
    _check_int("n", n, 0, MAX_SIZE // (config.d1 + config.d2 + 4))  # sbar2, the 4 paths
    _check_int("seed", seed, 0)
    crng = np.random.default_rng([config.coef_seed, 13])
    q, d1, d2 = config.q, config.d1, config.d2
    es, bs = config.effect_scale, config.baseline_scale
    pi0 = _propensity(_sparse_linear_index(crng, q, d1, config.propensity_offset,
                                           INDEX_BOUND_DTE))

    # Per-coordinate budget: |shift| + carry amplitude + eta <= 0.98.
    shift = crng.uniform(0.2, 0.28, d2)
    eta = 0.4
    carry_amp = 0.3
    if config.kind == "dte_sparse_smooth":
        carries = [_draw_cosine(crng, q, (carry_amp, carry_amp)) for _ in range(d2)]
        carry = lambda s1: np.column_stack([c(s1) for c in carries])
    else:
        carry_mat = np.zeros((d2, d1))
        for j in range(d2):
            row = _signed_uniform(crng, 0.5, 1.0, q)
            carry_mat[j, :q] = row * carry_amp / np.abs(row).sum()
        carry = lambda s1: s1 @ carry_mat.T

    def s2_mean(s1, t1_level):
        return t1_level * shift[None, :] + carry(s1)

    # Second-stage propensity index over (s1 actives, all of s2).
    raw1 = _signed_uniform(crng, 0.5, 1.0, q)
    raw2 = _signed_uniform(crng, 0.5, 1.0, d2)
    total = np.abs(raw1).sum() + np.abs(raw2).sum()
    a1 = np.zeros(d1)
    a1[:q] = raw1 * INDEX_BOUND_DTE / total
    a2 = raw2 * INDEX_BOUND_DTE / total
    rho0 = _propensity(lambda sb: sb[:, :d1] @ a1 + sb[:, d1:] @ a2)

    b_t2_range = (0.8, 1.2) if config.kind == "cde_binary" else (0.3, 0.6)
    b_t1 = float(crng.uniform(0.4, 0.7)) * es
    b_t2 = float(crng.uniform(*b_t2_range)) * es
    b_int = float(crng.uniform(0.2, 0.4)) * es
    b0 = float(crng.uniform(-0.3, 0.3)) * bs

    if config.kind == "dte_sparse_smooth":
        base = _draw_cosine(crng, q, (0.8, 1.2))
        f1 = lambda s1: bs * base(s1)
        f1_mean = bs * base.mean_uniform()
    else:
        beta1 = np.zeros(d1)
        beta1[:q] = _signed_uniform(crng, 0.4, 0.8, q) * bs
        f1 = lambda s1: s1 @ beta1
        f1_mean = 0.0
    beta2 = _signed_uniform(crng, 0.4, 0.8, d2) * bs

    def outcome_mean(s1, s2, lvl1, lvl2):
        return (b0 + f1(s1) + s2 @ beta2
                + b_t1 * lvl1 + b_t2 * lvl2 + b_int * lvl1 * lvl2)

    # E[mu0(S1)]: linear pieces vanish under centered uniforms.
    theta = (b0 + f1_mean + float(shift @ beta2) + b_t1 + b_t2 + b_int)
    if config.kind == "dte_sparse_smooth":
        carry_means = np.array([c.mean_uniform() for c in carries])
        theta += float(carry_means @ beta2)

    rng = np.random.default_rng([seed, 7])
    s1 = rng.uniform(-1.0, 1.0, (n, d1))
    t1 = (rng.random(n) < pi0(s1)).astype(np.float64)
    u = rng.uniform(-eta, eta, (n, d2))
    s2_by_arm = {lvl: s2_mean(s1, lvl) + u for lvl in (0.0, 1.0)}
    s2 = np.where((t1 == 1.0)[:, None], s2_by_arm[1.0], s2_by_arm[0.0])
    sbar2 = np.concatenate([s1, s2], axis=1)
    t2 = (rng.random(n) < rho0(sbar2)).astype(np.float64)
    eps = rng.standard_normal(n)
    potential = {(a, b): outcome_mean(s1, s2_by_arm[float(a)], float(a), float(b))
                 + config.noise_sd * eps for a, b in _PATHS}
    stacked = np.stack([potential[path] for path in _PATHS])
    y = stacked[(2 * t1 + t2).astype(np.intp), np.arange(n)]
    truth = DteTruth(
        pi0=pi0, rho0=rho0, theta=theta, potential=potential,
        nu0=lambda sbar2: outcome_mean(sbar2[:, :d1], sbar2[:, d1:], 1.0, 1.0),
        mu0=lambda s1: outcome_mean(s1, s2_mean(s1, 1.0), 1.0, 1.0))
    if config.kind == "cde_binary":
        return DteData(s1, t1, s2, t2.copy(), y, m=t2), truth
    return DteData(s1, t1, s2, t2, y), truth


def generate(config: DgpConfig, n: int, seed: int):
    """Kind-dispatching generator."""
    _check_type("config", config, DgpConfig)
    return (gen_cate if config.kind in CATE_KINDS else gen_dte)(config, n, seed)


# ------------------------------------------------------------------ oracle


def oracle_theta(config: DgpConfig, n_mc: int, seed: int, target=None):
    """Brute-force Monte Carlo estimand value with its standard error.

    CATE kinds target the mean treated-minus-control contrast; two-stage
    kinds the always-treated path mean; the mediator kind the (t, m) path
    given by ``target`` (default (1, 1)).
    """
    _check_type("config", config, DgpConfig)
    _check_int("n_mc", n_mc, 10_000)
    key = (1, 1) if target is None else target
    if config.kind in DTE_KINDS:
        key = tuple(key) if isinstance(key, (tuple, list, np.ndarray)) else key
        _check_choice("target", key, _PATHS)
        for level in key:  # True and 1.0 compare equal to 1
            _check_int("target level", level, 0, 1)
    _, truth = generate(config, n_mc, seed)
    draws = truth.y1 - truth.y0 if config.kind in CATE_KINDS else truth.potential[key]
    return float(np.mean(draws)), float(np.std(draws) / np.sqrt(n_mc))


def oracle_learner_spec(truth) -> LearnerSpec:
    """LearnerSpec that injects the exact nuisances of a generated truth."""
    _check_type("truth", truth, CateTruth, DteTruth)
    if isinstance(truth, CateTruth):
        return LearnerSpec(pi=FixedSpec(truth.pi0),
                           mu=(FixedSpec(truth.mu1), FixedSpec(truth.mu0)))
    return LearnerSpec(pi=FixedSpec(truth.pi0), rho=FixedSpec(truth.rho0),
                       nu=FixedSpec(truth.nu0), mu=FixedSpec(truth.mu0))


# ------------------------------------------------------------- study: Delta


def orthogonality_study(config: DgpConfig, perturbation_scale: float,
                        n: int, seed: int) -> dict:
    """First-order insensitivity probe for the single-stage decomposition.

    Perturbs the exact nuisances by fixed smooth bounded functions (logit
    shift for the propensity, additive for the outcome means), draws n
    fresh rows, and reports moments of the two error components.  The
    first-order part should average to zero against 1 and each active
    covariate; the second-order part's magnitude scales quadratically with
    the perturbation, so its root mean square shrinks fourfold when the
    scale halves.
    """
    _check_int("n", n, 2)
    _check_real("perturbation_scale", perturbation_scale, REALS)
    c = float(perturbation_scale)
    data, truth = gen_cate(config, n, seed)
    prng = np.random.default_rng([config.coef_seed, 17])
    bump_pi = _draw_cosine(prng, config.q, (1.0, 1.0))
    bump_mu1 = _draw_cosine(prng, config.q, (1.0, 1.0))
    bump_mu0 = _draw_cosine(prng, config.q, (1.0, 1.0))

    def pi_hat(s):
        p = truth.pi0(s)
        return _expit(np.log(p / (1.0 - p)) + c * bump_pi(s))

    nuis_true = CateNuisance(pi=truth.pi0, mu1=truth.mu1, mu0=truth.mu0)
    if c == 0.0:
        # Reuse the exact closures so both components vanish bit for bit;
        # a zero-shift logit round trip would leave float dust behind.
        nuis_hat = nuis_true
    else:
        nuis_hat = CateNuisance(
            pi=pi_hat,
            mu1=lambda s: truth.mu1(s) + c * bump_mu1(s),
            mu0=lambda s: truth.mu0(s) + c * bump_mu0(s),
        )
    d1, d2 = delta_decomposition(data, nuis_hat, nuis_true)

    def moment(values):
        return {"mean": float(np.mean(values)),
                "se": float(np.std(values) / np.sqrt(n))}

    moments = {"1": moment(d1)}
    for j in range(config.q):
        moments[f"s{j + 1}"] = moment(d1 * data.s[:, j])
    return {
        "perturbation_scale": c,
        "n": n,
        "seed": seed,
        "mean_delta1": moments["1"]["mean"],
        "se_delta1": moments["1"]["se"],
        "mean_delta2": float(np.mean(d2)),
        "se_delta2": float(np.std(d2) / np.sqrt(n)),
        "mean_delta2_sq": float(np.mean(d2**2)),
        "rms_delta2": float(np.sqrt(np.mean(d2**2))),
        "delta1_moments": moments,
    }


# --------------------------------------------------------- study: coverage


def _study_learners(family: str, n: int, truth) -> LearnerSpec:
    return oracle_learner_spec(truth) if family == "oracle" else default_learner_spec(family, n)


def _coverage_rep(args):
    (config, family, n, alpha, n_folds, rep_seed) = args
    data, truth = generate(config, n, rep_seed)
    learners = _study_learners(family, n, truth)
    final = default_final_config(n)
    if config.kind in CATE_KINDS:
        rep = estimate_ate(data, learners, n_folds=n_folds, alpha=alpha,
                           seed=rep_seed)
        theta_true = truth.theta_ate
    else:  # with m == t2, the (1, 1) CDE of a cde_binary draw is its DTE
        rep = estimate_dte(data, learners, final, n_folds=n_folds,
                           alpha=alpha, seed=rep_seed)
        theta_true = truth.theta
    covered = rep.ci_lower <= theta_true <= rep.ci_upper
    return (rep.theta_hat, rep.sigma_hat, rep.ci_lower, rep.ci_upper, covered, theta_true)


def coverage_study(config: DgpConfig, learner_family: str = "lasso",
                   reps: int = 500, n: int = 2000, alpha: float = 0.05,
                   seed: int = 0, n_folds: int = 5) -> dict:
    """Confidence interval calibration over independent replications.

    Runs the kind-appropriate estimator on ``reps`` fresh datasets and
    reports the fraction of intervals covering the exact estimand, plus the
    per-replication estimates so other levels can be recomputed without
    re-fitting.
    """
    _check_type("config", config, DgpConfig)
    _check_int("reps", reps, 100, MAX_REPS)
    _check_int("seed", seed, 0)
    _check_choice("learner family", learner_family, LEARNER_FAMILIES)
    _check_int("n_folds", n_folds, 2)
    _check_int("n", n, n_folds)
    _check_real("alpha", alpha, "(0, 1)")
    tasks = [(config, learner_family, n, alpha, n_folds, _derive_seed(seed, r))
             for r in range(reps)]
    rows = parallel_map(_coverage_rep, tasks)
    theta_hats, sigma_hats, lower, upper, covered, truths = map(np.array, zip(*rows))
    widths = upper - lower
    return {
        "kind": config.kind,
        "learner_family": learner_family,
        "reps": reps,
        "n": n,
        "alpha": alpha,
        "seed": seed,
        "theta_true": float(truths[0]),
        "coverage": float(covered.mean()),
        "mean_ci_width": float(widths.mean()),
        "theta_hats": theta_hats.tolist(),
        "sigma_hats": sigma_hats.tolist(),
    }


# -------------------------------------------------------- study: rate slope


def _mse_rep(args):
    """Effect-regression test MSE of one CATE run; ``choose`` picks the learners."""
    (choose, choice, config, n, rep_seed) = args
    data, truth = gen_cate(config, n, rep_seed)
    learners = choose(choice, n, truth)
    est = estimate_cate(data, learners, default_final_config(n), seed=rep_seed)
    grid = np.random.default_rng([config.coef_seed, 23]).uniform(
        -1.0, 1.0, (500, config.d))
    return float(np.mean((est.predict(grid) - truth.theta_cate(grid)) ** 2))


def _mse_table(choose, choice, config, n_grid, reps, seed, min_points):
    """Validate config, n_grid and reps and run the (reps, len(n_grid)) MSE table.

    Returns the result keys both MSE studies share and the table itself.
    """
    _check_type("config", config, DgpConfig)
    _check_choice("single-stage kind", config.kind, CATE_KINDS)
    _check_int("reps", reps, 1, MAX_REPS)
    _check_int("seed", seed, 0)
    for i, v in enumerate(n_grid):
        _check_int(f"n_grid[{i}]", v, 1)
    n_grid = [int(v) for v in n_grid]  # plain ints for the report
    if len(n_grid) < min_points or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigurationError(
            f"n_grid must be strictly increasing with >= {min_points} points")
    tasks = [(choose, choice, config, n, _derive_seed(seed, r * len(n_grid) + i))
             for r in range(reps) for i, n in enumerate(n_grid)]
    mse = np.array(parallel_map(_mse_rep, tasks)).reshape(reps, len(n_grid))
    result = {"kind": config.kind, "n_grid": n_grid, "reps": reps, "seed": seed,
              "per_n_mse": mse.mean(axis=0).tolist(), "per_rep_mse": mse.tolist()}
    return result, mse


def rate_slope_study(config: DgpConfig, n_grid, reps: int, seed: int,
                     learner_family: str = "mlp") -> dict:
    """Log-log slope of effect-regression test MSE against sample size."""
    _check_choice("learner family", learner_family, LEARNER_FAMILIES)  # before any replication
    result, _ = _mse_table(_study_learners, learner_family, config, n_grid,
                           reps, seed, min_points=3)
    slope = np.polyfit(np.log(result["n_grid"]), np.log(result["per_n_mse"]), 1)[0]
    return {**result, "slope": float(slope)}


# --------------------------------------------- study: double robustness


def _dr_learners(misspec: str, n: int, truth) -> LearnerSpec:
    _check_choice("misspec", misspec, ("mu_wrong", "pi_wrong", "both_wrong"))
    wrong = ConstantSpec()
    return LearnerSpec(pi=LassoSpec() if misspec == "mu_wrong" else wrong,
                       mu=default_final_config(n) if misspec == "pi_wrong" else wrong)


def double_robustness_study(config: DgpConfig, misspec: str, n_grid,
                            reps: int, seed: int) -> dict:
    """Effect-regression MSE across n with one or both nuisances replaced
    by a fitted constant (a deliberately inconsistent learner)."""
    _dr_learners(misspec, 0, None)  # validate before any replication runs
    result, mse = _mse_table(_dr_learners, misspec, config, n_grid, reps, seed,
                             min_points=2)
    decreasing = mse[:, -1] < mse[:, 0]
    return {**result, "misspec": misspec, "share_decreasing": float(decreasing.mean())}
