"""Tests for the L1 solvers against analytic and brute-force oracles."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from references import assert_stationary
from refusals import refusal_tests
from scipy.special import expit

from drnets import linmod
from drnets.errors import (
    ConfigurationError,
    ConvergenceError,
    EmptySubgroupError,
    InputError,
    SeparationError,
)
from drnets.linmod import (
    _MAX_SWEEPS,
    LinearModel,
    _gram_cd,
    _kkt_residual,
    _lambda_max,
    lasso_fit,
    logistic_lasso_fit,
    select_lambda,
)
from drnets.nnet import MLPConfig, mlp_fit


_FITS = {"identity": lasso_fit, "logistic": logistic_lasso_fit}


def lasso_objective(x, y, w, b0, beta, lam):
    w = w / w.sum()
    r = y - b0 - x @ beta
    return float(w @ (r**2) + lam * np.sum(np.abs(beta)))


def grid_oracle_1d(x, y, w, lam):
    """Brute-force minimizer over (intercept, slope) by nested grid refinement."""
    lo0, hi0, lo1, hi1 = -5.0, 5.0, -5.0, 5.0
    for _ in range(8):
        b0s = np.linspace(lo0, hi0, 201)
        b1s = np.linspace(lo1, hi1, 201)
        vals = np.empty((201, 201))
        for i, b0 in enumerate(b0s):
            r = y[None, :] - b0 - np.outer(b1s, x[:, 0])
            vals[i] = (w / w.sum()) @ (r**2).T + lam * np.abs(b1s)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        span0, span1 = (hi0 - lo0) / 200, (hi1 - lo1) / 200
        lo0, hi0 = b0s[i] - 2 * span0, b0s[i] + 2 * span0
        lo1, hi1 = b1s[j] - 2 * span1, b1s[j] + 2 * span1
    return b0s[i], b1s[j]


def reference_cd(x, y, w, lam, tol=1e-12):
    """Plain cyclic coordinate descent on the weighted lasso, with residual
    updates and no exact finish, run until no coefficient moves by tol.

    Returns (intercept, coefficients, sweeps)."""
    w = w / w.sum()
    xbar = w @ x
    xc = x - xbar
    beta = np.zeros(x.shape[1])
    r = y - w @ y
    sq = w @ xc**2
    sweeps, delta = 0, np.inf
    while delta >= tol:
        sweeps, delta = sweeps + 1, 0.0
        for j in np.flatnonzero(sq > 0):
            z = float((w * xc[:, j]) @ r) + sq[j] * beta[j]
            new = np.sign(z) * max(abs(z) - lam / 2.0, 0.0) / sq[j]
            if new != beta[j]:
                r -= xc[:, j] * (new - beta[j])
                delta = max(delta, abs(new - beta[j]))
                beta[j] = new
    return float(w @ y - xbar @ beta), beta, sweeps


def reference_kkt_residual(grad, beta, lam):
    """The two-mask form of the KKT residual: the largest |g_j| - lam over
    zero coordinates and |g_j + lam * sign(beta_j)| over the rest, floored at 0."""
    zero = beta == 0
    worst = 0.0
    if np.any(zero):
        worst = max(worst, float(np.max(np.abs(grad[zero])) - lam))
    if np.any(~zero):
        worst = max(worst, float(np.max(np.abs(grad[~zero] + lam * np.sign(beta[~zero])))))
    return worst


# -------------------------------------------------------------- lasso_fit


def test_two_point_analytic_solution():
    x = np.array([[1.0], [-1.0]])
    y = np.array([2.0, -2.0])
    m = lasso_fit(x, y, lam=1.0)
    # Stationarity of (2-b)^2 + lam*b gives b = 2 - lam/2.
    assert m.coefficients[0] == pytest.approx(1.5, abs=1e-12)
    assert m.intercept == pytest.approx(0.0, abs=1e-12)
    b0_star, b1_star = grid_oracle_1d(x, y, np.ones(2), 1.0)
    assert m.intercept == pytest.approx(b0_star, abs=1e-4)
    assert m.coefficients[0] == pytest.approx(b1_star, abs=1e-4)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0, 3.9, 4.0, 5.0])
def test_two_point_shrinkage_path(lam):
    x = np.array([[1.0], [-1.0]])
    y = np.array([2.0, -2.0])
    m = lasso_fit(x, y, lam=lam)
    assert m.coefficients[0] == pytest.approx(max(2.0 - lam / 2.0, 0.0), abs=1e-12)


def test_grid_oracle_on_random_weighted_instance():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (40, 1))
    y = 1.2 * x[:, 0] - 0.3 + 0.4 * rng.normal(size=40)
    w = rng.uniform(0.2, 2.0, 40)
    m = lasso_fit(x, y, lam=0.3, sample_weight=w)
    b0_star, b1_star = grid_oracle_1d(x, y, w, 0.3)
    assert m.intercept == pytest.approx(b0_star, abs=1e-4)
    assert m.coefficients[0] == pytest.approx(b1_star, abs=1e-4)


def test_null_fit_threshold():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (60, 4))
    y = x @ np.array([0.8, -0.5, 0.0, 0.3]) + 0.2 * rng.normal(size=60)
    w = np.ones(60) / 60
    ybar = float(w @ y)
    lam_max = 2.0 * np.max(np.abs(x.T @ (w * (y - ybar))))
    assert np.all(lasso_fit(x, y, 1.01 * lam_max).coefficients == 0.0)
    assert np.any(lasso_fit(x, y, 0.99 * lam_max).coefficients != 0.0)


def test_kkt_on_random_instances_identity():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, p = rng.integers(20, 80), rng.integers(1, 8)
        x = rng.uniform(-1, 1, (n, p))
        beta_true = rng.normal(size=p) * (rng.random(p) < 0.6)
        y = x @ beta_true + 0.5 * rng.normal(size=n) + rng.normal()
        w = rng.uniform(0.1, 3.0, n)
        lam = float(rng.uniform(0.01, 1.0))
        m = lasso_fit(x, y, lam, sample_weight=w)
        assert_stationary(m, x, y, lam, w)


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (50, 5))
    y = x @ np.array([1.0, 0, -1.0, 0, 0.5]) + 0.3 * rng.normal(size=50)
    m = lasso_fit(x, y, 0.05)
    trace = np.array(m.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


def test_joint_scaling_homogeneity():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (40, 3))
    y = x @ np.array([0.7, -0.2, 0.0]) + 0.3 * rng.normal(size=40)
    w = rng.uniform(0.5, 2.0, 40)
    c = 2.7
    m1 = lasso_fit(x, y, 0.1, sample_weight=w)
    m2 = lasso_fit(x, c * y, c * 0.1, sample_weight=w)
    assert_allclose(m2.coefficients, c * m1.coefficients, atol=1e-8)
    assert m2.intercept == pytest.approx(c * m1.intercept, abs=1e-8)


def test_outcome_scale_by_a_power_of_two_scales_the_fit_exactly():
    """Outcomes beyond 2**33 are fitted at a power-of-two scale, so the
    stationarity tolerances hold at any magnitude and the fit is equivariant
    bit for bit; at unit scale these fits would fail the intercept check."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (40, 3))
    y = x @ np.array([0.7, -0.2, 0.0]) + 0.3 * rng.normal(size=40)
    w = rng.uniform(0.5, 2.0, 40)
    m1 = lasso_fit(x, np.ldexp(y, 40), np.ldexp(0.1, 40), sample_weight=w)
    m2 = lasso_fit(x, np.ldexp(y, 50), np.ldexp(0.1, 50), sample_weight=w)
    assert np.array_equal(m2.coefficients, np.ldexp(m1.coefficients, 10))
    assert m2.intercept == np.ldexp(m1.intercept, 10)
    assert m2.objective_trace == tuple(np.ldexp(m1.objective_trace, 20).tolist())
    unit = lasso_fit(x, y, 0.1, sample_weight=w)
    assert_allclose(m1.coefficients, np.ldexp(unit.coefficients, 40), rtol=1e-9, atol=1.0)


def test_outcomes_of_2_to_500_or_more_are_refused():
    """An objective is of order max |y|**2: outcomes near 1e155 would overflow
    the trace as it is scaled back, while 1e150 still fits with a finite one."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (60, 3))
    y = x @ np.array([0.7, -0.2, 0.0]) + 0.3 * rng.normal(size=60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^y must lie in \(-2\*\*500, 2\*\*500\), got max"):
            lasso_fit(x, 1e155 * y, 0.1)
        model = lasso_fit(x, 1e150 * y, 0.1)
    assert np.isfinite(model.objective_trace).all()


def test_zero_weight_rows_inert():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (30, 2))
    y = x @ np.array([1.0, -0.5]) + 0.2 * rng.normal(size=30)
    pad_x = np.vstack([x, rng.uniform(-1, 1, (10, 2))])
    pad_y = np.concatenate([y, 100.0 * np.ones(10)])
    w = np.concatenate([np.ones(30), np.zeros(10)])
    a = lasso_fit(x, y, 0.05)
    b = lasso_fit(pad_x, pad_y, 0.05, sample_weight=w)
    assert_allclose(a.coefficients, b.coefficients, rtol=1e-12, atol=1e-14)
    assert a.intercept == pytest.approx(b.intercept, rel=1e-12)


# ----------------------------------------------------- logistic_lasso_fit


def test_logistic_intercept_only_matches_logit():
    rng = np.random.default_rng(6)
    y = (rng.random(200) < 0.3).astype(float)
    x = rng.uniform(-1, 1, (200, 3))
    # A penalty above the null threshold leaves only the intercept.
    m = logistic_lasso_fit(x, y, lam=10.0)
    assert np.all(m.coefficients == 0.0)
    p_hat = y.mean()
    assert m.intercept == pytest.approx(np.log(p_hat / (1 - p_hat)), abs=1e-6)


def test_kkt_on_random_instances_logistic():
    rng = np.random.default_rng(13)
    for trial in range(15):
        n, p = int(rng.integers(40, 120)), int(rng.integers(1, 7))
        x = rng.uniform(-1, 1, (n, p))
        eta = x @ rng.normal(size=p) + 0.3 * rng.normal()
        y = (rng.random(n) < expit(eta)).astype(float)
        if y.min() == y.max():
            continue
        w = rng.uniform(0.1, 2.0, n)
        lam = float(rng.uniform(0.005, 0.3))
        m = logistic_lasso_fit(x, y, lam, sample_weight=w)
        assert_stationary(m, x, y, lam, w)


def test_logistic_objective_trace_non_increasing():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (80, 4))
    y = (rng.random(80) < expit(x @ np.array([1.0, -1.0, 0.0, 0.5]))).astype(float)
    m = logistic_lasso_fit(x, y, 0.02)
    trace = np.array(m.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


def test_logistic_separable_small_sample_reaches_stationarity():
    """Separable data with a tiny penalty has a far-off but finite optimum
    where the curvature along the escaping direction is nearly flat, so
    the Newton steps lean on the curvature floor and the backtracking."""
    x = np.linspace(-1.0, 1.0, 21)[:, None]
    y = (x[:, 0] > 0.05).astype(float)
    m = logistic_lasso_fit(x, y, 1e-3)
    assert_stationary(m, x, y, 1e-3)
    assert m.coefficients[0] > 1.0
    trace = np.array(m.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


def test_logistic_near_separable_high_dimensional_reaches_stationarity():
    rng = np.random.default_rng(21)
    n, p = 100, 50
    x = rng.uniform(-1, 1, (n, p))
    y = (x[:, :3] @ np.array([4.0, -3.0, 2.0]) + 0.05 * rng.normal(size=n) > 0).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    lam = 1e-3 * _lambda_max(x, y, w / w.sum(), "logistic")
    m = logistic_lasso_fit(x, y, lam, sample_weight=w)
    assert_stationary(m, x, y, lam, w)
    trace = np.array(m.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))


def test_logistic_newton_steps_bounded_on_well_conditioned_fit():
    """Proximal Newton converges in a handful of outer steps where a
    first-order method needs hundreds; each step appends one objective."""
    rng = np.random.default_rng(22)
    x = rng.uniform(-1, 1, (500, 5))
    y = (rng.random(500) < expit(x @ np.array([1.0, -0.5, 0.0, 0.3, 0.0]))).astype(float)
    m = logistic_lasso_fit(x, y, 0.01)
    assert len(m.objective_trace) - 1 <= 8


@pytest.mark.parametrize("case", ["step_limit", "no_descent", "sweep_limit"])
def test_failed_fit_says_how_many_steps_ran_and_why(monkeypatch, case):
    """With a cap lowered, or no candidate step accepted, the fit ends short
    of stationarity on the bounded-steps test's data and says why."""
    rng = np.random.default_rng(22)
    x = rng.uniform(-1, 1, (500, 5))
    y = (rng.random(500) < expit(x @ np.array([1.0, -0.5, 0.0, 0.3, 0.0]))).astype(float)
    fit, lam, stop = logistic_lasso_fit, 0.01, "logistic lasso intercept failed stationarity after "
    if case == "step_limit":
        monkeypatch.setattr(linmod, "_MAX_NEWTON", 2)
        stop += "2 Newton steps (step limit reached)"
    elif case == "no_descent":  # every objective after the starting point's reads +inf
        calls, objective = itertools.count(), linmod._logistic_objective
        monkeypatch.setattr(linmod, "_logistic_objective",
                            lambda *a: np.inf if next(calls) else objective(*a))
        stop += "0 Newton steps (line search found no descent)"
    else:
        monkeypatch.setattr(linmod, "_MAX_SWEEPS", 1)
        fit, lam, stop = lasso_fit, 0.001, ("lasso stopped with KKT residual 2.333e-03 > 1e-06 "
                                            "after 1 sweep (sweep limit reached)")
    with pytest.raises(ConvergenceError) as info:
        fit(x, y, lam)
    assert str(info.value) == stop


def _counted_gram_builds(monkeypatch):
    """Record each weighted Gram build that linmod makes from here on."""
    builds = []
    build = linmod._centred_gram

    def counted(x, w):
        builds.append(x.shape)
        return build(x, w)

    monkeypatch.setattr(linmod, "_centred_gram", counted)
    return builds


def test_logistic_fit_holds_its_gram_while_the_curvature_holds(monkeypatch):
    """At p=50 a Gram built at one curvature serves later outer steps, and
    the point returned is still stationary."""
    rng = np.random.default_rng(23)
    n, p = 600, 50
    x = rng.uniform(-1, 1, (n, p))
    y = (rng.random(n) < expit(x[:, :5] @ np.array([1.0, -0.8, 0.6, 0.5, -0.4]))).astype(float)
    lam = 0.05 * _lambda_max(x, y, np.full(n, 1.0 / n), "logistic")
    builds = _counted_gram_builds(monkeypatch)
    m = logistic_lasso_fit(x, y, lam)
    assert len(builds) < len(m.objective_trace) - 1
    assert_stationary(m, x, y, lam)


def test_logistic_fit_with_few_columns_rebuilds_its_gram_every_step(monkeypatch):
    """Below _HOLD_MIN_COLUMNS each outer step builds the Gram at its own
    curvature: plain proximal Newton."""
    rng = np.random.default_rng(24)
    x = rng.uniform(-1, 1, (600, 6))
    y = (rng.random(600) < expit(x @ np.array([1.0, -0.8, 0.6, 0.0, 0.0, 0.3]))).astype(float)
    builds = _counted_gram_builds(monkeypatch)
    m = logistic_lasso_fit(x, y, 0.005)
    assert len(builds) == len(m.objective_trace) - 1 > 1


def test_probability_clipping():
    beta = np.array([50.0])
    beta.flags.writeable = False
    m = LinearModel(beta, 0.0, "logistic", 0.0)
    probs = m.predict(np.array([[1.0], [-1.0]]))
    assert probs[0] == 1.0 - 1e-6
    assert probs[1] == 1e-6


# ------------------------------------------------------- both links


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_zero_weight_rows_change_nothing_property(seed, data):
    """Every fit's rows pass through nnet._fit_rows, so zero-weight rows with
    arbitrary finite x and y (labels not 0/1 included) leave each fit's
    coefficients, intercept and trace, and the selected penalty, bit for bit
    as they were."""
    rng = np.random.default_rng(seed)
    n, p = 40, 3
    x = rng.uniform(-1, 1, (n, p))
    y = x @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=n)
    labels = (rng.random(n) < expit(2.0 * x[:, 0])).astype(float)
    labels[:2] = 0.0, 1.0
    w = rng.uniform(0.1, 2.0, n)
    k = data.draw(st.integers(1, 12), label="zero rows")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    at = data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k), label="positions")
    junk_x = np.array(data.draw(st.lists(finite, min_size=k * p, max_size=k * p))).reshape(k, p)
    junk_y = np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
    junk_labels = np.where(np.isin(junk_y, (0.0, 1.0)), 0.5, junk_y)
    # np.insert puts the junk rows before the positions ``at`` and keeps the rest in order.
    xz, yz, lz, wz = (np.insert(a, at, b, axis=0) for a, b in
                      ((x, junk_x), (y, junk_y), (labels, junk_labels), (w, np.zeros(k))))

    for fit, target, padded in ((lasso_fit, y, yz), (logistic_lasso_fit, labels, lz)):
        a = fit(x, target, 0.02, sample_weight=w)
        b = fit(xz, padded, 0.02, sample_weight=wz)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept
        assert a.objective_trace == b.objective_trace
    for link, target, padded in (("identity", y, yz), ("logistic", labels, lz)):
        assert (select_lambda(x, target, link, grid_size=4, seed=seed, sample_weight=w)
                == select_lambda(xz, padded, link, grid_size=4, seed=seed, sample_weight=wz))
    for loss, target, padded in (("square", y, yz), ("logistic", labels, lz)):
        cfg = MLPConfig(depth=1, width=4, loss=loss, epochs=3, batch_size=8, seed=seed)
        a = mlp_fit(x, target, cfg, sample_weight=w)
        b = mlp_fit(xz, padded, cfg, sample_weight=wz)
        assert all(np.array_equal(u, v) for u, v in zip(a.weights + a.biases,
                                                        b.weights + b.biases))
        assert (a.training_loss, a.validation_loss) == (b.training_loss, b.validation_loss)


def _sparse_instance(seed, n, p, link):
    """x uniform on [-1, 1], a 30%-sparse truth, log-uniform weights in [1e-5, 1]."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, p))
    eta = x @ (rng.normal(size=p) * (rng.random(p) < 0.3)) + 0.2 * rng.normal()
    if link == "identity":
        y = eta + rng.normal(size=n)
    else:
        y = (rng.random(n) < expit(eta)).astype(float)
    return x, y, 10.0 ** rng.uniform(-5.0, 0.0, n)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200), p=st.integers(1, 60),
       log_frac=st.floats(-2.0, 0.0), link=st.sampled_from(["identity", "logistic"]))
def test_kkt_residual_within_tolerance_property(seed, n, p, log_frac, link):
    x, y, w = _sparse_instance(seed, n, p, link)
    if y.min() == y.max():
        return
    lam = 10.0**log_frac * max(_lambda_max(x, y, w / w.sum(), link), 1e-12)
    assert_stationary(_FITS[link](x, y, lam, sample_weight=w), x, y, lam, w)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 60), extra=st.integers(20, 150),
       log_frac=st.floats(-3.0, 0.0), link=st.sampled_from(["identity", "logistic"]))
def test_matches_plain_descent_reference_property(seed, p, extra, log_frac, link):
    """The exact finish returns the minimizer that plain descent converges to.

    Identity link: lasso_fit itself.  Logistic link: the finish acts on the
    proximal-Newton subproblems, so the check solves such a subproblem (the
    working response and curvature weights at the fitted point) from zero.
    logistic_lasso_fit as a whole stops on a KKT residual of 1e-7, which on
    ill-conditioned weights leaves its coefficients a few 1e-7 from the
    optimum, so comparing those at 1e-7 would test the stopping rule instead.
    """
    n = p + extra
    x, y, w = _sparse_instance(seed, n, p, link)
    if y.min() == y.max():
        return
    lam = 10.0**log_frac * max(_lambda_max(x, y, w / w.sum(), link), 1e-12)
    if link == "identity":
        m = lasso_fit(x, y, lam, sample_weight=w)
        b0, beta = m.intercept, m.coefficients
    else:
        m = logistic_lasso_fit(x, y, lam, sample_weight=w)
        eta = m.linear_predictor(x)
        prob = expit(eta)
        v = np.maximum(prob * (1.0 - prob), 1e-5)
        y, w, lam = eta + (y - prob) / v, w * v / (w * v).sum(), 2.0 * lam * w.sum() / (w @ v)
        b0, beta, _ = _gram_cd(x, y, w, lam, np.zeros(p), _MAX_SWEEPS)
    ref_b0, ref_beta, _ = reference_cd(x, y, w, lam)
    assert_allclose(beta, ref_beta, rtol=0, atol=1e-7)
    assert b0 == pytest.approx(ref_b0, abs=1e-7)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(10, 60), short=st.integers(1, 50),
       log_frac=st.floats(-3.0, 0.0), link=st.sampled_from(["identity", "logistic"]))
def test_kkt_when_columns_outnumber_rows_property(seed, p, short, log_frac, link):
    """With n < p the Gram matrix is singular and the minimizer need not be
    unique; every fit must still be stationary."""
    n = max(p - short, 5)
    x, y, w = _sparse_instance(seed, n, p, link)
    if y.min() == y.max():
        return
    lam = 10.0**log_frac * max(_lambda_max(x, y, w / w.sum(), link), 1e-12)
    assert_stationary(_FITS[link](x, y, lam, sample_weight=w), x, y, lam, w)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 60),
       zeros=st.sampled_from(["none", "all", "some"]),
       lam=st.just(0.0) | st.floats(0.0, 10.0))
def test_kkt_residual_matches_two_mask_reference_property(seed, p, zeros, lam):
    """The one-expression residual equals the two-mask form bit for bit,
    signed zeros in the gradient and the coefficients included."""
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=p) * 10.0 ** rng.uniform(-3.0, 1.0, p)
    grad[rng.random(p) < 0.1] = rng.choice([0.0, -0.0])
    beta = rng.normal(size=p)
    zero = {"none": np.zeros(p, bool), "all": np.ones(p, bool),
            "some": rng.random(p) < rng.random()}[zeros]
    beta[zero] = np.where(rng.random(p) < 0.5, 0.0, -0.0)[zero]
    assert _kkt_residual(grad, beta, lam) == reference_kkt_residual(grad, beta, lam)


def test_overflowing_design_raises_instead_of_returning_nan():
    """x of order 1e200 is finite, but its Gram matrix overflows and the
    descent ends on NaN coefficients.  A NaN comparison is false, so every
    stationarity gate is written to fail on NaN rather than pass it, and the
    refusal blames the objective, not converged sweeps."""
    assert np.isnan(_kkt_residual(np.array([np.nan, 0.0]), np.zeros(2), 0.1))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3)) * 1e200
    y = rng.normal(size=50)
    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError, match=r"after 1 sweep \(objective not finite\)$"):
            lasso_fit(x, y, 0.1)
        with pytest.raises(ConvergenceError):
            select_lambda(x, y)


def test_singular_active_block_falls_back_to_descent():
    """Two equal columns, both active with one sign, make the active block of
    the Gram matrix singular, so the finish has no solution to offer; the
    fit converges through coordinate descent instead."""
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, (200, 4))
    x = np.column_stack([x, x[:, 0]])
    y = 2.0 * x[:, 0] - x[:, 1] + 0.3 * rng.normal(size=200)
    lam = 0.01
    warm = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    m = lasso_fit(x, y, lam, _warm=(0.0, warm))
    active = np.flatnonzero(m.coefficients)
    assert {0, 4} <= set(active)
    assert m.coefficients[0] > 0 and m.coefficients[4] > 0
    xc = x[:, active] - x[:, active].mean(axis=0)
    assert np.linalg.matrix_rank(xc.T @ xc) < active.size
    assert_stationary(m, x, y, lam)


def test_finish_ends_well_conditioned_fit_early():
    """n=2000, p=50, x uniform, a 10-sparse truth: plain descent stopping at
    a 1e-8 move needed 8 sweeps per fit here and the finish 3 (measured
    before and after it was added), so 4 leaves room for rounding."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (2000, 50))
    y = x[:, :10] @ rng.normal(size=10) + rng.normal(size=2000)
    w = np.ones(2000)
    lam = 0.01 * _lambda_max(x, y, w / 2000, "identity")
    m = lasso_fit(x, y, lam)
    *_, plain_sweeps = reference_cd(x, y, w, lam, tol=1e-8)
    assert len(m.objective_trace) <= 4 < plain_sweeps


def test_rejected_finish_steps_to_the_first_sign_change():
    """The candidate on support {0, 1, 2, 3} flips coordinate 3, so the
    finish moves the iterate along the segment toward the candidate and stops
    where coordinate 3 reaches zero; on that segment the objective is the
    convex quadratic the candidate minimizes, so it does not rise."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    gram, c, lam = x.T @ x / 40, rng.normal(size=6), 0.2
    beta = np.array([0.3, -0.2, 0.4, 0.1, 0.0, 0.0])
    signs, start = np.sign(beta), beta.copy()
    cand = np.linalg.solve(gram[:4, :4], c[:4] - (lam / 2.0) * signs[:4])
    assert list(np.flatnonzero(np.sign(cand) != signs[:4])) == [3]

    def objective(b):
        return float(b @ gram @ b - 2.0 * c @ b + lam * np.abs(b).sum())

    assert linmod._active_finish(gram, c, signs, lam, beta) is None
    t = start[3] / (start[3] - cand[3])
    assert list(beta[3:]) == [0.0, 0.0, 0.0]
    assert_allclose(beta[:3], start[:3] + t * (cand[:3] - start[:3]), rtol=0, atol=1e-15)
    assert objective(beta) <= objective(start)


def test_near_square_identity_fit_certifies_within_sweep_budget():
    """n=50 rows, p=50 columns and a dense truth at lam = lam_max * 1e-2: the
    centred Gram matrix has rank 49.  Trying the finish only after sign-stable
    sweeps, and leaving the iterate where it was on a rejection, took 2,226
    sweeps here; stepping to the first sign change took 174."""
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, (50, 50))
    y = x @ rng.normal(size=50) * 0.3 + rng.normal(size=50)
    w = np.ones(50)
    lam = 1e-2 * _lambda_max(x, y, w / 50, "identity")
    m = lasso_fit(x, y, lam)  # certified: lasso_fit raises unless stationary
    assert len(m.objective_trace) <= 500
    assert_stationary(m, x, y, lam, w)


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_warm_start_matches_cold_start(link):
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (300, 10))
    eta = x @ np.array([1.0, -0.8, 0.5, 0.0, 0.0, 0.3, 0.0, 0.0, -0.2, 0.0])
    y = eta + 0.5 * rng.normal(size=300) if link == "identity" else (
        rng.random(300) < expit(eta)).astype(float)
    w = rng.uniform(0.2, 1.0, 300)
    fit = _FITS[link]
    lam_max = _lambda_max(x, y, w / w.sum(), link)
    start = fit(x, y, 0.3 * lam_max, sample_weight=w)
    cold = fit(x, y, 0.01 * lam_max, sample_weight=w)
    warm = fit(x, y, 0.01 * lam_max, sample_weight=w,
               _warm=(start.intercept, start.coefficients))
    assert_allclose(warm.coefficients, cold.coefficients, rtol=0, atol=1e-7)
    assert warm.intercept == pytest.approx(cold.intercept, abs=1e-7)


# ----------------------------------------------------------- select_lambda


def test_select_lambda_pure_noise_prefers_shrinkage():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (60, 4))
        y = rng.normal(size=60)
        lam = select_lambda(x, y, "identity", grid_size=8, seed=seed)
        w = np.ones(60) / 60
        lam_max = max(2.0 * np.max(np.abs(x.T @ (w * (y - y.mean())))), 1e-12)
        grid = np.geomspace(lam_max, lam_max * 1e-3, 8)
        rank = int(np.argmin(np.abs(grid - lam)))
        hits += rank < 2  # top quartile of an 8-point grid
    assert hits >= 40


def test_select_lambda_exact_linear_prefers_light_penalty():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1, 1, (200, 4))
        y = 1.5 * x[:, 0]
        lam = select_lambda(x, y, "identity", grid_size=8, seed=seed)
        w = np.ones(200) / 200
        lam_max = max(2.0 * np.max(np.abs(x.T @ (w * (y - y.mean())))), 1e-12)
        grid = np.geomspace(lam_max, lam_max * 1e-3, 8)
        rank = int(np.argmin(np.abs(grid - lam)))
        hits += rank >= 4  # bottom half of the grid
    assert hits >= 40


def test_select_lambda_tie_prefers_larger():
    # All-zero covariates: every penalty yields the null fit, so the largest wins.
    y = np.array([0.5, 1.5, -0.3, 0.9, 1.1, 0.2, 0.4, -0.1, 0.8, 0.3])
    lam = select_lambda(np.zeros((10, 2)), y, "identity", grid_size=6, seed=0)
    assert lam == pytest.approx(1e-12)  # floored lambda_max, top of the grid


def test_select_lambda_deterministic_and_validated():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (50, 3))
    y = rng.normal(size=50)
    assert select_lambda(x, y, seed=5) == select_lambda(x, y, seed=5)
    with pytest.raises(ConfigurationError):
        select_lambda(x, y, grid_size=1)
    with pytest.raises(ConfigurationError):
        select_lambda(x, y, link="probit")


@pytest.mark.parametrize(("n", "p", "floor"), [(48, 50, 1e-2), (80, 50, 1e-3),
                                                (11, 10, 1e-2), (12, 10, 1e-3)])
def test_select_lambda_grid_floor_follows_training_rows(monkeypatch, n, p, floor):
    """The path ends at lambda_max * 1e-2 when the 80% training split has
    fewer rows than x has columns (n=48 and n=11 leave 39 and 9), and at
    lambda_max * 1e-3 otherwise (64 rows for 50 columns, 10 for 10)."""
    rng = np.random.default_rng(41)
    x = rng.uniform(-1, 1, (n, p))
    y = x[:, :3] @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=n)
    lams = []

    def recording_fit(x, y, lam, **kwargs):
        lams.append(lam)
        return lasso_fit(x, y, lam, **kwargs)

    monkeypatch.setattr(linmod, "lasso_fit", recording_fit)
    select_lambda(x, y, grid_size=8)
    assert len(lams) == 8
    assert lams[-1] == pytest.approx(lams[0] * floor, rel=1e-12)


def test_select_lambda_logistic_runs():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (80, 3))
    y = (rng.random(80) < expit(1.5 * x[:, 0])).astype(float)
    lam = select_lambda(x, y, "logistic", grid_size=6, seed=1)
    assert lam > 0


# ---------------------------------------------------------- refused calls

_X, _Y, _X20 = np.zeros((4, 2)), np.zeros(4), np.random.default_rng(9).uniform(-1, 1, (20, 2))
_HALF = np.repeat([1.0, 0.0], 10)  # both classes exist, but one carries zero weight
_BETA = np.array([1.0, -1.0, 0.5])
_BETA.flags.writeable = False
_X50, _W50 = np.random.default_rng(42).uniform(-1, 1, (50, 2)), np.isin(np.arange(50), [3, 20, 41])
_ONE_CLASS = "logistic fit needs both classes among weighted rows"
# The refused calls by test name, in rows that tests/refusals.py states.
_REFUSED = {
    "test_all_zero_weights_and_bad_inputs": [
        (lambda: lasso_fit(_X, _Y, 0.1, sample_weight=_Y), EmptySubgroupError,
         "all sample weights are zero"),
        (lambda: logistic_lasso_fit(_X, _Y, 0.1, sample_weight=_Y), EmptySubgroupError,
         "all sample weights are zero"),
        (lambda: lasso_fit(_X, _Y, 0.1, sample_weight=_Y - 1), InputError,
         "sample weights must be finite and non-negative"),
        (lambda: lasso_fit(_X, _Y[:2], 0.1), InputError, "y must have shape (4,), got (2,)"),
        (lambda: lasso_fit(_X, _Y, -0.5), ConfigurationError, "lam must lie in [0, inf), got -0.5")],
    "test_single_class_raises_separation": [
        (lambda: logistic_lasso_fit(_X20, np.ones(20), 0.1), SeparationError, _ONE_CLASS),
        (lambda: logistic_lasso_fit(_X20, _HALF, 0.1, sample_weight=_HALF), SeparationError,
         _ONE_CLASS)],
    "test_predict_checks_x": [
        (lambda x=x: LinearModel(_BETA, 0.0, "identity", 0.0).predict(x), InputError, message)
        for x, message in ((np.ones((2, 5)), "x has 5 columns, model expects 3"),
                           (np.array([[0.1, np.nan, 0.2]]), "x contains non-finite values"),
                           (np.ones(3), "x must be 2-D (n, p), got shape (3,)"))],
    "test_fits_refuse_arrays_of_non_real_numbers": [
        (lambda: lasso_fit("abc", _Y, 0.1), InputError, "x must hold real numbers"),
        (lambda: lasso_fit(_X + 1j, _Y, 0.1), InputError, "x must hold real numbers"),
        (lambda: logistic_lasso_fit(_X, _Y + 0j, 0.1), InputError, "y must hold real numbers"),
        (lambda: lasso_fit(_X, _Y, 0.1, sample_weight="abc"), InputError,
         "sample_weight must hold real numbers")],
    # the 80/20 holdout is drawn over the positive-weight rows alone
    "test_select_lambda_counts_positive_weight_rows": [
        (lambda: select_lambda(_X50, np.zeros(50), sample_weight=_W50), InputError,
         "need at least 5 rows to split 80/20, got 3")],
}
refusal_tests(_REFUSED, globals())
