"""Tests for fold plans and doubly robust score algebra."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from refusals import refusal_tests
from scipy.special import expit

from drnets.errors import ConfigurationError, InputError
from drnets.scores import (
    CateData,
    CateNuisance,
    DteData,
    DteNuisance,
    cate_pseudo_outcome,
    cde_score,
    delta_decomposition,
    dte_score,
    dte_stage2_pseudo_outcome,
    make_folds,
)


def const(v):
    return lambda s: np.full(s.shape[0], v)


def rand_cate(rng, n, d=3):
    s = rng.uniform(-1, 1, (n, d))
    t = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n)
    return CateData(s, t, y)


def rand_dte(rng, n, d1=2, d2=2, mediator=False):
    s1 = rng.uniform(-1, 1, (n, d1))
    s2 = rng.uniform(-1, 1, (n, d2))
    t1 = (rng.random(n) < 0.6).astype(float)
    t2 = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n)
    m = rng.integers(0, 2, n).astype(float) if mediator else None
    return DteData(s1, t1, s2, t2, y, m)


# ------------------------------------------------------------------- folds


@settings(max_examples=50)
@given(n_folds=st.integers(2, 12), extra=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(n_folds=3, extra=7, seed=0)
def test_make_folds_partition_and_sizes(n_folds, extra, seed):
    n = n_folds + extra
    plan = make_folds(n, n_folds, seed=seed)
    sizes = np.bincount(plan.assignments, minlength=n_folds).tolist()
    # Round-robin over a shuffle: the first n % K folds hold one extra row.
    assert sizes == [n // n_folds + (k < n % n_folds) for k in range(n_folds)]
    all_idx = np.concatenate([plan.fold_indices(k) for k in range(n_folds)])
    assert sorted(all_idx.tolist()) == list(range(n))
    for k in range(n_folds):
        held, rest = plan.fold_indices(k), plan.complement_indices(k)
        assert np.intersect1d(held, rest).size == 0 and held.size + rest.size == n


def test_make_folds_seed_behavior():
    a = make_folds(50, 5, seed=1)
    b = make_folds(50, 5, seed=1)
    c = make_folds(50, 5, seed=2)
    assert np.array_equal(a.assignments, b.assignments)
    assert not np.array_equal(a.assignments, c.assignments)
    sizes = np.bincount(a.assignments)
    assert sizes.max() - sizes.min() <= 1


# -------------------------------------------------------------- containers


def _rows(cls):
    """Valid 3-row fields of cls, by name."""
    if cls is CateData:
        return {"s": np.zeros((3, 2)), "t": np.zeros(3), "y": np.zeros(3)}
    return {"s1": np.zeros((3, 2)), "t1": np.zeros(3), "s2": np.zeros((3, 2)),
            "t2": np.zeros(3), "y": np.zeros(3), "m": np.zeros(3)}


def _set(cell):
    """A fault that sets row 2 of a field to ``cell``."""
    def fault(value):
        value = value.copy()
        value[1] = cell
        return value
    return fault


def _short(value):
    return value[:2]


_ROW_FAULTS = [
    (CateData, "s", _set(np.nan), "s contains non-finite values"),
    (CateData, "s", _set(1.5), "s has entries outside the covariate support [-1, 1]"),
    (CateData, "t", _set(2.0), "t must be coded 0/1"),
    (CateData, "t", _short, "t must have shape (3,), got (2,)"),
    (CateData, "y", _set(1e101), "y row 2 lies outside [-1e+100, 1e+100]"),
    (CateData, "y", _short, "y must have shape (3,), got (2,)"),
    (DteData, "s1", _set(np.nan), "s1 contains non-finite values"),
    (DteData, "s1", _set(1.5), "s1 has entries outside the covariate support [-1, 1]"),
    (DteData, "t1", _set(2.0), "t1 must be coded 0/1"),
    (DteData, "t1", _short, "t1 must have shape (3,), got (2,)"),
    (DteData, "s2", _set(np.nan), "s2 contains non-finite values"),
    (DteData, "s2", _set(1.5), "s2 has entries outside the covariate support [-1, 1]"),
    (DteData, "s2", _short, "s1 and s2 must have the same number of rows"),
    (DteData, "t2", _set(2.0), "t2 must be coded 0/1"),
    (DteData, "t2", _short, "t2 must have shape (3,), got (2,)"),
    (DteData, "y", _set(1e101), "y row 2 lies outside [-1e+100, 1e+100]"),
    (DteData, "y", _short, "y must have shape (3,), got (2,)"),
    (DteData, "m", _set(0.5), "m must hold integer mediator levels"),
    (DteData, "m", _short, "m must have shape (3,), got (2,)"),
]

_S, _Z = np.zeros((3, 2)), np.zeros(3)
_NUIS = DteNuisance(pi=const(0.5), rho=const(0.5), nu=const(0.0), mu=const(0.0))
_NO_M = rand_dte(np.random.default_rng(6), 5)
_CATE, _CNUIS = rand_cate(np.random.default_rng(6), 5), CateNuisance(const(0.5), *[const(0.0)] * 2)
_E, _CLIP = ConfigurationError, "propensity_clip must lie in (0, 0.5), got "
# The refused calls by test name, in rows that tests/refusals.py states.
_REFUSED = {
    "test_make_folds_validation": [
        (lambda: make_folds(3, 5, seed=0), _E, "need at least n_folds=5 rows, got 3"),
        (lambda: make_folds(10, 1, seed=0), _E, "n_folds must be an integer >= 2, got 1")],
    "test_container_validation": [
        (lambda: CateData(_S, np.array([0.0, 1.0, 2.0]), _Z), InputError, "t must be coded 0/1"),
        (lambda: CateData(_S + 1.5, _Z, _Z), InputError,
         "s has entries outside the covariate support [-1, 1]"),
        (lambda: CateData(_S, _Z, np.array([0.0, np.nan, 0.0])), InputError,
         "y contains non-finite values"),
        (lambda: DteData(_S, _Z, _S[:2], _Z, _Z), InputError,
         "s1 and s2 must have the same number of rows"),
        (lambda: DteData(_S, _Z, _S, _Z, _Z, m=np.array([0.0, 0.5, 1.0])), InputError,
         "m must hold integer mediator levels")],
    "test_row_contract_names_each_fault": [
        (f"{cls.__name__}-{field}-{message}", lambda cls=cls, kw={**_rows(cls), field: fault(
            _rows(cls)[field])}: cls(**kw), InputError, message)
        for cls, field, fault, message in _ROW_FAULTS],
    "test_containers_refuse_arrays_of_non_real_numbers": [
        (lambda: CateData("abc", _Z, _Z), InputError, "s must hold real numbers"),
        (lambda: CateData(_S, _Z, _Z + 1j), InputError, "y must hold real numbers")],
    "test_propensity_clip_validation": [
        (lambda c=c: CateNuisance(const(0.5), const(0.0), const(0.0), propensity_clip=c), _E,
         _CLIP + str(c)) for c in (0.0, 0.5)],
    "test_cde_score_requires_mediator": [
        (lambda: cde_score(_NO_M, (1, 1), _NUIS), InputError,
         "the CDE requires data with a mediator column")],
    "test_scores_name_a_container_or_bundle_of_the_wrong_type": [
        (f.__name__, lambda f=f, args=args: f(*args), _E, message) for f, args, message in (
            (cate_pseudo_outcome, (_NO_M, _CNUIS), "data must be CateData, got DteData"),
            (dte_stage2_pseudo_outcome, (_CATE, _NUIS), "data must be DteData, got CateData"),
            (dte_score, (_NO_M, _CNUIS), "nuis must be DteNuisance, got CateNuisance"),
            (cde_score, (_CATE, (1, 1), _NUIS), "data must be DteData, got CateData"),
            (delta_decomposition, (_CATE, _CNUIS, _NUIS),
             "nuis_true must be CateNuisance, got DteNuisance"))],
}
refusal_tests(_REFUSED, globals())


def test_sbar2_concatenates_history():
    rng = np.random.default_rng(0)
    d = rand_dte(rng, 5)
    assert d.sbar2.shape == (5, 4)
    assert_allclose(d.sbar2[:, :2], d.s1)
    assert_allclose(d.sbar2[:, 2:], d.s2)


# ------------------------------------------------------------ cate scores


def test_cate_pseudo_outcome_by_hand():
    data = CateData(np.zeros((1, 2)), np.array([1.0]), np.array([2.0]))
    nuis = CateNuisance(const(0.5), const(1.0), const(0.5))
    assert cate_pseudo_outcome(data, nuis)[0] == pytest.approx(2.5, abs=1e-14)

    data0 = CateData(np.zeros((1, 2)), np.array([0.0]), np.array([1.0]))
    nuis0 = CateNuisance(const(0.25), const(2.0), const(0.5))
    expected = 2.0 - 0.5 - (1.0 - 0.5) / 0.75
    assert cate_pseudo_outcome(data0, nuis0)[0] == pytest.approx(expected, abs=1e-14)


def test_cate_pseudo_outcome_clips_propensity():
    data = CateData(np.zeros((1, 2)), np.array([1.0]), np.array([3.0]))
    nuis = CateNuisance(const(0.001), const(0.0), const(0.0), propensity_clip=0.01)
    assert cate_pseudo_outcome(data, nuis)[0] == pytest.approx(3.0 / 0.01, abs=1e-10)


def test_cate_telescoping_on_realized_arm():
    rng = np.random.default_rng(1)
    data = rand_cate(rng, 50)
    mu0 = lambda s: 0.3 * s[:, 0]
    mu1 = lambda s: 1.0 + 0.2 * s[:, 1]
    # Propensity 1 on the treated arm (pre-clip); use a tiny clip so the
    # cancellation survives up to the clip epsilon.
    nuis = CateNuisance(const(1.0), mu1, mu0, propensity_clip=1e-9)
    got = cate_pseudo_outcome(data, nuis)
    treated = data.t == 1
    assert_allclose(got[treated], (data.y - mu0(data.s))[treated], atol=1e-6)


# ------------------------------------------------------------- dte scores


def test_dte_stage2_pseudo_outcome_by_hand():
    rng = np.random.default_rng(2)
    d = rand_dte(rng, 1)
    d = DteData(d.s1, d.t1, d.s2, np.array([1.0]), np.array([5.0]))
    nuis = DteNuisance(rho=const(0.5), nu=const(3.0))
    assert dte_stage2_pseudo_outcome(d, nuis)[0] == pytest.approx(7.0, abs=1e-14)
    d0 = DteData(d.s1, d.t1, d.s2, np.array([0.0]), np.array([5.0]))
    assert dte_stage2_pseudo_outcome(d0, nuis)[0] == pytest.approx(3.0, abs=1e-14)


def test_dte_stage2_telescoping():
    rng = np.random.default_rng(3)
    d = rand_dte(rng, 40)
    nuis = DteNuisance(rho=const(1.0), nu=lambda sb: 0.4 * sb[:, 0], propensity_clip=1e-9)
    got = dte_stage2_pseudo_outcome(d, nuis)
    stage2 = d.t2 == 1
    assert_allclose(got[stage2], d.y[stage2], atol=1e-6)


def test_dte_score_by_hand():
    rng = np.random.default_rng(4)
    d = rand_dte(rng, 1)
    d = DteData(d.s1, np.array([1.0]), d.s2, np.array([1.0]), np.array([3.0]))
    nuis = DteNuisance(pi=const(0.5), rho=const(0.5), nu=const(2.0), mu=const(1.0))
    # 1 + (2-1)/0.5 + (3-2)/(0.5*0.5)
    assert dte_score(d, nuis)[0] == pytest.approx(7.0, abs=1e-14)
    d_off = DteData(d.s1, np.array([0.0]), d.s2, np.array([1.0]), np.array([3.0]))
    assert dte_score(d_off, nuis)[0] == pytest.approx(1.0, abs=1e-14)


def test_dte_score_telescoping():
    rng = np.random.default_rng(5)
    d = rand_dte(rng, 60)
    nuis = DteNuisance(
        pi=const(1.0), rho=const(1.0),
        nu=lambda sb: 0.1 * sb[:, 1], mu=lambda s1: 0.2 * s1[:, 0],
        propensity_clip=1e-9,
    )
    got = dte_score(d, nuis)
    on_path = (d.t1 == 1) & (d.t2 == 1)
    assert_allclose(got[on_path], d.y[on_path], atol=1e-6)


# ------------------------------------------------------------- cde scores


def test_cde_score_by_hand():
    s1 = np.zeros((3, 2))
    s2 = np.zeros((3, 2))
    t = np.array([1.0, 1.0, 0.0])
    m = np.array([1.0, 0.0, 1.0])
    y = np.array([3.0, 9.0, 9.0])
    d = DteData(s1, t, s2, np.zeros(3), y, m=m)
    nuis = DteNuisance(pi=const(0.5), rho=const(0.5), nu=const(2.0), mu=const(1.0))
    got = cde_score(d, (1, 1), nuis)
    # Row 0 matches (t, m): full correction. Row 1 matches t only. Row 2 neither.
    assert got[0] == pytest.approx(1.0 + 2.0 + 4.0, abs=1e-14)
    assert got[1] == pytest.approx(1.0 + 2.0, abs=1e-14)
    assert got[2] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       t_level=st.sampled_from([0, 1]), m_level=st.integers(0, 2),
       clip=st.sampled_from([1e-9, 0.01, 0.2]))
def test_cde_score_is_dte_score_on_relabelled_data(seed, n, t_level, m_level, clip):
    rng = np.random.default_rng(seed)
    d = rand_dte(rng, n)
    d = DteData(d.s1, d.t1, d.s2, d.t2, d.y, m=rng.integers(0, 3, n).astype(float))
    a, b, c = rng.normal(size=3)
    nuis = DteNuisance(
        pi=lambda s1: expit(a * s1[:, 0]), rho=lambda sb: expit(b * sb[:, -1]),
        nu=lambda sb: c * sb[:, 1], mu=lambda s1: s1[:, 1] - c, propensity_clip=clip,
    )
    got = cde_score(d, (t_level, m_level), nuis)
    i1 = (d.t1 == t_level).astype(float)
    i2 = (d.m == m_level).astype(float)
    relabelled = DteData(d.s1, i1, d.s2, i2, d.y)
    assert np.array_equal(got, dte_score(relabelled, nuis))
    # The explicit arm-specific formula, bit for bit.
    pi, rho = nuis.clipped_pi(d.s1), nuis.clipped_rho(d.sbar2)
    nu, mu = nuis.nu(d.sbar2), nuis.mu(d.s1)
    assert np.array_equal(got, mu + i1 * (nu - mu) / pi + i1 * i2 * (d.y - nu) / (pi * rho))
    # With the mediator equal to t2, the (1, 1) CDE score is the DTE score.
    d_m = DteData(d.s1, d.t1, d.s2, d.t2, d.y, m=d.t2)
    assert np.array_equal(cde_score(d_m, (1, 1), nuis), dte_score(d, nuis))


# ---------------------------------------------------- delta decomposition


def smooth_nuisances(shift_pi, shift_mu, clip=0.01):
    pi = lambda s: 0.5 + 0.3 * np.cos(1.3 * s[:, 0]) * shift_pi + 0.1 * s[:, 1] * shift_pi
    mu1 = lambda s: 1.0 + 0.5 * s[:, 0] + shift_mu * np.cos(2.0 * s[:, 1])
    mu0 = lambda s: 0.2 * s[:, 1] - shift_mu * np.sin(1.1 * s[:, 0])
    return CateNuisance(pi, mu1, mu0, propensity_clip=clip)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0))
@example(seed=7, scale=0.6)
def test_delta_identity_exact(seed, scale):
    rng = np.random.default_rng(seed)
    data = rand_cate(rng, 2000)
    hat = smooth_nuisances(1.0 - scale / 3.0, scale)
    true = smooth_nuisances(1.0, 0.0)
    d1, d2 = delta_decomposition(data, hat, true)
    diff = cate_pseudo_outcome(data, hat) - cate_pseudo_outcome(data, true)
    assert np.max(np.abs(d1 + d2 - diff)) <= 1e-10


def test_delta2_zero_when_either_nuisance_exact():
    rng = np.random.default_rng(8)
    data = rand_cate(rng, 300)
    true = smooth_nuisances(1.0, 0.0)
    same_mu = CateNuisance(smooth_nuisances(0.5, 0.0).pi, true.mu1, true.mu0)
    d1, d2 = delta_decomposition(data, same_mu, true)
    assert np.max(np.abs(d2)) == 0.0
    same_pi = CateNuisance(true.pi, smooth_nuisances(1.0, 0.7).mu1, true.mu0)
    d1, d2 = delta_decomposition(data, same_pi, true)
    assert np.max(np.abs(d2)) == 0.0


def test_delta_zero_for_identical_nuisances():
    rng = np.random.default_rng(9)
    data = rand_cate(rng, 100)
    true = smooth_nuisances(1.0, 0.3)
    d1, d2 = delta_decomposition(data, true, true)
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)


def test_delta1_conditional_mean_zero_analytic():
    # With one observation per covariate value, average delta1 over the
    # treatment distribution analytically: it vanishes when the residual
    # factors are evaluated at their conditional means.
    s = np.array([[0.3, -0.2]])
    true = smooth_nuisances(1.0, 0.0)
    hat = smooth_nuisances(0.7, 0.4)
    pi_t = true.clipped_pi(s)[0]
    mu1_t = true.mu1(s)[0]
    mu0_t = true.mu0(s)[0]
    total = 0.0
    for t, prob in ((1.0, pi_t), (0.0, 1.0 - pi_t)):
        # Conditional mean of y on each arm equals the true regression.
        y = mu1_t if t == 1 else mu0_t
        data = CateData(s, np.array([t]), np.array([y]))
        d1, _ = delta_decomposition(data, hat, true)
        total += prob * d1[0]
    assert abs(total) <= 1e-12
