"""Tests for the network engine, checked against independent oracles.

Gradients are compared to central finite differences, forward passes to a
naive loop implementation written here, so no expected value is copied from
the implementation under test.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from drnets.errors import (
    ConfigurationError,
    DivergenceError,
    EmptySubgroupError,
    InputError,
)
from drnets.nnet import (
    MLPConfig,
    MLPModel,
    mlp_fit,
    mlp_init,
    mlp_loss_grad,
    mlp_predict,
    mlp_to_json,
)


def naive_forward(model, x):
    """Loop-based forward pass, independent of the vectorized implementation."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        a = row
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            a = np.array([max(float(w[j] @ a + b[j]), 0.0) for j in range(w.shape[0])])
        raw = float(model.weights[-1][0] @ a + model.biases[-1][0])
        bound = model.config.clamp_bound
        out[i] = min(max(raw, -bound), bound)
    return out


def flat_params(weights, biases):
    return np.concatenate([a.ravel() for a in weights] + [a.ravel() for a in biases])


def model_with_params(model, flat):
    shapes_w = [w.shape for w in model.weights]
    shapes_b = [b.shape for b in model.biases]
    parts, pos = [], 0
    for s in shapes_w + shapes_b:
        size = int(np.prod(s))
        parts.append(flat[pos : pos + size].reshape(s))
        pos += size
    k = len(shapes_w)
    return dataclasses.replace(
        model, weights=tuple(parts[:k]), biases=tuple(parts[k:])
    )


def loss_at(model, flat, x, y, w):
    m = model_with_params(model, flat)
    value, _, _ = mlp_loss_grad(m, x, y, w)
    return value


def fd_gradient(model, x, y, w, h=1e-6):
    theta = flat_params(model.weights, model.biases)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (loss_at(model, up, x, y, w) - loss_at(model, dn, x, y, w)) / (2 * h)
    return grad


def draw_safe_inputs(rng, model, n, margin=1e-4):
    """Inputs whose ReLU pre-activations and raw outputs sit away from kinks."""
    bound = model.config.clamp_bound
    for _ in range(200):
        x = rng.uniform(-1, 1, (n, model.input_dim))
        ok = True
        a = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre = a @ w.T + b
            if np.min(np.abs(pre)) < margin:
                ok = False
                break
            a = np.maximum(pre, 0.0)
        if ok:
            raw = a @ model.weights[-1][0] + model.biases[-1][0]
            if np.min(np.abs(np.abs(raw) - bound)) < 1e-3:
                ok = False
        if ok:
            return x
    raise AssertionError("could not find inputs away from ReLU kinks")


# ---------------------------------------------------------------- mlp_init


def test_init_shapes_and_zero_biases():
    cfg = MLPConfig(depth=2, width=16, seed=0, clamp_bound=4.0)
    m = mlp_init(cfg, 4)
    assert [w.shape for w in m.weights] == [(16, 4), (16, 16), (1, 16)]
    assert [b.shape for b in m.biases] == [(16,), (16,), (1,)]
    for b in m.biases:
        assert np.all(b == 0.0)


def test_init_deterministic_and_seed_sensitive():
    cfg = MLPConfig(depth=2, width=5, seed=7, clamp_bound=1.0)
    a = mlp_init(cfg, 3)
    b = mlp_init(cfg, 3)
    assert mlp_to_json(a) == mlp_to_json(b)
    c = mlp_init(dataclasses.replace(cfg, seed=8), 3)
    assert mlp_to_json(a) != mlp_to_json(c)


@pytest.mark.parametrize("depth,width,p", [(1, 4, 2), (2, 16, 4), (3, 7, 5), (2, 1, 1)])
def test_parameter_count_formula(depth, width, p):
    m = mlp_init(MLPConfig(depth=depth, width=width, clamp_bound=1.0), p)
    expected = width * (p + 1) + (depth - 1) * width * (width + 1) + (width + 1)
    assert m.n_parameters == expected


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MLPConfig(depth=0)
    with pytest.raises(ConfigurationError):
        MLPConfig(loss="hinge")
    with pytest.raises(ConfigurationError):
        MLPConfig(validation_fraction=0.6)
    with pytest.raises(ConfigurationError):
        MLPConfig(clamp_bound=0.0)
    with pytest.raises(ConfigurationError):
        MLPConfig(step_size=0.0)


# ------------------------------------------------------------- mlp_predict


def test_forward_matches_naive_loops():
    rng = np.random.default_rng(11)
    m = mlp_init(MLPConfig(depth=2, width=3, seed=11, clamp_bound=10.0), 3)
    x = rng.uniform(-1, 1, (20, 3))
    assert_allclose(mlp_predict(m, x), naive_forward(m, x), rtol=1e-12)


def test_clamp_hits_bound_exactly():
    # One weight row of ones and a bias chosen so the raw output is 10x the bound.
    cfg = MLPConfig(depth=1, width=1, clamp_bound=0.5)
    weights = (np.array([[0.0]]), np.array([[0.0]]))
    biases = (np.array([0.0]), np.array([10 * 0.5]))
    m = MLPModel(cfg, 1, weights, biases)
    assert mlp_predict(m, np.array([[0.3]]))[0] == 0.5
    m_neg = MLPModel(cfg, 1, weights, (np.array([0.0]), np.array([-5.0])))
    assert mlp_predict(m_neg, np.array([[0.3]]))[0] == -0.5


def test_clamp_invariant_random_inputs():
    rng = np.random.default_rng(5)
    for seed, bound in [(0, 0.1), (1, 1.0), (2, 3.7)]:
        m = mlp_init(MLPConfig(depth=2, width=8, seed=seed, clamp_bound=bound), 4)
        # Scale weights up so the clamp actually binds for many inputs.
        m = dataclasses.replace(
            m, weights=tuple(np.asarray(w) * 20.0 for w in m.weights)
        )
        x = rng.uniform(-1, 1, (10_000, 4))
        out = mlp_predict(m, x)
        assert np.all(np.abs(out) <= bound)
        assert np.any(np.abs(out) == bound)


# ----------------------------------------------------------- mlp_loss_grad


def test_zero_gradient_at_perfect_fit():
    # All-zero parameters predict 0; with zero targets the square loss is flat.
    cfg = MLPConfig(depth=2, width=4, clamp_bound=1.0)
    m = mlp_init(cfg, 3)
    m = model_with_params(m, np.zeros(m.n_parameters))
    x = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    value, gw, gb = mlp_loss_grad(m, x, np.zeros(10))
    assert value == 0.0
    for g in gw + gb:
        assert np.all(g == 0.0)


def test_logistic_loss_value_formula():
    cfg = MLPConfig(depth=1, width=2, loss="logistic", seed=3, clamp_bound=5.0)
    m = mlp_init(cfg, 2)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (50, 2))
    y = rng.integers(0, 2, 50).astype(float)
    w = rng.uniform(0.5, 2.0, 50)
    f = mlp_predict(m, x)
    expected = np.sum(w * (np.log1p(np.exp(f)) - y * f)) / w.sum()
    value, _, _ = mlp_loss_grad(m, x, y, w)
    assert_allclose(value, expected, rtol=1e-12)


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(42)
    for seed in range(3):
        cfg = MLPConfig(depth=2, width=4, loss=loss, seed=seed, clamp_bound=50.0)
        m = mlp_init(cfg, 3)
        x = draw_safe_inputs(rng, m, 12)
        if loss == "square":
            y = rng.normal(size=12)
        else:
            y = rng.integers(0, 2, 12).astype(float)
        w = rng.uniform(0.5, 2.0, 12)
        _, gw, gb = mlp_loss_grad(m, x, y, w)
        analytic = flat_params(gw, gb)
        fd = fd_gradient(m, x, y, w)
        err = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(fd)), 1e-8)
        assert err <= 1e-5


def test_gradient_zero_beyond_clamp():
    # Saturated output: the clamp contributes zero gradient everywhere.
    cfg = MLPConfig(depth=1, width=2, clamp_bound=0.5)
    m = mlp_init(MLPConfig(depth=1, width=2, seed=1, clamp_bound=0.5), 2)
    biases = (np.asarray(m.biases[0]) + 5.0, np.asarray(m.biases[1]) + 100.0)
    m = dataclasses.replace(m, biases=tuple(biases))
    x = np.random.default_rng(2).uniform(-1, 1, (6, 2))
    assert np.all(np.abs(mlp_predict(m, x)) == 0.5)
    _, gw, gb = mlp_loss_grad(m, x, np.zeros(6))
    for g in gw + gb:
        assert np.all(g == 0.0)
    del cfg


def test_loss_grad_rejects_column_target():
    m = mlp_init(MLPConfig(depth=1, width=2, clamp_bound=1.0), 2)
    x = np.random.default_rng(3).uniform(-1, 1, (4, 2))
    with pytest.raises(InputError, match="y must have shape"):
        mlp_loss_grad(m, x, np.zeros((4, 1)))


def test_loss_grad_rejects_nan_target():
    m = mlp_init(MLPConfig(depth=1, width=2, clamp_bound=1.0), 2)
    x = np.random.default_rng(3).uniform(-1, 1, (4, 2))
    with pytest.raises(InputError, match="non-finite"):
        mlp_loss_grad(m, x, np.array([0.0, np.nan, 1.0, 0.5]))


def test_weighted_gradient_is_weighted_average():
    rng = np.random.default_rng(9)
    m = mlp_init(MLPConfig(depth=2, width=3, seed=4, clamp_bound=20.0), 2)
    x = rng.uniform(-1, 1, (5, 2))
    y = rng.normal(size=5)
    w = rng.uniform(0.1, 3.0, 5)
    _, gw, gb = mlp_loss_grad(m, x, y, w)
    combined = flat_params(gw, gb)
    acc = np.zeros_like(combined)
    for i in range(5):
        _, gwi, gbi = mlp_loss_grad(m, x[i : i + 1], y[i : i + 1], np.ones(1))
        acc += w[i] * flat_params(gwi, gbi)
    assert_allclose(combined, acc / w.sum(), atol=1e-12)


# ----------------------------------------------------------------- mlp_fit


def _toy_problem(n=60, p=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, p))
    y = 0.7 * x[:, 0] - 0.4 * x[:, 1] + 0.1 * rng.normal(size=n)
    return x, y


def reference_fit(x, y, config, w):
    """Plain training loop: a permutation per epoch, fancy-indexed batches,
    ``mlp_loss_grad`` for every step and per-layer updates."""
    keep = w > 0
    x, y, w = x[keep], y[keep], w[keep]
    model = mlp_init(config, x.shape[1])
    weights = [np.array(a) for a in model.weights]
    biases = [np.array(a) for a in model.biases]

    def current():
        return dataclasses.replace(model, weights=tuple(weights), biases=tuple(biases))

    rng = np.random.default_rng([config.seed, 1])
    n_val = int(np.floor(len(y) * config.validation_fraction))
    perm = rng.permutation(len(y))
    val, train = perm[:n_val], perm[n_val:]
    train_trace, val_trace = [], []
    best, best_val = None, np.inf
    for _ in range(config.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            idx = train[order[start : start + config.batch_size]]
            _, gw, gb = mlp_loss_grad(current(), x[idx], y[idx], w[idx])
            for p, g in zip(weights, gw):
                p -= config.step_size * g
            for p, g in zip(biases, gb):
                p -= config.step_size * g
        train_trace.append(mlp_loss_grad(current(), x[train], y[train], w[train])[0])
        if n_val > 0 and w[val].sum() > 0:
            v = mlp_loss_grad(current(), x[val], y[val], w[val])[0]
            val_trace.append(v)
            if v < best_val:
                best_val = v
                best = ([p.copy() for p in weights], [p.copy() for p in biases])
    if best is not None:
        weights, biases = best
    return weights, biases, train_trace, val_trace


@settings(max_examples=40)
@given(
    depth=st.integers(1, 3),
    width=st.integers(1, 8),
    p=st.integers(1, 5),
    n=st.integers(8, 90),
    batch_size=st.integers(1, 40),
    loss=st.sampled_from(["square", "logistic"]),
    clamp_bound=st.sampled_from([0.2, 50.0]),
    validation_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    zero_share=st.sampled_from([0.0, 0.3]),
    step_size=st.sampled_from([0.05, 0.4]),
    seed=st.integers(0, 2**16),
)
def test_fit_matches_reference_loop_bit_for_bit(
    depth, width, p, n, batch_size, loss, clamp_bound, validation_fraction, zero_share,
    step_size, seed,
):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, p))
    if loss == "logistic":
        y = (rng.uniform(size=n) < 0.5).astype(np.float64)
    else:
        y = x.sum(axis=1) + rng.normal(size=n)
    w = rng.uniform(0.1, 2.0, n)
    w[rng.uniform(size=n) < zero_share] = 0.0
    w[0] = 1.0
    cfg = MLPConfig(
        depth=depth, width=width, loss=loss, epochs=4, batch_size=batch_size,
        step_size=step_size, seed=seed, validation_fraction=validation_fraction,
        clamp_bound=clamp_bound,
    )
    model = mlp_fit(x, y, cfg, sample_weight=w)
    weights, biases, train_trace, val_trace = reference_fit(x, y, cfg, w)
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, weights))
    assert all(np.array_equal(a, b) for a, b in zip(model.biases, biases))
    assert model.training_loss == tuple(train_trace)
    assert model.validation_loss == tuple(val_trace)


def test_fit_deterministic_bytes():
    x, y = _toy_problem()
    cfg = MLPConfig(depth=2, width=6, epochs=30, batch_size=16, seed=12)
    a = mlp_fit(x, y, cfg)
    b = mlp_fit(x, y, cfg)
    assert mlp_to_json(a) == mlp_to_json(b)


def test_zero_weight_rows_equivalent_to_subset():
    x, y = _toy_problem(n=40)
    cfg = MLPConfig(depth=1, width=5, epochs=25, batch_size=8, seed=5)
    w = np.ones(40)
    w[20:] = 0.0
    a = mlp_fit(x, y, cfg, sample_weight=w)
    b = mlp_fit(x[:20], y[:20], cfg, sample_weight=np.ones(20))
    assert mlp_to_json(a) == mlp_to_json(b)


def test_weight_scaling_invariance():
    x, y = _toy_problem(n=50)
    cfg = MLPConfig(depth=2, width=4, epochs=20, batch_size=16, seed=8)
    w = np.random.default_rng(3).uniform(0.5, 2.0, 50)
    base = mlp_fit(x, y, cfg, sample_weight=w)
    for c in (0.25, 4.0):  # powers of two keep the arithmetic exact
        scaled = mlp_fit(x, y, cfg, sample_weight=c * w)
        assert mlp_to_json(base) == mlp_to_json(scaled)
    # Non-dyadic scaling: loss and gradient agree to rounding error.
    m = mlp_init(dataclasses.replace(cfg, clamp_bound=10.0), 3)
    v1, gw1, gb1 = mlp_loss_grad(m, x, y, w)
    v3, gw3, gb3 = mlp_loss_grad(m, x, y, 3.0 * w)
    assert_allclose(v1, v3, rtol=1e-12)
    assert_allclose(flat_params(gw1, gb1), flat_params(gw3, gb3), rtol=1e-10, atol=1e-14)


def test_all_zero_weights_raises():
    x, y = _toy_problem(n=10)
    with pytest.raises(EmptySubgroupError):
        mlp_fit(x, y, MLPConfig(), sample_weight=np.zeros(10))


def test_divergence_names_epoch():
    x, y = _toy_problem(n=30)
    cfg = MLPConfig(depth=2, width=8, epochs=50, batch_size=8, step_size=1e160, seed=0)
    with pytest.raises(DivergenceError, match=r"epoch \d+"):
        mlp_fit(x, 1e6 * y, cfg)


def test_logistic_balanced_labels_zero_input():
    x = np.zeros((40, 2))
    y = np.array([0.0, 1.0] * 20)
    cfg = MLPConfig(
        depth=2, width=4, loss="logistic", epochs=50, batch_size=40, step_size=0.2, seed=2
    )
    m = mlp_fit(x, y, cfg)
    logit = mlp_predict(m, np.zeros((1, 2)))[0]
    assert abs(logit) <= 1e-2
    assert abs(expit(logit) - 0.5) <= 1e-2


def test_validation_checkpoint_matches_truncated_run():
    x, y = _toy_problem(n=80, seed=4)
    cfg = MLPConfig(
        depth=2, width=8, epochs=40, batch_size=8, step_size=0.3, seed=9, validation_fraction=0.25
    )
    long = mlp_fit(x, y, cfg)
    best_epoch = 1 + int(np.argmin(long.validation_loss))
    short = mlp_fit(x, y, dataclasses.replace(cfg, epochs=best_epoch))
    assert all(
        np.array_equal(a, b) for a, b in zip(long.weights, short.weights)
    ) and all(np.array_equal(a, b) for a, b in zip(long.biases, short.biases))


def test_no_validation_returns_final_epoch():
    x, y = _toy_problem(n=30)
    cfg = MLPConfig(depth=1, width=4, epochs=15, validation_fraction=0.0, seed=1)
    m = mlp_fit(x, y, cfg)
    assert m.validation_loss == ()
    assert len(m.training_loss) == 15


def test_default_clamp_bound_from_targets():
    x, y = _toy_problem(n=30)
    m = mlp_fit(x, 5.0 * y, MLPConfig(depth=1, width=4, epochs=5, seed=0))
    assert m.config.clamp_bound == pytest.approx(2.0 * 1.1 * np.max(np.abs(5.0 * y)))
    # Degenerate all-zero targets fall back to the floor of 1.0.
    m0 = mlp_fit(x, np.zeros(30), MLPConfig(depth=1, width=4, epochs=5, seed=0))
    assert m0.config.clamp_bound == 1.0


def test_logistic_targets_validated():
    x, _ = _toy_problem(n=20)
    with pytest.raises(InputError):
        mlp_fit(x, np.full(20, 0.5), MLPConfig(loss="logistic"))
