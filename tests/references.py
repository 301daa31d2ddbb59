"""Independent references that the acceptance gate and the unit tests share.

Each is written from a definition, not from the code under test: the lasso
stationarity certificate from the objective's subgradient, the network
gradient from central differences of the loss, and the kink-free draw from
the ReLU and clamp break points.  Each caller states its own tolerances.
"""

import dataclasses

import numpy as np
from scipy.special import expit

from drnets.nnet import mlp_loss_grad

# ----------------------------------------------------- lasso stationarity


def assert_stationary(model, x, y, lam, sample_weight=None, tol=1e-6):
    """Subgradient stationarity of a fitted lasso at ``tol``, on every coordinate.

    The smooth part's gradient for the model's link, with weights normalized
    to sum 1: -2 X'W r for the square loss, X'W (expit(eta) - y) for the
    logistic one.  Its intercept entry must vanish; a zero coefficient's must
    lie within lam, and a nonzero one's must equal -lam * sign(beta_j).
    """
    w = np.ones(len(y)) if sample_weight is None else sample_weight
    w = w / w.sum()
    eta, beta = model.linear_predictor(x), model.coefficients
    if model.link == "identity":
        r = y - eta
        grad, grad0 = -2.0 * (x.T @ (w * r)), -2.0 * float(w @ r)
    else:
        g = w * (expit(eta) - y)
        grad, grad0 = x.T @ g, float(g.sum())
    assert abs(grad0) <= tol
    for j in range(beta.size):
        if beta[j] == 0.0:
            assert abs(grad[j]) <= lam + tol
        else:
            assert abs(grad[j] + lam * np.sign(beta[j])) <= tol


# --------------------------------------------------------- network gradient


def flat_params(weights, biases):
    """Every weight, then every bias, as one vector."""
    return np.concatenate([a.ravel() for a in weights] + [a.ravel() for a in biases])


def with_params(model, flat):
    """The model with its parameters read back from ``flat`` (flat_params' layout)."""
    parts, pos = [], 0
    for a in model.weights + model.biases:
        parts.append(flat[pos:pos + a.size].reshape(a.shape))
        pos += a.size
    k = len(model.weights)
    return dataclasses.replace(model, weights=tuple(parts[:k]), biases=tuple(parts[k:]))


def fd_gradient(model, x, y, w, h):
    """Central differences of mlp_loss_grad's loss, one parameter at a time."""
    theta = flat_params(model.weights, model.biases)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        lu, *_ = mlp_loss_grad(with_params(model, up), x, y, w)
        ld, *_ = mlp_loss_grad(with_params(model, dn), x, y, w)
        grad[j] = (lu - ld) / (2.0 * h)
    return grad


def draw_kink_free(rng, model, n, margin=1e-4, tries=300):
    """Inputs uniform on [-1, 1] whose ReLU pre-activations lie at least
    ``margin`` from 0 and raw outputs at least 1e-3 from the clamp bound, so
    central differences see a smooth loss; each try draws a fresh batch."""
    bound = model.config.clamp_bound
    for _ in range(tries):
        x = a = rng.uniform(-1.0, 1.0, (n, model.input_dim))
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre = a @ w.T + b
            if np.min(np.abs(pre)) < margin:
                break
            a = np.maximum(pre, 0.0)
        else:
            raw = a @ model.weights[-1][0] + model.biases[-1][0]
            if np.min(np.abs(np.abs(raw) - bound)) >= 1e-3:
                return x
    raise AssertionError("no kink-free batch found")
