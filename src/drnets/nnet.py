"""Small fully connected ReLU networks trained by mini-batch gradient descent.

The network class is deliberately plain: ``depth`` hidden layers of equal
``width``, ReLU activations, a single identity output unit, and a hard clamp
of the output to ``[-clamp_bound, clamp_bound]``.  Fitting minimizes the
weight-normalized empirical risk

    (1 / sum(w)) * sum_i w_i * loss(f(x_i), y_i)

with ``loss`` either the square loss ``(f - y)**2`` or the logistic loss
``-y*f + log(1 + exp(f))`` (``f`` is then a logit and ``y`` a 0/1 label).
The clamp participates in training: its subgradient is 1 strictly inside the
interval and 0 at or beyond the boundary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigurationError,
    DivergenceError,
    EmptySubgroupError,
    InputError,
)

_LOSSES = ("square", "logistic")


@dataclass(frozen=True)
class MLPConfig:
    """Architecture and training hyperparameters.

    ``clamp_bound=None`` defers the output bound until fitting, where it
    resolves to ``2 * 1.1 * max|target|`` (floored at 1.0 so degenerate
    all-zero targets still yield a valid bound).
    """

    depth: int = 2
    width: int = 16
    loss: str = "square"
    epochs: int = 100
    batch_size: int = 64
    step_size: float = 0.05
    seed: int = 0
    validation_fraction: float = 0.2
    clamp_bound: float | None = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1, got {self.width}")
        if self.loss not in _LOSSES:
            raise ConfigurationError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ConfigurationError(f"step_size must be positive, got {self.step_size}")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ConfigurationError(
                f"validation_fraction must lie in [0, 0.5], got {self.validation_fraction}"
            )
        if self.clamp_bound is not None and not (
            self.clamp_bound > 0 and np.isfinite(self.clamp_bound)
        ):
            raise ConfigurationError(f"clamp_bound must be positive, got {self.clamp_bound}")


@dataclass(frozen=True)
class MLPModel:
    """An immutable fitted (or freshly initialized) network.

    ``weights`` holds one matrix per layer: hidden layers are
    ``(width, fan_in)`` and the output layer is ``(1, width)``.  ``biases``
    matches with vectors of length ``width`` and 1.
    """

    config: MLPConfig
    input_dim: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    training_loss: tuple[float, ...] = ()
    validation_loss: tuple[float, ...] = ()

    def predict(self, x: np.ndarray) -> np.ndarray:
        return mlp_predict(self, x)

    @property
    def n_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def _frozen(arrays) -> tuple[np.ndarray, ...]:
    out = []
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        a.flags.writeable = False
        out.append(a)
    return tuple(out)


def mlp_init(config: MLPConfig, input_dim: int) -> MLPModel:
    """He-initialized network: weights ~ N(0, 2 / fan_in), biases zero."""
    if input_dim < 1:
        raise ConfigurationError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    fan_in = input_dim
    for _ in range(config.depth):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(config.width, fan_in)))
        biases.append(np.zeros(config.width))
        fan_in = config.width
    weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(1, fan_in)))
    biases.append(np.zeros(1))
    return MLPModel(config, input_dim, _frozen(weights), _frozen(biases))


def _check_x(x: np.ndarray, input_dim: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"x must be 2-D (n, p), got shape {x.shape}")
    if input_dim is not None and x.shape[1] != input_dim:
        raise InputError(f"x has {x.shape[1]} columns, model expects {input_dim}")
    if not np.isfinite(x).all():
        raise InputError("x contains non-finite values")
    return x


def _check_xy(x, y, input_dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x as a finite 2-D array (with ``input_dim`` columns, if given) and y as
    a finite vector with one entry per row of x; also used by linmod."""
    x = _check_x(x, input_dim)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise InputError(f"y must have shape ({x.shape[0]},), got {y.shape}")
    if not np.isfinite(y).all():
        raise InputError("y contains non-finite values")
    return x, y


def _forward(weights, biases, x):
    """Return (activations, raw_output); activations[0] is x itself."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = acts[-1] @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    raw = acts[-1] @ weights[-1][0]
    raw += biases[-1][0]
    return acts, raw


def _clamp(raw, bound):
    if bound is None:
        return raw
    return np.minimum(np.maximum(raw, -bound), bound)


def mlp_predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Clamped network output; for logistic loss this is the clamped logit."""
    x = _check_x(x, model.input_dim)
    return _clamp(_forward(model.weights, model.biases, x)[1], model.config.clamp_bound)


def _risk(loss, f, y, w, w_sum):
    """Weight-normalized loss of the clamped outputs f."""
    per = (f - y) ** 2 if loss == "square" else np.logaddexp(0.0, f) - y * f
    return float(np.dot(w, per) / w_sum)


def _loss_value(loss, bound, weights, biases, x, y, w, w_sum):
    return _risk(loss, _clamp(_forward(weights, biases, x)[1], bound), y, w, w_sum)


def _loss_grad(loss, bound, weights, biases, x, y, w, w_sum, grad_w, grad_b):
    """Write the parameter gradient of the weight-normalized loss into grad_w
    and grad_b (arrays shaped like weights and biases)."""
    # The in-place forms below give the plain expressions' values bit for bit.
    acts, raw = _forward(weights, biases, x)
    f = _clamp(raw, bound)
    if loss == "square":
        dldf = f - y
        dldf *= 2.0
    else:
        dldf = expit(f)
        dldf -= y
    # Clamp subgradient: pass-through strictly inside, zero at the boundary.
    if bound is not None:
        dldf = np.where(np.abs(raw) < bound, dldf, 0.0)
    g = w * dldf
    g /= w_sum
    np.matmul(g, acts[-1], out=grad_w[-1][0])
    grad_b[-1][0] = np.add.reduce(g)
    d = np.multiply.outer(g, weights[-1][0])
    for layer in range(len(weights) - 2, -1, -1):
        d *= acts[layer + 1] > 0
        np.matmul(d.T, acts[layer], out=grad_w[layer])
        np.add.reduce(d, axis=0, out=grad_b[layer])
        if layer > 0:
            d = d @ weights[layer]


def _views(buf, model: MLPModel):
    """(weights, biases) lists of views into the flat buffer buf, shaped like
    the model's and laid out as every weight, then every bias."""
    out, pos = [], 0
    for a in model.weights + model.biases:
        out.append(buf[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    k = len(model.weights)
    return out[:k], out[k:]


def mlp_loss_grad(model: MLPModel, x: np.ndarray, y: np.ndarray, sample_weight=None):
    """Loss and parameter gradient of the weight-normalized empirical risk.

    Returns ``(loss, grad_weights, grad_biases)`` with gradient entries shaped
    like ``model.weights`` / ``model.biases``.
    """
    x, y = _check_xy(x, y, model.input_dim)
    n = x.shape[0]
    w = _check_weights(sample_weight, n)
    w_sum = w.sum()
    if w_sum <= 0:
        raise EmptySubgroupError("all sample weights are zero")
    grad_w, grad_b = _views(np.empty(model.n_parameters), model)
    params = (model.config.loss, model.config.clamp_bound, model.weights, model.biases)
    _loss_grad(*params, x, y, w, w_sum, grad_w, grad_b)
    return _loss_value(*params, x, y, w, w_sum), grad_w, grad_b


def _check_weights(sample_weight, n) -> np.ndarray:
    """Sample weights as a float array (ones when None); also used by linmod."""
    if sample_weight is None:
        return np.ones(n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise InputError(f"sample_weight must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise InputError("sample weights must be finite and non-negative")
    return w


def mlp_fit(x: np.ndarray, y: np.ndarray, config: MLPConfig, sample_weight=None) -> MLPModel:
    """Fit by mini-batch gradient descent with a fixed step size.

    Zero-weight rows are discarded up front, so they cannot affect batch
    composition.  After each epoch the full training loss is recorded (a
    non-finite value raises DivergenceError naming the epoch) and, when a
    validation fraction is held out, the parameters with the best validation
    loss are returned (ties resolve to the earliest epoch).

    All weights and biases are views into one flat buffer ``theta`` and their
    gradients views into a second buffer ``grad`` of the same layout, so one
    update moves every parameter and one copy checkpoints them.  Each epoch
    gathers the training rows once in permutation order; its batches are then
    contiguous slices.
    """
    x, y = _check_xy(x, y)
    w = _check_weights(sample_weight, x.shape[0])
    keep = w > 0
    if not np.any(keep):
        raise EmptySubgroupError("all sample weights are zero")
    x, y, w = x[keep], y[keep], w[keep]
    if config.loss == "logistic" and not np.all((y == 0) | (y == 1)):
        raise InputError("logistic loss requires 0/1 targets")

    if config.clamp_bound is None:
        bound = max(2.0 * 1.1 * float(np.max(np.abs(y))), 1.0)
        config = replace(config, clamp_bound=bound)
    model0 = mlp_init(config, x.shape[1])
    theta = np.concatenate([a.ravel() for a in model0.weights + model0.biases])
    grad = np.empty_like(theta)
    weights, biases = _views(theta, model0)
    grad_w, grad_b = _views(grad, model0)

    rng = np.random.default_rng([config.seed, 1])
    n = x.shape[0]
    n_val = int(np.floor(n * config.validation_fraction))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    xt, yt, wt = x[train_idx], y[train_idx], w[train_idx]
    xv, yv, wv = x[val_idx], y[val_idx], w[val_idx]
    wv_sum = wv.sum()
    n_train = xt.shape[0]
    wt_sum_full = wt.sum()
    batches = [slice(start, start + config.batch_size)
               for start in range(0, n_train, config.batch_size)]

    loss, bound, step = config.loss, config.clamp_bound, config.step_size
    train_trace, val_trace = [], []
    best_val = np.inf
    best = None
    # Overflow inside a diverging run is expected; the loss check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_train)
            xe, ye, we = xt[order], yt[order], wt[order]
            for batch in batches:
                bw = we[batch]
                _loss_grad(loss, bound, weights, biases, xe[batch], ye[batch], bw,
                           np.add.reduce(bw), grad_w, grad_b)
                grad *= step
                theta -= grad
            epoch_loss = _loss_value(loss, bound, weights, biases, xt, yt, wt, wt_sum_full)
            train_trace.append(epoch_loss)
            if not np.isfinite(epoch_loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            if n_val > 0:
                v = _loss_value(loss, bound, weights, biases, xv, yv, wv, wv_sum)
                val_trace.append(v)
                if v < best_val:
                    best_val = v
                    best = theta.copy()

    if best is not None:
        weights, biases = _views(best, model0)
    return MLPModel(
        config,
        x.shape[1],
        _frozen(weights),
        _frozen(biases),
        tuple(train_trace),
        tuple(val_trace),
    )


def mlp_to_dict(model: MLPModel) -> dict:
    return {
        "kind": "mlp",
        "config": asdict(model.config),
        "input_dim": model.input_dim,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def mlp_to_json(model: MLPModel) -> str:
    return json.dumps(mlp_to_dict(model), sort_keys=True)

