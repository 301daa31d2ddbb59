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

Every fit, here and in ``linmod``, and ``mlp_loss_grad`` take their rows
through ``_fit_rows``: zero-weight rows are dropped on entry with row order
kept, so they change nothing whatever their values, and 0/1 labels are
checked on the rows left.

The training step is written for few numpy calls per minibatch.  Its fast
paths (no clamp when it binds nowhere in the batch, no weight product when
every weight is 1) are exact identities: they give the same bits as the full
computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

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
        for name in ("depth", "width", "epochs", "batch_size"):
            _check_int(name, getattr(self, name), 1)
        if self.loss not in _LOSSES:
            raise ConfigurationError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        _check_real("step_size", self.step_size, "(0, inf)")
        _check_int("seed", self.seed, 0)
        _check_real("validation_fraction", self.validation_fraction, "[0, 0.5]")
        if self.clamp_bound is not None:
            _check_real("clamp_bound", self.clamp_bound, "(0, inf)")


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
    _check_int("input_dim", input_dim, 1)
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


def _check_x(x: np.ndarray, input_dim: int | None = None, name: str = "x") -> np.ndarray:
    """x as a finite 2-D float array, with ``input_dim`` columns if given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"{name} must be 2-D (n, p), got shape {x.shape}")
    if input_dim is not None and x.shape[1] != input_dim:
        raise InputError(f"{name} has {x.shape[1]} columns, model expects {input_dim}")
    if not np.isfinite(x).all():
        raise InputError(f"{name} contains non-finite values")
    return x


def _check_vector(a, n: int, name: str, binary: bool = False) -> np.ndarray:
    """a as a finite float vector of length n, coded 0/1 if ``binary``."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite values")
    if binary and not ((a == 0) | (a == 1)).all():
        raise InputError(f"{name} must be coded 0/1")
    return a


def _check_int(name: str, value, lo=None, hi=None) -> None:
    """Reject a bool, a non-integer, and a value below lo or above hi (hi needs lo)."""
    if (type(value) is bool or not isinstance(value, (int, np.integer))
            or (lo is not None and value < lo) or (hi is not None and value > hi)):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ConfigurationError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, interval: str | None = None) -> None:
    """Reject a bool, a non-number, a non-finite value (an int too large for a
    float too), and a value outside ``interval``, written as in mathematics:
    "(0, 1)", "[0, inf)"."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(v):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    if interval is not None:
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not ((lo < v if interval[0] == "(" else lo <= v)
                and (v < hi if interval[-1] == ")" else v <= hi)):
            raise ConfigurationError(f"{name} must lie in {interval}, got {value}")


def _expit(x):
    """Logistic 1/(1 + exp(-x)), exp's argument capped at 709 so it cannot overflow."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


def _forward(weights, biases, x):
    """Return (activations, raw_output); activations[0] is x itself."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.dot(acts[-1], w.T)
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    raw = np.dot(acts[-1], weights[-1][0])
    raw += biases[-1][0]
    return acts, raw


def _inside(raw, bound):
    """True when every raw output lies strictly inside the clamp interval,
    where the clamp and its subgradient are the identity; NaN gives False."""
    return bound is None or np.maximum.reduce(np.abs(raw)) < bound


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
    raw = _forward(weights, biases, x)[1]
    return _risk(loss, raw if _inside(raw, bound) else _clamp(raw, bound), y, w, w_sum)


def _loss_grad(loss, bound, weights, biases, x, y, w, grad_w, grad_b):
    """Write the parameter gradient of the weight-normalized loss into grad_w
    and grad_b (arrays shaped like weights and biases).  ``w=None`` stands
    for unit weights."""
    # The fast paths and in-place forms below give the plain expressions'
    # values bit for bit: a clamp strictly inside its bound is the identity,
    # and a unit weight multiplies exactly, summing to the row count.
    acts, raw = _forward(weights, biases, x)
    inside = _inside(raw, bound)
    f = raw if inside else _clamp(raw, bound)
    if loss == "square":
        dldf = f - y
        dldf *= 2.0
    else:
        dldf = _expit(f)
        dldf -= y
    # Clamp subgradient: pass-through strictly inside, zero at the boundary.
    if not inside:
        dldf = np.where(np.abs(raw) < bound, dldf, 0.0)
    if w is None:
        g = dldf
        g /= x.shape[0]
    else:
        g = w * dldf
        g /= np.add.reduce(w)
    np.dot(g, acts[-1], out=grad_w[-1][0])
    grad_b[-1][0] = np.add.reduce(g)
    d = g[:, None] * weights[-1][0]
    for layer in range(len(weights) - 2, -1, -1):
        d *= acts[layer + 1] > 0
        np.dot(d.T, acts[layer], out=grad_w[layer])
        np.add.reduce(d, axis=0, out=grad_b[layer])
        if layer > 0:
            d = np.dot(d, weights[layer])


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
    like ``model.weights`` / ``model.biases``.  The rows go through the same
    contract as mlp_fit's (_fit_rows): zero-weight rows change nothing, and a
    logistic model's labels must be 0/1.
    """
    x, y, w = _fit_rows(_check_x(x, model.input_dim), y, sample_weight,
                        binary=model.config.loss == "logistic")
    grad_w, grad_b = _views(np.empty(model.n_parameters), model)
    params = (model.config.loss, model.config.clamp_bound, model.weights, model.biases)
    _loss_grad(*params, x, y, w, grad_w, grad_b)
    return _loss_value(*params, x, y, w, w.sum()), grad_w, grad_b


def _check_weights(sample_weight, n) -> np.ndarray:
    """Sample weights as a float array (ones when None), checked to be finite,
    non-negative and not all zero."""
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise InputError(f"sample_weight must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise InputError("sample weights must be finite and non-negative")
    if not (w > 0).any():
        raise EmptySubgroupError("all sample weights are zero")
    return w


def _fit_rows(x, y, sample_weight, binary: bool = False):
    """Checked x, y and weights with the zero-weight rows dropped, row order
    kept (no copy when every weight is positive); if ``binary``, the labels
    left are checked to be 0/1.  The one row contract of mlp_fit and, through
    linmod._check_inputs, of every linmod fit and select_lambda."""
    x = _check_x(x)
    y = _check_vector(y, x.shape[0], "y")
    w = _check_weights(sample_weight, x.shape[0])
    if not w.all():
        keep = np.flatnonzero(w)
        x, y, w = x[keep], y[keep], w[keep]
    if binary:
        _check_vector(y, y.size, "y", binary=True)
    return x, y, w


def mlp_fit(x: np.ndarray, y: np.ndarray, config: MLPConfig, sample_weight=None) -> MLPModel:
    """Fit by mini-batch gradient descent with a fixed step size.

    Zero-weight rows are discarded up front (_fit_rows), so they cannot affect
    batch composition.  After each epoch the full training loss is recorded
    (a non-finite value raises DivergenceError naming the epoch) and, when a
    validation fraction is held out, the parameters with the best validation
    loss are returned (ties resolve to the earliest epoch).

    All weights and biases are views into one flat buffer ``theta`` and their
    gradients views into a second buffer ``grad`` of the same layout, so one
    update moves every parameter and one copy checkpoints them.  Each epoch
    gathers the training rows once in permutation order; its batches are then
    contiguous slices.  A step skips work that is an exact identity: the
    clamp and its subgradient when every raw output of the batch lies strictly
    inside the bound, and the weight product and sum when every weight is 1
    (the 0/1 strata of the estimators, once the zeros are dropped).  The
    results are the same bits as the full computation.
    """
    x, y, w = _fit_rows(x, y, sample_weight, binary=config.loss == "logistic")

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
    unit = bool((w == 1.0).all())
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
            xe, ye = xt.take(order, axis=0), yt.take(order)
            we = None if unit else wt.take(order)
            for batch in batches:
                _loss_grad(loss, bound, weights, biases, xe[batch], ye[batch],
                           None if unit else we[batch], grad_w, grad_b)
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

