"""The input contract of every fit, predict, data container, estimator and run.

Rows: covariates form a finite 2-D float array and every vector is finite
with one entry per row, 0/1 where it codes a treatment or a logistic label.
Every array, nuisance predictions included, enters through ``_reals``, which
refuses strings, complex numbers and other entries that are not real numbers
rather than parse or truncate them.
Every fit and ``mlp_loss_grad`` take their rows through ``_fit_rows``, which
drops zero-weight rows with row order kept, so they change no bit of any
result, and checks 0/1 labels on the rows left.

Settings: ``_check_int`` and ``_check_real`` check type and range together (a
bool is never a number); a setting from a fixed set passes ``_check_choice``,
and a data container, config or network passes ``_check_type``.

Floating point: extreme finite values are stopped where they enter.  Data
outcomes and the settings that scale them (noise_sd, effect_scale,
baseline_scale, the orthogonality perturbation) lie in ``REALS``, as
covariates lie in [-1, 1], so no score or square of one, even through the
default clip's inverse propensities of at most 1e4, overflows float64.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigurationError, EmptySubgroupError, EstimationError, InputError

MAX_SIZE = np.iinfo(np.intp).max // 8  # cap on sizes: the most float64 entries an array holds
MAX_REAL = 1e100
REALS = f"[-{MAX_REAL:g}, {MAX_REAL:g}]"


def _reals(a, name: str) -> np.ndarray:
    """a as a float64 array if it holds bools, integers or floats, or objects
    that are all real numbers; anything else raises InputError naming it."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf" and not (
            a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
        raise InputError(f"{name} must hold real numbers")
    return a.astype(np.float64, copy=False)


def _check_x(x: np.ndarray, input_dim: int | None = None, name: str = "x") -> np.ndarray:
    """x as a finite 2-D float array, with ``input_dim`` columns if given."""
    x = _reals(x, name)
    if x.ndim != 2:
        raise InputError(f"{name} must be 2-D (n, p), got shape {x.shape}")
    if input_dim is not None and x.shape[1] != input_dim:
        raise InputError(f"{name} has {x.shape[1]} columns, model expects {input_dim}")
    if not np.isfinite(x).all():
        raise InputError(f"{name} contains non-finite values")
    return x


def _check_vector(a, n: int, name: str, binary: bool = False, bound=None) -> np.ndarray:
    """a as a finite float vector of length n, 0/1 if ``binary``, in [-bound, bound] if given."""
    a = _reals(a, name)
    if a.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite values")
    if binary and not ((a == 0) | (a == 1)).all():
        raise InputError(f"{name} must be coded 0/1")
    if bound is not None and (np.abs(a) > bound).any():
        row = int(np.argmax(np.abs(a) > bound)) + 1
        raise InputError(f"{name} row {row} lies outside [-{bound:g}, {bound:g}]")
    return a


def _covariates(s, name) -> np.ndarray:
    s = _check_x(s, name=name)
    if s.shape[1] < 1:
        raise InputError(f"{name} must have at least one column, got shape {s.shape}")
    if np.any(np.abs(s) > 1.0 + 1e-9):
        raise InputError(f"{name} has entries outside the covariate support [-1, 1]")
    return s


def _check_weights(sample_weight, n) -> np.ndarray:
    """Sample weights (ones when None), checked finite, non-negative and not all zero."""
    w = np.ones(n) if sample_weight is None else _reals(sample_weight, "sample_weight")
    if w.shape != (n,):
        raise InputError(f"sample_weight must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise InputError("sample weights must be finite and non-negative")
    if not (w > 0).any():
        raise EmptySubgroupError("all sample weights are zero")
    return w


def _fit_rows(x, y, sample_weight, binary: bool = False):
    """Checked x, y and weights with the zero-weight rows dropped (no copy
    when every weight is positive); if ``binary``, the labels left are 0/1."""
    x = _check_x(x)
    y = _check_vector(y, x.shape[0], "y")
    w = _check_weights(sample_weight, x.shape[0])
    if not w.all():
        keep = np.flatnonzero(w)
        x, y, w = x[keep], y[keep], w[keep]
    if binary:
        _check_vector(y, y.size, "y", binary=True)
    return x, y, w


def _check_finite(values, what):
    """values, if all are finite; ``what`` names their fold or half and role."""
    if not np.isfinite(values).all():
        raise EstimationError(f"{what} are not finite")
    return values


def _check_int(name: str, value, lo=None, hi=None) -> None:
    """Reject a bool, a non-integer, and a value below lo or above hi (hi needs lo)."""
    if (type(value) is bool or not isinstance(value, (int, np.integer))
            or (lo is not None and value < lo) or (hi is not None and value > hi)):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ConfigurationError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, interval: str | None = None) -> None:
    """Reject a bool, a non-number, a non-finite value (an int too large for a float
    too) and a value outside ``interval``, written as in mathematics: "(0, 1)"."""
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


def _check_choice(name: str, value, choices: tuple) -> None:
    """Reject a value that is not one of ``choices``."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {choices}, got {value!r}")


def _check_type(name: str, value, *types: type) -> None:
    """Reject a value that is an instance of none of ``types``."""
    if not isinstance(value, types):
        *rest, last = [t.__name__ for t in types]
        expected = f"{', '.join(rest)} or {last}" if rest else last
        raise ConfigurationError(f"{name} must be {expected}, got {type(value).__name__}")
