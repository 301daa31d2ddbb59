"""Doubly robust scores, pseudo-outcomes, and cross-fitting fold plans.

Nuisance functions are carried as plain callables evaluated on covariate
arrays, so fitted models and exact simulation-truth closures are handled
identically.  Every propensity evaluation is clipped into
``[propensity_clip, 1 - propensity_clip]`` before any division.

There is one two-stage score, ``dte_score``.  The controlled direct effect
score ``cde_score`` is ``dte_score`` on data relabelled to 1{T=t} and 1{M=m}.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from ._checks import (MAX_REAL, _check_int, _check_real, _check_type, _check_vector, _covariates,
                      _reals)
from .errors import ConfigurationError, InputError

PredictFn = Callable[[np.ndarray], np.ndarray]

PROPENSITY_CLIP = 0.01  # the default clip of every nuisance bundle and estimator


class _Rows:
    """The row contract, applied to the fields in declaration order: s, s1 and
    s2 are covariate blocks with the first block's row count, t, t1 and t2
    are 0/1, y lies in ``REALS`` and m, when given, holds integer levels."""

    def __post_init__(self):
        n = None
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name.startswith("s"):
                value = _covariates(value, name)
                if n is None:
                    first, n = name, value.shape[0]
                elif value.shape[0] != n:
                    raise InputError(f"{first} and {name} must have the same number of rows")
            elif value is not None:  # m is optional
                value = _check_vector(value, n, name, binary=name.startswith("t"),
                                      bound=MAX_REAL if name == "y" else None)
                if name == "m" and not np.all(value == np.round(value)):
                    raise InputError("m must hold integer mediator levels")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class CateData(_Rows):
    """Single-stage observations: covariates, binary treatment, outcome."""

    s: np.ndarray
    t: np.ndarray
    y: np.ndarray

    def subset(self, idx) -> "CateData":
        return CateData(self.s[idx], self.t[idx], self.y[idx])


@dataclass(frozen=True)
class DteData(_Rows):
    """Two-stage observations; ``m`` holds a mediator level when present."""

    s1: np.ndarray
    t1: np.ndarray
    s2: np.ndarray
    t2: np.ndarray
    y: np.ndarray
    m: Optional[np.ndarray] = None

    @property
    def sbar2(self) -> np.ndarray:
        """Accumulated history (s1, s2) used by second-stage nuisances."""
        return np.concatenate([self.s1, self.s2], axis=1)

    def subset(self, idx) -> "DteData":
        m = None if self.m is None else self.m[idx]
        return DteData(self.s1[idx], self.t1[idx], self.s2[idx], self.t2[idx], self.y[idx], m)


def _predict(nuis, role: str, x: np.ndarray) -> np.ndarray:
    """The ``role`` nuisance's predictions on x, one float per row; finiteness
    is the estimators' check, made where they can name the fold."""
    fn = getattr(nuis, role)
    if fn is None:
        raise ConfigurationError(f"the {role} role is not set")
    values = _reals(fn(x), f"{role} predictions")
    if values.shape != (x.shape[0],):
        raise InputError(f"{role} predictions must have shape ({x.shape[0]},), "
                         f"got {values.shape}")
    return values


class _Clipped:
    """A nuisance bundle whose propensity roles are clipped by ``propensity_clip``."""

    def __post_init__(self):
        _check_real("propensity_clip", self.propensity_clip, "(0, 0.5)")

    def _clip(self, role: str, x: np.ndarray) -> np.ndarray:
        c = self.propensity_clip
        return np.clip(_predict(self, role, x), c, 1.0 - c)

    def clipped_pi(self, s: np.ndarray) -> np.ndarray:
        return self._clip("pi", s)


@dataclass(frozen=True)
class CateNuisance(_Clipped):
    """Role-tagged nuisance predictors for single-stage scores."""

    pi: PredictFn
    mu1: PredictFn
    mu0: PredictFn
    propensity_clip: float = PROPENSITY_CLIP


@dataclass(frozen=True)
class DteNuisance(_Clipped):
    """Role-tagged nuisance predictors for two-stage scores.

    ``pi`` and ``mu`` take first-stage covariates s1; ``rho`` and ``nu`` take
    the accumulated history (s1, s2).  Roles not needed by a particular score
    may be left as None.
    """

    pi: Optional[PredictFn] = None
    rho: Optional[PredictFn] = None
    nu: Optional[PredictFn] = None
    mu: Optional[PredictFn] = None
    propensity_clip: float = PROPENSITY_CLIP

    def clipped_rho(self, sbar2: np.ndarray) -> np.ndarray:
        return self._clip("rho", sbar2)


# ------------------------------------------------------------------ folds


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each row to one of K cross-fitting folds."""

    n_total: int
    assignments: np.ndarray
    n_folds: int
    seed: int

    def fold_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == k)

    def complement_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != k)


def make_folds(n_total: int, n_folds: int, seed: int) -> FoldPlan:
    """Seeded uniform shuffle followed by round-robin assignment."""
    _check_int("n_total", n_total, 0)
    _check_int("n_folds", n_folds, 2)
    _check_int("seed", seed, 0)
    if n_total < n_folds:
        raise ConfigurationError(f"need at least n_folds={n_folds} rows, got {n_total}")
    perm = np.random.default_rng(seed).permutation(n_total)
    assignments = np.empty(n_total, dtype=np.int64)
    assignments[perm] = np.arange(n_total) % n_folds
    assignments.flags.writeable = False
    return FoldPlan(n_total, assignments, n_folds, seed)


# ------------------------------------------------------------------ scores


def cate_pseudo_outcome(data: CateData, nuis: CateNuisance) -> np.ndarray:
    """Bias-corrected outcome contrast whose conditional mean is the CATE."""
    _check_type("data", data, CateData)
    _check_type("nuis", nuis, CateNuisance)
    pi = nuis.clipped_pi(data.s)
    mu1, mu0 = _predict(nuis, "mu1", data.s), _predict(nuis, "mu0", data.s)
    t, y = data.t, data.y
    return mu1 + t * (y - mu1) / pi - mu0 - (1.0 - t) * (y - mu0) / (1.0 - pi)


def dte_stage2_pseudo_outcome(data: DteData, nuis: DteNuisance) -> np.ndarray:
    """Second-stage correction: nu plus the inverse-weighted stage-2 residual."""
    _check_type("data", data, DteData)
    _check_type("nuis", nuis, DteNuisance)
    sbar2 = data.sbar2
    rho = nuis.clipped_rho(sbar2)
    nu = _predict(nuis, "nu", sbar2)
    return nu + data.t2 * (data.y - nu) / rho


def dte_score(data: DteData, nuis: DteNuisance) -> np.ndarray:
    """Efficient-score summand for the mean outcome under the (1, 1) path."""
    _check_type("data", data, DteData)
    _check_type("nuis", nuis, DteNuisance)
    sbar2 = data.sbar2
    pi = nuis.clipped_pi(data.s1)
    rho = nuis.clipped_rho(sbar2)
    nu, mu = _predict(nuis, "nu", sbar2), _predict(nuis, "mu", data.s1)
    t1, t2, y = data.t1, data.t2, data.y
    return mu + t1 * (nu - mu) / pi + t1 * t2 * (y - nu) / (pi * rho)


def cde_score(data: DteData, target: tuple[int, int], nuis: DteNuisance) -> np.ndarray:
    """Score for the mean outcome at exposure level t with mediator held at m.

    This is ``dte_score`` on the data relabelled to t1 = 1{T=t} and
    t2 = 1{M=m}.  The nuisances are understood as arm-specific: ``pi``
    predicts P(T = t | s1), ``rho`` predicts P(M = m | history, T = t), ``nu``
    and ``mu`` are the corresponding regressions.
    """
    return dte_score(_relabel_cde(data, target), nuis)


def _relabel_cde(data: DteData, target) -> DteData:
    """``data`` with t1 = 1{T=t} and t2 = 1{M=m} for target (t, m)."""
    _check_type("data", data, DteData)
    if not isinstance(target, (tuple, list)) or len(target) != 2:
        raise ConfigurationError(f"target must be a pair (t, m), got {target!r}")
    _check_int("exposure level", target[0], 0, 1)
    _check_int("mediator level", target[1], -2**53, 2**53)  # exact in float64
    if data.m is None:
        raise InputError("the CDE requires data with a mediator column")
    t_level, m_level = target
    return DteData(data.s1, data.t1 == t_level, data.s2, data.m == m_level, data.y)


def delta_decomposition(
    data: CateData, nuis_hat: CateNuisance, nuis_true: CateNuisance
) -> tuple[np.ndarray, np.ndarray]:
    """Split the pseudo-outcome estimation error into linear and product terms.

    Returns ``(delta1, delta2)`` with ``delta1 + delta2`` equal, row by row,
    to ``cate_pseudo_outcome(data, nuis_hat) - cate_pseudo_outcome(data,
    nuis_true)``.  Each ``delta1`` summand carries exactly one nuisance error
    and has conditional mean zero under the true nuisances; every ``delta2``
    summand is a product of the propensity error and an outcome-regression
    error, so it vanishes when either nuisance is exact.  The sign of
    ``delta2`` is fixed by the exact decomposition.
    """
    _check_type("data", data, CateData)
    _check_type("nuis_hat", nuis_hat, CateNuisance)
    _check_type("nuis_true", nuis_true, CateNuisance)
    s, t, y = data.s, data.t, data.y
    pi_hat = nuis_hat.clipped_pi(s)
    pi_true = nuis_true.clipped_pi(s)
    mu1_hat, mu0_hat = _predict(nuis_hat, "mu1", s), _predict(nuis_hat, "mu0", s)
    mu1_true, mu0_true = _predict(nuis_true, "mu1", s), _predict(nuis_true, "mu0", s)

    e1 = mu1_hat - mu1_true
    e0 = mu0_hat - mu0_true
    ip1 = t / pi_hat - t / pi_true
    ip0 = (1.0 - t) / (1.0 - pi_hat) - (1.0 - t) / (1.0 - pi_true)

    # On rows with t=1 the observed y is the treated potential outcome, and
    # symmetrically for t=0, so the residual factors below are observable.
    d11 = (1.0 - t / pi_true) * e1
    d12 = ip1 * (y - mu1_true)
    d13 = -(1.0 - (1.0 - t) / (1.0 - pi_true)) * e0
    d14 = -ip0 * (y - mu0_true)
    delta1 = d11 + d12 + d13 + d14
    delta2 = -ip1 * e1 + ip0 * e0
    return delta1, delta2
