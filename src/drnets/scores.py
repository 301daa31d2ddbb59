"""Doubly robust scores, pseudo-outcomes, and cross-fitting fold plans.

Nuisance functions are carried as plain callables evaluated on covariate
arrays, so fitted models and exact simulation-truth closures are handled
identically.  Every propensity evaluation is clipped into
``[propensity_clip, 1 - propensity_clip]`` before any division.

There is one two-stage score, ``dte_score``.  The controlled direct effect
score ``cde_score`` is ``dte_score`` on data relabelled to 1{T=t} and 1{M=m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._checks import MAX_REAL, _check_int, _check_real, _check_vector, _covariates
from .errors import ConfigurationError, InputError

PredictFn = Callable[[np.ndarray], np.ndarray]

PROPENSITY_CLIP = 0.01  # the default clip of every nuisance bundle and estimator


@dataclass(frozen=True)
class CateData:
    """Single-stage observations: covariates, binary treatment, outcome."""

    s: np.ndarray
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        s = _covariates(self.s, "s")
        n = s.shape[0]
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", _check_vector(self.t, n, "t", binary=True))
        object.__setattr__(self, "y", _check_vector(self.y, n, "y", bound=MAX_REAL))

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def subset(self, idx) -> "CateData":
        return CateData(self.s[idx], self.t[idx], self.y[idx])


@dataclass(frozen=True)
class DteData:
    """Two-stage observations; ``m`` holds a mediator level when present."""

    s1: np.ndarray
    t1: np.ndarray
    s2: np.ndarray
    t2: np.ndarray
    y: np.ndarray
    m: Optional[np.ndarray] = None

    def __post_init__(self):
        s1 = _covariates(self.s1, "s1")
        n = s1.shape[0]
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "t1", _check_vector(self.t1, n, "t1", binary=True))
        object.__setattr__(self, "s2", _covariates(self.s2, "s2"))
        if self.s2.shape[0] != n:
            raise InputError("s1 and s2 must have the same number of rows")
        object.__setattr__(self, "t2", _check_vector(self.t2, n, "t2", binary=True))
        object.__setattr__(self, "y", _check_vector(self.y, n, "y", bound=MAX_REAL))
        if self.m is not None:
            m = _check_vector(self.m, n, "m")
            if not np.all(m == np.round(m)):
                raise InputError("m must hold integer mediator levels")
            object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.s1.shape[0]

    @property
    def sbar2(self) -> np.ndarray:
        """Accumulated history (s1, s2) used by second-stage nuisances."""
        return np.concatenate([self.s1, self.s2], axis=1)

    def subset(self, idx) -> "DteData":
        m = None if self.m is None else self.m[idx]
        return DteData(self.s1[idx], self.t1[idx], self.s2[idx], self.t2[idx], self.y[idx], m)


def _clip(raw, c: float) -> np.ndarray:
    return np.clip(np.asarray(raw, dtype=np.float64), c, 1.0 - c)


@dataclass(frozen=True)
class CateNuisance:
    """Role-tagged nuisance predictors for single-stage scores."""

    pi: PredictFn
    mu1: PredictFn
    mu0: PredictFn
    propensity_clip: float = PROPENSITY_CLIP

    def __post_init__(self):
        _check_real("propensity_clip", self.propensity_clip, "(0, 0.5)")

    def clipped_pi(self, s: np.ndarray) -> np.ndarray:
        return _clip(self.pi(s), self.propensity_clip)


@dataclass(frozen=True)
class DteNuisance:
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

    def __post_init__(self):
        _check_real("propensity_clip", self.propensity_clip, "(0, 0.5)")

    def clipped_pi(self, s1: np.ndarray) -> np.ndarray:
        return _clip(self.pi(s1), self.propensity_clip)

    def clipped_rho(self, sbar2: np.ndarray) -> np.ndarray:
        return _clip(self.rho(sbar2), self.propensity_clip)


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
    pi = nuis.clipped_pi(data.s)
    mu1 = np.asarray(nuis.mu1(data.s), dtype=np.float64)
    mu0 = np.asarray(nuis.mu0(data.s), dtype=np.float64)
    t, y = data.t, data.y
    return mu1 + t * (y - mu1) / pi - mu0 - (1.0 - t) * (y - mu0) / (1.0 - pi)


def dte_stage2_pseudo_outcome(data: DteData, nuis: DteNuisance) -> np.ndarray:
    """Second-stage correction: nu plus the inverse-weighted stage-2 residual."""
    sbar2 = data.sbar2
    rho = nuis.clipped_rho(sbar2)
    nu = np.asarray(nuis.nu(sbar2), dtype=np.float64)
    return nu + data.t2 * (data.y - nu) / rho


def dte_score(data: DteData, nuis: DteNuisance) -> np.ndarray:
    """Efficient-score summand for the mean outcome under the (1, 1) path."""
    sbar2 = data.sbar2
    pi = nuis.clipped_pi(data.s1)
    rho = nuis.clipped_rho(sbar2)
    nu = np.asarray(nuis.nu(sbar2), dtype=np.float64)
    mu = np.asarray(nuis.mu(data.s1), dtype=np.float64)
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
    s, t, y = data.s, data.t, data.y
    pi_hat = nuis_hat.clipped_pi(s)
    pi_true = nuis_true.clipped_pi(s)
    mu1_hat = np.asarray(nuis_hat.mu1(s), dtype=np.float64)
    mu0_hat = np.asarray(nuis_hat.mu0(s), dtype=np.float64)
    mu1_true = np.asarray(nuis_true.mu1(s), dtype=np.float64)
    mu0_true = np.asarray(nuis_true.mu0(s), dtype=np.float64)

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
