"""L1-penalized linear and logistic regression.

Both fits minimize a weight-normalized objective with an unpenalized
intercept and no internal standardization:

    identity:  (1/sum w) * sum_i w_i (y_i - b0 - x_i @ beta)**2 + lam * ||beta||_1
    logistic:  (1/sum w) * sum_i w_i (-y_i eta_i + log(1 + exp(eta_i))) + lam * ||beta||_1

Each link has one solver, following glmnet (Friedman, Hastie & Tibshirani
2010, J. Stat. Softw. 33(1)).  The identity link runs cyclic coordinate
descent with covariance updates: x and y are centred, the weighted Gram
matrix is built once, and each coordinate step costs O(p) instead of O(n).
After every sweep that moves the coefficients, and on a warm start with a
nonzero support before the first sweep, the exact minimizer on the current
support is solved from a linear system: the active block of the KKT
conditions.  That solution is taken and the loop ends if it keeps the signs
and passes the stationarity check on every coordinate.  If it flips a sign,
the iterate steps toward it up to the first sign change (the homotopy move
of Osborne, Presnell & Turlach 2000, IMA J. Numer. Anal. 20(3)); either way
descent then carries on.  The logistic link runs
proximal Newton: each outer step minimizes the iteratively reweighted
quadratic model with that same coordinate descent, finish included, then
backtracks on the true objective.  With 32 or more columns, a Gram built at
one curvature serves the later steps while every row's curvature stays
within a factor 1.5 of it (see logistic_lasso_fit).  Every returned
solution passes a subgradient stationarity check at tolerance 1e-6, in
units of 2**k for a lasso fit whose outcomes lie beyond 2**33 (see
lasso_fit); a fit that fails it raises ConvergenceError saying how many
sweeps or Newton steps ran and what ended them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import _check_choice, _check_int, _check_real, _check_x, _fit_rows
from .errors import ConvergenceError, InputError, SeparationError
from .nnet import _expit

_LINKS = ("identity", "logistic")
_KKT_TOL = 1e-6
_MAX_EXPONENT = 33  # lasso outcomes are fitted below 2**33: see lasso_fit
_PROB_CLIP = 1e-6
_MAX_SWEEPS = 10_000
_MAX_NEWTON = 500
_INNER_SWEEPS = 100
_HOLD_MIN_COLUMNS = 32  # fewer columns: a Gram costs less than the extra outer step
_HOLD_BAND = 1.5  # a held Gram serves while every row's curvature is within this factor


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    link: str
    lam: float
    objective_trace: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + _check_x(x, self.coefficients.size) @ self.coefficients

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean-scale prediction; logistic probabilities are clipped away from 0/1."""
        eta = self.linear_predictor(x)
        if self.link == "identity":
            return eta
        return np.clip(_expit(eta), _PROB_CLIP, 1.0 - _PROB_CLIP)


def _check_inputs(x, y, lam, sample_weight, binary=False):
    """The fit's rows (_fit_rows) with weights normalized to sum 1."""
    _check_real("lam", lam, "[0, inf)")
    x, y, w = _fit_rows(x, y, sample_weight, binary)
    return x, y, w / np.add.reduce(w)


def _kkt_residual(grad, beta, lam):
    """Largest subgradient violation, at least 0: |g_j| - lam on a zero
    coordinate (where sign is 0.0), |g_j + lam * sign(beta_j)| elsewhere.
    A NaN anywhere gives NaN, so gates written as ``not (r <= tol)`` fail."""
    return float((np.abs(grad + lam * np.sign(beta)) - lam * (beta == 0)).max(initial=0.0))


def _kkt_check(grad0, grad, beta, lam, what, count, unit, stop):
    """Subgradient stationarity of the intercept and every coefficient: raise
    if the returned point is not a minimum, saying after how many steps
    (``count`` of ``unit``) the loop ended and why (``stop``)."""
    worst = _kkt_residual(grad, beta, lam)
    if abs(grad0) <= _KKT_TOL and worst <= _KKT_TOL:
        return
    fault = ("intercept failed stationarity" if not abs(grad0) <= _KKT_TOL
             else f"stopped with KKT residual {worst:.3e} > {_KKT_TOL}")
    raise ConvergenceError(f"{what} {fault} after {count} {unit}{'s' * (count != 1)} ({stop})")


def _active_finish(gram, c, signs, lam, beta):
    """Exact lasso minimizer on a guessed support, or None if the guess fails.

    With support A and signs s_A, stationarity on A reads
    G_AA b = c_A - (lam / 2) s_A.  The solution is accepted only if it keeps
    the signs s_A, every inactive coordinate satisfies |c_j - G_jA b| <= lam / 2,
    and its KKT residual in the objective's scale is at most 0.1 * 1e-6.
    Returns (beta, g) with the half-gradient g = c - G @ beta.

    When the solution flips a sign, the iterate beta (whose signs are s) is
    moved in place toward it, stopping where the first flipping coordinate
    reaches zero; that coordinate is set to exactly 0.0 (the homotopy step of
    Osborne, Presnell & Turlach 2000).  The segment stays in the closed
    orthant of s, where the objective is the convex quadratic that b
    minimizes on A, so the objective does not rise.  On a numerically
    singular block the solve does not give that minimizer, so the move is
    made only if the objective's computed change along it is negative.  Any
    other rejection leaves beta as it was.
    """
    act = signs.nonzero()[0]
    block = gram[act][:, act]
    try:
        b = np.linalg.solve(block, c[act] - (lam / 2.0) * signs[act])
    except np.linalg.LinAlgError:  # singular active block
        return None
    flips = (np.sign(b) != signs[act]).nonzero()[0]
    if flips.size:
        cur = beta[act]
        t = cur[flips] / (cur[flips] - b[flips])  # in (0, 1]: where each flip reaches zero
        first = int(t.argmin())
        step = cur + t[first] * (b - cur)
        step[flips[first]] = 0.0
        step[np.sign(step) != signs[act]] = 0.0  # a tie that rounding carried past zero
        d = step - cur
        rise = (d @ (block @ d) - 2.0 * d @ (c[act] - gram[act] @ beta)
                + lam * (np.add.reduce(np.abs(step)) - np.add.reduce(np.abs(cur))))
        if rise < 0.0:
            beta[act] = step
        return None
    full = np.zeros(c.shape)
    full[act] = b
    g = c - gram @ full
    if (np.abs(g[signs == 0]) > lam / 2.0).any():
        return None
    if not _kkt_residual(-2.0 * g, full, lam) <= 0.1 * _KKT_TOL:
        return None
    return full, g


def _centred_gram(x, w):
    """(xbar, W xc, G) for normalized weights w: the weighted column means,
    the centred columns xc = x - xbar scaled row-wise by w, and the p x p
    weighted Gram matrix G = xc' W xc."""
    xbar = w @ x
    xc = x - xbar
    wxc = w[:, None] * xc
    return xbar, wxc, xc.T @ wxc


def _gram_cd(x, y, w, lam, beta, max_sweeps, centred=None):
    """Covariance-update coordinate descent on the weighted lasso.

    Minimizes sum_i w_i (y_i - b0 - x_i @ beta)**2 + lam * ||beta||_1 for
    normalized weights w, starting from beta (updated in place).  x and y
    are centred by their weighted means, so the intercept drops out and is
    recovered exactly afterwards as b0 = ybar - xbar @ beta.  With the p x p
    Gram matrix G and c = Xc' W yc built once, the half-gradient is
    g = c - G @ beta and each coordinate update costs O(p).  ``centred`` is
    _centred_gram(x, w), built here unless the caller holds it already.  A
    sweep ends the loop when no coefficient moved by 1e-8 or more.

    Every sweep that moved some coefficient by 1e-8 or more then tries an
    exact finish (_active_finish) on the signs the sweep left, and so does a
    warm start with a nonzero support before the first sweep.  An accepted
    finish is the result and ends the loop.  A finish that flips a sign
    moves the iterate to the first sign change and descent carries on from
    there.

    Returns (b0, beta, trace) with one objective value per sweep; after a
    finish, the last value is that of the finished point (the only one when
    the warm start finishes before any sweep).
    """
    xbar, wxc, gram = _centred_gram(x, w) if centred is None else centred
    ybar = float(w @ y)
    c = wxc.T @ (y - ybar)
    syy = float(w @ (y - ybar) ** 2)
    diag = gram.diagonal().tolist()
    half = lam / 2.0
    trace = []
    delta = np.inf if beta.any() else 0.0  # the warm start's finish, before any sweep
    for sweep in range(max_sweeps + 1):
        if sweep:
            delta = 0.0
            for j, gjj in enumerate(diag):
                if gjj <= 0.0:
                    continue
                old = float(beta[j])
                z = float(g[j]) + gjj * old
                new = math.copysign(max(abs(z) - half, 0.0), z) / gjj  # soft threshold
                if new != old:
                    g -= gram[j] * (new - old)
                    beta[j] = new
                    delta = max(delta, abs(new - old))
        finished = _active_finish(gram, c, np.sign(beta), lam, beta) if delta >= 1e-8 else None
        if finished is not None:
            beta[:], g = finished
        else:
            # Rebuilt each sweep to keep accumulated rounding out of the updates.
            g = c - gram @ beta
            if not sweep:
                continue
        # sum w (yc - xc beta)**2 = syy - 2 c'beta + beta'G beta = syy - beta'(c + g)
        trace.append(syy - float(beta @ (c + g)) + lam * float(np.add.reduce(np.abs(beta))))
        if delta < 1e-8 or finished is not None:
            break
    return ybar - float(xbar @ beta), beta, trace


def lasso_fit(x, y, lam, sample_weight=None, _warm=None) -> LinearModel:
    """Weighted lasso by covariance-update coordinate descent (see _gram_cd).

    Convergence: max absolute coefficient change in a sweep < 1e-8, or an
    accepted exact finish on the support, capped at 10_000 sweeps.
    Outcomes with max |y| >= 2**33 are fitted as y * 2**-k with lam and the
    warm start times 2**-k, k the least integer that brings them below
    2**33, and the fit is scaled back; a power of two scales exactly, so the
    fit is equivariant and the tolerances hold in units of 2**k.  Outcomes
    with max |y| >= 2**500 are refused, so that every objective, of order
    max |y|**2, stays below about 2**1000.
    ``_warm`` = (intercept, coefficients) starts the descent from an earlier
    solution, as along a penalty path; only the coefficients are used,
    since the intercept follows from them.
    """
    x, y, w = _check_inputs(x, y, lam, sample_weight)
    top = float(np.abs(y).max())
    if top >= 2.0**500:
        raise InputError(f"y must lie in (-2**500, 2**500), got max |y| = {top:g}")
    k = max(0, math.frexp(top)[1] - _MAX_EXPONENT)
    y, scaled_lam = np.ldexp(y, -k), math.ldexp(lam, -k)
    beta = np.zeros(x.shape[1]) if _warm is None else np.ldexp(
        np.asarray(_warm[1], dtype=np.float64), -k)
    b0, beta, trace = _gram_cd(x, y, w, scaled_lam, beta, _MAX_SWEEPS)
    r = y - b0 - x @ beta
    stop = ("objective not finite" if not math.isfinite(trace[-1])
            else "sweep limit reached" if len(trace) >= _MAX_SWEEPS else "sweeps converged")
    _kkt_check(float(w @ r), -2.0 * (x.T @ (w * r)), beta, scaled_lam, "lasso", len(trace),
               "sweep", stop)
    beta = np.ldexp(beta, k)
    beta.flags.writeable = False
    return LinearModel(beta, math.ldexp(b0, k), "identity", float(lam),
                       tuple(np.ldexp(trace, 2 * k).tolist()))


def _logistic_objective(eta, y, w, beta, lam):
    return float(w @ (np.logaddexp(0.0, eta) - y * eta) + lam * np.add.reduce(np.abs(beta)))


def logistic_lasso_fit(x, y, lam, sample_weight=None, _warm=None) -> LinearModel:
    """Proximal Newton on the logistic objective (glmnet's scheme).

    Each outer step forms the iteratively reweighted quadratic model of the
    smooth part at the current point, with curvature v = p(1 - p) floored at
    1e-5, and minimizes it plus the penalty by covariance-update coordinate
    descent warm-started from the current coefficients (at most 100 sweeps;
    the inner solve need not converge).  The working-response identity
    v * (z - eta) = y - p holds exactly even where v is floored, so a fixed
    point is a stationary point of the logistic objective itself.  The step
    along the resulting direction is halved until the true objective does
    not increase.

    With 32 or more columns the model's curvature is held: the weighted Gram
    is built at v_ref, the curvature of the step that built it, with the
    working response z = eta + (y - p) / v_ref and weights w * v_ref, and
    later steps reuse it until some row's curvature leaves
    [v_ref / 1.5, 1.5 * v_ref], when it is rebuilt at the current one.  The
    model's gradient stays exact, so this is a proximal quasi-Newton step
    (Lee, Sun & Saunders 2014, SIAM J. Optim. 24(3)), which converges under
    any positive-definite metric.  With fewer columns every step rebuilds:
    a Gram then costs less than the extra outer step that holding one causes.

    Convergence: KKT residual (intercept derivative included) at most
    0.1 * 1e-6 after a step that moved no parameter by 1e-6 or more.  With a
    metric within 1.5x of the true curvature on every row, each full step at
    least halves the local error, so that last move of less than 1e-6 still
    bounds the distance to the optimum by about 1e-6.  Capped at 500 outer
    steps.
    ``_warm`` = (intercept, coefficients) is the starting point; the trace
    starts with its objective and gains one value per outer step.
    """
    x, y, w = _check_inputs(x, y, lam, sample_weight, binary=True)
    if y.min() == y.max():
        raise SeparationError("logistic fit needs both classes among weighted rows")
    if _warm is not None:
        b0, beta = float(_warm[0]), np.array(_warm[1], dtype=np.float64)
    else:
        b0, beta = 0.0, np.zeros(x.shape[1])
    eta = b0 + x @ beta
    obj = _logistic_objective(eta, y, w, beta, lam)
    trace = [obj]
    move = np.inf
    held = None  # the curvature v_ref the held Gram was built at
    stop = "step limit reached"  # how the loop ended, named if the checks below fail
    for _ in range(_MAX_NEWTON):
        prob = _expit(eta)
        g = w * (prob - y)
        if (move < 1e-6 and abs(float(np.add.reduce(g))) <= 0.1 * _KKT_TOL
                and _kkt_residual(x.T @ g, beta, lam) <= 0.1 * _KKT_TOL):
            break
        v = np.maximum(prob * (1.0 - prob), 1e-5)
        if held is None or x.shape[1] < _HOLD_MIN_COLUMNS or not (
                (v <= _HOLD_BAND * held).all() and (v * _HOLD_BAND >= held).all()):
            held, centred = v, None  # frees the old Gram before the new one is built
            ww = w * v
            total = float(np.add.reduce(ww))
            ww = ww / total
            centred = _centred_gram(x, ww)
        new_b0, new_beta, _ = _gram_cd(x, eta + (y - prob) / held, ww, 2.0 * lam / total,
                                       beta.copy(), _INNER_SWEEPS, centred)
        db0, dbeta = new_b0 - b0, new_beta - beta
        scale = 1.0
        for _ in range(30):
            cand_b0, cand_beta = b0 + scale * db0, beta + scale * dbeta
            cand_eta = cand_b0 + x @ cand_beta
            cand_obj = _logistic_objective(cand_eta, y, w, cand_beta, lam)
            if cand_obj <= obj:
                break
            scale *= 0.5
        else:  # the checks below decide
            stop = "line search found no descent"
            break
        move = max(abs(cand_b0 - b0), float(np.abs(cand_beta - beta).max(initial=0.0)))
        b0, beta, eta, obj = cand_b0, cand_beta, cand_eta, cand_obj
        trace.append(obj)
    g = w * (_expit(eta) - y)
    _kkt_check(float(np.add.reduce(g)), x.T @ g, beta, lam, "logistic lasso", len(trace) - 1,
               "Newton step", stop)
    beta.flags.writeable = False
    return LinearModel(beta, b0, "logistic", float(lam), tuple(trace))


def _lambda_max(x, y, w, link):
    """Smallest penalty for which the all-zero coefficient vector is optimal."""
    if link == "identity":
        ybar = float(w @ y)
        grad = -2.0 * (x.T @ (w * (y - ybar)))
    else:
        pbar = min(max(float(w @ y), _PROB_CLIP), 1.0 - _PROB_CLIP)
        grad = x.T @ (w * (pbar - y))
    return float(np.max(np.abs(grad)))


def _holdout_loss(model, x, y, w):
    if model.link == "identity":
        r = y - model.linear_predictor(x)
        return float(w @ (r**2) / w.sum())
    prob = model.predict(x)
    return float(w @ (-(y * np.log(prob) + (1 - y) * np.log1p(-prob))) / w.sum())


def select_lambda(x, y, link="identity", grid_size=10, seed=0, sample_weight=None) -> float:
    """Pick lam on a log-spaced grid by 80/20 holdout loss; ties favor more shrinkage.

    The grid runs from lambda_max (the null-fit threshold on the full sample)
    down to lambda_max * 1e-3, or to lambda_max * 1e-2 when the training
    split has fewer rows than x has columns (glmnet's lambda.min.ratio):
    there the small penalties fit noise and their Gram blocks are singular.
    Fits along the path are warm-started.  The holdout is drawn over the
    positive-weight rows, of which at least 5 are needed.
    """
    _check_choice("link", link, _LINKS)
    _check_int("grid_size", grid_size, 2)
    _check_int("seed", seed, 0)
    x, y, w = _check_inputs(x, y, 0.0, sample_weight, binary=link == "logistic")
    n = x.shape[0]
    if n < 5:
        raise InputError(f"need at least 5 rows to split 80/20, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(np.floor(0.2 * n)))
    hold, train = perm[:n_hold], perm[n_hold:]

    lam_hi = max(_lambda_max(x, y, w, link), 1e-12)
    floor = 1e-2 if train.size < x.shape[1] else 1e-3
    grid = np.geomspace(lam_hi, lam_hi * floor, grid_size)
    fit = lasso_fit if link == "identity" else logistic_lasso_fit
    xt, yt, wt = x[train], y[train], w[train]
    xh, yh, wh = x[hold], y[hold], w[hold]
    best_lam, best_loss = None, np.inf
    warm = None
    for lam in grid:
        model = fit(xt, yt, lam, sample_weight=wt, _warm=warm)
        warm = (model.intercept, model.coefficients)
        loss = _holdout_loss(model, xh, yh, wh)
        if loss < best_loss:  # strict: earlier (larger) lam wins ties
            best_loss, best_lam = loss, float(lam)
    return best_lam
