"""Brute-force verification: refit cross-validation, dense moment formulas,
and leave-future-out evaluation for the time-series correspondence study.

Everything here recomputes quantities the engine gets by downdating, but by
actually refitting on the reduced data or by dense linear algebra, so the
two routes share no shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .approx import GRID_STEP, build_theta_grid, find_mode
from .engine import fit_grid_approximations, gh_log_predictive, DEFAULT_GH_ORDER
from .covariance import EtaMoments

REL_FLOOR = 1e-300


@dataclass
class OracleReport:
    """Engine-vs-oracle comparison rows with an aggregate verdict."""

    tolerance: float
    relative: bool = True
    rows: list = field(default_factory=list)

    def add(self, case, engine_value, oracle_value):
        a, b = float(engine_value), float(oracle_value)
        abs_err = abs(a - b)
        rel_err = abs_err / max(abs(b), REL_FLOOR)
        self.rows.append((case, a, b, abs_err, rel_err))

    @property
    def errors(self):
        return np.array([r[4] if self.relative else r[3] for r in self.rows])

    @property
    def passed(self):
        return bool(len(self.rows)) and bool(np.all(self.errors <= self.tolerance))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("case,engine,oracle,abs_error,rel_error,pass\n")
            for case, a, b, ae, re_ in self.rows:
                ok = (re_ if self.relative else ae) <= self.tolerance
                fh.write(f"{case},{a!r},{b!r},{ae!r},{re_!r},{int(ok)}\n")


def _eta_moments_on(ga_sub, row):
    """Mean and variance of one predictor row under a refit approximation."""
    x = ga_sub.constrain(ga_sub.solve(np.asarray(row.todense()).ravel()))
    return float((row @ ga_sub.mu)[0]), float((row @ x)[0])


def _refit_group(model, i, I, thetas, step):
    """Refit on y_-I, I the group of observation i: (theta points, weights,
    fitted approximations)."""
    if np.unique(I).size == model.n_obs:
        raise ValueError(f"refit oracle: the group of observation {i + 1} holds "
                         f"all {model.n_obs} observations; no data is left to "
                         "refit on")
    sub = model.drop_observations(np.asarray(I, dtype=int))
    if thetas is not None:
        pts = [sub.hyper_point(t) for t in np.atleast_2d(thetas)]
        weights = np.full(len(pts), 1.0 / len(pts))
        return pts, weights, [find_mode(sub, hp) for hp in pts]
    grid = build_theta_grid(sub, step)
    return grid.points, grid.weights, fit_grid_approximations(sub, grid)


def _mix_predictive(model, i, pts, weights, gas_sub, gh_order):
    row = model.design[int(i)]
    dens = 0.0
    for hp, w, ga_sub in zip(pts, weights, gas_sub):
        mean, var = _eta_moments_on(ga_sub, row)
        dens += w * np.exp(gh_log_predictive(model, hp, int(i), mean, var, gh_order))
    return float(dens)


def refit_predictive(model, i, I, thetas=None, step=GRID_STEP,
                     gh_order=DEFAULT_GH_ORDER):
    """pi(y_i | y_-I) by actually removing y_I and refitting.

    ``thetas`` fixes the hyperparameter points (equal treatment of a fixed
    theta); otherwise the theta grid is rebuilt on the reduced data, with
    grid spacing ``step``.
    """
    pts, weights, gas_sub = _refit_group(model, i, I, thetas, step)
    return _mix_predictive(model, i, pts, weights, gas_sub, gh_order)


def refit_predictive_all(model, groups, indices=None, thetas=None,
                         step=GRID_STEP, gh_order=DEFAULT_GH_ORDER):
    """Refit oracle for many observations, one refit per distinct group.

    Observations whose groups coincide (common with automatic groups) share
    the reduced-data fit; the result is identical to calling
    :func:`refit_predictive` per observation.
    """
    if indices is None:
        indices = groups.indices()
    cache = {}
    out = {}
    for i in indices:
        key = tuple(int(j) for j in groups[int(i)])
        if key not in cache:
            cache[key] = _refit_group(model, i, key, thetas, step)
        pts, weights, gas_sub = cache[key]
        out[int(i)] = _mix_predictive(model, i, pts, weights, gas_sub, gh_order)
    return out


def dense_downdate_oracle(model, theta, I, ga=None):
    """Leave-group moments of eta_I by dense assembly on y_-I.

    Uses the full-data linearization (b, C) like the engine, but works in
    the latent space with dense matrices and the dense constraint
    projection, validating both the downdate and the entry-by-entry
    covariance path.
    """
    I = np.asarray(I, dtype=int)
    if ga is None:
        ga = find_mode(model, theta)
    A = model.design.toarray()
    AI = A[I]
    P = ga.P.toarray()

    Qd = P + (A * ga.c[:, None]).T @ A - (AI * ga.c[I][:, None]).T @ AI
    r = A.T @ ga.b - AI.T @ ga.b[I]
    sigma_f = np.linalg.inv(Qd)
    mu_f = sigma_f @ r
    if model.constraints is not None:
        C, e = model.constraints
        W = sigma_f @ C.T
        G = np.linalg.inv(C @ W)
        mu_f = mu_f - W @ G @ (C @ mu_f - e)
        sigma_f = sigma_f - W @ G @ W.T
    mu = AI @ mu_f
    sigma = AI @ sigma_f @ AI.T
    return EtaMoments(I, mu, 0.5 * (sigma + sigma.T))


def lfocv_curve(model, steps, test_indices, gh_order=DEFAULT_GH_ORDER):
    """Mean log k-step-ahead predictive density for each k in ``steps``.

    Observations must carry a total time order (their index).  Each test
    point t conditions on y[0:t-k] via a genuine refit; fits are shared
    between (t, k) pairs with the same conditioning horizon.  Requires
    every hyperparameter fixed (refitting theta per horizon would be the
    obvious extension, not needed for the time-series study).
    """
    if model.theta_dim != 0:
        raise ValueError("lfocv_curve expects all hyperparameters fixed")
    steps = [int(k) for k in steps]
    test_indices = [int(t) for t in test_indices]
    n = model.n_obs
    for t in test_indices:
        if not 0 <= t < n:
            raise IndexError(f"test index {t} out of range")

    by_horizon = {}
    for k in steps:
        if k < 1:
            raise ValueError("steps ahead must be >= 1")
        for t in test_indices:
            horizon = t - k + 1    # condition on y[0:t-k+1]: k steps ahead
            if horizon < 1:
                raise ValueError(
                    f"insufficient history: step {k} at test index {t}")
            by_horizon.setdefault(horizon, []).append((t, k))

    theta = model.hyper_point(np.zeros(0))
    sums = {k: 0.0 for k in steps}
    for horizon in sorted(by_horizon):
        sub = model.keep_observations(np.arange(horizon))
        ga_sub = find_mode(sub, theta)
        for t, k in by_horizon[horizon]:
            mean, var = _eta_moments_on(ga_sub, model.design[t])
            sums[k] += gh_log_predictive(model, theta, t, mean, var, gh_order)
    return {k: sums[k] / len(test_indices) for k in steps}


def map_levels_to_steps(steps, lfocv_utilities, lgocv_utilities):
    """Map LGOCV(m) utilities onto the LFOCV(k) curve.

    Uses monotone piecewise-cubic interpolation of the (k, utility) points,
    inverted by root finding; beyond the fitted range the curve is extended
    linearly with the boundary slope, so the inverse stays monotone.
    """
    steps = np.asarray(steps, dtype=float)
    u = np.asarray(lfocv_utilities, dtype=float)
    if np.any(np.diff(u) >= 0):
        raise ValueError("LFOCV utilities must be strictly decreasing in k")
    p = PchipInterpolator(steps, u)
    dp = p.derivative()

    out = []
    for val in np.asarray(lgocv_utilities, dtype=float):
        if val >= u[0]:
            out.append(steps[0] + (val - u[0]) / float(dp(steps[0])))
        elif val <= u[-1]:
            out.append(steps[-1] + (val - u[-1]) / float(dp(steps[-1])))
        else:
            out.append(brentq(lambda s: float(p(s)) - val, steps[0], steps[-1]))
    return np.array(out)
