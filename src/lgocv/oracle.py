"""Brute-force verification: refit cross-validation, dense moment formulas,
and leave-future-out evaluation for the time-series correspondence study.

Everything here recomputes quantities the engine gets by downdating, but by
actually refitting on the reduced data or by dense linear algebra, so the
two routes share no shortcuts.  Every target conditioned on one refit is
scored at once: one multi-RHS solve gives the moments of their predictors
and one array Gauss-Hermite call their predictive densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import cho_factor, cho_solve, null_space
from scipy.optimize import brentq

from .approx import GRID_STEP, build_theta_grid, find_mode
from .engine import fit_grid_approximations, gh_log_predictive, DEFAULT_GH_ORDER
from .covariance import EtaMoments, _quad


@dataclass
class OracleReport:
    """(case, quantity, error) rows, each held to the absolute ``tolerance``."""

    tolerance: float
    rows: list = field(default_factory=list)

    def add(self, case, quantity, error):
        self.rows.append((case, quantity, float(error)))

    @property
    def errors(self):
        return np.array([err for _, _, err in self.rows])

    @property
    def passed(self):
        return bool(self.rows) and bool(np.all(self.errors <= self.tolerance))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("case,quantity,error,pass\n")
            for case, quantity, err in self.rows:
                fh.write(f"{case},{quantity},{err!r},{int(err <= self.tolerance)}\n")


def _log_predictive(model, ga_sub, theta, targets, gh_order):
    """log pi(y_t | the data of ``ga_sub``) for each target t of ``model``,
    from one multi-RHS solve and one array Gauss-Hermite call."""
    A = model.design[targets]
    X = ga_sub.constrain(ga_sub.solve(A.T.toarray()))
    return gh_log_predictive(model, theta, targets, A @ ga_sub.mu, _quad(A, X),
                             gh_order)


def _refit_group(model, i, I, thetas, step):
    """Refit on y_-I, I the group of observation i: (theta points, weights,
    fitted approximations)."""
    if np.unique(I).size == model.n_obs:
        raise ValueError(f"refit oracle: the group of observation {i + 1} holds "
                         f"all {model.n_obs} observations; no data is left to "
                         "refit on")
    sub = model.keep_observations(np.setdiff1d(np.arange(model.n_obs), I))
    if thetas is not None:
        pts = [sub.hyper_point(t) for t in np.atleast_2d(thetas)]
        weights = np.full(len(pts), 1.0 / len(pts))
        return pts, weights, [find_mode(sub, hp) for hp in pts]
    grid = build_theta_grid(sub, step)
    return grid.points, grid.weights, fit_grid_approximations(sub, grid)


def refit_predictive_all(model, groups, indices=None, thetas=None,
                         step=GRID_STEP, gh_order=DEFAULT_GH_ORDER):
    """pi(y_i | y_-I) by actually removing y_I and refitting, for each
    observation i of ``indices`` (all of ``groups`` by default) and I its
    group.

    ``thetas`` fixes the hyperparameter points (equal treatment of a fixed
    theta); otherwise the theta grid is rebuilt on the reduced data, with
    grid spacing ``step``.  Observations whose groups coincide (common with
    automatic groups) share the reduced-data fit, and at each of its theta
    points all of them are scored at once; each density sums its theta
    points in grid order.
    """
    if indices is None:
        indices = groups.indices()
    out = dict.fromkeys(int(i) for i in indices)
    by_group = {}
    for i in out:
        by_group.setdefault(tuple(int(j) for j in groups[i]), []).append(i)
    for I, targets in by_group.items():
        dens = np.zeros(len(targets))
        for hp, w, ga_sub in zip(*_refit_group(model, targets[0], I, thetas, step)):
            dens += w * np.exp(_log_predictive(model, ga_sub, hp, targets, gh_order))
        out.update(zip(targets, dens.tolist()))
    return out


def dense_downdate_oracle(model, theta, I, ga=None):
    """Leave-group moments of eta_I by dense assembly on y_-I.

    Uses the full-data linearization (b, C) like the engine, but works in
    the latent space with dense matrices, validating both the downdate and
    the entry-by-entry covariance path.  It solves by Cholesky and never
    inverts.  Linear constraints C f = e are solved in the null space Z of
    C, through a Cholesky of Z' Qd Z rather than of Qd: with an
    intrinsic block and a vague intercept, Qd itself is near singular along
    the direction the constraint removes, and inverting it first loses
    digits (1.2e-9 on a Poisson RW1 group of five).
    """
    I = np.asarray(I, dtype=int)
    if ga is None:
        ga = find_mode(model, theta)
    A = model.design.toarray()
    AI = A[I]
    P = ga.P.toarray()

    Qd = P + (A * ga.c[:, None]).T @ A - (AI * ga.c[I][:, None]).T @ AI
    r = A.T @ ga.b - AI.T @ ga.b[I]
    if model.constraints is None:
        cho = cho_factor(Qd)
        mu_f = cho_solve(cho, r)
        sigma = AI @ cho_solve(cho, AI.T)
    else:
        C, e = model.constraints
        f0 = np.linalg.lstsq(C, e, rcond=None)[0]     # any point with C f0 = e
        Z = null_space(C)
        cho = cho_factor(Z.T @ Qd @ Z)
        mu_f = f0 + Z @ cho_solve(cho, Z.T @ (r - Qd @ f0))
        AZ = AI @ Z
        sigma = AZ @ cho_solve(cho, AZ.T)
    mu = AI @ mu_f
    return EtaMoments(I, mu, 0.5 * (sigma + sigma.T))


def lfocv_curve(model, steps, test_indices, gh_order=DEFAULT_GH_ORDER):
    """Mean log k-step-ahead predictive density for each k in ``steps``.

    Observations must carry a total time order (their index).  Each test
    point t conditions on y[0:t-k] via a genuine refit; the (t, k) pairs
    with the same conditioning horizon share its fit and are scored at once,
    and each k sums its pairs by horizon.  Requires every hyperparameter
    fixed (refitting theta per horizon would be the obvious extension, not
    needed for the time-series study).
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
        pairs = by_horizon[horizon]
        ga_sub = find_mode(model.keep_observations(np.arange(horizon)), theta)
        logp = _log_predictive(model, ga_sub, theta, [t for t, _ in pairs], gh_order)
        for (_, k), lp in zip(pairs, logp.tolist()):
            sums[k] += lp
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
