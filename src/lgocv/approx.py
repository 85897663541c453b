"""Gaussian approximation of the latent posterior and the theta grid.

Newton iteration finds the mode of pi(f | theta, y); linear constraints are
enforced at every step by conditioning by kriging (solve unconstrained, then
project).  The factorized posterior precision and the kriging workspace are
kept on the returned state and reused by all downstream covariance work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
import itertools
import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize


log = logging.getLogger(__name__)


class ModeFindingError(RuntimeError):
    pass


class FactorizationError(RuntimeError):
    pass


def _splu(Q):
    try:
        lu = spla.splu(sp.csc_matrix(Q))
    except RuntimeError as exc:
        raise FactorizationError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(lu.U.diagonal())):
        raise FactorizationError("factorization produced non-finite pivots")
    return lu


def _logdet_from_lu(lu):
    return float(np.sum(np.log(np.abs(lu.U.diagonal()))))


class GaussianApprox:
    """Fitted Gaussian approximation pi_G(f | theta, y) at one theta.

    Holds the constrained mode ``mu``, the factorized posterior precision
    Q_f = P_f + A' C A, the linearization (b, c) at the mode, and the
    precomputed constraint solves shared by every group.  Immutable once
    published; concurrent read-only use is safe.
    """

    def __init__(self, model, theta, mu, mu_unc, lu, b, c, g, P, n_iter):
        self.model = model
        self.theta = theta
        self.mu = mu                    # constrained latent mean
        self.mu_unc = mu_unc            # unconstrained quadratic-model mean
        self.b = b                      # g'(eta*) - g''(eta*) eta*
        self.c = c                      # -g''(eta*), curvature diagonal
        self.g = g                      # log likelihood values at the mode
        self.P = P
        self.n_iter = n_iter
        self._lu = lu
        self.eta_star = model.design @ mu
        self.log_det_q = _logdet_from_lu(lu)

        if model.constraints is not None:
            C, e = model.constraints
            self.constraint_w = lu.solve(C.T)                 # Q^{-1} C'
            gram = C @ self.constraint_w                      # C Q^{-1} C'
            self.constraint_gram = gram
            self.constraint_cho = cho_factor(gram)
        else:
            self.constraint_w = None
            self.constraint_gram = None
            self.constraint_cho = None

    def solve(self, rhs):
        """Q_f x = rhs for one or many right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        x = self._lu.solve(rhs if not squeeze else rhs[:, None])
        return x[:, 0] if squeeze else x

    def constrain(self, x):
        """Propagate linear constraints: x - Q^{-1}C'(CQ^{-1}C')^{-1} C x."""
        if self.constraint_w is None:
            return x
        C, _ = self.model.constraints
        return x - self.constraint_w @ cho_solve(self.constraint_cho, C @ x)


def _feasible_start(model):
    if model.constraints is None:
        return np.zeros(model.latent_size)
    C, e = model.constraints
    if np.allclose(e, 0.0):
        return np.zeros(model.latent_size)
    return C.T @ np.linalg.solve(C @ C.T, e)


def _linearize(P, A, C_e, eta, g1, g2):
    """Quadratic model of the log posterior at eta, factorized and solved.

    Returns the curvature c, the linear term b, the LU of Q = P + A' diag(c) A,
    the unconstrained maximizer mu_unc and its kriged projection mu onto the
    constraints ``C_e``.
    """
    c = np.maximum(-g2, 0.0)
    b = g1 - g2 * eta
    lu = _splu((P + (A.T @ sp.diags(c) @ A)).tocsc())
    mu_unc = lu.solve(A.T @ b)
    mu = mu_unc
    if C_e is not None:
        C, e = C_e
        W = lu.solve(C.T)
        mu = mu_unc - W @ cho_solve(cho_factor(C @ W), C @ mu_unc - e)
    return c, b, lu, mu_unc, mu


def find_mode(model, theta, init=None, tol=1e-8, max_iter=100):
    """Newton mode search for pi(f | theta, y) with step-halving line search."""
    theta = theta if hasattr(theta, "values") else model.hyper_point(theta)
    A = model.design
    P = model.prior_precision(theta)
    C_e = model.constraints

    f = np.array(init, dtype=float) if init is not None else _feasible_start(model)
    eta = A @ f
    g, g1, g2 = model.loglik_derivatives(theta, eta)
    obj = -0.5 * f @ (P @ f) + g.sum()

    for it in range(1, max_iter + 1):
        mu = _linearize(P, A, C_e, eta, g1, g2)[-1]
        step = mu - f
        alpha = 1.0
        for _ in range(40):
            f_new = f + alpha * step
            eta_new = A @ f_new
            g_new, g1_new, g2_new = model.loglik_derivatives(theta, eta_new)
            obj_new = -0.5 * f_new @ (P @ f_new) + g_new.sum()
            if np.isfinite(obj_new) and obj_new >= obj - 1e-12 * max(1.0, abs(obj)):
                break
            alpha *= 0.5
        else:
            raise ModeFindingError("line search failed to make progress")

        delta = np.max(np.abs(eta_new - eta))
        f, eta, obj = f_new, eta_new, obj_new
        g, g1, g2 = g_new, g1_new, g2_new
        if delta <= tol:
            # refresh the linearization at the accepted point
            c, b, lu, mu_unc, mu = _linearize(P, A, C_e, eta, g1, g2)
            g_m = model.loglik(theta, A @ mu)
            return GaussianApprox(model, theta, mu, mu_unc, lu,
                                  b=b, c=c, g=g_m, P=P, n_iter=it)

    raise ModeFindingError(f"Newton did not converge in {max_iter} iterations "
                           f"(theta={np.asarray(theta.values)})")


def _log_gauss(x, mean, gram_cho, logdet, dim):
    r = x - mean
    return -0.5 * (dim * np.log(2 * np.pi) + logdet + r @ cho_solve(gram_cho, r))


def log_evidence(model, ga):
    """Laplace approximation of log pi(y | theta), up to a theta-free constant.

    log pi(f*, y | theta) - log pi_G(f* | theta, y), with the constraint
    corrections applied to both densities when constraints are present.
    Intrinsic priors use the generalized log determinant; for those, the
    auto sum-to-zero constraints are treated as part of the improper prior
    and no prior constraint normalization is added.
    """
    f = ga.mu
    p = model.latent_size
    theta = ga.theta

    quad_prior = -0.5 * f @ (ga.P @ f)
    log_prior = quad_prior + 0.5 * model.prior_log_det(theta) \
        - 0.5 * model.prior_rank() * np.log(2 * np.pi)

    log_lik = float(np.sum(ga.g))

    r = f - ga.mu_unc
    quad_post = float(r @ (ga.P @ r) + (model.design @ r) @ (ga.c * (model.design @ r)))
    log_post = 0.5 * ga.log_det_q - 0.5 * p * np.log(2 * np.pi) - 0.5 * quad_post

    corr = 0.0
    if model.constraints is not None:
        C, e = model.constraints
        k = C.shape[0]
        sign, ld = np.linalg.slogdet(ga.constraint_gram)
        if sign <= 0:
            raise FactorizationError("constraint Gram matrix not positive definite")
        # posterior: subtract log N(e; C mu_unc, C Q^{-1} C')
        corr += _log_gauss(e, C @ ga.mu_unc, ga.constraint_cho, ld, k)
        if not model.has_intrinsic:
            # prior: subtract log N(e; 0, C P^{-1} C')
            lu_p = _splu(ga.P)
            gram_p = C @ lu_p.solve(C.T)
            sign_p, ld_p = np.linalg.slogdet(gram_p)
            if sign_p <= 0:
                raise FactorizationError("prior constraint Gram not positive definite")
            log_prior -= _log_gauss(e, np.zeros(k), cho_factor(gram_p), ld_p, k)

    return float(log_prior + log_lik - (log_post - corr))


@dataclass
class GridConfig:
    step: float = 0.75          # grid spacing in standardized theta units
    drop_thresh: float = 5.0    # drop points this many log units below the mode
    hess_step: float = 1e-3
    opt_tol: float = 1e-7
    max_opt_iter: int = 500


@dataclass(frozen=True)
class ThetaGrid:
    """Integration grid over the hyperparameter posterior."""

    points: tuple            # HyperPoint per grid node
    log_posteriors: np.ndarray
    weights: np.ndarray
    mode: "HyperPoint"

    def __len__(self):
        return len(self.points)


def _log_posterior_fn(model, fit_cache, tol, stats):
    def lp(theta):
        stats["evaluations"] += 1
        key = tuple(np.round(np.atleast_1d(theta), 12))
        if key not in fit_cache:
            ga = find_mode(model, theta, tol=tol)
            stats["newton_iters"] += ga.n_iter
            fit_cache[key] = log_evidence(model, ga) + model.log_hyper_prior(theta)
        return fit_cache[key]
    return lp


def build_theta_grid(model, config=None):
    """Locate the mode of pi(theta | y) and lay an axis-aligned grid around it.

    With no free hyperparameters the grid degenerates to a single point of
    weight one.  Above four dimensions only the mode is used (empirical
    Bayes), mirroring the cost blow-up of dense grids.  Each call logs one
    debug line: d, the log-posterior evaluations, the distinct fits and
    their Newton iterations, the points kept and dropped, and whether the
    empirical-Bayes fallback was taken.
    """
    config = config or GridConfig()
    d = model.theta_dim
    cache, stats = {}, Counter()

    def report(kept, dropped, fallback):
        log.debug("grid: d=%d, %d log-posterior evaluations, %d distinct fits, "
                  "%d Newton iterations, %d points kept, %d dropped, "
                  "empirical-Bayes fallback %s", d, stats["evaluations"],
                  len(cache), stats["newton_iters"], kept, dropped,
                  "yes" if fallback else "no")

    if d == 0:
        hp = model.hyper_point(np.zeros(0))
        report(1, 0, False)
        return ThetaGrid((hp,), np.zeros(1), np.ones(1), hp)

    lp = _log_posterior_fn(model, cache, tol=1e-8, stats=stats)

    res = minimize(lambda t: -lp(t), model.theta_init(), method="Nelder-Mead",
                   options={"xatol": config.opt_tol, "fatol": 1e-10,
                            "maxiter": config.max_opt_iter * d})
    if not res.success and res.status != 2:    # status 2: maxiter, still usable
        raise ModeFindingError(f"theta optimization failed: {res.message}")
    theta_star = np.atleast_1d(res.x)
    lp_star = lp(theta_star)

    if d > 4:
        hp = model.hyper_point(theta_star)
        report(1, 0, True)
        return ThetaGrid((hp,), np.array([lp_star]), np.ones(1), hp)

    # central-difference Hessian of the log posterior at the mode
    h = config.hess_step * (1.0 + np.abs(theta_star))
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (lp(theta_star + ei) - 2 * lp_star + lp(theta_star - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                lp(theta_star + ei + ej) - lp(theta_star + ei - ej)
                - lp(theta_star - ei + ej) + lp(theta_star - ei - ej)
            ) / (4 * h[i] * h[j])

    w, V = np.linalg.eigh(-H)
    w = np.maximum(w, 1e-8)
    axes = V / np.sqrt(w)              # columns map standardized steps to theta

    half_width = int(np.ceil(np.sqrt(2 * config.drop_thresh) / config.step)) + 1
    offsets = range(-half_width, half_width + 1)
    pts, lps, dropped = [], [], 0
    for z in itertools.product(offsets, repeat=d):
        z = np.array(z, dtype=float)
        theta = theta_star + config.step * (axes @ z)
        val = lp_star if not z.any() else lp(theta)
        if val >= lp_star - config.drop_thresh:
            pts.append(model.hyper_point(theta))
            lps.append(val)
        else:
            dropped += 1
    report(len(pts), dropped, False)

    lps = np.array(lps)
    wts = np.exp(lps - lps.max())
    wts /= wts.sum()
    return ThetaGrid(tuple(pts), lps, wts, model.hyper_point(theta_star))
