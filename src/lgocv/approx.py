"""Gaussian approximation of the latent posterior and the theta grid.

Newton iteration finds the mode of pi(f | theta, y); linear constraints are
enforced at every step by conditioning by kriging (solve unconstrained, then
project).  The factorized posterior precision and the kriging workspace are
kept on the returned state and reused by all downstream covariance work.

A model's graph is fixed: P keeps the model's prior pattern and Q = P +
A' diag(c) A the pattern of its fit plan, exact zeros stored as values.  So
what theta does not change is computed once per model, in its fit plan: Q's
pattern and the column ordering of Q's LU (Rue & Held 2005, sec. 2.4: a
GMRF's fill-reducing ordering depends on its graph only).  A fit computes
values only: P's and Q's entries, and LUs of Q that reuse the ordering.  A
Newton step writes Q's values into one kept CSC shell and reads no pivots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
import itertools
import logging
from typing import NamedTuple
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize


log = logging.getLogger(__name__)

NEWTON_TOL = 1e-8       # largest linear-predictor move at Newton convergence
MAX_NEWTON_ITER = 100
GRID_STEP = 0.75        # theta grid spacing in standardized units
DROP_THRESH = 5.0       # grid points this many log units below the mode drop
HESS_STEP = 1e-3        # relative finite-difference step of the theta Hessian
OPT_TOL = 1e-7          # Nelder-Mead xatol of the theta mode search
MAX_OPT_ITER = 500      # Nelder-Mead iterations per free hyperparameter


class ModeFindingError(RuntimeError):
    pass


class FactorizationError(RuntimeError):
    pass


def _finite(x):
    if not np.all(np.isfinite(x)):
        raise FactorizationError("factorization produced non-finite pivots")
    return x


def _splu(Q, permc_spec=None, pivots=True):
    """Sparse LU of a CSC matrix Q and the diagonal of its U factor, checked
    finite, or None without ``pivots`` (reading U converts L and U to CSC)."""
    try:
        lu = spla.splu(Q, permc_spec=permc_spec)
    except RuntimeError as exc:
        raise FactorizationError(f"sparse factorization failed: {exc}") from exc
    return lu, _finite(lu.U.diagonal()) if pivots else None


def _pairs(indptr):
    """(segment, entry a, entry b) for every ordered pair of stored entries
    within each segment of a compressed index pointer: segments ascending,
    a-major within one."""
    k = np.diff(indptr)
    sq = k * k
    seg = np.repeat(np.arange(k.size), sq)
    t = np.arange(sq.sum()) - np.repeat(np.cumsum(sq) - sq, sq)
    start, width = indptr[:-1][seg], k[seg]
    return seg, start + t // width, start + t % width


class _DesignTerms:
    """Every product a_ij c_i a_ik of A' diag(c) A, for one CSR design A.

    Row i contributes one term per pair (j, k) of its stored entries, (k, j)
    a pair of its own, and the terms run in ascending i: the order in which
    scipy's sparse product sums them.  ``codes`` are the distinct output
    positions k p + j (column-major); ``inverse`` maps each term to one.
    """

    def __init__(self, A):
        self.p = A.shape[1]
        self.rows, first, second = _pairs(A.indptr)
        self.a_j, self.a_k = A.data[first], A.data[second]
        codes = A.indices[second].astype(np.int64) * self.p + A.indices[first]
        self.codes, self.inverse = np.unique(codes, return_inverse=True)


class _FitPlan:
    """What every Newton fit of one model shares.

    ``hessian`` gives the values of Q(c) = P + A' diag(c) A on one pattern
    (``indices``, ``indptr``), the union of the model's ``prior_pattern``
    and the design terms', indices sorted and exact zeros stored.  Each is
    scipy's ``(P + A.T @ sp.diags(c) @ A)``: the products (a_ij c_i) a_ik
    summed in ascending i, then P added.  The model's first LU runs COLAMD;
    later ones write Q's values into one kept CSC shell on the pattern of
    Q Pc, Pc that column ordering, factorize it with no ordering step, and
    solve and pivot bitwise as a fresh ``splu`` of Q.  No LU keeps the
    shell's values, but the shell makes ``find_mode`` non-reentrant per
    model; nothing calls it concurrently.  ``constraint_rows`` is C as CSR.
    """

    def __init__(self, model):
        C = model.constraints
        self.constraint_rows = None if C is None else sp.csr_matrix(C[0])
        t = self.terms = _DesignTerms(model.design)
        prior = model.prior_pattern.tocoo()
        codes = np.concatenate([t.codes, prior.col.astype(np.int64) * t.p + prior.row])
        self.codes, at = np.unique(codes, return_inverse=True)
        self.pos = at[:t.codes.size][t.inverse]
        self.p_pos = at[t.codes.size:]
        self.indices = (self.codes % t.p).astype(np.int32)
        self.indptr = np.searchsorted(self.codes // t.p, np.arange(t.p + 1)).astype(np.int32)
        self.ordering = None

    def scatter(self, P):
        """P, on the model's ``prior_pattern``, placed on Q's pattern."""
        return np.bincount(self.p_pos, weights=P.data, minlength=self.codes.size)

    def hessian(self, c, p_data):
        """Q's values at curvatures c for the prior whose ``scatter`` is p_data."""
        t = self.terms
        return np.bincount(self.pos, weights=(t.a_j * c[t.rows]) * t.a_k,
                           minlength=p_data.size) + p_data

    def factorize(self, data, pivots=True):
        """(solve, pivots) for Q's values ``data``, as ``_splu``; the first LU orders."""
        if self.ordering is None:
            lu, pivots = _splu(sp.csc_matrix((data, self.indices, self.indptr),
                                             shape=(self.terms.p,) * 2), pivots=pivots)
            self._keep(lu.perm_c.copy())   # a copy: perm_c is a view that pins the LU
            return lu.solve, pivots
        perm_c, take, shell = self.ordering
        np.take(data, take, out=shell.data)
        lu, pivots = _splu(shell, "NATURAL", pivots)
        # x = Pc y in one copy, kept in the Fortran order SuperLU returns
        return (lambda rhs: np.take(lu.solve(rhs).T, perm_c, axis=-1).T), pivots

    def _keep(self, perm_c):
        """The take map of Q Pc = Q[:, argsort(perm_c)] on the pattern, and a shell."""
        order = np.argsort(perm_c)
        counts = np.diff(self.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        take = np.repeat(self.indptr[order] - indptr[:-1], counts) + np.arange(self.codes.size)
        shell = sp.csc_matrix((np.empty(take.size), self.indices[take], indptr),
                              shape=(perm_c.size,) * 2)
        shell.has_canonical_format = True
        self.ordering = (perm_c, take, shell)


_FIT_PLANS = weakref.WeakKeyDictionary()     # one per (immutable) model


def _fit_plan(model):
    plan = _FIT_PLANS.get(model)
    if plan is None:
        plan = _FIT_PLANS[model] = _FitPlan(model)
    return plan


class _Linearization(NamedTuple):
    """The quadratic model of the log posterior at one point."""

    c: np.ndarray               # -g''(eta), clipped at 0
    b: np.ndarray               # g'(eta) - g''(eta) eta
    solve: object               # x -> Q^{-1} x, Q = P + A' diag(c) A
    pivots: np.ndarray          # diagonal of U, None at a Newton step
    mu_unc: np.ndarray          # Q^{-1} A' b
    mu: np.ndarray              # mu_unc kriged onto the constraints
    constraint_w: object        # Q^{-1} C', or None without constraints
    constraint_gram: object     # C Q^{-1} C'
    constraint_cho: object      # Cholesky factor of the Gram


class GaussianApprox:
    """Fitted Gaussian approximation pi_G(f | theta, y) at one theta.

    Holds the constrained mode ``mu``, the factorized posterior precision
    Q_f = P_f + A' C A, the linearization (b, c) at the mode, and the
    precomputed constraint solves shared by every group.  ``solve`` (x ->
    Q_f^-1 x) and ``constrain`` (``kriging`` onto the constraints, built on
    first use) are closures that hold no reference to the fit, for one or
    many right-hand sides.  ``n_iter`` and ``n_lu`` count the Newton
    iterations and sparse LU factorizations of the fit.  Fields are
    immutable once published; the columns ``eta_covariance`` keeps on a fit
    are bitwise a fresh solve's, so concurrent use is safe.
    """

    def __init__(self, model, theta, lin, g, P, n_iter, n_lu):
        self.model = model
        self.theta = theta
        self.mu = lin.mu                # constrained latent mean
        self.mu_unc = lin.mu_unc        # unconstrained quadratic-model mean
        self.b = lin.b                  # g'(eta*) - g''(eta*) eta*
        self.c = lin.c                  # -g''(eta*), curvature diagonal
        self.g = g                      # log likelihood values at the mode
        self.P = P
        self.n_iter = n_iter
        self.n_lu = n_lu
        self.solve = lin.solve
        self.log_det_q = float(np.sum(np.log(np.abs(lin.pivots))))
        self.constraint_w = lin.constraint_w
        self.constraint_gram = lin.constraint_gram
        self.constraint_cho = lin.constraint_cho

    @cached_property
    def constrain(self):
        return kriging(_fit_plan(self.model).constraint_rows, self.constraint_w,
                       self.constraint_cho)


def kriging(C, W, cho):
    """x -> x - W (C W)^-1 C x for ``cho`` the factor of C W, or x -> x.

    C x is a sparse product, and W z is taken off one constraint at a time
    as an outer product.  Both work on each column alone in a fixed order,
    so a column's correction does not depend on the columns solved with it;
    BLAS picks its kernel by the number of columns.  Returns a new C-ordered
    array.
    """
    if cho is None:
        return lambda x: x
    C = sp.csr_matrix(C)

    def krige(x):
        x = np.array(x, order="C")
        for w, zl in zip(W.T, cho_solve(cho, C @ x)):
            x -= np.multiply.outer(w, zl)
        return x

    return krige


def _feasible_start(model):
    if model.constraints is None:
        return np.zeros(model.latent_size)
    C, e = model.constraints
    if np.allclose(e, 0.0):
        return np.zeros(model.latent_size)
    return C.T @ np.linalg.solve(C @ C.T, e)


def _linearize(plan, p_data, At, C_e, eta, g1, g2, final=False):
    """Quadratic model of the log posterior at eta, factorized and solved.

    Factorizes Q = ``plan.hessian(c, p_data)``, solves Q mu_unc = A' b
    (``At`` is A') and kriges mu_unc onto the constraints ``C_e``; only the
    ``final`` one reads Q's pivots, a Newton step checks mu_unc instead.
    """
    c = np.maximum(-g2, 0.0)
    b = g1 - g2 * eta
    solve, pivots = plan.factorize(plan.hessian(c, p_data), final)
    mu_unc = solve(At @ b) if final else _finite(solve(At @ b))
    if C_e is None:
        return _Linearization(c, b, solve, pivots, mu_unc, mu_unc, None, None, None)
    C, e = C_e
    W = solve(C.T)
    gram = C @ W
    cho = cho_factor(gram)
    mu = mu_unc - W @ cho_solve(cho, C @ mu_unc - e)
    return _Linearization(c, b, solve, pivots, mu_unc, mu, W, gram, cho)


def find_mode(model, theta, init=None):
    """Newton mode search for pi(f | theta, y) with step-halving line search.

    Stops once no linear predictor moves by more than ``NEWTON_TOL``.
    """
    theta = theta if hasattr(theta, "values") else model.hyper_point(theta)
    A = model.design
    P = model.prior_precision(theta)
    plan = _fit_plan(model)
    p_data = plan.scatter(P)
    At = A.T
    C_e = model.constraints

    f = np.array(init, dtype=float) if init is not None else _feasible_start(model)
    eta = A @ f
    g, g1, g2 = model.loglik_derivatives(theta, eta)
    obj = -0.5 * f @ (P @ f) + g.sum()

    for it in range(1, MAX_NEWTON_ITER + 1):
        lin = _linearize(plan, p_data, At, C_e, eta, g1, g2)
        step = lin.mu - f
        del lin                        # free its LU before the next is made
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
        if delta <= NEWTON_TOL:
            # refresh the linearization at the accepted point: one LU per
            # Newton step plus this one
            lin = _linearize(plan, p_data, At, C_e, eta, g1, g2, final=True)
            g_m = model.loglik_derivatives(theta, A @ lin.mu)[0]
            return GaussianApprox(model, theta, lin, g=g_m, P=P, n_iter=it,
                                  n_lu=it + 1)

    raise ModeFindingError(f"Newton did not converge in {MAX_NEWTON_ITER} "
                           f"iterations (theta={np.asarray(theta.values)})")


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
            lu_p, _ = _splu(ga.P)
            gram_p = C @ lu_p.solve(C.T)
            sign_p, ld_p = np.linalg.slogdet(gram_p)
            if sign_p <= 0:
                raise FactorizationError("prior constraint Gram not positive definite")
            log_prior -= _log_gauss(e, np.zeros(k), cho_factor(gram_p), ld_p, k)

    return float(log_prior + log_lik - (log_post - corr))


@dataclass(frozen=True)
class ThetaGrid:
    """Integration grid over the hyperparameter posterior.

    ``fits`` holds the ``GaussianApprox`` of each point, in point order, as
    ``build_theta_grid`` fitted them for its model.  It is None for a grid
    that carries no fits: one without free hyperparameters, or one restored
    from saved state.
    """

    points: tuple            # HyperPoint per grid node
    log_posteriors: np.ndarray
    weights: np.ndarray
    mode: "HyperPoint"
    fits: tuple | None = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.points)


def build_theta_grid(model, step=GRID_STEP):
    """Locate the mode of pi(theta | y) and lay an axis-aligned grid around it.

    With no free hyperparameters the grid degenerates to a single point of
    weight one and carries no fit.  Above four dimensions only the mode is
    used (empirical Bayes), mirroring the cost blow-up of dense grids.
    Grid points lie ``step`` apart in theta standardized by the Hessian at
    the mode; those more than ``DROP_THRESH`` log units below it drop out.

    The Nelder-Mead search and the finite-difference Hessian fit every
    theta cold, and the mode keeps the best search fit.  The other grid
    points are fitted in order of |z|_1, each warm-started from the latent
    mode of a kept neighbour one step nearer the centre (or of the centre),
    and the grid keeps the fits of the points it keeps.  Each call logs one debug
    line: d, the log-posterior evaluations, the fits (warm-started ones
    among them), their Newton iterations and LU factorizations, the points
    kept and dropped, and whether the empirical-Bayes fallback was taken.
    """
    d = model.theta_dim
    cache, stats, best = {}, Counter(), {}

    def report(kept, dropped, fallback):
        log.debug("grid: d=%d, %d log-posterior evaluations, %d distinct fits "
                  "(%d warm-started), %d Newton iterations, %d LU factorizations, "
                  "%d points kept, %d dropped, empirical-Bayes fallback %s",
                  d, stats["evaluations"], stats["fits"], stats["warm"],
                  stats["newton_iters"], stats["lu"],
                  kept, dropped, "yes" if fallback else "no")

    if d == 0:
        hp = model.hyper_point(np.zeros(0))
        report(1, 0, False)
        return ThetaGrid((hp,), np.zeros(1), np.ones(1), hp)

    def fit(theta, init=None):
        ga = find_mode(model, theta, init=init)
        stats["fits"] += 1
        stats["warm"] += init is not None
        stats["newton_iters"] += ga.n_iter
        stats["lu"] += ga.n_lu
        return ga, log_evidence(model, ga) + model.log_hyper_prior(theta)

    def key(theta):
        return tuple(np.round(np.atleast_1d(theta), 12))

    def lp(theta, search=False):
        """Log posterior from a cold fit, cached by theta; during the
        search, ``best`` holds the best fit so far."""
        stats["evaluations"] += 1
        k = key(theta)
        if k not in cache:
            ga, cache[k] = fit(theta)
            if search and (not best or cache[k] > best["value"]):
                best.update(value=cache[k], key=k, fit=ga)
        return cache[k]

    res = minimize(lambda t: -lp(t, search=True), model.theta_init(),
                   method="Nelder-Mead",
                   options={"xatol": OPT_TOL, "fatol": 1e-10,
                            "maxiter": MAX_OPT_ITER * d})
    if not res.success and res.status != 2:    # status 2: maxiter, still usable
        raise ModeFindingError(f"theta optimization failed: {res.message}")
    theta_star = np.atleast_1d(res.x)
    lp_star = lp(theta_star)
    # Nelder-Mead returns its best evaluated point, whose fit ``best`` holds
    ga_star = best["fit"] if best["key"] == key(theta_star) else fit(theta_star)[0]

    if d > 4:
        hp = model.hyper_point(theta_star)
        report(1, 0, True)
        return ThetaGrid((hp,), np.array([lp_star]), np.ones(1), hp, (ga_star,))

    # central-difference Hessian of the log posterior at the mode
    h = HESS_STEP * (1.0 + np.abs(theta_star))
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

    half_width = int(np.ceil(np.sqrt(2 * DROP_THRESH) / step)) + 1
    offsets = range(-half_width, half_width + 1)
    grid = list(itertools.product(offsets, repeat=d))
    centre = (0,) * d
    kept = {}                          # z -> (theta, fit, log posterior)
    dropped = 0
    for z in sorted(grid, key=lambda z: sum(map(abs, z))):
        theta = theta_star + step * (axes @ np.array(z, dtype=float))
        if z == centre:
            kept[z] = (theta, ga_star, lp_star)
            continue
        nearer = (z[:i] + (z[i] - (1 if z[i] > 0 else -1),) + z[i + 1:]
                  for i in range(d) if z[i])
        init = next((kept[n][1] for n in nearer if n in kept), ga_star).mu
        stats["evaluations"] += 1
        ga, val = fit(theta, init)
        if val >= lp_star - DROP_THRESH:
            kept[z] = (theta, ga, val)
        else:
            dropped += 1
    report(len(kept), dropped, False)

    points = [kept[z] for z in grid if z in kept]
    lps = np.array([val for _, _, val in points])
    wts = np.exp(lps - lps.max())
    wts /= wts.sum()
    return ThetaGrid(tuple(model.hyper_point(theta) for theta, _, _ in points),
                     lps, wts, model.hyper_point(theta_star),
                     tuple(ga for _, ga, _ in points))
