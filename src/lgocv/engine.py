"""Leave-group-out predictive densities without refitting.

Per theta grid point, from the factorization kept on its GaussianApprox:
the test observations' groups are deduplicated, and one multi-RHS solve
per chunk of distinct groups (member union of at most ``RHS_BATCH``
columns) gives the posterior moments of eta over the union, from which
each group's moments are a sub-block.  Once per distinct group, the
group's likelihood contribution is algebraically removed from the moments
of eta_I (a precision downdate, with an eigendecomposition path for
rank-deficient covariances) and the theta weight is corrected by a Laplace
approximation of pi(y_I | theta, y_-I).  One batched adaptive
Gauss-Hermite call then evaluates every test observation's
one-dimensional predictive integral.  Theta points are independent, which
is what ``threads`` runs in parallel.
"""

from __future__ import annotations

import functools
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from numpy.polynomial.hermite import hermgauss

from .covariance import RHS_BATCH, EtaMoments, eta_covariance
from .approx import find_mode

log = logging.getLogger(__name__)

DEFAULT_GH_ORDER = 15
RANK_TOL = 1e-10          # relative eigenvalue cutoff for the singular path
NEG_PREC_TOL = 1e-8       # relative tolerance on leave-out precision eigenvalues
DEGENERATE_VARIANCE = "degenerate leave-out variance for quadrature"


class DowndateError(RuntimeError):
    """Removing y_I leaves eta_I prior-unidentified at this theta."""


@dataclass(frozen=True)
class LeaveGroupMoments:
    """Moments of eta_I with y_I removed, plus what the Laplace ratio needs.

    ``rank_path`` is "full" or "eigen".  On the eigen path the moments live
    in the z-space spanned by B = V diag(sqrt(lambda)); ``log_ratio`` is
    log piG(eta*_I | y_-I) - log piG(eta*_I | y) evaluated at the full-data
    mean, computed on whichever support is proper.
    """

    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    rank_path: str
    log_ratio: float


def _log_gauss_dense(x, mean, sigma):
    r = x - mean
    cho = cho_factor(sigma)
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    return -0.5 * (x.size * np.log(2 * np.pi) + logdet + r @ cho_solve(cho, r))


def _check_leaveout_precision(Qm, scale):
    w = np.linalg.eigvalsh(Qm)
    if w.min() < -NEG_PREC_TOL * scale:
        raise DowndateError(
            f"leave-out precision has eigenvalue {w.min():.3e} "
            f"(scale {scale:.3e}); observation skipped")
    return np.maximum(w, 0.0)


def downdate(em, ga, I=None):
    """Remove the group's likelihood information from the eta_I moments.

    Full-rank covariance: invert to a precision, subtract the curvature
    block C_I and the linearization b_I, invert back.  Singular covariance:
    move to the z-space of the nonzero eigenpairs, downdate with
    I - B'C_I B, and map back through B.
    """
    I = em.indices if I is None else np.asarray(I, dtype=int)
    mu, sigma = em.mu, em.sigma
    cI = ga.c[I]
    bI = ga.b[I]

    w, V = np.linalg.eigh(sigma)
    w_max = max(w.max(), 0.0)
    if w_max <= 0.0:
        raise DowndateError("eta_I covariance is identically zero")

    if w.min() > RANK_TOL * w_max:
        Q = V @ ((1.0 / w)[:, None] * V.T)
        Qm = Q - np.diag(cI)
        _check_leaveout_precision(Qm, np.linalg.eigvalsh(Q).max())
        bm = Q @ mu - bI
        try:
            cho = cho_factor(Qm)
        except np.linalg.LinAlgError as exc:
            raise DowndateError(f"leave-out precision not positive definite: {exc}")
        sigma_minus = cho_solve(cho, np.eye(len(I)))
        sigma_minus = 0.5 * (sigma_minus + sigma_minus.T)
        mu_minus = cho_solve(cho, bm)
        log_ratio = (_log_gauss_dense(mu, mu_minus, sigma_minus)
                     - _log_gauss_dense(mu, mu, sigma))
        return LeaveGroupMoments(I, mu_minus, sigma_minus, "full", float(log_ratio))

    keep = w > RANK_TOL * w_max
    lam = np.sqrt(w[keep])
    Vk = V[:, keep]
    B = Vk * lam                           # eta = mu_perp + B z, z ~ N(mu_z, I)
    mu_z = (Vk.T @ mu) / lam
    mu_perp = mu - Vk @ (Vk.T @ mu)

    Qz = np.eye(B.shape[1]) - B.T @ (cI[:, None] * B)
    _check_leaveout_precision(Qz, 1.0)
    bz = mu_z - B.T @ (bI - cI * mu_perp)
    try:
        cho = cho_factor(Qz)
    except np.linalg.LinAlgError as exc:
        raise DowndateError(f"leave-out precision not positive definite: {exc}")
    sigma_z = cho_solve(cho, np.eye(B.shape[1]))
    sigma_z = 0.5 * (sigma_z + sigma_z.T)
    mu_z_minus = cho_solve(cho, bz)

    mu_minus = mu_perp + B @ mu_z_minus
    sigma_minus = B @ sigma_z @ B.T
    log_ratio = (_log_gauss_dense(mu_z, mu_z_minus, sigma_z)
                 - _log_gauss_dense(mu_z, mu_z, np.eye(B.shape[1])))
    return LeaveGroupMoments(I, mu_minus, 0.5 * (sigma_minus + sigma_minus.T),
                             "eigen", float(log_ratio))


def theta_correction(lgm, em, ga, I=None):
    """log pi_LA(y_I | theta, y_-I): likelihood at the full-data predictor
    mode times the ratio of the leave-out to full Gaussian densities there."""
    I = lgm.indices if I is None else np.asarray(I, dtype=int)
    val = float(np.sum(ga.g[I])) + lgm.log_ratio
    if not np.isfinite(val):
        raise DowndateError("non-finite Laplace correction")
    return val


@functools.lru_cache(maxsize=None)
def _gauss_hermite(order):
    """Gauss-Hermite nodes and weights, computed once per order."""
    nodes, wts = hermgauss(order)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def _integrand_modes(fam, y, hyper, mean, var, tol=1e-10, max_iter=60):
    """Modes and curvature scales of pi(y_i|eta) N(eta; mean_i, var_i).

    Each integrand is strictly log-concave (log-concave likelihood plus a
    Gaussian), so a safeguarded 1-D Newton always converges.  The Newton
    runs on all entries at once; an entry stops moving once it has
    converged, and its line search stops once it accepts a step, so every
    entry follows the iterates of a Newton run on it alone.
    """
    eta = mean.copy()
    g, g1, g2 = fam.derivatives(y, eta, hyper)
    val = g - 0.5 * (eta - mean) ** 2 / var
    active = np.ones(eta.size, dtype=bool)
    for _ in range(max_iter):
        step = -(g1 - (eta - mean) / var) / (g2 - 1.0 / var)
        eta_new, val_new = eta.copy(), val.copy()
        alpha = np.ones(eta.size)
        search = active.copy()
        for _ in range(40):
            eta_new[search] = eta[search] + alpha[search] * step[search]
            t, t1, t2 = fam.derivatives(y, eta_new, hyper)
            vt = t - 0.5 * (eta_new - mean) ** 2 / var
            g[search], g1[search], g2[search] = t[search], t1[search], t2[search]
            val_new[search] = vt[search]
            search &= ~(np.isfinite(vt)
                        & (vt >= val - 1e-13 * np.maximum(1.0, np.abs(val))))
            if not search.any():
                break
            alpha[search] *= 0.5
        active &= ~(np.abs(eta_new - eta) <= tol * (1.0 + np.abs(eta)))
        eta, val = eta_new, val_new
        if not active.any():
            break
    return eta, np.sqrt(-1.0 / (g2 - 1.0 / var))


def gh_log_predictive(model, theta, idx, mean, var, order=DEFAULT_GH_ORDER):
    """log of the inner integral of pi(y_i|eta) against N(eta; mean, var).

    Adaptive Gauss-Hermite: nodes are centered at the mode of the integrand
    and scaled by its curvature there, which makes the rule exact when the
    likelihood is Gaussian however narrow it is relative to N(mean, var).
    Scalar ``idx``, ``mean`` and ``var`` give a float; arrays of equal
    length give one value per entry, from one batched Newton.
    """
    scalar = np.ndim(idx) == 0
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if np.any(var <= 0):
        raise DowndateError(DEGENERATE_VARIANCE)
    hyper = model.hyper_dict(getattr(theta, "values", theta))
    fam = model.subset_likelihood(idx)
    y = model.y[idx]
    eta_hat, scale = _integrand_modes(fam, y, hyper, mean, var)
    nodes, wts = _gauss_hermite(order)
    eta = eta_hat + np.sqrt(2.0) * scale * nodes[:, None]     # (order, n)
    logf = (np.array([fam.log_density(y, e, hyper) for e in eta])
            - 0.5 * (eta - mean) ** 2 / var + (nodes ** 2)[:, None])
    mx = logf.max(axis=0)
    log_sum = mx + np.log(wts @ np.exp(logf - mx))
    out = (log_sum + 0.5 * np.log(2.0 * scale ** 2)
           - 0.5 * np.log(2.0 * np.pi * var))
    return float(out[0]) if scalar else out


@dataclass
class LgocvResult:
    """Per-observation leave-group-out predictive scores and the utility."""

    indices: np.ndarray
    density: np.ndarray
    log_score: np.ndarray
    group_size: np.ndarray
    utility: float
    skipped: list
    n_theta: int

    @property
    def negated_utility(self):
        return -self.utility

    @property
    def skipped_frac(self):
        """Skipped share of the requested observations (nan if none)."""
        total = len(self.indices) + len(self.skipped)
        return len(self.skipped) / total if total else float("nan")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,group_size,density,log_score\n")
            for i, gs, d, ls in zip(self.indices, self.group_size,
                                    self.density, self.log_score):
                fh.write(f"{i + 1},{gs},{float(d)!r},{float(ls)!r}\n")

    def write_summary(self, path, extra=None):
        lines = {
            "u_lgocv": repr(self.utility),
            "negated_utility": repr(self.negated_utility),
            "n_evaluated": str(len(self.indices)),
            "n_skipped": str(len(self.skipped)),
            "skipped_frac": repr(self.skipped_frac),
            "n_theta": str(self.n_theta),
        }
        if extra:
            lines.update(extra)
        with open(path, "w") as fh:
            for k, v in lines.items():
                fh.write(f"{k} = {v}\n")


def predictive_density(model, gas, grid, i, groups, gh_order=DEFAULT_GH_ORDER):
    """pi(y_i | y_-I_i) mixing corrected theta weights over the grid."""
    res = compute_lgocv(model, grid, groups, gas=gas, test_indices=[i],
                        gh_order=gh_order)
    if res.skipped:
        raise DowndateError(res.skipped[0][1])
    return float(res.density[0])


def fit_grid_approximations(model, grid, tol=1e-8):
    """One converged GaussianApprox per theta grid point."""
    return [find_mode(model, hp, tol=tol) for hp in grid.points]


def _distinct_groups(groups, test):
    """The distinct groups of the test observations, in first-use order.

    Returns the member arrays, the group of each test observation and the
    observation's position within its group.
    """
    keys, members = {}, []
    group_of = np.empty(len(test), dtype=int)
    at = np.empty(len(test), dtype=int)
    for n, i in enumerate(test):
        I = np.asarray(groups[i], dtype=int)
        g = keys.setdefault(tuple(I.tolist()), len(members))
        if g == len(members):
            if np.unique(I).size != I.size:
                raise IndexError("index set contains duplicates")
            members.append(I)
        group_of[n] = g
        at[n] = int(np.flatnonzero(I == i)[0])
    return members, group_of, at


def _union_chunks(members, limit):
    """Runs of consecutive groups whose member union stays within ``limit``
    columns; a larger group forms a run of its own.

    Each run is (group ids, sorted member union, the positions of each
    group's members in the union).
    """
    runs, ids, union = [], [], set()
    for g, I in enumerate(members):
        if ids and len(union.union(I.tolist())) > limit:
            runs.append(ids)
            ids, union = [], set()
        ids.append(g)
        union.update(I.tolist())
    if ids:
        runs.append(ids)
    out = []
    for ids in runs:
        U = np.unique(np.concatenate([members[g] for g in ids]))
        out.append((ids, U, [np.searchsorted(U, members[g]) for g in ids]))
    return out


@dataclass
class _ThetaScores:
    """One theta point's share of the mixture over the grid."""

    log_corr: np.ndarray      # per distinct group; nan where it failed
    log_inner: np.ndarray     # per test observation; nan where skipped
    failures: dict            # test position -> reason
    rank_paths: Counter


def _score_theta(model, ga, test, members, group_of, at, chunks, gh_order):
    """Leave-group moments of every distinct group at one theta point, then
    one quadrature over the test observations whose group downdated."""
    offset = np.cumsum([0] + [I.size for I in members])
    loo_mu = np.zeros(offset[-1])
    loo_var = np.zeros(offset[-1])
    log_corr = np.full(len(members), np.nan)
    reasons, paths = {}, Counter()
    for ids, U, pos in chunks:
        em = eta_covariance(ga, U)
        for g, p in zip(ids, pos):
            sub = EtaMoments(members[g], em.mu[p], em.sigma[np.ix_(p, p)])
            try:
                lgm = downdate(sub, ga)
                log_corr[g] = theta_correction(lgm, sub, ga)
            except DowndateError as exc:
                reasons[g] = str(exc)
                continue
            paths[lgm.rank_path] += 1
            loo_mu[offset[g]:offset[g + 1]] = lgm.mu
            loo_var[offset[g]:offset[g + 1]] = np.diag(lgm.sigma)

    flat = offset[group_of] + at
    mean, var = loo_mu[flat], loo_var[flat]
    downdated = np.isfinite(log_corr[group_of])
    degenerate = downdated & (var <= 0)
    failures = {int(n): reasons[group_of[n]]
                for n in np.flatnonzero(~downdated)}
    failures.update((int(n), DEGENERATE_VARIANCE)
                    for n in np.flatnonzero(degenerate))
    score = downdated & ~degenerate
    log_inner = np.full(len(test), np.nan)
    if score.any():
        log_inner[score] = gh_log_predictive(model, ga.theta, test[score],
                                             mean[score], var[score], gh_order)
    return _ThetaScores(log_corr, log_inner, failures, paths)


def compute_lgocv(model, grid, groups, gas=None, test_indices=None,
                  gh_order=DEFAULT_GH_ORDER, threads=1):
    """Leave-group-out predictive density for every requested observation.

    Works one theta point at a time.  The test observations' groups are
    deduplicated; per chunk of distinct groups whose member union spans at
    most ``RHS_BATCH`` columns, one multi-RHS solve gives the moments of
    eta_U, and each group's moments are its sub-block.  The downdate and
    the theta correction then run once per distinct group, and one batched
    Gauss-Hermite call scores every test observation.  ``threads`` runs
    theta points in parallel.

    An observation whose group cannot be downdated, or whose leave-out
    variance is degenerate, at some theta point is skipped with the first
    such reason in grid order; skips are collected as diagnostics instead
    of aborting.  Results are in observation order and do not depend on
    ``threads``.
    """
    if gas is None:
        gas = fit_grid_approximations(model, grid)
    if test_indices is None:
        test_indices = groups.indices()
    test = np.sort(np.array([int(i) for i in test_indices], dtype=int))
    members, group_of, at = _distinct_groups(groups, test)
    chunks = _union_chunks(members, RHS_BATCH)

    def one(ga):
        return _score_theta(model, ga, test, members, group_of, at, chunks,
                            gh_order)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_theta = list(pool.map(one, gas))
    else:
        per_theta = [one(ga) for ga in gas]

    reasons = {}
    for scores in per_theta:          # grid order: the first failure wins
        for n, msg in scores.failures.items():
            reasons.setdefault(n, msg)
    skipped = [(int(test[n]), reasons[n]) for n in sorted(reasons)]
    for i, msg in skipped:
        log.warning("observation %d skipped: %s", i, msg)
    ok = np.ones(len(test), dtype=bool)
    ok[list(reasons)] = False

    log_corr = np.array([s.log_corr for s in per_theta])[:, group_of[ok]]
    log_inner = np.array([s.log_inner for s in per_theta])[:, ok]
    logw = np.log(grid.weights)[:, None] - log_corr
    logw -= logw.max(axis=0)
    w = np.exp(logw)
    w /= w.sum(axis=0)
    dens = np.einsum("kn,kn->n", w, np.exp(log_inner))

    paths = sum((s.rank_paths for s in per_theta), Counter())
    log.debug("lgocv: %d theta points, %d test observations, %d distinct "
              "groups, %d RHS columns, downdates full=%d eigen=%d, "
              "%d skipped", len(gas), len(test), len(members),
              len(gas) * sum(U.size for _, U, _ in chunks),
              paths["full"], paths["eigen"], len(skipped))

    log_score = np.log(dens)
    utility = float(np.mean(log_score)) if len(dens) else float("nan")
    sizes = np.array([members[g].size for g in group_of[ok]], dtype=int)
    return LgocvResult(test[ok], dens, log_score, sizes, utility, skipped,
                       len(gas))


def compute_loocv(model, grid, gas=None, test_indices=None,
                  gh_order=DEFAULT_GH_ORDER, threads=1):
    """LGOCV with singleton groups: plain leave-one-out."""
    from .groups import singleton_groups
    if test_indices is None:
        test_indices = range(model.n_obs)
    return compute_lgocv(model, grid, singleton_groups(test_indices), gas=gas,
                         test_indices=test_indices, gh_order=gh_order,
                         threads=threads)
